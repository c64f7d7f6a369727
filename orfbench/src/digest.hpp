// Order-sensitive digest of scored outcomes.
//
// The determinism contract makes orfd's ingest verdicts bit-identical to an
// in-process orf::Service fed the same days, so the benchmark folds every
// (score bit pattern, alarm) pair into one FNV-1a value on each side and
// compares the two; a single flipped score bit changes the digest.
#pragma once

#include <cstdint>
#include <string_view>

namespace orfbench {

/// 64-bit FNV-1a of `bytes` (response bodies compared by hash).
std::uint64_t fnv1a(std::string_view bytes);

class Digest {
 public:
  void add(double score, bool alarm);

  std::uint64_t value() const { return hash_; }
  std::uint64_t count() const { return count_; }

  bool operator==(const Digest& other) const {
    return hash_ == other.hash_ && count_ == other.count_;
  }

 private:
  std::uint64_t hash_ = fnv1a({});
  std::uint64_t count_ = 0;
};

}  // namespace orfbench
