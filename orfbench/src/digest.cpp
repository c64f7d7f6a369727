#include "digest.hpp"

#include <cstring>

namespace orfbench {

namespace {

constexpr std::uint64_t kOffsetBasis = 14695981039346656037ull;
constexpr std::uint64_t kPrime = 1099511628211ull;

std::uint64_t fold(std::uint64_t hash, std::string_view bytes) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= kPrime;
  }
  return hash;
}

}  // namespace

std::uint64_t fnv1a(std::string_view bytes) { return fold(kOffsetBasis, bytes); }

void Digest::add(double score, bool alarm) {
  char record[9];
  std::memcpy(record, &score, sizeof score);
  record[8] = alarm ? 1 : 0;
  hash_ = fold(hash_, std::string_view(record, sizeof record));
  ++count_;
}

}  // namespace orfbench
