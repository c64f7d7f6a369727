// Checkpoint format helpers for the online learners.
//
// OnlineTree/OnlineForest/FleetEngine expose member save()/restore()
// (declared on the classes, implemented in checkpoint.cpp) that serialise
// the *complete* learning state — structure, statistics, sample buffers,
// OOBE/age bookkeeping, drift monitors, scaler ranges, per-disk label
// queues and the exact RNG streams — so a restarted monitor continues
// bit-for-bit where the previous process stopped. Contrast core/freeze.hpp,
// which produces a scoring-only snapshot.
//
// The format is line-oriented text; every floating-point value is written
// as the hex of its bit pattern, so round trips are exact (including ±inf,
// which the online scaler uses for unobserved ranges).
//
// Every saver appends to a std::string through checkpoint::Writer (no
// ostream, no locale, no per-value stream state); restore stays on
// std::istream. The big savers format independent pieces — trees, runs of
// label queues — on a thread pool with util::append_ordered, which appends
// them in index order, so the bytes never depend on the pool.
#pragma once

#include <bit>
#include <charconv>
#include <concepts>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "util/rng.hpp"

namespace core::checkpoint {

/// A float or double field: the hex of its bit pattern (exact round trip).
struct Hex {
  std::uint64_t bits;
};
inline Hex hex(float value) { return {std::bit_cast<std::uint32_t>(value)}; }
inline Hex hex(double value) { return {std::bit_cast<std::uint64_t>(value)}; }

/// Upper bounds on the characters one field can take, for the savers'
/// reserve-ahead size bounds.
inline constexpr std::size_t kMaxFloatChars = 8;    ///< 32-bit hex
inline constexpr std::size_t kMaxDoubleChars = 16;  ///< 64-bit hex
inline constexpr std::size_t kMaxIntChars = 20;     ///< any 64-bit decimal
inline constexpr std::size_t kRngChars = 4 * (1 + kMaxDoubleChars);

/// Appends checkpoint text to a string: integers in decimal, Hex fields in
/// lowercase unpadded hex, RNG streams as " w0 w1 w2 w3" (hex words, with
/// the leading space), text verbatim. These are exactly the bytes an
/// ostream writes for the same values (std::hex for Hex and RNG words), so
/// the format is the one every earlier checkpoint used.
class Writer {
 public:
  explicit Writer(std::string& out) : out_(out) {}

  Writer& operator<<(std::string_view text) {
    out_.append(text);
    return *this;
  }
  Writer& operator<<(char c) {
    out_.push_back(c);
    return *this;
  }
  template <std::integral T>
    requires(!std::same_as<T, bool> && !std::same_as<T, char> &&
             !std::same_as<T, signed char> && !std::same_as<T, unsigned char>)
  Writer& operator<<(T value) {
    return append_number(value, 10);
  }
  Writer& operator<<(Hex value) { return append_number(value.bits, 16); }
  Writer& operator<<(const util::Rng& rng) {
    for (const std::uint64_t word : rng.state()) *this << ' ' << Hex{word};
    return *this;
  }

 private:
  template <std::integral T>
  Writer& append_number(T value, int base) {
    char buffer[kMaxIntChars + 4];
    const auto end =
        std::to_chars(buffer, buffer + sizeof buffer, value, base).ptr;
    out_.append(buffer, end);
    return *this;
  }

  std::string& out_;
};

// Exact binary round-trip decoders (hex bit patterns).
double get_double(std::istream& is);
float get_float(std::istream& is);

/// RNG stream state as four hex words, so a restored learner continues the
/// exact same random sequence.
util::Rng get_rng(std::istream& is);

/// Reads one whitespace-delimited token and throws std::runtime_error with
/// `what` when the stream is exhausted or the token mismatches `expected`
/// (pass nullptr to skip the comparison and return the token's value).
std::uint64_t get_u64(std::istream& is, const char* what);
void expect_tag(std::istream& is, const char* tag);

/// Test-only friend of every saver's class: tests/support keeps the
/// original std::ostream writers there as the byte-for-byte oracle for
/// Writer-based saves.
struct StreamOracle;

}  // namespace core::checkpoint
