// Deterministic, splittable pseudo-random number generation.
//
// Everything in this library that needs randomness takes an explicit Rng (or a
// seed) so that every experiment is reproducible bit-for-bit given a seed.
// The generator is xoshiro256**, seeded via splitmix64 as its authors
// recommend; `split()` derives an independent stream, which lets each tree in
// a forest own a private generator that can be updated from worker threads
// without synchronisation.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>

namespace util {

/// One step of the splitmix64 generator; also used as a seed scrambler.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** 1.0 — fast, 256-bit state, passes BigCrush.
/// Satisfies the UniformRandomBitGenerator concept.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x8badf00dULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Derive an independent generator. The child stream is decorrelated from
  /// the parent by scrambling fresh parent output through splitmix64.
  Rng split() {
    std::uint64_t sm = (*this)();
    return Rng(splitmix64(sm));
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). n must be > 0. Uses Lemire's method.
  std::uint64_t below(std::uint64_t n) {
    // Rejection-free for our purposes; modulo bias is < 2^-64 * n which is
    // negligible for the n used in this library (feature counts, fleet sizes).
    const unsigned __int128 m =
        static_cast<unsigned __int128>((*this)()) * n;
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  bool bernoulli(double p) { return uniform() < p; }

  /// Standard normal via Box–Muller (no cached spare: keeps state minimal).
  double normal() {
    double u1 = uniform();
    while (u1 <= 0.0) u1 = uniform();
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * std::numbers::pi * u2);
  }

  double normal(double mean, double stddev) {
    return mean + stddev * normal();
  }

  /// Exponential with rate `lambda`.
  double exponential(double lambda) {
    double u = uniform();
    while (u <= 0.0) u = uniform();
    return -std::log(u) / lambda;
  }

  /// Log-normal: exp(N(mu, sigma)).
  double lognormal(double mu, double sigma) {
    return std::exp(normal(mu, sigma));
  }

  /// A Poisson rate with Knuth's limit exp(−λ) computed once, for callers
  /// that draw at the same rate many times. Draws the same stream as
  /// poisson(lambda).
  struct PoissonRate {
    explicit PoissonRate(double rate) : lambda(rate), limit(std::exp(-rate)) {}
    double lambda;
    double limit;
  };

  /// Poisson-distributed count. Knuth's multiplication method for small
  /// lambda (the common case here: online-bagging rates are <= ~3); a
  /// normal approximation with continuity correction above 30.
  unsigned poisson(double lambda) { return poisson(PoissonRate(lambda)); }

  unsigned poisson(const PoissonRate& rate) {
    if (rate.lambda <= 0.0) return 0;
    if (rate.lambda < 30.0) {
      unsigned k = 0;
      double prod = uniform();
      while (prod > rate.limit) {
        ++k;
        prod *= uniform();
      }
      return k;
    }
    const double v = normal(rate.lambda, std::sqrt(rate.lambda));
    return v < 0.0 ? 0u : static_cast<unsigned>(v + 0.5);
  }

  /// Raw 256-bit state access, for checkpoint/restore of long-running
  /// learners. A restored generator continues the exact same stream.
  std::array<std::uint64_t, 4> state() const { return state_; }
  void set_state(const std::array<std::uint64_t, 4>& state) {
    state_ = state;
  }

  /// Fisher–Yates shuffle of a random-access container.
  template <typename Container>
  void shuffle(Container& c) {
    const std::size_t n = c.size();
    for (std::size_t i = n; i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(c[i - 1], c[j]);
    }
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace util
