// Deterministic RNG facade. All stochastic models (growth, variability,
// instrument noise) take an Rng& so experiments are reproducible by seed.
//
// Parallel use: `fork(stream_id)` derives an independent child stream from
// the *root seed* and the stream id alone (splitmix64 counter mixing), so
// per-sample / per-die streams are identical no matter which thread draws
// them, how work is chunked, or how much the parent has already been
// consumed. See docs/PARALLELISM.md.
#pragma once

#include <array>
#include <cstdint>
#include <random>

#include "common/error.hpp"

namespace cnti::numerics {

namespace detail {

/// One splitmix64 step (Steele/Lea/Flood): advances `state` and returns a
/// well-mixed 64-bit value. Used as a seed deriver, not as the engine.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace detail

/// xoshiro256** 1.0 (Blackman & Vigna, public domain): a fast
/// UniformRandomBitGenerator whose 4-word state seeds in O(1) via
/// splitmix64. Construction is ~100x cheaper than re-seeding a
/// mt19937_64 (312-word init), which is what makes one engine per MC
/// sample — the counter-based fork scheme — affordable on the hot paths.
class Xoshiro256ss {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256ss(std::uint64_t seed = 0) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = detail::splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

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

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Thin wrapper over a seeded engine with the distributions the library
/// needs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed5eedULL)
      : seed_(seed), engine_(seed) {}

  /// The root seed this stream was constructed from (not the current
  /// engine state — draws do not change it).
  std::uint64_t seed() const { return seed_; }

  /// Derives the `stream_id`-th child stream. Counter-based: the child
  /// seed is splitmix64(seed, stream_id), so fork(i) is a pure function
  /// of (root seed, i) — independent of draw position, thread, and chunk
  /// shape. Distinct ids give statistically independent streams.
  Rng fork(std::uint64_t stream_id) const {
    std::uint64_t state = seed_;
    // Fold the stream id in through two mixing rounds so that nearby ids
    // (0, 1, 2, ...) land in unrelated engine states.
    state ^= detail::splitmix64(stream_id);
    const std::uint64_t lo = detail::splitmix64(state);
    const std::uint64_t hi = detail::splitmix64(state);
    return Rng(lo ^ (hi << 1));
  }

  double uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// mean + sigma * z for a standard normal draw z. sigma = 0 returns the
  /// mean (std::normal_distribution itself requires sigma > 0) and
  /// consumes the same draws as any other sigma, so a noise-free run keeps
  /// every later draw of its stream.
  double normal(double mean = 0.0, double sigma = 1.0) {
    CNTI_EXPECTS(sigma >= 0, "normal sigma must be >= 0");
    return mean + sigma * std::normal_distribution<double>()(engine_);
  }

  /// Lognormal parameterized by the *linear-space* median and the sigma of
  /// the underlying normal (geometric sigma).
  double lognormal_median(double median, double sigma_log) {
    CNTI_EXPECTS(median > 0, "lognormal median must be positive");
    return std::lognormal_distribution<double>(std::log(median),
                                               sigma_log)(engine_);
  }

  /// Truncated normal via rejection (bounds guard unphysical samples).
  /// Throws NumericalError when the acceptance region is so improbable
  /// that 1000 rejections are exhausted — silently clamping to the mean
  /// would bias every downstream statistic.
  double normal_truncated(double mean, double sigma, double lo, double hi) {
    CNTI_EXPECTS(hi > lo, "invalid truncation bounds");
    for (int i = 0; i < 1000; ++i) {
      const double v = normal(mean, sigma);
      if (v >= lo && v <= hi) return v;
    }
    throw NumericalError(
        "normal_truncated: rejection sampling exhausted 1000 draws; the "
        "[lo, hi] window captures negligible probability mass for the "
        "given mean/sigma");
  }

  bool bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  int uniform_int(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(engine_);
  }

  double exponential(double rate) {
    CNTI_EXPECTS(rate > 0, "rate must be positive");
    return std::exponential_distribution<double>(rate)(engine_);
  }

  Xoshiro256ss& engine() { return engine_; }

 private:
  std::uint64_t seed_;
  Xoshiro256ss engine_;
};

}  // namespace cnti::numerics
