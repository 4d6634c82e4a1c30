// Random number generation for population-protocol simulation.
//
// The paper's model (Section 2) assumes each agent has access to independent
// uniformly random bits, "pre-written on a special read-only tape".  `Rng` is
// the concrete realization of that tape: a fast, high-quality, deterministic
// generator (xoshiro256**) seeded via SplitMix64 so that any 64-bit seed gives
// a well-mixed state.
//
// Everything a protocol needs is provided as small inline methods:
//   * next()            — 64 uniform bits
//   * coin()            — one fair coin flip
//   * below(n)          — unbiased uniform draw in [0, n) (Lemire's method)
//   * geometric_fair()  — a 1/2-geometric random variable: the number of fair
//                         coin flips up to and including the first heads
//                         (support {1, 2, ...}), sampled via trailing-zero
//                         counting so it costs ~1 RNG call
//   * geometric(p)      — general p-geometric RV (support {1, 2, ...})
//   * uniform_double()  — uniform in [0, 1)
#pragma once

#include <bit>
#include <concepts>
#include <cstdint>
#include <utility>

#include "sim/int128.hpp"
#include "sim/require.hpp"

namespace pops {

/// SplitMix64: used to expand a single 64-bit seed into a full generator
/// state.  Also a decent standalone generator for seeding trial streams.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// SplitMix64's finalizer as a standalone mixing function: a bijective
/// avalanche permutation of 64 bits (every input bit flips ~half the output
/// bits).  The substream derivation below composes it to fold multiple key
/// words into one well-mixed seed.
inline std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Counter-based RNG substream derivation: a pure function of
/// (master seed, epoch, stream) — no shared generator state.  The batched
/// simulator keys each epoch stage's stream this way (SubstreamSeeder
/// below), so an epoch's draws depend only on the seed and the epoch index,
/// the same idea `trial_seed` applies at trial granularity.
///
/// Each key word passes through a full mix64 avalanche round before the next
/// is folded in (Weyl increments keep distinct (epoch, stream) pairs distinct
/// even across word boundaries), so related keys — consecutive epochs,
/// adjacent streams — yield statistically unrelated xoshiro seed expansions.
inline std::uint64_t substream_seed(std::uint64_t master, std::uint64_t epoch,
                                    std::uint64_t stream) {
  std::uint64_t z = mix64(master + 0x9e3779b97f4a7c15ULL);
  z = mix64(z ^ (epoch + 0xbf58476d1ce4e5b9ULL));
  return mix64(z ^ (stream + 0x94d049bb133111ebULL));
}

/// xoshiro256**: the simulation workhorse.  Period 2^256 - 1, passes BigCrush.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) { reseed(seed); }

  /// Re-initialize from a 64-bit seed (expanded through SplitMix64).
  void reseed(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& word : state_) word = sm.next();
    // An all-zero state is the one invalid state; SplitMix64 cannot emit four
    // consecutive zeros from any seed, so no further check is needed.
  }

  std::uint64_t next() {
    const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = std::rotl(state_[3], 45);
    return result;
  }

  // UniformRandomBitGenerator interface (usable with <random> distributions).
  static constexpr std::uint64_t min() { return 0; }
  static constexpr std::uint64_t max() { return ~std::uint64_t{0}; }
  std::uint64_t operator()() { return next(); }

  /// Unbiased uniform draw in [0, n).  Lemire's multiply-shift with rejection.
  std::uint64_t below(std::uint64_t n) { return below_with_word(n).first; }

  /// `below(n)` plus the accepted 64-bit word x it was scaled from.  The
  /// draw is floor(x·n / 2⁶⁴), monotone in x, so the top bits of x locate
  /// the draw in a power-of-two partition of [0, n) without a division.
  std::pair<std::uint64_t, std::uint64_t> below_with_word(std::uint64_t n) {
    POPS_REQUIRE(n > 0, "below(n) needs n >= 1");
    std::uint64_t x = next();
    u128 m = static_cast<u128>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (lo < threshold) {
        x = next();
        m = static_cast<u128>(x) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return {static_cast<std::uint64_t>(m >> 64), x};
  }

  /// One fair coin flip; true with probability exactly 1/2.
  bool coin() { return (next() >> 63) != 0; }

  /// A 1/2-geometric random variable: number of fair flips until and including
  /// the first heads.  Support {1, 2, ...}, mean 2 (paper, Section D.2).
  ///
  /// Implementation: the position of the first set bit in a uniform bit stream
  /// is geometric; count trailing zeros of 64-bit words.
  std::uint32_t geometric_fair() {
    std::uint32_t flips = 1;
    for (;;) {
      const std::uint64_t word = next();
      if (word != 0) {
        return flips + static_cast<std::uint32_t>(std::countr_zero(word));
      }
      flips += 64;  // astronomically rare
    }
  }

  /// Uniform double in [0, 1), 53 random bits of mantissa.
  double uniform_double() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// General p-geometric random variable, support {1, 2, ...}, mean 1/p.
  std::uint64_t geometric(double p) {
    POPS_REQUIRE(p > 0.0 && p <= 1.0, "geometric(p) needs p in (0, 1]");
    if (p == 1.0) return 1;
    if (p == 0.5) return geometric_fair();
    std::uint64_t count = 1;
    while (uniform_double() >= p) ++count;
    return count;
  }

  /// Bernoulli(p).
  bool bernoulli(double p) { return uniform_double() < p; }

  /// An ordered pair of distinct indices in [0, n): (receiver, sender), each
  /// ordered pair equally likely — the paper's uniform random scheduler.
  std::pair<std::uint64_t, std::uint64_t> ordered_pair(std::uint64_t n) {
    POPS_REQUIRE(n >= 2, "ordered_pair(n) needs n >= 2");
    const std::uint64_t first = below(n);
    std::uint64_t second = below(n - 1);
    if (second >= first) ++second;
    return {first, second};
  }

 private:
  std::uint64_t state_[4]{};
};

/// Hands out the independent substreams of one epoch: stream(i) is the
/// counter-based stream keyed (master, epoch, i).
class SubstreamSeeder {
 public:
  SubstreamSeeder(std::uint64_t master, std::uint64_t epoch)
      : master_(master), epoch_(epoch) {}

  Rng stream(std::uint64_t index) const {
    return Rng(substream_seed(master_, epoch_, index));
  }

 private:
  std::uint64_t master_;
  std::uint64_t epoch_;
};

/// The random-draw interface a protocol's transition algorithm may consume.
/// Satisfied by `Rng` itself, by `CapGeometric` (compile/bounded.hpp), which
/// truncates geometric draws for the bounded-field regime, and by `ChoiceRng`
/// (compile/choice.hpp), which enumerates every branch instead of sampling.
/// Protocols written against this concept (rather than against `Rng`
/// concretely) can therefore be simulated *and* compiled to a `FiniteSpec`
/// from the same transition code.
template <typename R>
concept RandomSource = requires(R& r, double p, std::uint64_t n) {
  { r.coin() } -> std::convertible_to<bool>;
  { r.geometric_fair() } -> std::convertible_to<std::uint32_t>;
  { r.below(n) } -> std::convertible_to<std::uint64_t>;
  { r.bernoulli(p) } -> std::convertible_to<bool>;
};
static_assert(RandomSource<Rng>);

}  // namespace pops
