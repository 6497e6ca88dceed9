// Deterministic random number generation for the simulator.
//
// Everything in the simulator must be reproducible from a seed, so we carry our
// own engines instead of relying on implementation-defined std::
// distributions. Rng is xoshiro256** seeded via SplitMix64; ZipfSampler uses
// the rejection-inversion method of Hörmann & Derflinger, which samples a
// Zipf(s) distribution over {1..n} in O(1) without precomputing tables.

#ifndef MEMTIS_SIM_SRC_COMMON_RNG_H_
#define MEMTIS_SIM_SRC_COMMON_RNG_H_

#include <cstdint>
#include <vector>

namespace memtis {

// SplitMix64: used for seeding and as a cheap stateless mixer.
constexpr uint64_t SplitMix64(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// xoshiro256** 1.0 by Blackman & Vigna. Fast, 256-bit state, passes BigCrush.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  uint64_t Next();

  // Uniform in [0, bound) using Lemire's multiply-shift reduction (unbiased
  // enough for simulation purposes; bound is always << 2^64 here).
  uint64_t NextBelow(uint64_t bound);

  // Uniform double in [0, 1).
  double NextDouble();

  // Bernoulli trial.
  bool NextBool(double p_true);

  // Uniform in [lo, hi].
  uint64_t NextInRange(uint64_t lo, uint64_t hi);

  // Stream-position checkpointing: the four state words are the entire
  // generator, so saving and restoring them resumes the exact sequence.
  template <typename Archive, typename Self>
  static void Serialize(Archive& ar, Self& self) {
    for (auto& word : self.s_) ar.U64(word);
  }

 private:
  uint64_t s_[4];
};

// Zipf sampler over ranks {0, .., n-1} with exponent s (s > 0, s != 1 handled
// as well as s == 1). Rank 0 is the most popular item.
class ZipfSampler {
 public:
  ZipfSampler(uint64_t n, double s);

  uint64_t n() const { return n_; }
  double s() const { return s_; }

  // Draws a rank in [0, n).
  uint64_t Sample(Rng& rng) const;

 private:
  double H(double x) const;
  double HInverse(double x) const;

  uint64_t n_;
  double s_;
  double h_x1_;
  double h_n_;
  double threshold_;  // s_ == 1 needs a different integral; folded into H().
};

// Pareto (type I) sampler returning values >= 1 with shape alpha.
class ParetoSampler {
 public:
  explicit ParetoSampler(double alpha) : alpha_(alpha) {}
  double Sample(Rng& rng) const;

 private:
  double alpha_;
};

// Fisher-Yates permutation of [0, n), used to scatter Zipf ranks over an
// address range so the hot set is not physically contiguous.
std::vector<uint32_t> RandomPermutation(uint32_t n, Rng& rng);

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_COMMON_RNG_H_
