// Deterministic random number generation for the simulator.
//
// Everything in the simulator must be reproducible from a seed, so we carry our
// own engines instead of relying on implementation-defined std::
// distributions. Rng is xoshiro256** seeded via SplitMix64; ZipfSampler uses
// the rejection-inversion method of Hörmann & Derflinger, which samples a
// Zipf(s) distribution over {1..n} in O(1). For n <= 32767 it also precomputes
// an exact guide table that answers most draws without a pow; the drawn ranks
// and the uniforms consumed are the same as without it.

#ifndef MEMTIS_SIM_SRC_COMMON_RNG_H_
#define MEMTIS_SIM_SRC_COMMON_RNG_H_

#include <cstdint>
#include <optional>
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

  // Uniform double in [0, 1): Next53() * 2^-53.
  double NextDouble();

  // The uniform 53-bit integer behind NextDouble() (same stream position).
  uint64_t Next53();

  // Bernoulli trial.
  bool NextBool(double p_true);

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
//
// Each rejection-inversion trial is a function of one uniform m = Next53().
// For n <= kMaxGuidedN the constructor tabulates that function over the top
// guide_bits() bits of m: a bucket whose every m yields the same rank, or a
// rejection, stores it; any other bucket runs the trial's arithmetic on m.
// DESIGN.md ("Exact Zipf guide table") states why this is exact.
class ZipfSampler {
 public:
  // Largest n that gets a guide table (ranks must fit its int16 entries).
  static constexpr uint64_t kMaxGuidedN = 32767;

  ZipfSampler(uint64_t n, double s);

  uint64_t n() const { return n_; }
  double s() const { return s_; }
  // log2 of the guide table's entry count: 12 for n <= 64, 16 up to
  // kMaxGuidedN, 0 (no table) above.
  int guide_bits() const { return guide_bits_; }

  // Draws a rank in [0, n).
  uint64_t Sample(Rng& rng) const;

  // One trial on the 53-bit uniform m: the 0-based rank, or nullopt when the
  // trial rejects and Sample draws again. Trial answers from the guide table
  // where it can; ExactTrial always runs the arithmetic. They agree on every m.
  std::optional<uint64_t> Trial(uint64_t m) const;
  std::optional<uint64_t> ExactTrial(uint64_t m) const;

 private:
  double H(double x) const;
  double HInverse(double x) const;
  double U(uint64_t m) const;  // non-increasing in m
  double RoundToRank(double x) const;  // floor(x + 0.5) clamped to [1, n]
  void BuildGuide();

  uint64_t n_;
  double s_;
  double h_x1_;
  double h_n_;
  double threshold_;  // s_ == 1 needs a different integral; folded into H().
  int guide_bits_ = 0;
  // Per bucket: a 0-based rank, or a negative marker (rng.cc) for "every m
  // rejects" or "run the arithmetic".
  std::vector<int16_t> guide_;
};

// Fisher-Yates permutation of [0, n), used to scatter Zipf ranks over an
// address range so the hot set is not physically contiguous.
std::vector<uint32_t> RandomPermutation(uint32_t n, Rng& rng);

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_COMMON_RNG_H_
