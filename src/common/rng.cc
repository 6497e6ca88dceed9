#include "src/common/rng.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace memtis {
namespace {

constexpr uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

constexpr double kTwoPowMinus53 = 0x1.0p-53;

// Guide-table entries that are not ranks.
constexpr int16_t kGuideExact = -1;   // outcome varies inside the bucket
constexpr int16_t kGuideReject = -2;  // every m in the bucket is rejected

// Relative widening of a bucket's end values before its outcome is trusted.
// HInverse's pow/exp are within a few ulp (~1e-16) of a monotone function, so
// an x computed inside the bucket cannot leave the widened interval. U is
// exactly monotone; its margin only guards against a compiler evaluating the
// multiply-add differently here and in the draw.
constexpr double kGuideMargin = 1e-9;

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : s_) {
    word = SplitMix64(sm);
  }
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::NextBelow(uint64_t bound) {
  SIM_DCHECK(bound > 0);
  return static_cast<uint64_t>((static_cast<__uint128_t>(Next()) * bound) >> 64);
}

double Rng::NextDouble() { return static_cast<double>(Next53()) * kTwoPowMinus53; }

uint64_t Rng::Next53() { return Next() >> 11; }

bool Rng::NextBool(double p_true) { return NextDouble() < p_true; }

// --- ZipfSampler -------------------------------------------------------------
//
// Rejection-inversion sampling (Hörmann & Derflinger 1996). H is the integral
// of the (shifted) density; we invert it on a uniform deviate and accept with
// probability proportional to the true mass at the resulting integer.

ZipfSampler::ZipfSampler(uint64_t n, double s) : n_(n), s_(s) {
  SIM_CHECK(n >= 1);
  SIM_CHECK(s > 0.0);
  h_x1_ = H(1.5) - 1.0;
  h_n_ = H(static_cast<double>(n) + 0.5);
  threshold_ = 2.0 - HInverse(H(2.5) - std::pow(2.0, -s_));
  if (n > 1 && n <= kMaxGuidedN) {
    guide_bits_ = n <= 64 ? 12 : 16;
    BuildGuide();
  }
}

double ZipfSampler::H(double x) const {
  if (std::fabs(s_ - 1.0) < 1e-12) {
    return std::log(x);
  }
  return (std::pow(x, 1.0 - s_) - 1.0) / (1.0 - s_);
}

double ZipfSampler::HInverse(double x) const {
  if (std::fabs(s_ - 1.0) < 1e-12) {
    return std::exp(x);
  }
  return std::pow(1.0 + x * (1.0 - s_), 1.0 / (1.0 - s_));
}

double ZipfSampler::U(uint64_t m) const {
  return h_n_ + static_cast<double>(m) * kTwoPowMinus53 * (h_x1_ - h_n_);
}

double ZipfSampler::RoundToRank(double x) const {
  const double k = std::floor(x + 0.5);
  if (k < 1.0) {
    return 1.0;
  }
  return k > static_cast<double>(n_) ? static_cast<double>(n_) : k;
}

std::optional<uint64_t> ZipfSampler::ExactTrial(uint64_t m) const {
  const double u = U(m);
  const double x = HInverse(u);
  const double k = RoundToRank(x);
  if (k - x <= threshold_ || u >= H(k + 0.5) - std::pow(k, -s_)) {
    return static_cast<uint64_t>(k) - 1;  // ranks are 0-based
  }
  return std::nullopt;
}

std::optional<uint64_t> ZipfSampler::Trial(uint64_t m) const {
  SIM_DCHECK(m >> 53 == 0);
  if (guide_bits_ != 0) {
    const int16_t entry = guide_[m >> (53 - guide_bits_)];
    if (entry >= 0) {
      return static_cast<uint64_t>(entry);
    }
    if (entry == kGuideReject) {
      return std::nullopt;
    }
  }
  return ExactTrial(m);
}

uint64_t ZipfSampler::Sample(Rng& rng) const {
  if (n_ == 1) {
    return 0;
  }
  while (true) {
    if (const auto rank = Trial(rng.Next53())) {
      return *rank;
    }
  }
}

// Bucket b holds m in [b·2^shift, (b+1)·2^shift). U is monotone in m, so the
// U values at those two edges bound every u a trial in the bucket computes,
// and HInverse of them, widened by kGuideMargin, bounds every x. The bucket
// is decided when that box has one rounded rank k and, for it, both
// acceptance tests are constant: k - x is monotone in x and the u test
// compares against one bound per k.
void ZipfSampler::BuildGuide() {
  const double u_margin = kGuideMargin * (std::fabs(h_n_) + std::fabs(h_x1_));
  double bound_k = 0.0;  // the u test's bound, H(k + 0.5) - k^-s, for bound_k
  double bound = 0.0;
  const auto decide = [&](double u_min, double u_max, double x_lo, double x_hi) {
    if (!std::isfinite(x_lo) || !std::isfinite(x_hi)) {
      return kGuideExact;
    }
    x_lo -= std::fabs(x_lo) * kGuideMargin;
    x_hi += std::fabs(x_hi) * kGuideMargin;
    const double k = RoundToRank(x_lo);
    if (RoundToRank(x_hi) != k) {
      return kGuideExact;
    }
    if (k != bound_k) {
      bound_k = k;
      bound = H(k + 0.5) - std::pow(k, -s_);
    }
    if (k - x_lo <= threshold_ || u_min - u_margin >= bound) {
      return static_cast<int16_t>(k - 1.0);
    }
    if (k - x_hi > threshold_ && u_max + u_margin < bound) {
      return kGuideReject;
    }
    return kGuideExact;
  };

  const int shift = 53 - guide_bits_;
  guide_.resize(uint64_t{1} << guide_bits_);
  double u_edge = U(0);
  double x_edge = HInverse(u_edge);
  for (uint64_t b = 0; b < guide_.size(); ++b) {
    const double u_next = U((b + 1) << shift);
    const double x_next = HInverse(u_next);
    guide_[b] = decide(u_next, u_edge, std::min(x_edge, x_next), std::max(x_edge, x_next));
    u_edge = u_next;
    x_edge = x_next;
  }
}

std::vector<uint32_t> RandomPermutation(uint32_t n, Rng& rng) {
  std::vector<uint32_t> perm(n);
  for (uint32_t i = 0; i < n; ++i) {
    perm[i] = i;
  }
  for (uint32_t i = n; i > 1; --i) {
    const uint32_t j = static_cast<uint32_t>(rng.NextBelow(i));
    std::swap(perm[i - 1], perm[j]);
  }
  return perm;
}

}  // namespace memtis
