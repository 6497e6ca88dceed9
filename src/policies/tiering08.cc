#include "src/policies/tiering08.h"

#include <algorithm>

namespace memtis {

void Tiering08Policy::OnAccess(PolicyContext& ctx, PageIndex index, PageInfo& page,
                               const Access& access) {
  (void)access;
  page.policy_word0 |= kReferencedBit;  // recency for the demotion clock
  if (!arm_.ConsumeFault(page)) {
    return;
  }
  ctx.ChargeApp(ctx.costs.hint_fault_ns);
  if (page.tier() != TierId::kCapacity) {
    return;
  }
  // Rate-controlled promotion: admit a fraction of faulting pages chosen so
  // the promotion rate tracks the target.
  if (admit_ratio_ < 1.0 && !ctx.rng.NextBool(admit_ratio_)) {
    return;
  }
  if (MigrateCritical(ctx, index, TierId::kFast)) {
    window_promoted_ += page.size_pages();
  }
}

void Tiering08Policy::Tick(PolicyContext& ctx) {
  if (ctx.now_ns >= next_scan_ns_) {
    next_scan_ns_ = ctx.now_ns + params_.scan_period_ns;
    arm_.ArmBatch(ctx);
  }

  // Promotion-rate controller.
  if (ctx.now_ns >= window_start_ns_ + params_.rate_window_ns) {
    window_start_ns_ = ctx.now_ns;
    const double load = static_cast<double>(window_promoted_) /
                        static_cast<double>(params_.target_promotions_per_window);
    window_promoted_ = 0;
    if (load > 1.2) {
      admit_ratio_ = std::max(0.05, admit_ratio_ * 0.7);
    } else if (load < 0.8) {
      admit_ratio_ = std::min(1.0, admit_ratio_ * 1.3);
    }
  }

  // kswapd-style demotion: second-chance clock over fast-tier pages.
  if (!FastBelowWatermark(ctx, params_.low_watermark)) {
    return;
  }
  const uint64_t target_free = static_cast<uint64_t>(
      static_cast<double>(FastTotalFrames(ctx)) * params_.high_watermark);
  if (FastFreeFrames(ctx) >= target_free) {
    return;
  }
  // Bound one pass to two laps so a fully-referenced tier still yields pages.
  ctx.mem.ScanSlots(demote_cursor_, uint64_t{2} * ctx.mem.page_slots(), SlotSet::kFast,
                    nullptr, [&](PageIndex index, PageInfo& page) {
                      if ((page.policy_word0 & kReferencedBit) != 0) {
                        page.policy_word0 &= ~kReferencedBit;  // second chance
                      } else {
                        MigrateBackground(ctx, index, TierId::kCapacity);
                      }
                      return FastFreeFrames(ctx) >= target_free;
                    });
}

}  // namespace memtis
