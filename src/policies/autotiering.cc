#include "src/policies/autotiering.h"

namespace memtis {

void AutoTieringPolicy::TouchHistory(PageInfo& page) const {
  const uint64_t last_epoch = page.policy_word1 >> 32;
  uint32_t history = static_cast<uint32_t>(page.policy_word1);
  const uint64_t elapsed = scan_epoch_ - last_epoch;
  // Lazily shift the history vector by the scan periods that passed, then
  // record this period's access bit.
  if (elapsed >= static_cast<uint64_t>(params_.history_bits)) {
    history = 0;
  } else {
    history <<= elapsed;
    history &= (1u << params_.history_bits) - 1;
  }
  history |= 1u;
  page.policy_word1 = (scan_epoch_ << 32) | history;
}

int AutoTieringPolicy::HistoryScore(const PageInfo& page) const {
  const uint64_t last_epoch = page.policy_word1 >> 32;
  uint32_t history = static_cast<uint32_t>(page.policy_word1);
  const uint64_t elapsed = scan_epoch_ - last_epoch;
  if (elapsed >= static_cast<uint64_t>(params_.history_bits)) {
    return 0;
  }
  history <<= elapsed;
  history &= (1u << params_.history_bits) - 1;
  return std::popcount(history);
}

void AutoTieringPolicy::OnAccess(PolicyContext& ctx, PageIndex index, PageInfo& page,
                                 const Access& access) {
  (void)access;
  if (!arm_.ConsumeFault(page)) {
    return;
  }
  ctx.ChargeApp(ctx.costs.hint_fault_ns);
  TouchHistory(page);
  if (page.tier() == TierId::kCapacity &&
      limiter_.Allow(ctx.now_ns, page.size_pages())) {
    if (params_.use_exchange && FastFreeFrames(ctx) < page.size_pages()) {
      // No free fast frame: swap directly with an LFU fast-tier victim
      // (history score <= 1, the same bar the background demoter uses)
      // instead of failing the promotion.
      const PageIndex victim = FindExchangeVictim(
          ctx, index, page.kind(), &exchange_cursor_,
          [&](const PageInfo& cand) { return HistoryScore(cand) <= 1; });
      if (victim != kInvalidPage) {
        ExchangeCritical(ctx, index, victim);
      }
      return;
    }
    // Promote on fault (critical path), static threshold of one.
    MigrateCritical(ctx, index, TierId::kFast);
  }
}

void AutoTieringPolicy::Tick(PolicyContext& ctx) {
  if (ctx.now_ns >= next_scan_ns_) {
    next_scan_ns_ = ctx.now_ns + params_.scan_period_ns;
    ++scan_epoch_;
    arm_.ArmBatch(ctx);
  }

  // Background demotion: keep a reserve of free fast-tier frames by demoting
  // the LFU pages (lowest history score) found by a clock hand.
  if (!FastBelowWatermark(ctx, params_.low_watermark)) {
    return;
  }
  demotion_started_ = true;
  const uint64_t target_free = static_cast<uint64_t>(
      static_cast<double>(FastTotalFrames(ctx)) * params_.high_watermark);
  // Two sweeps: demote score-0 pages first, then score<=1 if still short.
  for (int max_score = 0; max_score <= 1 && FastFreeFrames(ctx) < target_free;
       ++max_score) {
    ctx.mem.ScanSlots(demote_cursor_, ctx.mem.page_slots(), SlotSet::kFast, nullptr,
                      [&](PageIndex index, PageInfo& page) {
                        if (HistoryScore(page) <= max_score) {
                          MigrateBackground(ctx, index, TierId::kCapacity);
                        }
                        return FastFreeFrames(ctx) >= target_free;
                      });
  }
}

}  // namespace memtis
