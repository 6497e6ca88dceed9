#include "src/policies/tpp.h"

namespace memtis {

// policy_word1 layout: [last fault time (48b) | fault count (16b)]
namespace {
constexpr uint64_t kCountMask = 0xffff;

uint64_t FaultCount(const PageInfo& page) { return page.policy_word1 & kCountMask; }
uint64_t FaultTime(const PageInfo& page) { return page.policy_word1 >> 16; }

void SetFault(PageInfo& page, uint64_t now_ns, uint64_t count) {
  page.policy_word1 = (now_ns << 16) | (count & kCountMask);
}
}  // namespace

void TppPolicy::OnAccess(PolicyContext& ctx, PageIndex index, PageInfo& page,
                         const Access& access) {
  (void)access;
  page.policy_word0 |= kReferencedBit;
  if (!arm_.ConsumeFault(page)) {
    return;
  }
  ctx.ChargeApp(ctx.costs.hint_fault_ns);
  if (page.tier() != TierId::kCapacity) {
    return;
  }
  uint64_t count = FaultCount(page);
  if (ctx.now_ns > FaultTime(page) + params_.fault_ttl_ns) {
    count = 0;  // LRU aging: stale fault history expires
  }
  ++count;
  SetFault(page, ctx.now_ns, count);
  if (count >= 2 && limiter_.Allow(ctx.now_ns, page.size_pages())) {
    // Static threshold of two: the page is in the active LRU; promote in the
    // fault handler.
    MigrateCritical(ctx, index, TierId::kFast);
  }
}

void TppPolicy::Tick(PolicyContext& ctx) {
  if (ctx.now_ns >= next_scan_ns_) {
    next_scan_ns_ = ctx.now_ns + params_.scan_period_ns;
    arm_.ArmBatch(ctx);
  }

  // Reclaim-driven demotion keeping allocation headroom: second-chance clock
  // over fast-tier pages.
  if (!FastBelowWatermark(ctx, params_.low_watermark)) {
    return;
  }
  const uint64_t target_free = static_cast<uint64_t>(
      static_cast<double>(FastTotalFrames(ctx)) * params_.high_watermark);
  if (FastFreeFrames(ctx) >= target_free) {
    return;
  }
  ctx.mem.ScanSlots(demote_cursor_, uint64_t{2} * ctx.mem.page_slots(), SlotSet::kFast,
                    nullptr, [&](PageIndex index, PageInfo& page) {
                      if ((page.policy_word0 & kReferencedBit) != 0) {
                        page.policy_word0 &= ~kReferencedBit;
                      } else {
                        MigrateBackground(ctx, index, TierId::kCapacity);
                      }
                      return FastFreeFrames(ctx) >= target_free;
                    });
}

ClassifiedSizes TppPolicy::Classify(PolicyContext& ctx) {
  // TPP's notion of hot = pages with >= 2 recent faults (active LRU).
  ClassifiedSizes sizes;
  ctx.mem.ForEachLivePage([&](PageIndex, PageInfo& page) {
    const bool fresh = ctx.now_ns <= FaultTime(page) + params_.fault_ttl_ns;
    if (fresh && FaultCount(page) >= 2) {
      sizes.hot_bytes += page.size_bytes();
    } else {
      sizes.cold_bytes += page.size_bytes();
    }
  });
  return sizes;
}

}  // namespace memtis
