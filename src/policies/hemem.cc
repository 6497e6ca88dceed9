#include "src/policies/hemem.h"

namespace memtis {

void HeMemPolicy::OnAccess(PolicyContext& ctx, PageIndex index, PageInfo& page,
                           const Access& access) {
  const SampleType type =
      access.is_write ? SampleType::kStore : SampleType::kLlcLoadMiss;
  if (!sampler_.OnEvent(type, ctx.now_ns)) {
    return;
  }
  ctx.ChargeDaemon(DaemonKind::kSampler, sampler_.AccountSample(ctx.now_ns));

  const uint64_t before = page.access_count();
  ++page.access_count();
  if (before + 1 == params_.hot_threshold) {
    hot_bytes_ += page.size_bytes();
    if (page.tier() == TierId::kCapacity && !page.in_promotion_list) {
      page.in_promotion_list = true;
      promote_list_.Push(page.ref(index));
    }
  }
  if (page.access_count() >= params_.cool_threshold) {
    Cool(ctx);
  }
}

void HeMemPolicy::Cool(PolicyContext& ctx) {
  // Static-threshold cooling: halve every page's count; recompute the hot set.
  uint64_t pages = 0;
  uint64_t hot = 0;
  ctx.mem.ForEachLivePage([&](PageIndex, PageInfo& page) {
    page.access_count() /= 2;
    if (page.access_count() >= params_.hot_threshold) {
      hot += page.size_bytes();
    }
    ++pages;
  });
  hot_bytes_ = hot;
  ctx.ChargeDaemon(DaemonKind::kSampler, pages * params_.cool_scan_cost_per_page_ns);
}

void HeMemPolicy::OnPageFreed(PolicyContext& ctx, PageIndex index, PageInfo& page) {
  (void)ctx;
  (void)index;
  if (page.access_count() >= params_.hot_threshold) {
    hot_bytes_ -= page.size_bytes();
  }
}

void HeMemPolicy::Tick(PolicyContext& ctx) {
  // The sampling thread spins regardless of work (paper: ~100% of one core).
  if (ctx.now_ns > last_spin_charge_ns_) {
    const double busy =
        static_cast<double>(ctx.now_ns - last_spin_charge_ns_) * params_.spin_core_share;
    ctx.ChargeDaemon(DaemonKind::kSampler, static_cast<uint64_t>(busy));
    last_spin_charge_ns_ = ctx.now_ns;
  }

  if (ctx.now_ns < next_migrate_ns_) {
    return;
  }
  next_migrate_ns_ = ctx.now_ns + params_.migrate_period_ns;

  // Anti-thrashing: halt all migration while the hot set exceeds the fast tier.
  const uint64_t fast_bytes = FastTotalFrames(ctx) * kPageSize;
  if (hot_bytes_ > fast_bytes) {
    return;
  }

  while (!promote_list_.empty()) {
    const PageRef ref = promote_list_.Pop();
    PageInfo* page = ctx.mem.Deref(ref);
    if (page == nullptr) {
      continue;
    }
    page->in_promotion_list = false;
    if (page->tier() != TierId::kCapacity ||
        page->access_count() < params_.hot_threshold) {
      continue;
    }
    // Make room by demoting cold fast pages (count below the hot threshold).
    const uint64_t need = page->size_pages();
    if (FastFreeFrames(ctx) < need) {
      ctx.mem.ScanSlots(demote_cursor_, ctx.mem.page_slots(), SlotSet::kFast, nullptr,
                        [&](PageIndex vindex, PageInfo& victim) {
                          if (victim.access_count() < params_.hot_threshold) {
                            MigrateBackground(ctx, vindex, TierId::kCapacity);
                          }
                          return FastFreeFrames(ctx) >= need;
                        });
    }
    if (FastFreeFrames(ctx) >= need) {
      MigrateBackground(ctx, ctx.mem.IndexOf(*page), TierId::kFast);
    } else if (params_.use_exchange) {
      // No free frame freed up: swap directly with a cold fast page of the
      // same kind rather than stalling the promotion round.
      const PageIndex hot_index = ctx.mem.IndexOf(*page);
      const PageIndex victim = FindExchangeVictim(
          ctx, hot_index, page->kind(), &exchange_cursor_,
          [&](const PageInfo& cand) {
            return cand.access_count() < params_.hot_threshold;
          });
      if (victim == kInvalidPage || !ExchangeBackground(ctx, hot_index, victim)) {
        break;  // nothing cold enough, or out of migration bandwidth
      }
    } else {
      // No room and nothing cold to evict: stop for this round.
      break;
    }
  }
}

AllocOptions HeMemPolicy::PlacementFor(PolicyContext& ctx, uint64_t bytes,
                                       bool use_thp) {
  (void)ctx;
  if (bytes <= params_.small_alloc_bytes) {
    over_allocated_bytes_ += bytes;
    return AllocOptions{.preferred = TierId::kFast,
                        .allow_other_tier = true,
                        .use_thp = use_thp};
  }
  return AllocOptions{.preferred = TierId::kFast,
                      .allow_other_tier = true,
                      .use_thp = use_thp};
}

ClassifiedSizes HeMemPolicy::Classify(PolicyContext& ctx) {
  ClassifiedSizes sizes;
  ctx.mem.ForEachLivePage([&](PageIndex, PageInfo& page) {
    if (page.access_count() >= params_.hot_threshold) {
      sizes.hot_bytes += page.size_bytes();
    } else {
      sizes.cold_bytes += page.size_bytes();
    }
  });
  return sizes;
}

}  // namespace memtis
