// Fault-injection plane tests: spec parsing, injector determinism, and one
// test per injection site asserting the graceful-degradation contract —
// state stays audit-clean, rollbacks are complete, and replays from the same
// seed are byte-identical.

#include "src/fault/fault.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/audit/audit.h"
#include "src/audit/audit_session.h"
#include "src/memtis/policy_registry.h"
#include "src/runner/sweep.h"
#include "src/sim/engine.h"
#include "src/sim/migration_budget.h"
#include "src/workloads/registry.h"
#include "tests/test_util.h"

namespace memtis {
namespace {

// Component-level audit sweep over a bare memory system + TLB.
AuditReport AuditMem(MemorySystem& mem, const Tlb& tlb) {
  AuditReport report;
  AuditCollector out(&report);
  CheckFrameConservation(mem, out);
  CheckPageTableMapping(mem, out);
  CheckHugePageAccounting(mem, out);
  CheckIncrementalCounters(mem, out);
  CheckTlbCoherence(tlb, mem, out);
  return report;
}

void ExpectPlansEqual(const FaultPlan& a, const FaultPlan& b) {
  for (int i = 0; i < kNumFaultSites; ++i) {
    SCOPED_TRACE(FaultSiteName(static_cast<FaultSite>(i)));
    EXPECT_EQ(a.sites[i].probability, b.sites[i].probability);
    EXPECT_EQ(a.sites[i].window_start_ns, b.sites[i].window_start_ns);
    EXPECT_EQ(a.sites[i].window_end_ns, b.sites[i].window_end_ns);
    EXPECT_EQ(a.sites[i].max_injections, b.sites[i].max_injections);
  }
  EXPECT_EQ(a.seed, b.seed);
  if (a.site(FaultSite::kTierShrink).active()) {
    EXPECT_EQ(a.tier_shrink_step, b.tier_shrink_step);
    EXPECT_EQ(a.tier_shrink_cap, b.tier_shrink_cap);
  }
}

TEST(FaultPlan, ParsesPresets) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(FaultPlan::Parse("none", &plan, &error)) << error;
  EXPECT_FALSE(plan.enabled());
  EXPECT_EQ(plan.ToSpec(), "none");

  ASSERT_TRUE(FaultPlan::Parse("storm", &plan, &error)) << error;
  EXPECT_TRUE(plan.enabled());
  for (int i = 0; i < kNumFaultSites; ++i) {
    EXPECT_TRUE(plan.sites[i].active()) << FaultSiteName(static_cast<FaultSite>(i));
  }
}

TEST(FaultPlan, ParsesSiteEntries) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(FaultPlan::Parse(
      "alloc-fail=0.25,migrate-abort=0.5@1000-90000/7,seed=13", &plan, &error))
      << error;
  EXPECT_DOUBLE_EQ(plan.site(FaultSite::kAllocFail).probability, 0.25);
  const FaultSiteSpec& abort_site = plan.site(FaultSite::kMigrateAbort);
  EXPECT_DOUBLE_EQ(abort_site.probability, 0.5);
  EXPECT_EQ(abort_site.window_start_ns, 1000u);
  EXPECT_EQ(abort_site.window_end_ns, 90000u);
  EXPECT_EQ(abort_site.max_injections, 7u);
  EXPECT_EQ(plan.seed, 13u);
  EXPECT_FALSE(plan.site(FaultSite::kSampleDrop).active());
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  const char* kBad[] = {
      "bogus=0.5",           // unknown site
      "alloc-fail=1.5",      // probability out of range
      "alloc-fail=x",        // not a number
      "alloc-fail=0.5@10",   // window missing end
      "alloc-fail",          // missing value
      "seed=abc",            // non-numeric seed
      "shrink-step=2.0",     // fraction out of range
  };
  for (const char* spec : kBad) {
    FaultPlan plan;
    std::string error;
    EXPECT_FALSE(FaultPlan::Parse(spec, &plan, &error)) << spec;
    EXPECT_FALSE(error.empty()) << spec;
  }
}

TEST(FaultPlan, SpecRoundTrips) {
  FaultPlan plan;
  plan.site(FaultSite::kAllocFail).probability = 0.125;
  plan.site(FaultSite::kMigrateAbort) = {0.5, 1000, 90000, 7};
  plan.site(FaultSite::kTierShrink).probability = 0.02;
  plan.seed = 99;
  plan.tier_shrink_step = 0.05;
  plan.tier_shrink_cap = 0.5;

  FaultPlan reparsed;
  std::string error;
  ASSERT_TRUE(FaultPlan::Parse(plan.ToSpec(), &reparsed, &error))
      << plan.ToSpec() << ": " << error;
  ExpectPlansEqual(plan, reparsed);

  // The storm preset round-trips too (reproducer lines depend on this).
  const FaultPlan storm = FaultPlan::Storm();
  ASSERT_TRUE(FaultPlan::Parse(storm.ToSpec(), &reparsed, &error)) << error;
  ExpectPlansEqual(storm, reparsed);
}

TEST(FaultInjector, SameSeedSameSequence) {
  const FaultPlan plan = FaultPlan::Storm();
  FaultInjector a(plan, 42);
  FaultInjector b(plan, 42);
  FaultInjector other(plan, 43);
  int diverged = 0;
  for (int i = 0; i < 2000; ++i) {
    const FaultSite site = static_cast<FaultSite>(i % kNumFaultSites);
    const uint64_t now = static_cast<uint64_t>(i) * 100;
    const bool fired = a.ShouldInject(site, now);
    ASSERT_EQ(fired, b.ShouldInject(site, now)) << "call " << i;
    diverged += fired != other.ShouldInject(site, now) ? 1 : 0;
  }
  for (int i = 0; i < kNumFaultSites; ++i) {
    EXPECT_EQ(a.stats().injected[i], b.stats().injected[i]);
    EXPECT_EQ(a.stats().rolls[i], b.stats().rolls[i]);
  }
  // A different run seed draws an independent sequence.
  EXPECT_GT(diverged, 0);
}

TEST(FaultInjector, WindowAndCapGateWithoutRolling) {
  FaultPlan plan;
  plan.site(FaultSite::kAllocFail) = {1.0, 100, 200, 2};
  FaultInjector faults(plan, 1);
  // Out of window: no injection, no roll counted.
  EXPECT_FALSE(faults.ShouldInject(FaultSite::kAllocFail, 50));
  EXPECT_FALSE(faults.ShouldInject(FaultSite::kAllocFail, 200));
  EXPECT_EQ(faults.stats().rolls[0], 0u);
  // In window, p = 1.0: fires deterministically until the cap.
  EXPECT_TRUE(faults.ShouldInject(FaultSite::kAllocFail, 100));
  EXPECT_TRUE(faults.ShouldInject(FaultSite::kAllocFail, 150));
  EXPECT_FALSE(faults.ShouldInject(FaultSite::kAllocFail, 150));
  EXPECT_EQ(faults.stats().by(FaultSite::kAllocFail), 2u);
  EXPECT_EQ(faults.stats().rolls[0], 2u);
}

TEST(FaultInjector, CertainSitesDoNotPerturbOtherStreams) {
  // p >= 1.0 sites skip the RNG draw, so enabling one must not shift the
  // random sequence another site sees.
  FaultPlan lone;
  lone.site(FaultSite::kMigrateAbort).probability = 0.5;
  FaultPlan mixed = lone;
  mixed.site(FaultSite::kAllocFail).probability = 1.0;
  FaultInjector a(lone, 7);
  FaultInjector b(mixed, 7);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t now = static_cast<uint64_t>(i) * 10;
    EXPECT_TRUE(b.ShouldInject(FaultSite::kAllocFail, now));
    ASSERT_EQ(a.ShouldInject(FaultSite::kMigrateAbort, now),
              b.ShouldInject(FaultSite::kMigrateAbort, now))
        << "call " << i;
  }
}

TEST(FaultSite, AllocFailBlocksPreferredTierOnly) {
  MemorySystem mem(MemoryConfig{.fast_frames = 2048, .capacity_frames = 4096});
  Tlb tlb;
  mem.AttachTlb(&tlb);
  FaultPlan plan;
  plan.site(FaultSite::kAllocFail).probability = 1.0;
  FaultInjector faults(plan, 5);
  mem.AttachFaults(&faults);

  AllocOptions opts;
  opts.preferred = TierId::kFast;
  const Vaddr base = mem.AllocateRegion(2 * kHugePageSize, opts);
  // Every preferred-tier attempt was injected; the fallback never is, so the
  // region degrades into the capacity tier instead of aborting.
  EXPECT_EQ(mem.tier(TierId::kFast).used_frames(), 0u);
  EXPECT_EQ(mem.tier(TierId::kCapacity).used_frames(), 2 * kSubpagesPerHuge);
  EXPECT_GT(faults.stats().by(FaultSite::kAllocFail), 0u);
  const AuditReport report = AuditMem(mem, tlb);
  EXPECT_TRUE(report.ok()) << report.ToJson(2);

  // Disabled again: allocations land in the preferred tier as usual.
  mem.AttachFaults(nullptr);
  mem.AllocateRegion(kHugePageSize, opts);
  EXPECT_EQ(mem.tier(TierId::kFast).used_frames(), kSubpagesPerHuge);
  (void)base;
}

TEST(FaultSite, AllocFailWithOtherTierFullTakesPreferredTier) {
  // Region set-up and demand faults must place their base page somewhere.
  // When kAllocFail blocks the preferred tier and the other tier is full,
  // they take the preferred tier uninjected instead of aborting.
  MemorySystem mem(MemoryConfig{.fast_frames = 1024, .capacity_frames = 1536});
  Tlb tlb;
  mem.AttachTlb(&tlb);
  AllocOptions fast;
  fast.preferred = TierId::kFast;
  mem.AllocateRegion(2 * kHugePageSize, fast);
  ASSERT_EQ(mem.tier(TierId::kFast).free_frames(), 0u);
  AllocOptions capacity;
  capacity.preferred = TierId::kCapacity;
  // A never-written huge page whose split leaves 512 demand-zero vpns.
  const Vaddr holey = mem.AllocateRegion(kHugePageSize, capacity);
  mem.SplitHugePage(mem.Lookup(VpnOf(holey)), [](uint32_t) { return TierId::kCapacity; });
  ASSERT_EQ(mem.Lookup(VpnOf(holey)), kInvalidPage);

  FaultPlan plan;
  plan.site(FaultSite::kAllocFail).probability = 1.0;
  FaultInjector faults(plan, 5);
  mem.AttachFaults(&faults);
  AllocOptions base_pages = capacity;
  base_pages.use_thp = false;
  mem.AllocateRegion(2 * kHugePageSize, base_pages);
  EXPECT_EQ(mem.tier(TierId::kCapacity).used_frames(), 2 * kSubpagesPerHuge);
  const PageIndex faulted = mem.DemandFault(VpnOf(holey), capacity);
  EXPECT_EQ(mem.page(faulted).tier(), TierId::kCapacity);
  EXPECT_EQ(mem.tier(TierId::kCapacity).used_frames(), 2 * kSubpagesPerHuge + 1);
  EXPECT_GT(faults.stats().by(FaultSite::kAllocFail), 2 * kSubpagesPerHuge);
  const AuditReport report = AuditMem(mem, tlb);
  EXPECT_TRUE(report.ok()) << report.ToJson(2);
}

TEST(FaultSite, MigrateAbortRollsBackCompletely) {
  MemorySystem mem(MemoryConfig{.fast_frames = 4096, .capacity_frames = 4096});
  Tlb tlb;
  mem.AttachTlb(&tlb);
  AllocOptions opts;
  opts.preferred = TierId::kFast;
  const Vaddr base = mem.AllocateRegion(kHugePageSize, opts);
  const PageIndex index = mem.Lookup(VpnOf(base));
  ASSERT_NE(index, kInvalidPage);
  const TierId tier_before = mem.page(index).tier();
  const FrameId frame_before = mem.page(index).frame();
  const uint64_t fast_free = mem.tier(TierId::kFast).free_frames();
  const uint64_t cap_free = mem.tier(TierId::kCapacity).free_frames();
  const uint64_t shootdowns = tlb.stats().shootdowns;

  FaultPlan plan;
  plan.site(FaultSite::kMigrateAbort).probability = 1.0;
  FaultInjector faults(plan, 3);
  mem.AttachFaults(&faults);

  // The abort happens after the destination frame was reserved: the rollback
  // contract says the frame is returned and the page is untouched.
  EXPECT_FALSE(mem.Migrate(index, TierId::kCapacity));
  EXPECT_EQ(mem.migration_stats().aborted_migrations, 1u);
  EXPECT_EQ(mem.migration_stats().failed_migrations, 0u);
  EXPECT_EQ(faults.stats().by(FaultSite::kMigrateAbort), 1u);
  const PageInfo& page = mem.page(index);
  EXPECT_TRUE(page.live);
  EXPECT_EQ(page.tier(), tier_before);
  EXPECT_EQ(page.frame(), frame_before);
  EXPECT_EQ(mem.tier(TierId::kFast).free_frames(), fast_free);
  EXPECT_EQ(mem.tier(TierId::kCapacity).free_frames(), cap_free);
  // No partial copy means no TLB shootdown either.
  EXPECT_EQ(tlb.stats().shootdowns, shootdowns);
  AuditReport report = AuditMem(mem, tlb);
  EXPECT_TRUE(report.ok()) << report.ToJson(2);

  // The same migration succeeds once the injector is gone.
  mem.AttachFaults(nullptr);
  EXPECT_TRUE(mem.Migrate(index, TierId::kCapacity));
  EXPECT_EQ(mem.page(index).tier(), TierId::kCapacity);
  report = AuditMem(mem, tlb);
  EXPECT_TRUE(report.ok()) << report.ToJson(2);
}

TEST(FaultSite, ExchangeAbortRollsBackBothSides) {
  MemorySystem mem(MemoryConfig{.fast_frames = 512, .capacity_frames = 2048});
  Tlb tlb;
  mem.AttachTlb(&tlb);
  AllocOptions opts;
  opts.use_thp = false;
  opts.preferred = TierId::kFast;
  const Vaddr fast_base = mem.AllocateRegion(kHugePageSize, opts);
  opts.preferred = TierId::kCapacity;
  const Vaddr cap_base = mem.AllocateRegion(kHugePageSize, opts);
  const PageIndex hot = mem.Lookup(VpnOf(cap_base));
  const PageIndex cold = mem.Lookup(VpnOf(fast_base));
  const FrameId hot_frame = mem.page(hot).frame();
  const FrameId cold_frame = mem.page(cold).frame();
  const uint64_t fast_free = mem.tier(TierId::kFast).free_frames();
  const uint64_t shootdowns = tlb.stats().shootdowns;

  FaultPlan plan;
  plan.site(FaultSite::kExchangeAbort).probability = 1.0;
  FaultInjector faults(plan, 3);
  mem.AttachFaults(&faults);

  // The abort fires after the admission gates but before anything moved:
  // both pages keep their tier/frame, and neither span was shot down.
  EXPECT_FALSE(mem.ExchangePages(hot, cold));
  EXPECT_EQ(mem.migration_stats().aborted_exchanges, 1u);
  EXPECT_EQ(mem.migration_stats().failed_exchanges, 0u);
  EXPECT_EQ(mem.migration_stats().exchanges, 0u);
  EXPECT_EQ(faults.stats().by(FaultSite::kExchangeAbort), 1u);
  EXPECT_EQ(mem.page(hot).tier(), TierId::kCapacity);
  EXPECT_EQ(mem.page(cold).tier(), TierId::kFast);
  EXPECT_EQ(mem.page(hot).frame(), hot_frame);
  EXPECT_EQ(mem.page(cold).frame(), cold_frame);
  EXPECT_EQ(mem.tier(TierId::kFast).free_frames(), fast_free);
  EXPECT_EQ(tlb.stats().shootdowns, shootdowns);
  AuditReport report = AuditMem(mem, tlb);
  {
    AuditCollector out(&report);
    CheckExchangeAccounting(mem, faults.stats(), out);
  }
  EXPECT_TRUE(report.ok()) << report.ToJson(2);

  // The same exchange goes through once the injector is gone.
  mem.AttachFaults(nullptr);
  EXPECT_TRUE(mem.ExchangePages(hot, cold));
  EXPECT_EQ(mem.page(hot).tier(), TierId::kFast);
  EXPECT_EQ(mem.page(cold).tier(), TierId::kCapacity);
  EXPECT_EQ(tlb.stats().shootdowns, shootdowns + 2);
  report = AuditMem(mem, tlb);
  EXPECT_TRUE(report.ok()) << report.ToJson(2);
}

TEST(FaultSite, BudgetStarveLeavesLedgerIntact) {
  MigrationBudget budget(/*pages_per_ms=*/1000, /*burst_pages=*/100);
  FaultPlan plan;
  plan.site(FaultSite::kBudgetStarve).probability = 1.0;
  FaultInjector faults(plan, 11);
  budget.AttachFaults(&faults);

  const uint64_t tokens = budget.tokens_raw();
  const uint64_t consumed = budget.consumed_pages();
  const uint64_t credited = budget.credited_pages();
  const uint64_t last_refill = budget.last_refill_ns();
  // Denied as if exhausted; neither the balance nor the refill clock moves.
  EXPECT_FALSE(budget.Consume(/*now_ns=*/5'000'000, /*pages=*/10));
  EXPECT_EQ(budget.tokens_raw(), tokens);
  EXPECT_EQ(budget.consumed_pages(), consumed);
  EXPECT_EQ(budget.credited_pages(), credited);
  EXPECT_EQ(budget.last_refill_ns(), last_refill);
  AuditReport report;
  AuditCollector out(&report);
  CheckMigrationLedger(budget, out);
  EXPECT_TRUE(report.ok()) << report.ToJson(2);

  budget.AttachFaults(nullptr);
  EXPECT_TRUE(budget.Consume(5'000'000, 10));
  EXPECT_EQ(budget.consumed_pages(), consumed + 10);
}

TEST(FaultSite, ShrinkTierPinsOnlyFreeFrames) {
  MemorySystem mem(MemoryConfig{.fast_frames = 1024, .capacity_frames = 1024});
  Tlb tlb;
  mem.AttachTlb(&tlb);
  AllocOptions opts;
  opts.preferred = TierId::kFast;
  mem.AllocateRegion(kHugePageSize, opts);  // 512 frames used
  const uint64_t rss = mem.rss_pages();

  EXPECT_EQ(mem.ShrinkTier(TierId::kFast, 256), 256u);
  EXPECT_EQ(mem.pinned_frames(TierId::kFast), 256u);
  EXPECT_EQ(mem.tier(TierId::kFast).free_frames(), 1024u - 512u - 256u);
  // Pins are invisible to the resident set, like fragmentation pins.
  EXPECT_EQ(mem.rss_pages(), rss);
  AuditReport report = AuditMem(mem, tlb);
  EXPECT_TRUE(report.ok()) << report.ToJson(2);

  // Over-asking pins only what is actually free.
  EXPECT_EQ(mem.ShrinkTier(TierId::kFast, 100'000), 256u);
  EXPECT_EQ(mem.tier(TierId::kFast).free_frames(), 0u);
  EXPECT_EQ(mem.rss_pages(), rss);
  report = AuditMem(mem, tlb);
  EXPECT_TRUE(report.ok()) << report.ToJson(2);
}

// --- Engine-level behaviour --------------------------------------------------

struct FaultRun {
  Metrics metrics;
  AuditReport report;
  uint64_t fast_pinned = 0;
  uint64_t fast_total_frames = 0;
};

FaultRun RunEngineWithFaults(const FaultPlan& plan, uint64_t seed,
                             const std::string& system = "memtis",
                             uint64_t accesses = 150'000,
                             double fast_ratio = 1.0 / 3.0) {
  auto workload = MakeWorkload("btree", 0.12);
  auto policy = MakePolicy(system, workload->footprint_bytes(),
                           static_cast<uint64_t>(
                               workload->footprint_bytes() * fast_ratio));
  EngineOptions opts;
  opts.max_accesses = accesses;
  opts.seed = seed;
  opts.faults = plan;
  AuditSession audit;
  opts.audit = &audit;
  Engine engine(MachineFor(*workload, fast_ratio), *policy, opts);
  FaultRun out;
  out.metrics = engine.Run(*workload);
  out.report = audit.report();
  out.fast_pinned = engine.mem().pinned_frames(TierId::kFast);
  out.fast_total_frames = engine.mem().tier(TierId::kFast).total_frames();
  return out;
}

TEST(EngineFaults, SampleDropsAreAccountedAndAuditClean) {
  FaultPlan plan;
  plan.site(FaultSite::kSampleDrop).probability = 1.0;
  const FaultRun run = RunEngineWithFaults(plan, 42);
  // Every PEBS record was dropped before delivery; the run survives and the
  // sample ledger (checked by the auditor every tick) stays exact.
  EXPECT_GT(run.metrics.faults.by(FaultSite::kSampleDrop), 0u);
  EXPECT_EQ(run.metrics.faults.total_injected(),
            run.metrics.faults.by(FaultSite::kSampleDrop));
  EXPECT_TRUE(run.report.ok()) << run.report.ToJson(2);
}

TEST(EngineFaults, MigrateAbortsMatchInjectorOneToOne) {
  FaultPlan plan;
  plan.site(FaultSite::kMigrateAbort).probability = 0.5;
  // TPP promotes on access, so migrations (and thus aborts) happen early.
  const FaultRun run = RunEngineWithFaults(plan, 42, "tpp");
  EXPECT_GT(run.metrics.faults.by(FaultSite::kMigrateAbort), 0u);
  EXPECT_EQ(run.metrics.migration.aborted_migrations,
            run.metrics.faults.by(FaultSite::kMigrateAbort));
  EXPECT_TRUE(run.report.ok()) << run.report.ToJson(2);
}

TEST(EngineFaults, ExchangeAbortsMatchInjectorOneToOne) {
  FaultPlan plan;
  plan.site(FaultSite::kExchangeAbort).probability = 0.5;
  // AutoTiering exchanges natively once the fast tier fills; a tight ratio
  // keeps it full so the site is exercised throughout the run. The engine's
  // registered "exchange-accounting" audit check also certifies the 1:1
  // pairing every tick.
  const FaultRun run =
      RunEngineWithFaults(plan, 42, "autotiering", 150'000, 1.0 / 9.0);
  EXPECT_GT(run.metrics.faults.by(FaultSite::kExchangeAbort), 0u);
  EXPECT_EQ(run.metrics.migration.aborted_exchanges,
            run.metrics.faults.by(FaultSite::kExchangeAbort));
  // The surviving rolls still completed swaps.
  EXPECT_GT(run.metrics.migration.exchanges, 0u);
  EXPECT_TRUE(run.report.ok()) << run.report.ToJson(2);
}

TEST(EngineFaults, TierShrinkRespectsCumulativeCap) {
  const FaultRun baseline = RunEngineWithFaults(FaultPlan{}, 42);
  FaultPlan plan;
  plan.site(FaultSite::kTierShrink).probability = 1.0;
  plan.tier_shrink_step = 0.05;
  plan.tier_shrink_cap = 0.2;
  const FaultRun run = RunEngineWithFaults(plan, 42);
  ASSERT_GT(run.metrics.faults.by(FaultSite::kTierShrink), 0u);
  const uint64_t shrunk = run.fast_pinned - baseline.fast_pinned;
  EXPECT_GT(shrunk, 0u);
  const uint64_t cap = static_cast<uint64_t>(
      static_cast<double>(run.fast_total_frames) * plan.tier_shrink_cap);
  EXPECT_LE(shrunk, cap);
  EXPECT_TRUE(run.report.ok()) << run.report.ToJson(2);
}

TEST(EngineFaults, AllocFailCellsRunToCompletion) {
  // `memtis_run --faults=alloc-fail=0.5` once aborted these cells in region
  // set-up, where the base-page fallback found the other tier full.
  struct Cell {
    const char* system;
    const char* benchmark;
    double fast_ratio;
  };
  for (const Cell& cell : {Cell{"all-capacity", "btree", 1.0 / 3.0},
                           Cell{"autotiering", "603.bwaves", 1.0 / 3.0},
                           Cell{"autotiering", "603.bwaves", 1.0 / 9.0}}) {
    SCOPED_TRACE(std::string(cell.system) + " " + cell.benchmark + " " +
                 std::to_string(cell.fast_ratio));
    JobSpec spec;
    spec.system = cell.system;
    spec.benchmark = cell.benchmark;
    spec.fast_ratio = cell.fast_ratio;
    spec.accesses = 300'000;
    spec.faults = "alloc-fail=0.5";
    const JobResult result = RunJob(spec);
    EXPECT_GT(result.metrics.faults.by(FaultSite::kAllocFail), 0u);
    EXPECT_GE(result.metrics.accesses, 300'000u);
  }
}

TEST(EngineFaults, StormReplayIsByteIdentical) {
  const FaultPlan storm = FaultPlan::Storm();
  const FaultRun a = RunEngineWithFaults(storm, 7);
  const FaultRun b = RunEngineWithFaults(storm, 7);
  EXPECT_GT(a.metrics.faults.total_injected(), 0u);
  EXPECT_TRUE(a.report.ok()) << a.report.ToJson(2);
  EXPECT_EQ(a.metrics.ToJson(2), b.metrics.ToJson(2));
  // A different engine seed draws a different fault sequence.
  const FaultRun c = RunEngineWithFaults(storm, 8);
  EXPECT_NE(a.metrics.ToJson(2), c.metrics.ToJson(2));
}

}  // namespace
}  // namespace memtis
