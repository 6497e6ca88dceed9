// Regression guards for the paper's qualitative headline shapes, as cheap
// versions of the bench experiments. If one of these goes red, a change has
// broken the reproduction, not just an implementation detail.

#include <gtest/gtest.h>

#include "src/memtis/memtis_policy.h"
#include "src/memtis/policy_registry.h"
#include "src/workloads/registry.h"
#include "tests/test_util.h"

namespace memtis {
namespace {

double RuntimeOf(const std::string& system, const std::string& benchmark,
                 double fast_ratio, uint64_t accesses, double footprint_scale,
                 uint64_t fast_bytes_override = 0) {
  auto workload = MakeWorkload(benchmark, footprint_scale);
  const uint64_t fast =
      fast_bytes_override != 0
          ? fast_bytes_override
          : static_cast<uint64_t>(static_cast<double>(workload->footprint_bytes()) *
                                  fast_ratio);
  auto policy = MakePolicy(system, workload->footprint_bytes(), fast);
  EngineOptions opts;
  opts.max_accesses = accesses;
  MachineConfig machine = MakeNvmMachine(
      fast, workload->footprint_bytes() + workload->footprint_bytes() / 2);
  Engine engine(machine, *policy, opts);
  return engine.Run(*workload).EffectiveRuntimeNs();
}

// Fig. 5 headline: MEMTIS beats the static-threshold PEBS system (HeMem) on
// the skewed-huge-page workloads at 1:8 by a wide margin.
TEST(PaperShapes, Fig5_MemtisBeatsHeMemOnSkewedWorkloads) {
  for (const char* benchmark : {"silo", "btree"}) {
    const double memtis = RuntimeOf("memtis", benchmark, 1.0 / 9.0, 2'000'000, 0.2);
    const double hemem = RuntimeOf("hemem", benchmark, 1.0 / 9.0, 2'000'000, 0.2);
    EXPECT_LT(memtis, hemem * 0.8) << benchmark;
  }
}

// Fig. 6 shape: with a fixed fast tier, MEMTIS's advantage over the
// all-capacity baseline persists when the RSS more than doubles.
TEST(PaperShapes, Fig6_AdvantagePersistsAtScale) {
  auto probe = MakeWorkload("graph500", 0.15);
  const uint64_t fast = probe->footprint_bytes() / 2;
  for (double scale : {0.15, 0.4}) {
    const double memtis = RuntimeOf("memtis", "graph500", 0, 2'000'000, scale, fast);
    const double none =
        RuntimeOf("all-capacity", "graph500", 0, 2'000'000, scale, fast);
    EXPECT_LT(memtis, none) << "scale " << scale;
  }
}

// Fig. 7 shape: at 2:1 MEMTIS lands between TPP and the all-DRAM ceiling.
TEST(PaperShapes, Fig7_MemtisBetweenTppAndAllDram) {
  const double memtis = RuntimeOf("memtis", "silo", 2.0 / 3.0, 2'000'000, 0.2);
  const double tpp = RuntimeOf("tpp", "silo", 2.0 / 3.0, 2'000'000, 0.2);
  const double dram = RuntimeOf("all-fast", "silo", 1.3, 2'000'000, 0.2);
  EXPECT_LT(memtis, tpp);
  EXPECT_GT(memtis, dram);
}

// Fig. 10 split ablation: page-size determination is what lifts the skewed
// huge-page workloads — disabling splits (memtis-ns) costs MEMTIS over 20 %
// of its runtime on silo and btree at 1:8.
TEST(PaperShapes, Fig10_SplitLiftsSkewedWorkloads) {
  for (const char* benchmark : {"silo", "btree"}) {
    const double memtis = RuntimeOf("memtis", benchmark, 1.0 / 9.0, 2'000'000, 0.2);
    const double no_split =
        RuntimeOf("memtis-ns", benchmark, 1.0 / 9.0, 2'000'000, 0.2);
    EXPECT_LT(memtis, no_split * 0.8) << benchmark;
  }
}

// Fig. 11 shape: splitting reduces the Btree model's RSS substantially.
TEST(PaperShapes, Fig11_SplitShrinksBtreeRss) {
  auto workload = MakeWorkload("btree", 0.2);
  auto policy = MakePolicy("memtis", workload->footprint_bytes(),
                           workload->footprint_bytes() / 9);
  EngineOptions opts;
  opts.max_accesses = 2'500'000;
  Engine engine(MachineFor(*workload, 1.0 / 9.0), *policy, opts);
  const Metrics m = engine.Run(*workload);
  EXPECT_LT(m.final_rss_pages * 4, m.peak_rss_pages * 3);  // >25% reclaimed
}

// Fig. 14 shape: the MEMTIS-over-TPP gap narrows when the capacity tier is
// CXL instead of NVM (tier latency gap shrinks).
TEST(PaperShapes, Fig14_GapNarrowsOnCxl) {
  auto gap_on = [&](bool cxl) {
    auto workload = MakeWorkload("silo", 0.2);
    auto run = [&](const char* system) {
      auto w = MakeWorkload("silo", 0.2);
      auto policy = MakePolicy(system, w->footprint_bytes(), w->footprint_bytes() / 9);
      EngineOptions opts;
      opts.max_accesses = 2'000'000;
      Engine engine(MachineFor(*w, 1.0 / 9.0, cxl), *policy, opts);
      return engine.Run(*w).EffectiveRuntimeNs();
    };
    return run("tpp") / run("memtis");  // >1: memtis faster
  };
  const double nvm_gap = gap_on(false);
  const double cxl_gap = gap_on(true);
  EXPECT_GT(nvm_gap, 1.0);
  EXPECT_GT(cxl_gap, 1.0);
  EXPECT_LT(cxl_gap, nvm_gap);
}

// §6.3.5: the period controller, not luck, keeps ksampled at its CPU cap
// across every benchmark.
TEST(PaperShapes, KsampledCapHoldsEverywhere) {
  for (const auto& benchmark : StandardBenchmarks()) {
    auto workload = MakeWorkload(benchmark, 0.12);
    MemtisConfig cfg = MemtisConfig::ScaledDefaults(workload->footprint_bytes(),
                                                    workload->footprint_bytes() / 3);
    MemtisPolicy policy(cfg);
    EngineOptions opts;
    opts.max_accesses = 1'000'000;
    Engine engine(MachineFor(*workload, 1.0 / 3.0), policy, opts);
    const Metrics m = engine.Run(*workload);
    EXPECT_LT(m.cpu.core_share(DaemonKind::kSampler, m.app_ns), 0.05) << benchmark;
  }
}

}  // namespace
}  // namespace memtis
