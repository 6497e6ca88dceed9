// MULTI-CLOCK (Maruf et al., HPCA '22) behavioural model.
//
// Per the paper's Table 1: page-table scanning, recency+frequency metric with
// a static threshold of two (pages referenced in two consecutive scans are
// promoted), and clock-based demotion of unreferenced fast pages — all in the
// background.

#ifndef MEMTIS_SIM_SRC_POLICIES_MULTICLOCK_H_
#define MEMTIS_SIM_SRC_POLICIES_MULTICLOCK_H_

#include "src/access/pt_scanner.h"
#include "src/policies/policy_util.h"
#include "src/sim/policy.h"

namespace memtis {

class MultiClockPolicy : public TieringPolicy {
 public:
  struct Params {
    uint64_t scan_period_ns = 500'000;
    double low_watermark = 0.02;
    double high_watermark = 0.05;
  };

  MultiClockPolicy() : MultiClockPolicy(Params{}) {}
  explicit MultiClockPolicy(Params params) : params_(params) {}

  std::string_view name() const override { return "multi-clock"; }

  void OnAccess(PolicyContext& ctx, PageIndex index, PageInfo& page,
                const Access& access) override {
    (void)ctx;
    (void)page;
    (void)access;
    scanner_.MarkAccessed(index);
  }

  void Tick(PolicyContext& ctx) override;

  void SaveState(StateWriter& w) const override { Serialize(w, *this); }
  void LoadState(StateReader& r) override { Serialize(r, *this); }

 private:
  // Consecutive-scan counts live in page policy words (memory system).
  template <typename Archive, typename Self>
  static void Serialize(Archive& ar, Self& self) {
    ar.Section(0x4d434c4bu);  // "MCLK"
    PtScanner::Serialize(ar, self.scanner_);
    ar.U64(self.next_scan_ns_);
  }

  Params params_;
  PtScanner scanner_;
  uint64_t next_scan_ns_ = 0;
};

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_POLICIES_MULTICLOCK_H_
