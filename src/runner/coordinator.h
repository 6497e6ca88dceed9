// The Campaign scheduler — the lease / retry state machine every sweep runs
// on — plus the two serve loops behind `memtis_run --serve`. Local sweeps
// drive the same Campaign in-process (resilient.h), so retry, seed, backoff,
// cancellation and resume decisions are made here and nowhere else.
//
// The lease/claim contract (see DESIGN.md "Distributed campaigns"):
//
//  - Every cell walks kPending -> kIssued -> kDone. An issue is exactly one
//    supervised attempt at a specific global attempt number; the (attempt,
//    issue) tuple names the lease, and `issue` increases monotonically per
//    cell so a revoked lease can never be confused with its replacement.
//  - A reported recoverable failure re-opens the cell at attempt + 1, with
//    the engine seed folded via DeriveSeedOffset, so the result bytes,
//    global attempt count, and reproducer are identical no matter which
//    worker (or local pool thread) runs the retry. The re-opened cell backs
//    off first: at attempt k it is not issued before
//    min(backoff_base_ms << (k - 1), 10 s) after the failure was reported.
//  - A lost lease (connection EOF, expired heartbeat) re-issues the *same*
//    attempt under a fresh issue id, without backoff; the lost attempt left
//    no evidence, so the rerun reproduces the uninterrupted run's bytes.
//    After max_reissues consecutive losses the cell is decided kLeaseExpired
//    with a reproducer.
//  - Results are accepted iff the cell is undecided and the reported attempt
//    matches the cell's current attempt — duplicate and stale results (two
//    workers racing the same attempt after an expiry) are ignored, which is
//    sound because equal (spec, attempt) means equal bytes.
//  - Decided cells append to the --resume manifest, so coordinator death is
//    recoverable with the same manifest (socket backend) or from the
//    per-worker results files already in the queue directory (file backend).
//
// Campaign itself is not thread-safe: the serve loops own it exclusively,
// and RunJobsResilient guards it with a mutex.

#ifndef MEMTIS_SIM_SRC_RUNNER_COORDINATOR_H_
#define MEMTIS_SIM_SRC_RUNNER_COORDINATOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/runner/manifest.h"
#include "src/runner/resilient.h"
#include "src/runner/work_queue.h"

namespace memtis {

struct CampaignStats {
  uint64_t issues = 0;            // leases handed out (incl. retries/reissues)
  uint64_t leases_lost = 0;       // EOF / expired heartbeat / vanished claim
  uint64_t retries = 0;           // failure-driven re-issues at attempt + 1
  uint64_t stale_results = 0;     // results ignored (decided cell or old attempt)
  uint64_t stale_claims = 0;      // file backend: claims of superseded tuples
};

class Campaign {
 public:
  enum class CellPhase { kPending, kIssued, kDone };

  Campaign(const std::vector<JobSpec>& jobs, const ExecOptions& options,
           const std::map<std::string, ManifestEntry>& preloaded,
           const ProgressFn& progress, std::string* manifest_error);

  // Hands out the lowest-index issuable cell whose backoff has elapsed and
  // arms its lease deadline. nullopt when nothing is currently issuable.
  std::optional<WorkItem> NextIssue(uint64_t now_ms);

  // The earliest end of a backoff among issuable cells (a local pool thread
  // with nothing to issue sleeps until then); 0 when no issuable cell has one.
  uint64_t NextReadyMs() const;

  // File backend: the open (attempt, issue) tuple of a pending cell, and the
  // transition when a claim file for exactly that tuple appears.
  CellPhase phase(size_t index) const { return states_[index].phase; }
  int open_attempt(size_t index) const { return states_[index].attempt; }
  uint64_t open_issue(size_t index) const { return states_[index].issue; }
  bool ObserveClaim(size_t index, int attempt, uint64_t issue, uint64_t now_ms);
  // True while a re-opened cell's backoff has not elapsed: the file backend
  // publishes its tuple only afterwards.
  bool BackingOff(size_t index, uint64_t now_ms) const {
    return now_ms < states_[index].not_before_ms;
  }

  // Heartbeat for an issued lease; false = revoked/stale.
  bool Renew(size_t index, int attempt, uint64_t issue, uint64_t now_ms);

  // A worker's outcome for (index, attempt), reported at now_ms (the start of
  // a retry's backoff). False when stale and ignored.
  bool OnOutcome(size_t index, int attempt, SupervisedOutcome outcome,
                 uint64_t now_ms);

  // The lease carrying `issue` is gone. Re-opens the cell under a fresh
  // issue id (same attempt), or decides kLeaseExpired past max_reissues.
  // Also valid for a kPending cell whose open tuple was revoked on disk
  // (file-backend coordinator restart).
  void OnLeaseLost(size_t index, uint64_t issue);

  // Expires leases whose deadline passed (socket backend tick).
  void ExpireStale(uint64_t now_ms);

  // True once every cell is decided — or the campaign is cancelled and no
  // lease remains in flight (retry-pending cells still count as in flight:
  // like a local drain, a started cell finishes its retry budget).
  bool Finished();

  // Closes the manifest and fills kCancelled records for never-ran cells.
  // Call exactly once, after Finished().
  std::vector<CellOutcome> Finish();

  size_t size() const { return states_.size(); }
  size_t decided() const { return decided_; }
  const CampaignStats& stats() const { return stats_; }
  const std::string& fingerprint(size_t index) const {
    return fingerprints_[index];
  }

 private:
  struct CellState {
    CellPhase phase = CellPhase::kPending;
    int attempt = 0;       // next (kPending) or running (kIssued) global attempt
    int reissues = 0;      // lease losses so far
    uint64_t issue = 0;    // current/open issue id, strictly increasing
    uint64_t deadline_ms = 0;  // lease deadline while kIssued (socket backend)
    uint64_t not_before_ms = 0;  // backoff: not issued before this time
  };

  void CheckCancelled();
  bool Issuable(const CellState& st) const;
  // Records the cell's final outcome (manifest, progress, fail-fast latch).
  void Decide(size_t index, SupervisedOutcome record);
  void Report(size_t index);

  const std::vector<JobSpec>& jobs_;
  ExecOptions options_;
  ProgressFn progress_;
  std::vector<std::string> fingerprints_;
  std::vector<CellState> states_;
  std::vector<CellOutcome> outcomes_;
  ManifestWriter writer_;
  CampaignStats stats_;
  size_t decided_ = 0;
  size_t issued_count_ = 0;
  size_t progress_done_ = 0;
  bool cancel_latched_ = false;
};

// Runs a campaign to completion over loopback TCP on 127.0.0.1 (`port` 0 =
// kernel-assigned). `on_listening` fires with the bound port once the socket
// accepts — tests launch workers from it, memtis_run writes --port-file.
// On a transport failure returns an empty vector with *error set.
std::vector<CellOutcome> ServeSocketCampaign(
    const std::vector<JobSpec>& jobs, const ExecOptions& options,
    uint16_t port, const std::function<void(uint16_t)>& on_listening,
    const std::map<std::string, ManifestEntry>& preloaded = {},
    const ProgressFn& progress = nullptr, CampaignStats* stats = nullptr,
    std::string* error = nullptr, std::string* manifest_error = nullptr);

// Runs a campaign to completion over a claim-file queue rooted at `dir`
// (created if missing; a stale DONE marker is removed). Restart-safe: an
// existing queue directory's results files preload decided cells and its
// claim files resume in-flight leases, so SIGKILLing the coordinator and
// rerunning the same command reaches the same bytes.
std::vector<CellOutcome> ServeFileCampaign(
    const std::vector<JobSpec>& jobs, const std::string& dir,
    const ExecOptions& options,
    const std::map<std::string, ManifestEntry>& preloaded = {},
    const ProgressFn& progress = nullptr, CampaignStats* stats = nullptr,
    std::string* error = nullptr, std::string* manifest_error = nullptr);

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_RUNNER_COORDINATOR_H_
