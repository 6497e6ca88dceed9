// Resilient sweep execution: RunJobsResilient drives a job list through the
// ThreadPool with crash isolation (supervisor.h), checkpointed resume
// (manifest.h), and cooperative cancellation — the layer `memtis_run
// --supervise/--resume/--keep-going` is built on.
//
// Scheduling is the Campaign state machine's (coordinator.h), the same one
// that serves distributed campaigns: each pool thread drains it, running one
// issued attempt at a time, so retries, attempt seeds, backoff, fail-fast,
// SIGINT and the manifest behave identically for local and served sweeps.
//
// Contract:
//  - outcomes[i] corresponds to jobs[i], as with the legacy RunJobs.
//  - With exec.manifest_path set, cells whose fingerprint already has an ok
//    entry in the manifest are not re-run: their results are reloaded
//    (from_manifest = true) and every freshly decided cell — ok or failed —
//    is appended, so the manifest always reflects the furthest point reached.
//  - A failed cell cancels the sweep unless exec.keep_going is set; cells
//    that never ran are reported with FailureKind::kCancelled (ran = false)
//    and still carry a reproducer command line. A cell that already started
//    still drains its retry budget.
//  - exec.cancelled (e.g. a SIGINT flag) is polled before each attempt
//    starts; in-flight cells drain normally, so ^C yields a flushed manifest
//    and a partial report rather than a torn file.
//  - Determinism: supervised success results are byte-identical to in-process
//    runs and to manifest reloads, so the aggregate over any interrupt/resume
//    schedule equals the uninterrupted run's bytes.

#ifndef MEMTIS_SIM_SRC_RUNNER_RESILIENT_H_
#define MEMTIS_SIM_SRC_RUNNER_RESILIENT_H_

#include <functional>
#include <string>
#include <vector>

#include "src/runner/manifest.h"
#include "src/runner/supervisor.h"
#include "src/runner/sweep.h"
#include "src/runner/thread_pool.h"

namespace memtis {

// How a sweep executes its cells, locally (RunJobsResilient) or as a served
// campaign (coordinator.h). Defaults reproduce the legacy in-process RunJobs
// behaviour (no forking, no retries, fail on first missing result).
struct ExecOptions {
  bool supervise = false;          // fork one child per cell
  uint64_t job_timeout_ms = 0;     // watchdog per attempt (implies supervise)
  int max_attempts = 1;            // attempts per cell (implies supervise if >1)
  // Deterministic exponential backoff: a cell re-opened for attempt k > 0
  // becomes issuable min(backoff_base_ms << (k - 1), 10 s) after the failure
  // was reported. 0 = retry at once.
  uint64_t backoff_base_ms = 0;
  bool keep_going = false;         // false: first failure cancels queued cells
  std::string manifest_path;       // "" = no checkpointing
  // Mid-cell snapshots (implies supervise): children write a full simulation
  // snapshot every checkpoint_ns of virtual time into checkpoint_dir, and a
  // SIGKILL-class death resumes the same attempt from the newest valid
  // snapshot (see SupervisorOptions::checkpoint_ns). Served campaigns forward
  // checkpoint_ns per issued cell; workers pick their own directory.
  uint64_t checkpoint_ns = 0;
  std::string checkpoint_dir;
  // Polled before each issue; return true to stop starting new work (SIGINT).
  std::function<bool()> cancelled;
  // Served campaigns only: re-issue a lease after this long without a
  // heartbeat, and decide kLeaseExpired after max_reissues lost leases.
  uint64_t lease_timeout_ms = 10'000;
  int max_reissues = 8;
};

// The fate of one cell in a resilient sweep.
struct CellOutcome {
  bool ok = false;
  bool ran = false;            // false: skipped by cancellation/fail-fast
  bool from_manifest = false;  // result reloaded from the resume manifest
  int attempts = 0;
  JobResult result;    // valid when ok
  JobFailure failure;  // kind != kNone when !ok
};

// True when the exec options require forked children (any of supervise,
// a deadline, retries, or checkpoints).
bool NeedsSupervision(const ExecOptions& exec);

// Executes jobs[i] -> outcomes[i]. `preloaded` is the manifest image loaded
// by the caller (empty map for a fresh run); `manifest_error` receives a
// description when the manifest cannot be opened for appending (the sweep
// still runs — checkpointing is best-effort, losing it is reported loudly).
std::vector<CellOutcome> RunJobsResilient(
    const std::vector<JobSpec>& jobs, ThreadPool& pool, const ExecOptions& exec,
    const std::map<std::string, ManifestEntry>& preloaded = {},
    const ProgressFn& progress = nullptr, std::string* manifest_error = nullptr);

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_RUNNER_RESILIENT_H_
