// Crash isolation for sweep cells: runs one RunJob in a forked child with a
// wall-clock watchdog, streaming the JobResult back over a pipe as JSON.
//
// The supervision contract (see DESIGN.md "Job supervision"):
//
//  - Isolation. Everything RunJob can do wrong — SIGSEGV, a SIM_CHECK abort,
//    an audit-session abort, a runaway loop — downs only the forked child.
//    The parent turns the corpse into a structured JobFailure{kind, exit
//    status, signal, stderr tail, reproducer} and the sweep continues.
//  - Fidelity. A supervised success is byte-identical to an in-process run:
//    the child serializes the complete JobResult (metrics + timeline + audit
//    report + epochs) with the lossless codec in job_codec.h, so sinks cannot
//    tell the difference. tests/runner_test.cc holds this property.
//  - Deadlines. job_timeout_ms > 0 arms a watchdog; on overrun the child is
//    SIGKILLed and the failure kind is kTimeout.
//  - One attempt per call. RunJobSupervised runs the cell once, at global
//    attempt number SupervisorOptions::attempt, with engine_seed' =
//    DeriveSeedOffset(engine_seed, attempt) — the same documented scheme that
//    spaces workload seeds — so every attempt is reproducible from (spec,
//    attempt) alone and the failure's reproducer command line pins the exact
//    attempt seed. Whether to retry, at which attempt, and after what backoff
//    is the caller's decision: the Campaign scheduler (coordinator.h) makes
//    it for local and distributed sweeps alike.
//  - SIM_CHECK reporting. The child installs a check-failure hook
//    (src/common/check.h) that writes the failing expression through the
//    result pipe before aborting, so JobFailure::check_expr carries the
//    precise invariant even when stderr is noisy.
//
// Test-only injection hooks, honoured inside the supervised child (never in
// in-process runs):
//
//   MEMTIS_CRASH_CELL=<fingerprint>[:N]  SIM_CHECK-fail the cell with that
//       JobFingerprint on attempts 0..N-1 (default: every attempt). With N=1
//       and a retry budget a cell crashes once and then succeeds —
//       deterministically — which is how the retry tests are built.
//   MEMTIS_HANG_CELL=<fingerprint>       spin in the named cell until the
//       watchdog kills it (a bounded safety cap exits eventually if no
//       deadline was armed).

#ifndef MEMTIS_SIM_SRC_RUNNER_SUPERVISOR_H_
#define MEMTIS_SIM_SRC_RUNNER_SUPERVISOR_H_

#include <cstdint>
#include <string>

#include "src/common/status.h"
#include "src/runner/sweep.h"

namespace memtis {

// Structured description of one failed (or never-run) sweep cell.
struct JobFailure {
  FailureKind kind = FailureKind::kNone;
  int exit_status = 0;        // kExit: the child's exit code
  int signal = 0;             // kCrash/kTimeout: the terminating signal
  std::string check_expr;     // failing SIM_CHECK expression, when reported
  std::string stderr_tail;    // last bytes of the child's stderr
  std::string reproducer_cmdline;  // memtis_run invocation reproducing it
  std::string message;        // one-line human summary
};

struct SupervisorOptions {
  // Wall-clock deadline per attempt in milliseconds; 0 disarms the watchdog.
  uint64_t job_timeout_ms = 0;
  // How much of the child's stderr to keep for JobFailure::stderr_tail.
  size_t stderr_tail_bytes = 4096;
  // Checkpointing (src/runner/checkpoint_runner.h). When checkpoint_ns > 0
  // and checkpoint_dir is set, each child runs RunJobCheckpointed: it writes
  // a snapshot of the full simulation state every checkpoint_ns of virtual
  // time under checkpoint_dir, keyed by (fingerprint, attempt). After a
  // SIGKILL-class death (watchdog timeout, or a crash whose signal is
  // SIGKILL) the call re-runs the SAME attempt, which restores from the
  // newest valid snapshot and finishes byte-identical to an uninterrupted
  // run. All other failures end the call; a retry at the next attempt (new
  // seed) finds the old snapshots stale and ignores them. Cells whose policy
  // or workload cannot checkpoint fail up front with kInvalidSpec.
  uint64_t checkpoint_ns = 0;
  std::string checkpoint_dir;
  // Bound on same-attempt resume re-runs within this call (a snapshot that
  // keeps dying mid-restore must not loop forever; once exhausted the
  // SIGKILL-class failure is returned like any other).
  int max_resume_retries = 8;
  // Global attempt number this call runs: it selects the derived engine
  // seed, the MEMTIS_CRASH_CELL/MEMTIS_HANG_CELL attempt window, the failure
  // reproducer, and SupervisedOutcome::attempts (= attempt + 1, counted from
  // global attempt 0). A cell that fails on worker A and succeeds on worker B
  // is therefore byte-identical to the same retry run locally.
  int attempt = 0;
};

struct SupervisedOutcome {
  bool ok = false;
  int attempts = 0;    // global attempt count: options.attempt + 1
  JobResult result;    // valid when ok
  JobFailure failure;  // kind != kNone when !ok
};

// The engine seed attempt `attempt` of a cell runs with (attempt 0 is the
// spec's own seed; documented alongside DeriveSeedOffset in sweep.h).
inline constexpr uint64_t AttemptEngineSeed(uint64_t engine_seed, int attempt) {
  return DeriveSeedOffset(engine_seed, static_cast<uint32_t>(attempt));
}

// Runs one attempt of a cell under supervision. Thread-safe: safe to call
// concurrently from multiple ThreadPool workers (each call forks its own
// child).
SupervisedOutcome RunJobSupervised(const JobSpec& spec,
                                   const SupervisorOptions& options);

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_RUNNER_SUPERVISOR_H_
