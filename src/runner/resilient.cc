#include "src/runner/resilient.h"

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "src/common/netio.h"
#include "src/runner/coordinator.h"

namespace memtis {

bool NeedsSupervision(const ExecOptions& exec) {
  return exec.supervise || exec.job_timeout_ms > 0 || exec.max_attempts > 1 ||
         exec.checkpoint_ns > 0;
}

std::vector<CellOutcome> RunJobsResilient(
    const std::vector<JobSpec>& jobs, ThreadPool& pool, const ExecOptions& exec,
    const std::map<std::string, ManifestEntry>& preloaded,
    const ProgressFn& progress, std::string* manifest_error) {
  const bool supervise = NeedsSupervision(exec);
  SupervisorOptions sup;
  sup.job_timeout_ms = exec.job_timeout_ms;
  sup.checkpoint_ns = exec.checkpoint_ns;
  sup.checkpoint_dir = exec.checkpoint_dir;

  // Every pool thread drains the one Campaign: issue, run the attempt with
  // the lock released, report, wake the others. A thread sleeps only while
  // nothing is issuable and the campaign is undecided — until an in-flight
  // cell reports or the earliest retry backoff elapses.
  Campaign campaign(jobs, exec, preloaded, progress, manifest_error);
  std::mutex mu;
  std::condition_variable changed;
  const auto drain = [&] {
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      const uint64_t now = MonotonicMs();
      std::optional<WorkItem> item = campaign.NextIssue(now);
      if (!item.has_value()) {
        if (campaign.Finished()) {
          return;
        }
        const uint64_t ready = campaign.NextReadyMs();
        if (ready > now) {
          changed.wait_for(lock, std::chrono::milliseconds(ready - now));
        } else {
          changed.wait(lock);
        }
        continue;
      }
      lock.unlock();
      SupervisedOutcome outcome;
      if (supervise) {
        SupervisorOptions attempt_sup = sup;
        attempt_sup.attempt = item->attempt;
        outcome = RunJobSupervised(item->spec, attempt_sup);
      } else {
        outcome.result = RunJob(item->spec);
        outcome.ok = true;
      }
      lock.lock();
      campaign.OnOutcome(item->index, item->attempt, std::move(outcome),
                         MonotonicMs());
      changed.notify_all();
    }
  };
  for (int t = 0; t < pool.thread_count(); ++t) {
    pool.Submit(drain);
  }
  pool.Wait();
  return campaign.Finish();
}

}  // namespace memtis
