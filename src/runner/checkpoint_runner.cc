#include "src/runner/checkpoint_runner.h"

#include <csignal>
#include <cstdlib>
#include <optional>

#include "src/audit/audit_session.h"
#include "src/common/check.h"
#include "src/sim/engine.h"
#include "src/snapshot/serializer.h"
#include "src/snapshot/snapshot_file.h"
#include "src/workloads/registry.h"

namespace memtis {
namespace {

// Serialization order of one snapshot payload. The engine section embeds the
// full MemorySystem; policy and workload follow; the audit session closes the
// stream (presence-flagged so plain and MEMTIS_AUDIT=1 runs both checkpoint).
std::string BuildSnapshotPayload(const Engine& engine,
                                 const TieringPolicy& policy,
                                 const Workload& workload,
                                 const AuditSession* audit) {
  StateWriter w;
  Engine::Serialize(w, engine);
  policy.SaveState(w);
  workload.SaveState(w);
  w.Expect(audit != nullptr);
  if (audit != nullptr) {
    AuditSession::Serialize(w, *audit);
  }
  return w.Take();
}

// Restores a payload into freshly constructed components. Returns false (and
// leaves the components unusable — the caller rebuilds from scratch) on any
// mismatch: section-marker skew, config drift caught by a load-side
// cross-check, trailing garbage, or audit-presence disagreement.
bool RestoreFromPayload(const std::string& payload, Engine& engine,
                        TieringPolicy& policy, Workload& workload,
                        AuditSession* audit) {
  StateReader r(payload);
  Engine::Serialize(r, engine);
  // Init() before LoadState: policies re-attach engine-owned resources (the
  // sampler's fault injector) there; LoadState then overwrites whatever
  // defaults Init reset.
  policy.Init(engine.ctx());
  policy.LoadState(r);
  workload.LoadState(r);
  r.Expect(audit != nullptr);
  if (audit != nullptr) {
    AuditSession::Serialize(r, *audit);
  }
  return r.Done();
}

}  // namespace

bool CheckpointSupported(const JobSpec& spec, std::string* why) {
  if (spec.shards > 1) {
    if (why != nullptr) {
      *why = "sharded cells (shards=" + std::to_string(spec.shards) +
             ") have no snapshot plumbing";
    }
    return false;
  }
  if (spec.memtis_tweak != nullptr) {
    if (why != nullptr) {
      *why = "opaque memtis_tweak hook is not representable in a snapshot";
    }
    return false;
  }
  // Every registered policy checkpoints; only workloads opt in.
  const auto workload = MakeWorkload(spec.benchmark);
  if (!workload->SupportsCheckpoint()) {
    if (why != nullptr) {
      *why = "benchmark '" + spec.benchmark + "' does not support checkpointing";
    }
    return false;
  }
  return true;
}

JobResult RunJobCheckpointed(const JobSpec& spec, const CheckpointContext& ctx) {
  SIM_CHECK_GT(ctx.interval_ns, 0u);
  SIM_CHECK(!ctx.snapshot_base.empty());
  {
    std::string why;
    SIM_CHECK(CheckpointSupported(spec, &why) && "cell cannot checkpoint");
  }

  SnapshotStore store(ctx.snapshot_base);
  SnapshotBlob blob;
  const bool have_snapshot =
      store.LoadNewest(ctx.fingerprint, ctx.attempt, &blob);

  int kill_after = 0;  // test hook: self-SIGKILL after N snapshots (fresh runs)
  if (const char* env = std::getenv("MEMTIS_KILL_AFTER_CHECKPOINTS");
      env != nullptr && env[0] != '\0') {
    kill_after = std::atoi(env);
  }

  // Pass 0 tries to resume from the decoded snapshot; a payload that fails
  // component-level validation falls through to pass 1, which always starts
  // clean. Fresh objects are built per pass — a half-restored engine is
  // never run.
  for (int pass = 0; pass < 2; ++pass) {
    const bool try_resume = pass == 0 && have_snapshot;
    uint64_t snapshots_written = 0;
    std::optional<JobResult> out = RunCell(
        spec, [&](Engine& engine, TieringPolicy& policy, Workload& workload,
                  AuditSession* audit) {
          if (try_resume &&
              !RestoreFromPayload(blob.payload, engine, policy, workload, audit)) {
            return false;  // discard, rebuild clean
          }
          if (ctx.resumed != nullptr) {
            *ctx.resumed = try_resume;
          }
          // `audit` by value: the parameter ends with this call, while the
          // components it and the references name live through Run().
          engine.EnableCheckpoints(ctx.interval_ns, [&, audit] {
            const std::string snap =
                BuildSnapshotPayload(engine, policy, workload, audit);
            std::string error;
            // A failed write (disk full, unwritable dir) only loses
            // resumability; the run itself continues.
            store.Write(ctx.fingerprint, ctx.attempt, snap, &error);
            if (ctx.on_snapshot) {
              ctx.on_snapshot(snap);
            }
            ++snapshots_written;
            if (kill_after > 0 && !try_resume &&
                snapshots_written == static_cast<uint64_t>(kill_after)) {
              raise(SIGKILL);
            }
          });
          return true;
        });
    if (out.has_value()) {
      return *std::move(out);
    }
  }
  SIM_CHECK(false && "unreachable: pass 1 never resumes");
  return JobResult{};
}

}  // namespace memtis
