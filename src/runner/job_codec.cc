#include "src/runner/job_codec.h"

#include <cinttypes>
#include <cstdio>

#include "src/common/json.h"
#include "src/common/json_parse.h"

namespace memtis {
namespace {

uint64_t Fnv1a64(std::string_view data) {
  uint64_t hash = 1469598103934665603ull;
  for (const char c : data) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

uint64_t ResolvedAccesses(const JobSpec& spec) {
  return spec.accesses != 0 ? spec.accesses : DefaultAccesses();
}

double ResolvedFootprintScale(const JobSpec& spec) {
  return spec.footprint_scale > 0.0 ? spec.footprint_scale
                                    : BenchFootprintScale();
}

}  // namespace

std::string CanonicalJobSpec(const JobSpec& spec) {
  std::string out;
  out.reserve(192);
  out += "system=";
  out += spec.system;
  out += ";benchmark=";
  out += spec.benchmark;
  out += ";machine=";
  out += spec.machine_name();
  out += ";ratio=";
  out += JsonWriter::FormatDouble(spec.fast_ratio);
  out += ";accesses=";
  out += std::to_string(ResolvedAccesses(spec));
  out += ";contention=";
  out += spec.cpu_contention ? '1' : '0';
  out += ";snapshot_ns=";
  out += std::to_string(spec.snapshot_interval_ns);
  out += ";fast_bytes=";
  out += std::to_string(spec.fast_bytes_override);
  out += ";fscale=";
  out += JsonWriter::FormatDouble(ResolvedFootprintScale(spec));
  // The seed axis hashes as the one offset the workload sees, written as
  // (offset, 0): seed_index 0 keeps its historical text, and a repetition
  // shares its fingerprint with the --base-seed reproducer that runs it.
  out += ";base_seed=";
  out += std::to_string(spec.workload_seed_offset());
  out += ";seed_index=0";
  out += ";engine_seed=";
  out += std::to_string(spec.engine_seed);
  out += ";audit=";
  out += spec.audit ? '1' : '0';
  out += ";epoch_ns=";
  out += std::to_string(spec.audit_epoch_interval_ns);
  out += ";faults=";
  out += spec.faults;
  out += ";tweak=";
  out += spec.memtis_tweak != nullptr ? '1' : '0';
  // Appended only for sharded cells so every pre-sharding fingerprint (resume
  // manifests, committed sweep files) hashes exactly as before.
  if (spec.shards > 1) {
    out += ";shards=";
    out += std::to_string(spec.shards);
  }
  return out;
}

std::string JobFingerprint(const JobSpec& spec) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, Fnv1a64(CanonicalJobSpec(spec)));
  return buf;
}

void WriteJobResultJson(JsonWriter& w, const JobResult& result) {
  w.BeginObject();
  w.Field("v", static_cast<uint64_t>(1));
  w.Field("footprint_bytes", result.footprint_bytes);
  w.Field("fast_bytes", result.fast_bytes);
  w.Key("metrics");
  result.metrics.WriteJson(w, /*include_timeline=*/true);
  w.Field("is_memtis", result.is_memtis);
  if (result.is_memtis) {
    w.Key("memtis_stats");
    w.BeginObject();
    w.Field("coolings", result.memtis_stats.coolings);
    w.Field("threshold_adaptations", result.memtis_stats.threshold_adaptations);
    w.Field("benefit_estimations", result.memtis_stats.benefit_estimations);
    w.Field("split_rounds_triggered", result.memtis_stats.split_rounds_triggered);
    w.Field("splits_performed", result.memtis_stats.splits_performed);
    w.Field("split_subpages_to_fast", result.memtis_stats.split_subpages_to_fast);
    w.Field("collapses_performed", result.memtis_stats.collapses_performed);
    w.Field("last_ehr", result.memtis_stats.last_ehr);
    w.Field("last_rhr", result.memtis_stats.last_rhr);
    w.EndObject();
    w.Field("mean_ehr", result.mean_ehr);
    w.Field("sampler_cpu", result.sampler_cpu);
    w.Field("pebs_load_period", result.pebs_load_period);
    w.Field("pebs_store_period", result.pebs_store_period);
  }
  if (result.hemem_overalloc_bytes != 0) {
    w.Field("hemem_overalloc_bytes", result.hemem_overalloc_bytes);
  }
  w.Field("audited", result.audited);
  if (result.audited) {
    w.Key("audit_report");
    result.audit_report.WriteJson(w);
    w.Field("epoch_interval_ns", result.epoch_interval_ns);
    w.Field("epochs_recorded_total", result.epochs_recorded_total);
    w.Key("epochs");
    w.BeginArray();
    for (const EpochSample& sample : result.epochs) {
      sample.WriteJson(w);
    }
    w.EndArray();
  }
  w.EndObject();
}

bool ReadJobResultJson(const JsonValue& v, JobResult* out) {
  if (!v.is_object()) {
    return false;
  }
  *out = JobResult();
  out->footprint_bytes = v.GetUint("footprint_bytes");
  out->fast_bytes = v.GetUint("fast_bytes");
  const JsonValue* metrics = v.Find("metrics");
  if (metrics == nullptr || !Metrics::FromJson(*metrics, &out->metrics)) {
    return false;
  }
  out->is_memtis = v.GetBool("is_memtis");
  if (out->is_memtis) {
    if (const JsonValue* s = v.Find("memtis_stats"); s != nullptr) {
      out->memtis_stats.coolings = s->GetUint("coolings");
      out->memtis_stats.threshold_adaptations =
          s->GetUint("threshold_adaptations");
      out->memtis_stats.benefit_estimations = s->GetUint("benefit_estimations");
      out->memtis_stats.split_rounds_triggered =
          s->GetUint("split_rounds_triggered");
      out->memtis_stats.splits_performed = s->GetUint("splits_performed");
      out->memtis_stats.split_subpages_to_fast =
          s->GetUint("split_subpages_to_fast");
      out->memtis_stats.collapses_performed = s->GetUint("collapses_performed");
      out->memtis_stats.last_ehr = s->GetDouble("last_ehr");
      out->memtis_stats.last_rhr = s->GetDouble("last_rhr");
    }
    out->mean_ehr = v.GetDouble("mean_ehr");
    out->sampler_cpu = v.GetDouble("sampler_cpu");
    out->pebs_load_period = v.GetUint("pebs_load_period");
    out->pebs_store_period = v.GetUint("pebs_store_period");
  }
  out->hemem_overalloc_bytes = v.GetUint("hemem_overalloc_bytes");
  out->audited = v.GetBool("audited");
  if (out->audited) {
    if (const JsonValue* report = v.Find("audit_report"); report != nullptr) {
      AuditReport::FromJson(*report, &out->audit_report);
    }
    out->epoch_interval_ns = v.GetUint("epoch_interval_ns");
    out->epochs_recorded_total = v.GetUint("epochs_recorded_total");
    if (const JsonValue* epochs = v.Find("epochs"); epochs != nullptr) {
      out->epochs.reserve(epochs->size());
      for (size_t i = 0; i < epochs->size(); ++i) {
        EpochSample sample;
        if (EpochSample::FromJson(epochs->at(i), &sample)) {
          out->epochs.push_back(std::move(sample));
        }
      }
    }
  }
  return true;
}

void WriteJobFailureJson(JsonWriter& w, const JobFailure& failure) {
  w.BeginObject();
  w.Field("kind", FailureKindName(failure.kind));
  w.Field("exit_status", failure.exit_status);
  w.Field("signal", failure.signal);
  w.Field("check_expr", failure.check_expr);
  w.Field("stderr_tail", failure.stderr_tail);
  w.Field("reproducer_cmdline", failure.reproducer_cmdline);
  w.Field("message", failure.message);
  w.EndObject();
}

bool ReadJobFailureJson(const JsonValue& v, JobFailure* out) {
  if (!v.is_object()) {
    return false;
  }
  *out = JobFailure();
  out->kind =
      FailureKindFromName(v.GetString("kind")).value_or(FailureKind::kCrash);
  out->exit_status = static_cast<int>(v.GetInt("exit_status"));
  out->signal = static_cast<int>(v.GetInt("signal"));
  out->check_expr = v.GetString("check_expr");
  out->stderr_tail = v.GetString("stderr_tail");
  out->reproducer_cmdline = v.GetString("reproducer_cmdline");
  out->message = v.GetString("message");
  return true;
}

void WriteJobSpecJson(JsonWriter& w, const JobSpec& spec) {
  w.BeginObject();
  w.Field("system", spec.system);
  w.Field("benchmark", spec.benchmark);
  w.Field("fast_ratio", spec.fast_ratio);
  w.Field("accesses", ResolvedAccesses(spec));
  w.Field("cxl", spec.cxl);
  w.Field("cpu_contention", spec.cpu_contention);
  w.Field("snapshot_interval_ns", spec.snapshot_interval_ns);
  w.Field("fast_bytes_override", spec.fast_bytes_override);
  w.Field("footprint_scale", ResolvedFootprintScale(spec));
  w.Field("base_seed", spec.base_seed);
  w.Field("seed_index", spec.seed_index);
  w.Field("engine_seed", spec.engine_seed);
  w.Field("audit", spec.audit);
  w.Field("audit_epoch_interval_ns", spec.audit_epoch_interval_ns);
  w.Field("shards", static_cast<uint64_t>(spec.shards));
  w.Field("faults", spec.faults);
  w.EndObject();
}

bool ReadJobSpecJson(const JsonValue& v, JobSpec* out) {
  if (!v.is_object()) {
    return false;
  }
  *out = JobSpec();
  out->system = v.GetString("system");
  out->benchmark = v.GetString("benchmark");
  if (out->system.empty() || out->benchmark.empty()) {
    return false;
  }
  out->fast_ratio = v.GetDouble("fast_ratio");
  out->accesses = v.GetUint("accesses");
  out->cxl = v.GetBool("cxl");
  out->cpu_contention = v.GetBool("cpu_contention");
  out->snapshot_interval_ns = v.GetUint("snapshot_interval_ns");
  out->fast_bytes_override = v.GetUint("fast_bytes_override");
  out->footprint_scale = v.GetDouble("footprint_scale");
  out->base_seed = v.GetUint("base_seed");
  out->seed_index = static_cast<uint32_t>(v.GetUint("seed_index"));
  out->engine_seed = v.GetUint("engine_seed");
  out->audit = v.GetBool("audit");
  out->audit_epoch_interval_ns = v.GetUint("audit_epoch_interval_ns");
  const uint64_t shards = v.GetUint("shards");
  out->shards = shards == 0 ? 1 : static_cast<uint32_t>(shards);
  out->faults = v.GetString("faults");
  return true;
}

std::string ReproducerCmdline(const JobSpec& spec, int attempt) {
  std::string cmd = "memtis_run --supervise";
  cmd += " --systems=" + spec.system;
  cmd += " --benchmarks=" + spec.benchmark;
  cmd += " --machines=";
  cmd += spec.machine_name();
  // The ratio names the cell even when --fast-bytes overrides the sizing.
  cmd += " --ratios=" + JsonWriter::FormatDouble(spec.fast_ratio);
  if (spec.fast_bytes_override != 0) {
    cmd += " --fast-bytes=" + std::to_string(spec.fast_bytes_override);
  }
  // One cell: collapse the seed axis into base-seed so seed_index 0 of the
  // repro derives this cell's exact workload_seed_offset.
  cmd += " --seeds=1 --base-seed=" + std::to_string(spec.workload_seed_offset());
  cmd += " --engine-seed=" +
         std::to_string(AttemptEngineSeed(spec.engine_seed, attempt));
  cmd += " --accesses=" + std::to_string(ResolvedAccesses(spec));
  cmd += " --footprint-scale=" +
         JsonWriter::FormatDouble(ResolvedFootprintScale(spec));
  if (spec.snapshot_interval_ns != 0) {
    cmd += " --snapshot-ns=" + std::to_string(spec.snapshot_interval_ns);
  }
  if (spec.shards > 1) {
    cmd += " --shards=" + std::to_string(spec.shards);
  }
  if (!spec.cpu_contention) {
    cmd += " --no-contention";
  }
  if (spec.audit) {
    cmd += " --audit";
    if (spec.audit_epoch_interval_ns != 0) {
      cmd += " --audit-epoch-ns=" + std::to_string(spec.audit_epoch_interval_ns);
    }
  }
  if (!spec.faults.empty()) {
    cmd += " --faults=" + spec.faults;
  }
  return cmd;
}

}  // namespace memtis
