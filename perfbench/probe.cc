// perfbench_probe: the benchmark's in-process side (see perfbench/NOTES.md).
//
// It expands the same cells memtis_run does (ExpandJobs over one SweepSpec)
// and builds each one the way RunJob does: MakeWorkload, MakePolicy,
// MakeNvmMachine, Engine. Three modes:
//
//   fingerprint   build type, compiler and flags of this binary, as JSON.
//   setup         builds every cell (workload model, policy, machine, Engine
//                 constructor) repeatedly without running it and prints the
//                 median host time of building them all.
//   trace         runs every cell several times and splits its host time by
//                 layer. The passes are
//                   plain    untimed layers (the overhead reference),
//                   traced   the policy and workload wrapped in forwarding
//                            decorators that record spans and counts,
//                   record   a plain run writing the src/trace/ stream,
//                   replay   that stream replayed with an unbounded budget,
//                            through the same decorators,
//                   runjob/ckpt (with --checkpoint-ns) RunJob against
//                            RunJobCheckpointed in a fresh directory.
//                 Every pass's Metrics::ToJson() goes to --cells-out so the
//                 caller can check it byte for byte against memtis_run.
//
// The decorators only observe: they forward every virtual function of
// TieringPolicy and Workload, including RunAbsorbLimit/AbsorbRun, so the
// traced run takes the same batched path as the untraced one.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/json.h"
#include "src/memtis/policy_registry.h"
#include "src/runner/checkpoint_runner.h"
#include "src/runner/job_codec.h"
#include "src/runner/sweep.h"
#include "src/runner/thread_pool.h"
#include "src/sim/engine.h"
#include "src/snapshot/snapshot_file.h"
#include "src/trace/replay_workload.h"
#include "src/trace/trace.h"
#include "src/workloads/registry.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_COMPILER
#define PERFBENCH_CXX_COMPILER "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif

namespace memtis {
namespace {

using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

// --- Spans --------------------------------------------------------------------

enum SpanName : uint32_t {
  kSpanEngineCtor,
  kSpanInit,
  kSpanSetup,
  kSpanStep,
  kSpanTick,
  kSpanRun,
  kNumSpanNames
};
constexpr const char* kSpanNames[kNumSpanNames] = {
    "sim.engine_ctor", "policy.init", "workloads.setup",
    "workloads.step",  "policy.tick", "sim.run"};

struct Span {
  uint32_t name = 0;
  int32_t parent = -1;  // index into the same cell's span vector
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// Spans and counts of one pass of one cell. A cell runs on one thread, so
// the recorder needs no locking; the decorators of a cell share one.
struct CellTrace {
  std::vector<Span> spans;
  int32_t open = -1;
  uint64_t on_access_calls = 0;
  uint64_t absorbed_accesses = 0;
  uint64_t steps = 0;

  int32_t Begin(SpanName name) {
    spans.push_back(Span{name, open, NowNs(), 0});
    open = static_cast<int32_t>(spans.size() - 1);
    return open;
  }
  void End(int32_t index) {
    spans[static_cast<size_t>(index)].end_ns = NowNs();
    open = spans[static_cast<size_t>(index)].parent;
  }
};

class ScopedSpan {
 public:
  ScopedSpan(CellTrace& trace, SpanName name) : trace_(trace), index_(trace.Begin(name)) {}
  ~ScopedSpan() { trace_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  CellTrace& trace_;
  int32_t index_;
};

// Self time per span name: a span's duration minus what its children cover.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<int64_t> child(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::vector<int64_t> self(kNumSpanNames, 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    self[spans[i].name] += spans[i].end_ns - spans[i].start_ns - child[i];
  }
  return self;
}

// --- Forwarding decorators ------------------------------------------------------

class TracingPolicy final : public TieringPolicy {
 public:
  TracingPolicy(TieringPolicy& inner, CellTrace& trace) : inner_(inner), trace_(trace) {}

  std::string_view name() const override { return inner_.name(); }
  void Init(PolicyContext& ctx) override {
    ScopedSpan span(trace_, kSpanInit);
    inner_.Init(ctx);
  }
  // Counted, not timed: a timer read costs more than the hook.
  void OnAccess(PolicyContext& ctx, PageIndex index, PageInfo& page,
                const Access& access) override {
    ++trace_.on_access_calls;
    inner_.OnAccess(ctx, index, page, access);
  }
  uint64_t RunAbsorbLimit(PolicyContext& ctx, bool is_write) override {
    return inner_.RunAbsorbLimit(ctx, is_write);
  }
  void AbsorbRun(PolicyContext& ctx, PageIndex index, PageInfo& page,
                 const Access& access, uint64_t n) override {
    trace_.absorbed_accesses += n;
    inner_.AbsorbRun(ctx, index, page, access, n);
  }
  void OnPageAllocated(PolicyContext& ctx, PageIndex index, PageInfo& page) override {
    inner_.OnPageAllocated(ctx, index, page);
  }
  void OnPageFreed(PolicyContext& ctx, PageIndex index, PageInfo& page) override {
    inner_.OnPageFreed(ctx, index, page);
  }
  void Tick(PolicyContext& ctx) override {
    ScopedSpan span(trace_, kSpanTick);
    inner_.Tick(ctx);
  }
  AllocOptions PlacementFor(PolicyContext& ctx, uint64_t bytes, bool use_thp) override {
    return inner_.PlacementFor(ctx, bytes, use_thp);
  }
  ClassifiedSizes Classify(PolicyContext& ctx) override { return inner_.Classify(ctx); }
  bool SupportsCheckpoint() const override { return inner_.SupportsCheckpoint(); }
  void SaveState(StateWriter& w) const override { inner_.SaveState(w); }
  void LoadState(StateReader& r) override { inner_.LoadState(r); }

 private:
  TieringPolicy& inner_;
  CellTrace& trace_;
};

class TracingWorkload final : public Workload {
 public:
  TracingWorkload(Workload& inner, CellTrace& trace) : inner_(inner), trace_(trace) {}

  std::string_view name() const override { return inner_.name(); }
  uint64_t footprint_bytes() const override { return inner_.footprint_bytes(); }
  void Setup(App& app, Rng& rng) override {
    ScopedSpan span(trace_, kSpanSetup);
    inner_.Setup(app, rng);
  }
  bool Step(App& app, Rng& rng) override {
    ++trace_.steps;
    ScopedSpan span(trace_, kSpanStep);
    return inner_.Step(app, rng);
  }
  std::unique_ptr<Workload> ShardSlice(uint32_t shard, uint32_t num_shards) const override {
    return inner_.ShardSlice(shard, num_shards);
  }
  bool SupportsCheckpoint() const override { return inner_.SupportsCheckpoint(); }
  void SaveState(StateWriter& w) const override { inner_.SaveState(w); }
  void LoadState(StateReader& r) override { inner_.LoadState(r); }

 private:
  Workload& inner_;
  CellTrace& trace_;
};

// --- Cells ------------------------------------------------------------------------

// One cell built exactly as RunJob builds an unsharded, untweaked cell.
struct Cell {
  std::unique_ptr<Workload> workload;
  std::unique_ptr<TieringPolicy> policy;
  MachineConfig machine;
  EngineOptions options;
};

Cell BuildCell(const JobSpec& spec) {
  SIM_CHECK(spec.shards == 1 && spec.memtis_tweak == nullptr && !spec.cxl);
  Cell cell;
  const double scale =
      spec.footprint_scale > 0.0 ? spec.footprint_scale : BenchFootprintScale();
  cell.workload = MakeWorkload(spec.benchmark, scale, spec.workload_seed_offset());
  const uint64_t footprint = cell.workload->footprint_bytes();
  const uint64_t fast = spec.fast_bytes_override != 0
                            ? spec.fast_bytes_override
                            : static_cast<uint64_t>(static_cast<double>(footprint) *
                                                    spec.fast_ratio);
  cell.policy = MakePolicy(spec.system, footprint, fast);
  cell.machine = MakeNvmMachine(fast, footprint + footprint / 2);
  cell.options.max_accesses = spec.accesses != 0 ? spec.accesses : DefaultAccesses();
  cell.options.snapshot_interval_ns = spec.snapshot_interval_ns;
  cell.options.cpu_contention = spec.cpu_contention;
  cell.options.seed = spec.engine_seed;
  return cell;
}

// --- Arguments --------------------------------------------------------------------

struct Args {
  std::string mode;
  SweepSpec sweep;
  int threads = 1;
  uint64_t checkpoint_ns = 0;
  std::string work_dir = ".";
  std::string cells_out;
  std::string spans_out;
};

std::vector<std::string> SplitList(const std::string& csv) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= csv.size()) {
    const size_t comma = std::min(csv.find(',', start), csv.size());
    if (comma > start) {
      out.push_back(csv.substr(start, comma - start));
    }
    start = comma + 1;
  }
  return out;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) {
    return false;
  }
  args->mode = argv[1];
  args->sweep.footprint_scale = 0.25;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0) {
      return false;
    }
    const std::string key = arg.substr(2, eq == std::string::npos ? eq : eq - 2);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "systems") {
      args->sweep.systems = SplitList(value);
    } else if (key == "benchmarks") {
      args->sweep.benchmarks = SplitList(value);
    } else if (key == "baseline") {
      args->sweep.include_baseline = true;
    } else if (key == "accesses") {
      args->sweep.accesses = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "footprint-scale") {
      args->sweep.footprint_scale = std::atof(value.c_str());
    } else if (key == "base-seed") {
      args->sweep.base_seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "threads") {
      args->threads = std::max(1, std::atoi(value.c_str()));
    } else if (key == "checkpoint-ns") {
      args->checkpoint_ns = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "work-dir") {
      args->work_dir = value;
    } else if (key == "cells-out") {
      args->cells_out = value;
    } else if (key == "spans-out") {
      args->spans_out = value;
    } else {
      std::fprintf(stderr, "perfbench_probe: unknown flag %s\n", arg.c_str());
      return false;
    }
  }
  return args->mode == "fingerprint" ||
         (!args->sweep.benchmarks.empty() &&
          (!args->sweep.systems.empty() || args->sweep.include_baseline));
}

// --- Modes ------------------------------------------------------------------------

int Fingerprint() {
  std::string out;
  JsonWriter w(&out);
  w.BeginObject();
  w.Field("build_type", PERFBENCH_BUILD_TYPE);
  w.Field("compiler", PERFBENCH_CXX_COMPILER);
  w.Field("flags", PERFBENCH_CXX_FLAGS);
  w.EndObject();
  std::printf("%s\n", out.c_str());
  return 0;
}

// Host seconds to build every cell, repeated until 50 ms of building have
// been made (at least once, at most 1000 times). Prints the median
// repetition.
int Setup(const Args& args) {
  const std::vector<JobSpec> jobs = ExpandJobs(args.sweep);
  std::vector<int64_t> reps;
  int64_t total_ns = 0;
  while (reps.empty() || (reps.size() < 1000 && total_ns < 50'000'000)) {
    int64_t built_ns = 0;
    for (const JobSpec& spec : jobs) {
      const int64_t start = NowNs();
      Cell cell = BuildCell(spec);
      Engine engine(cell.machine, *cell.policy, cell.options);
      built_ns += NowNs() - start;
    }
    reps.push_back(built_ns);
    total_ns += built_ns;
  }
  std::sort(reps.begin(), reps.end());
  std::string out;
  JsonWriter w(&out);
  w.BeginObject();
  w.Field("cells", static_cast<uint64_t>(jobs.size()));
  w.Field("reps", static_cast<uint64_t>(reps.size()));
  w.Field("setup_s_median", static_cast<double>(reps[reps.size() / 2]) / 1e9);
  w.EndObject();
  std::printf("%s\n", out.c_str());
  return 0;
}

// Per-layer totals of one pass over all cells.
struct PassTotals {
  int64_t self_ns[kNumSpanNames] = {};
  uint64_t steps = 0;
  uint64_t ticks = 0;
  uint64_t on_access_calls = 0;
  uint64_t absorbed_accesses = 0;
  uint64_t accesses = 0;
  std::vector<uint32_t> tick_ns;  // every Tick's duration

  void Add(const CellTrace& trace, uint64_t cell_accesses) {
    const std::vector<int64_t> self = SelfTimes(trace.spans);
    for (uint32_t n = 0; n < kNumSpanNames; ++n) {
      self_ns[n] += self[n];
    }
    for (const Span& s : trace.spans) {
      if (s.name == kSpanTick) {
        ++ticks;
        tick_ns.push_back(static_cast<uint32_t>(
            std::min<int64_t>(s.end_ns - s.start_ns, UINT32_MAX)));
      }
    }
    steps += trace.steps;
    on_access_calls += trace.on_access_calls;
    absorbed_accesses += trace.absorbed_accesses;
    accesses += cell_accesses;
  }
};

double Percentile(std::vector<uint32_t>& values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  const size_t k = static_cast<size_t>(q * static_cast<double>(values.size() - 1));
  std::nth_element(values.begin(), values.begin() + static_cast<ptrdiff_t>(k),
                   values.end());
  return static_cast<double>(values[k]);
}

class TraceRun {
 public:
  explicit TraceRun(const Args& args)
      : args_(args), jobs_(ExpandJobs(args.sweep)), cell_lines_(jobs_.size()) {}

  int Run() {
    const double plain_s = Pass([this](size_t i) { PlainCell(i); });
    const double traced_s = Pass([this](size_t i) { TracedCell(i); });
    Pass([this](size_t i) { ReplayCell(i); });
    if (args_.checkpoint_ns != 0) {
      // One cell at a time: the difference of two walls is the snapshot cost.
      for (size_t i = 0; i < jobs_.size(); ++i) {
        CheckpointCell(i);
      }
    }
    if (!WriteCells() || !WriteSpans()) {
      return 1;
    }
    PrintSummary(plain_s, traced_s);
    return 0;
  }

 private:
  // Runs fn(i) for every cell on the pool; returns the pass's wall seconds.
  template <class Fn>
  double Pass(Fn fn) {
    const int64_t start = NowNs();
    ThreadPool pool(args_.threads);
    for (size_t i = 0; i < jobs_.size(); ++i) {
      pool.Submit([&fn, i] { fn(i); });
    }
    pool.Wait();
    return static_cast<double>(NowNs() - start) / 1e9;
  }

  void Emit(size_t i, const char* pass, const Metrics& metrics) {
    const JobSpec& spec = jobs_[i];
    std::string line = std::string(pass) + '\t' + spec.system + '\t' + spec.benchmark +
                       '\t' + metrics.ToJson() + '\n';
    std::lock_guard<std::mutex> lock(mu_);
    cell_lines_[i] += line;
  }

  void PlainCell(size_t i) {
    Cell cell = BuildCell(jobs_[i]);
    Engine engine(cell.machine, *cell.policy, cell.options);
    Emit(i, "plain", engine.Run(*cell.workload));
  }

  void TracedCell(size_t i) {
    CellTrace trace;
    const int32_t run_span = trace.Begin(kSpanRun);
    Cell cell = BuildCell(jobs_[i]);
    TracingPolicy policy(*cell.policy, trace);
    TracingWorkload workload(*cell.workload, trace);
    std::unique_ptr<Engine> engine;
    {
      ScopedSpan span(trace, kSpanEngineCtor);
      engine = std::make_unique<Engine>(cell.machine, policy, cell.options);
    }
    const Metrics metrics = engine->Run(workload);
    engine.reset();
    trace.End(run_span);
    Emit(i, "traced", metrics);
    Collect(i, trace, metrics.accesses, &traced_);
  }

  // Records the cell's access stream, times decoding it alone, then replays
  // it through the decorators with an unbounded budget (a bounded replay
  // stops at its 256-event Step boundary and would not be byte-identical).
  void ReplayCell(size_t i) {
    const std::string path =
        args_.work_dir + "/cell-" + std::to_string(i) + ".trace";
    uint64_t footprint = 0;
    {
      Cell cell = BuildCell(jobs_[i]);
      footprint = cell.workload->footprint_bytes();
      TraceWriter writer(path);
      cell.options.trace = &writer;
      Engine engine(cell.machine, *cell.policy, cell.options);
      Emit(i, "record", engine.Run(*cell.workload));
      writer.Finish();
    }
    int64_t decode_ns = NowNs();
    {
      TraceReader reader(path);
      TraceReader::Event event;
      while (reader.Next(event)) {
      }
    }
    decode_ns = NowNs() - decode_ns;

    CellTrace trace;
    const int32_t run_span = trace.Begin(kSpanRun);
    Cell cell = BuildCell(jobs_[i]);
    SIM_CHECK_EQ(cell.workload->footprint_bytes(), footprint);
    cell.options.max_accesses = UINT64_MAX;
    TraceReplayWorkload replay(path);
    TracingPolicy policy(*cell.policy, trace);
    TracingWorkload workload(replay, trace);
    Metrics metrics;
    {
      Engine engine(cell.machine, policy, cell.options);
      metrics = engine.Run(workload);
    }
    trace.End(run_span);
    std::filesystem::remove(path);
    Emit(i, "replay", metrics);
    Collect(i, trace, metrics.accesses, &replay_);
    std::lock_guard<std::mutex> lock(mu_);
    decode_ns_ += decode_ns;
  }

  void CheckpointCell(size_t i) {
    const JobSpec& spec = jobs_[i];
    int64_t start = NowNs();
    const JobResult plain = RunJob(spec);
    const int64_t runjob_ns = NowNs() - start;
    Emit(i, "runjob", plain.metrics);

    const std::string dir = args_.work_dir + "/ckpt-" + std::to_string(i);
    SIM_CHECK(!std::filesystem::exists(dir) && "checkpoint directory must be fresh");
    std::filesystem::create_directories(dir);
    CheckpointContext ctx;
    ctx.interval_ns = args_.checkpoint_ns;
    ctx.fingerprint = JobFingerprint(spec);
    ctx.snapshot_base = dir + "/" + ctx.fingerprint + ".ckpt";
    bool resumed = true;
    ctx.resumed = &resumed;
    start = NowNs();
    const JobResult ckpt = RunJobCheckpointed(spec, ctx);
    const int64_t ckpt_ns = NowNs() - start;
    // A leftover slot would restore instead of running; the directory is new.
    SIM_CHECK(!resumed && "checkpointed pass restored from a stale snapshot");
    Emit(i, "ckpt", ckpt.metrics);

    SnapshotStore store(ctx.snapshot_base);
    SnapshotBlob newest;
    uint64_t writes = 0;
    if (store.LoadNewest(ctx.fingerprint, ctx.attempt, &newest)) {
      writes = newest.sequence;
    }
    uint64_t slot_bytes = 0;
    int slots = 0;
    for (int slot = 0; slot < 2; ++slot) {
      const std::string path = SnapshotStore::SlotPath(ctx.snapshot_base, slot);
      if (std::filesystem::exists(path)) {
        slot_bytes += std::filesystem::file_size(path);
        ++slots;
      }
    }
    std::filesystem::remove_all(dir);
    snapshot_write_ns_ += ckpt_ns - runjob_ns;
    snapshot_writes_ += writes;
    snapshot_bytes_ += slots == 0 ? 0 : writes * slot_bytes / static_cast<uint64_t>(slots);
  }

  void Collect(size_t i, CellTrace& trace, uint64_t accesses, PassTotals* totals) {
    std::lock_guard<std::mutex> lock(mu_);
    totals->Add(trace, accesses);
    if (totals == &traced_) {
      spans_.push_back({i, std::move(trace.spans)});
    }
  }

  bool WriteCells() const {
    std::FILE* f = std::fopen(args_.cells_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "perfbench_probe: cannot write %s\n", args_.cells_out.c_str());
      return false;
    }
    for (const std::string& lines : cell_lines_) {
      std::fputs(lines.c_str(), f);
    }
    return std::fclose(f) == 0;
  }

  // Spans of the traced pass, one CSV line each, written once at the end.
  bool WriteSpans() const {
    std::FILE* f = std::fopen(args_.spans_out.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::fprintf(f, "cell,span,parent,name,start_ns,end_ns\n");
    for (const auto& [cell, spans] : spans_) {
      for (size_t s = 0; s < spans.size(); ++s) {
        std::fprintf(f, "%zu,%zu,%d,%s,%" PRId64 ",%" PRId64 "\n", cell, s,
                     spans[s].parent, kSpanNames[spans[s].name], spans[s].start_ns,
                     spans[s].end_ns);
      }
    }
    return std::fclose(f) == 0;
  }

  void PrintSummary(double plain_s, double traced_s) {
    const double gen_step = Ms(traced_.self_ns[kSpanStep]);
    const double replay_step = Ms(replay_.self_ns[kSpanStep]);
    const double decode = Ms(decode_ns_);
    std::string out;
    JsonWriter w(&out);
    w.BeginObject();
    w.Field("cells", static_cast<uint64_t>(jobs_.size()));
    w.Field("plain_wall_s", plain_s);
    w.Field("traced_wall_s", traced_s);
    w.Field("workloads.gen_ms", gen_step - replay_step + decode);
    w.Field("workloads.setup_ms", Ms(traced_.self_ns[kSpanSetup]));
    w.Field("workloads.steps", traced_.steps);
    w.Field("workloads.step_self_ms", gen_step);
    w.Field("trace.replay_step_self_ms", replay_step);
    w.Field("trace.decode_ms", decode);
    w.Field("sim.access_ms", replay_step - decode);
    w.Field("sim.accesses", traced_.accesses);
    w.Field("sim.absorbed_accesses", traced_.absorbed_accesses);
    w.Field("sim.engine_ctor_ms", Ms(traced_.self_ns[kSpanEngineCtor]));
    w.Field("sim.run_self_ms", Ms(traced_.self_ns[kSpanRun]));
    w.Field("policy.tick_ms", Ms(traced_.self_ns[kSpanTick]));
    w.Field("policy.ticks", traced_.ticks);
    w.Field("policy.tick_us_p50", Percentile(traced_.tick_ns, 0.50) / 1e3);
    w.Field("policy.tick_us_p99", Percentile(traced_.tick_ns, 0.99) / 1e3);
    w.Field("policy.init_ms", Ms(traced_.self_ns[kSpanInit]));
    w.Field("policy.on_access_calls", traced_.on_access_calls);
    w.Field("snapshot.write_ms", Ms(snapshot_write_ns_));
    w.Field("snapshot.writes", snapshot_writes_);
    w.Field("snapshot.bytes", snapshot_bytes_);
    w.EndObject();
    std::printf("%s\n", out.c_str());
  }

  const Args& args_;
  const std::vector<JobSpec> jobs_;
  std::mutex mu_;  // guards everything below
  std::vector<std::string> cell_lines_;
  PassTotals traced_;
  PassTotals replay_;
  int64_t decode_ns_ = 0;
  int64_t snapshot_write_ns_ = 0;
  uint64_t snapshot_writes_ = 0;
  uint64_t snapshot_bytes_ = 0;
  std::vector<std::pair<size_t, std::vector<Span>>> spans_;
};

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_probe fingerprint\n"
                 "       perfbench_probe setup|trace --systems=.. --benchmarks=.. "
                 "[--baseline] [--accesses=N] [--footprint-scale=X] [--base-seed=N]\n"
                 "         trace: --cells-out=FILE --spans-out=FILE [--work-dir=DIR]\n"
                 "                [--threads=N] [--checkpoint-ns=N]\n");
    return 2;
  }
  if (args.mode == "fingerprint") {
    return Fingerprint();
  }
  if (std::string_view(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr,
                 "perfbench_probe: built as '%s'; benchmark numbers must come "
                 "from a Release build\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  if (args.mode == "setup") {
    return Setup(args);
  }
  if (args.mode == "trace" && !args.cells_out.empty() && !args.spans_out.empty()) {
    return TraceRun(args).Run();
  }
  std::fprintf(stderr, "perfbench_probe: unknown mode or missing output file\n");
  return 2;
}

}  // namespace
}  // namespace memtis

int main(int argc, char** argv) { return memtis::Main(argc, argv); }
