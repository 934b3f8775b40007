// Repository benchmark harness: one seeded, closed-loop workload on the
// paper-scale workforce cube, driven by a single client thread through the
// engine's public API, with every operation checked against an oracle.
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--work-dir DIR]
//
// Common set-up: the cube (51 departments, 2,025 employees of which 250
// change department 1-11 times over 12 months, 10 measures, 5 scenarios;
// integer values, so every evaluation path must agree bit for bit) is
// generated and written to an OLAPCUB2 file before timing. A set-up loads
// it through the CRC-checked load path, registers it with the workforce
// named sets, builds what the workload needs and runs a short warm-up, so
// lazy work (count sidecar, closure index, pool threads, disk LRU) is paid
// there. It runs kSetups times; setup_s is the median.
//
// Workloads (see ops.h for the operation streams):
//   whatif_mix        8 persistent views, sync SimulatedDisk with a
//                     4,096-chunk LRU; Head-grid, visual, split and COMPARE
//                     what-if queries. Scenario composition, relocation,
//                     merge scans and grid evaluation dominate.
//   rollup_dashboard  8 persistent views, no disk; plain department grids
//                     and drill-downs. Parse/bind, view planning, cache
//                     serving and pool dispatch are the whole cost. Not in
//                     BENCHMARK.json: its ~2 ms memory-bound queries swing
//                     by up to 2x between runs on a shared machine, more
//                     than any regression bound allows.
//   edit_feed         8 persistent views patched by ApplyCellEdits batches,
//                     each followed by a read of the edited department, plus
//                     DeltaBatch + ApplyDelta refreshes of a live forward-
//                     perspective IncrementalScenario on its own cube copy.
//   outofcore_scan    no persistent views; the cube file is the SimulatedDisk
//                     backing file (1,024-chunk LRU, ~7% of the chunks) and
//                     pipelined_io streams cover-view chunk runs from it.
//
// eval_threads is the affinity-visible core count. Runs stop only at the
// end of a cycle of the operation stream, so every run sees the same mix.
//
// Oracles: pool queries are answered before timing by eval_threads=1,
// batched_eval=false, no disk, no pipeline on the generated cube (never
// written to or read from the file). edit_feed reads are checked against a
// mirror database without views that receives the same writes; the live
// scenario is checked against ComputeScenario on its edited base every
// kCheckpointEvery refreshes and at the end. Checks run outside the timed
// windows. The deterministic program counts of every operation must repeat
// across runs of one build with the same seed (kept under --work-dir).
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones:
// the loop runs untraced for the time budget, then the same operations are
// replayed on a fresh set-up with one trace session per operation, whose
// spans are folded into per-name self times before the next operation.
// The per-layer set also carries the figures that exist on some workloads
// only (edit and refresh latency, modeled I/O), from the untraced loop.
//
// The last stdout line is the result object; the line before it is the
// full report (environment, sample counts, p99, verdicts). stderr carries
// a readable table of every metric.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "agg/kernels.h"
#include "bench/bench_workloads.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "engine/database.h"
#include "engine/executor.h"
#include "harness/ops.h"
#include "harness/stats.h"
#include "storage/cube_io.h"
#include "storage/env.h"
#include "storage/simulated_disk.h"
#include "whatif/delta.h"
#include "whatif/scenario_algebra.h"
#include "workload/workforce.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace olap::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSetups = 3;
constexpr int kPersistentViews = 8;
constexpr int64_t kWhatifDiskChunks = 4096;
constexpr int64_t kOutofcoreDiskChunks = 1024;
constexpr int kWarmupQueries = 4;
constexpr int kCheckpointEvery = 16;
constexpr const char* kCubeName = "App.Db";
constexpr const char* kRootSpan = "bench.op";

int64_t NanosSince(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}

// The figure benchmarks' workforce cube (bench/bench_workloads.h): one
// fixed dataset, as the paper's experiments use one customer cube. The
// workload seed drives the operation stream.
WorkforceConfig CubeConfig() {
  WorkforceConfig c;
  c.num_departments = 51;
  c.num_employees = 2025;
  c.num_changing = 250;
  c.min_moves = 1;
  c.max_moves = 11;
  c.num_months = 12;
  c.num_measures = 10;
  c.num_scenarios = 5;
  c.seed = 20080407;
  return c;
}

// FNV-1a over labels, property columns and value bits: equal digests mean
// equal grids.
class Fnv {
 public:
  void Bytes(const void* p, size_t n) {
    const unsigned char* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) h_ = (h_ ^ b[i]) * 1099511628211ull;
  }
  void Str(const std::string& s) {
    Bytes(s.data(), s.size());
    Bytes("\0", 1);
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 14695981039346656037ull;
};

uint64_t BitsOf(CellValue v) {
  const double raw = CellValue::ToStorage(v);
  uint64_t bits;
  std::memcpy(&bits, &raw, sizeof(bits));
  return bits;
}

uint64_t DigestGrid(const ResultGrid& g) {
  Fnv h;
  h.U64(static_cast<uint64_t>(g.num_rows()));
  h.U64(static_cast<uint64_t>(g.num_columns()));
  for (const std::string& s : g.column_labels()) h.Str(s);
  for (const std::string& s : g.row_labels()) h.Str(s);
  for (int p = 0; p < g.num_property_columns(); ++p) {
    h.Str(g.property_name(p));
    for (const std::string& s : g.property_values(p)) h.Str(s);
  }
  for (int r = 0; r < g.num_rows(); ++r) {
    for (int c = 0; c < g.num_columns(); ++c) h.U64(BitsOf(g.at(r, c)));
  }
  return h.value();
}

// The bench_incremental digest: chunks in id order, cells in offset order.
uint64_t DigestCube(const Cube& cube) {
  std::map<ChunkId, const Chunk*> chunks;
  cube.ForEachChunk([&](ChunkId id, const Chunk& c) { chunks[id] = &c; });
  uint64_t h = 14695981039346656037ull;
  for (const auto& [id, chunk] : chunks) {
    h = (h ^ static_cast<uint64_t>(id)) * 1099511628211ull;
    for (int64_t i = 0; i < chunk->size(); ++i) {
      h = (h ^ BitsOf(chunk->Get(i))) * 1099511628211ull;
    }
  }
  return h;
}

std::vector<CellWrite> ToCellWrites(const std::vector<Write>& writes) {
  std::vector<CellWrite> out;
  out.reserve(writes.size());
  for (const Write& w : writes) {
    out.push_back({w.coords, CellValue(static_cast<double>(w.value))});
  }
  return out;
}

// The live scenario of edit_feed: a forward perspective at April.
ScenarioSpec LiveSpec(int dept_dim) {
  ScenarioSpec spec;
  spec.varying_dim = dept_dim;
  spec.ops = {ScenarioOp::Perspective(Perspectives({3}), Semantics::kForward)};
  return spec;
}

Status LoadAndRegister(const std::string& path, Database* db, Cube* copy) {
  Result<Cube> cube = LoadCube(path);
  if (!cube.ok()) return cube.status();
  WorkforceCube wf;
  wf.cube = std::move(*cube);
  wf.changing_employees =
      wf.cube.schema().dimension(wf.dept_dim).ChangingMembers();
  if (copy != nullptr) *copy = wf.cube;
  return RegisterWorkforce(db, kCubeName, std::move(wf));
}

// --- Engine set-up ----------------------------------------------------------

struct Engine {
  Database db;
  std::unique_ptr<Executor> exec;
  std::unique_ptr<SimulatedDisk> disk;
  Cube live_base;  // edit_feed: the live scenario's own copy of the cube.
  std::optional<IncrementalScenario> live;
  QueryOptions options;
  RefreshOptions refresh;
  double open_s = 0.0;
  double build_aggregates_s = 0.0;
  double setup_s = 0.0;
};

struct Context {
  Workload workload = Workload::kWhatifMix;
  uint64_t seed = 0;
  int eval_threads = 1;
  std::string cube_path;
  const CubeShape* shape = nullptr;
  std::vector<std::string> pool;
};

Status WarmUp(const Context& ctx, Engine* e) {
  if (ctx.workload != Workload::kEditFeed) {
    const size_t n = ctx.pool.size();
    for (int i = 0; i < kWarmupQueries; ++i) {
      Result<QueryResult> r =
          e->exec->Execute(ctx.pool[i * n / kWarmupQueries], e->options);
      if (!r.ok()) return r.status();
    }
    return Status::Ok();
  }
  // The first edit feed builds the cache's count sidecar; the first refresh
  // builds the delta closure index. Rewriting a cell with its own value
  // does both without changing the data.
  const CubeShape& s = *ctx.shape;
  const CubeShape::Employee& emp = s.employees[s.changing.front()];
  std::vector<int> coords(s.num_dims, 0);
  coords[s.dept_dim] = emp.instances.front().position;
  coords[s.period_dim] = emp.instances.front().months.front();
  Result<const Cube*> cube = e->db.FindCube(kCubeName);
  if (!cube.ok()) return cube.status();
  const CellValue v = (*cube)->GetCell(coords);
  OLAP_RETURN_IF_ERROR(e->db.ApplyCellEdits(kCubeName, {{coords, v}}));
  DeltaBatch batch(&e->live_base);
  OLAP_RETURN_IF_ERROR(batch.Set(coords, e->live_base.GetCell(coords)));
  OLAP_RETURN_IF_ERROR(e->live->ApplyDelta(batch, e->refresh));
  Result<QueryResult> r = e->exec->Execute(
      "SELECT {Descendants([Period],1,self_and_after)} ON COLUMNS, "
      "{[" + s.departments[emp.home_dept] + "].Children} ON ROWS FROM " +
          std::string(kCubeName),
      e->options);
  return r.ok() ? Status::Ok() : r.status();
}

Result<std::unique_ptr<Engine>> SetUp(const Context& ctx) {
  auto e = std::make_unique<Engine>();
  const Workload w = ctx.workload;
  const Clock::time_point t0 = Clock::now();
  OLAP_RETURN_IF_ERROR(LoadAndRegister(
      ctx.cube_path, &e->db, w == Workload::kEditFeed ? &e->live_base : nullptr));
  e->open_s = NanosSince(t0) * 1e-9;
  if (w != Workload::kOutofcoreScan) {
    const Clock::time_point tb = Clock::now();
    OLAP_RETURN_IF_ERROR(e->db.BuildAggregates(kCubeName, kPersistentViews));
    e->build_aggregates_s = NanosSince(tb) * 1e-9;
  }
  e->exec = std::make_unique<Executor>(&e->db);
  e->options.eval_threads = ctx.eval_threads;
  e->refresh.eval_threads = ctx.eval_threads;
  if (w == Workload::kWhatifMix) {
    e->disk = std::make_unique<SimulatedDisk>(bench::BenchDiskModel(),
                                              kWhatifDiskChunks);
    e->options.disk = e->disk.get();
  } else if (w == Workload::kOutofcoreScan) {
    e->disk = std::make_unique<SimulatedDisk>(bench::BenchDiskModel(),
                                              kOutofcoreDiskChunks);
    OLAP_RETURN_IF_ERROR(
        e->disk->AttachBackingFile(Env::Default(), ctx.cube_path));
    e->options.disk = e->disk.get();
    e->options.pipelined_io = true;
  } else if (w == Workload::kEditFeed) {
    ScenarioEvalOptions so;
    so.eval_threads = ctx.eval_threads;
    Result<IncrementalScenario> live = IncrementalScenario::Create(
        &e->live_base, {LiveSpec(ctx.shape->dept_dim)}, so);
    if (!live.ok()) return live.status();
    e->live.emplace(std::move(*live));
  }
  OLAP_RETURN_IF_ERROR(WarmUp(ctx, e.get()));
  e->setup_s = NanosSince(t0) * 1e-9;
  return e;
}

// --- Probes of the process-wide registry --------------------------------

// Registry counters read around every operation. The first
// kNumDeterministic are the deterministic program counts: with one client
// they repeat exactly for the same seed, so a difference between two runs
// means wrong, not noisy. The rest feed the per-layer metrics.
constexpr const char* kCounters[] = {
    "query.cells_computed",
    "whatif.chunk_reads",
    "whatif.cells_moved",
    "agg.batch.view_cells",
    "delta.refresh.chunks_affected",
    "disk.seek_chunks",
    "disk.reads.physical",
    "delta.refresh.incremental",
    "delta.refresh.runs",
    "agg.cache.hits",
    "agg.cache.lookups",
    "agg.batch.view_served",
    "agg.batch.refs",
    "cache.invalidate.views_kept",
    "cache.invalidate.views_dropped",
    "pipeline.prefetch.hits",
    "pipeline.prefetch.issued",
    "pipeline.coalesced_reads",
    "threadpool.tasks",
    "threadpool.parallel_for.work_cutoff",
    "threadpool.parallel_for.calls"};
constexpr int kNumDeterministic = 7;
constexpr int kNumCounters = sizeof(kCounters) / sizeof(kCounters[0]);

struct Reading {
  int64_t counters[kNumCounters] = {};
  int64_t task_ns = 0;   // threadpool.task_seconds sum.
  int64_t stall_ns = 0;  // pipeline.stall_seconds sum.
  double modeled_s = 0.0;
};

Reading Read(const SimulatedDisk* disk) {
  static const std::vector<Counter*> counters = [] {
    std::vector<Counter*> c;
    for (const char* n : kCounters) c.push_back(MetricsRegistry::Global().counter(n));
    return c;
  }();
  static Histogram* const task_seconds =
      MetricsRegistry::Global().histogram("threadpool.task_seconds");
  static Histogram* const stall_seconds =
      MetricsRegistry::Global().histogram("pipeline.stall_seconds");
  Reading r;
  for (int i = 0; i < kNumCounters; ++i) r.counters[i] = counters[i]->value();
  r.task_ns = task_seconds->TotalNanos();
  r.stall_ns = stall_seconds->TotalNanos();
  r.modeled_s = disk != nullptr ? disk->stats().virtual_seconds : 0.0;
  return r;
}

// --- The closed loop ------------------------------------------------------

// One timed operation.
struct OpRecord {
  int cls = 0;
  int slot = 0;
  double ms = 0.0;
  int64_t det[kNumDeterministic] = {};  // Deterministic count deltas.
  double modeled_ms = 0.0;              // SimulatedDisk virtual time.
};

struct LoopResult {
  int64_t attempted = 0;
  int64_t failed = 0;      // Non-OK status or oracle mismatch.
  int64_t mismatches = 0;  // Of which oracle mismatches.
  int64_t checkpoints = 0;
  int64_t per_class[kNumOpClasses] = {};
  std::vector<double> latency_ms[kNumOpClasses];
  int64_t cycles = 0;  // Completed cycles of the operation stream.
  int64_t timed_ns = 0;
  int64_t query_count = 0;
  double modeled_ms = 0.0;  // Over queries.
  std::vector<OpRecord> ops;
  // Traced runs only.
  SelfTimes self;
  int64_t counter_delta[kNumCounters] = {};
  int64_t task_ns = 0;
  int64_t stall_ns = 0;
  int peak_merge_chunks = 0;
  std::string first_error;
};

struct Oracle {
  Database* mirror = nullptr;  // edit_feed: receives the same writes.
  std::unique_ptr<Executor> exec;
  QueryOptions options;        // Serial, per-cell, no disk, no pipeline.
  std::vector<uint64_t> pool_digests;
};

void NoteFailure(LoopResult* r, const std::string& what) {
  ++r->failed;
  if (r->first_error.empty()) r->first_error = what;
}

// Runs operations from a fresh stream until `max_ops` ran, or the timed
// windows add up to `budget_ns` at the end of a cycle (or to twice that in
// any case).
LoopResult RunLoop(const Context& ctx, Engine* e, Oracle* oracle,
                   int64_t max_ops, int64_t budget_ns, bool traced) {
  LoopResult r;
  OpStream stream(ctx.workload, *ctx.shape, ctx.seed);
  const ScenarioSpec live_spec = LiveSpec(ctx.shape->dept_dim);
  int64_t refreshes = 0;
  auto checkpoint = [&]() {
    ++r.checkpoints;
    ScenarioEvalOptions so;
    Result<PerspectiveCube> full =
        ComputeScenario(e->live->cube().input(), live_spec, so);
    if (!full.ok() ||
        DigestCube(full->output()) != DigestCube(e->live->cube().output())) {
      ++r.mismatches;
      NoteFailure(&r, "live scenario differs from ComputeScenario");
    }
  };

  while (r.attempted < max_ops &&
         (r.timed_ns < budget_ns || !stream.at_cycle_start()) &&
         r.timed_ns / 2 < budget_ns) {
    if (r.attempted > 0 && stream.at_cycle_start()) ++r.cycles;
    const Op op = stream.Next();
    const int64_t index = r.attempted++;
    ++r.per_class[static_cast<int>(op.cls)];
    const Reading before = Read(e->disk.get());
    const std::vector<CellWrite> writes = ToCellWrites(op.writes);
    Status status;
    std::optional<QueryResult> result;
    if (traced) TraceCollector::Enable();
    const Clock::time_point t0 = Clock::now();
    {
      TraceSpan root(kRootSpan);
      if (root.active()) {
        root.SetDetail("op=" + std::to_string(index) +
                       " class=" + OpClassName(op.cls));
      }
      switch (op.cls) {
        case OpClass::kQuery: {
          TraceSpan span("bench.execute");
          Result<QueryResult> q = e->exec->Execute(op.mdx, e->options);
          if (q.ok()) {
            result.emplace(std::move(*q));
          } else {
            status = q.status();
          }
          break;
        }
        case OpClass::kEdit: {
          TraceSpan span("bench.edit");
          status = e->db.ApplyCellEdits(kCubeName, writes);
          break;
        }
        case OpClass::kRefresh: {
          TraceSpan span("bench.refresh");
          DeltaBatch batch(&e->live_base);
          for (const CellWrite& w : writes) {
            status = batch.Set(w.coords, w.value);
            if (!status.ok()) break;
          }
          if (status.ok()) status = e->live->ApplyDelta(batch, e->refresh);
          break;
        }
      }
    }
    const int64_t ns = NanosSince(t0);
    if (traced) {
      AccumulateSelfTimes(TraceCollector::DisableAndDrain(), kRootSpan,
                          &r.self);
    }
    r.timed_ns += ns;
    r.latency_ms[static_cast<int>(op.cls)].push_back(ns * 1e-6);

    // Everything below is outside the timed window.
    const Reading after = Read(e->disk.get());
    OpRecord c;
    c.cls = static_cast<int>(op.cls);
    c.slot = op.slot;
    c.ms = ns * 1e-6;
    for (int i = 0; i < kNumDeterministic; ++i) {
      c.det[i] = after.counters[i] - before.counters[i];
    }
    c.modeled_ms = (after.modeled_s - before.modeled_s) * 1e3;
    r.ops.push_back(c);
    for (int i = 0; i < kNumCounters; ++i) {
      r.counter_delta[i] += after.counters[i] - before.counters[i];
    }
    r.task_ns += after.task_ns - before.task_ns;
    r.stall_ns += after.stall_ns - before.stall_ns;

    if (!status.ok()) {
      NoteFailure(&r, std::string(OpClassName(op.cls)) + ": " +
                          status.ToString());
      continue;
    }
    switch (op.cls) {
      case OpClass::kQuery: {
        ++r.query_count;
        r.modeled_ms += c.modeled_ms;
        r.peak_merge_chunks = std::max(
            r.peak_merge_chunks, result->whatif_stats.peak_merge_chunks);
        uint64_t want = 0;
        if (!oracle->pool_digests.empty()) {
          want = oracle->pool_digests[op.slot];
        } else {
          Result<QueryResult> ref =
              oracle->exec->Execute(op.mdx, oracle->options);
          if (!ref.ok()) {
            NoteFailure(&r, "oracle: " + ref.status().ToString());
            continue;
          }
          want = DigestGrid(ref->grid);
        }
        if (DigestGrid(result->grid) != want) {
          ++r.mismatches;
          NoteFailure(&r, "grid differs from the oracle: " + op.mdx);
        }
        break;
      }
      case OpClass::kEdit: {
        Status s = oracle->mirror->ApplyCellEdits(kCubeName, writes);
        if (!s.ok()) NoteFailure(&r, "mirror edit: " + s.ToString());
        break;
      }
      case OpClass::kRefresh:
        if (++refreshes % kCheckpointEvery == 0) checkpoint();
        break;
    }
  }
  if (stream.at_cycle_start()) ++r.cycles;
  if (refreshes % kCheckpointEvery != 0) checkpoint();
  return r;
}

// --- Reporting --------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string JsonMetrics(const std::vector<Metric>& ms) {
  std::string out = "{";
  char buf[128];
  for (size_t i = 0; i < ms.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i ? ", " : "", ms[i].name.c_str(),
                  std::isfinite(ms[i].value) ? ms[i].value : 0.0,
                  ms[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux.
}

// The counts of a run, one line per operation; the file for a (workload,
// seed) pair is written by the first run and compared by later ones.
std::string CountsText(const std::vector<OpRecord>& counts) {
  std::string out;
  char buf[64];
  for (const OpRecord& c : counts) {
    out += OpClassName(static_cast<OpClass>(c.cls));
    for (int64_t v : c.det) {
      std::snprintf(buf, sizeof(buf), " %" PRId64, v);
      out += buf;
    }
    std::snprintf(buf, sizeof(buf), " %.17g\n", c.modeled_ms);
    out += buf;
  }
  return out;
}

std::string ReadFile(const std::string& path) {
  std::string out;
  if (FILE* f = std::fopen(path.c_str(), "rb")) {
    char buf[1 << 16];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
    std::fclose(f);
  }
  return out;
}

// Identity of this build: stored counts are compared only between runs of
// the same program.
uint64_t BuildId() {
  const std::string exe = ReadFile("/proc/self/exe");
  Fnv h;
  h.Bytes(exe.data(), exe.size());
  return h.value();
}

// Compares the common prefix of two per-operation count texts; returns the
// first differing operation or -1.
int64_t FirstCountDifference(const std::string& a, const std::string& b) {
  size_t ia = 0, ib = 0;
  for (int64_t op = 0;; ++op) {
    const size_t ea = a.find('\n', ia), eb = b.find('\n', ib);
    if (ea == std::string::npos || eb == std::string::npos) return -1;
    if (a.compare(ia, ea - ia, b, ib, eb - ib) != 0) return op;
    ia = ea + 1;
    ib = eb + 1;
  }
}

// Checks this run's counts against the stored ones for the same workload
// and seed, and keeps the longer record.
bool CheckCountsAgainstFile(const std::string& path, const std::string& mine,
                            std::string* why) {
  const std::string stored = ReadFile(path);
  const int64_t diff = FirstCountDifference(stored, mine);
  if (diff >= 0) {
    *why = "program counts of operation " + std::to_string(diff) +
           " differ from an earlier run with the same seed (" + path + ")";
    return false;
  }
  if (mine.size() > stored.size()) {
    const std::string tmp = path + ".tmp";
    if (FILE* f = std::fopen(tmp.c_str(), "wb")) {
      std::fwrite(mine.data(), 1, mine.size(), f);
      std::fclose(f);
      std::rename(tmp.c_str(), path.c_str());
    }
  }
  return true;
}

struct LayerSpec {
  const char* metric;
  std::vector<const char*> spans;
};

// Per-layer self-time metrics: mean self time per operation of the named
// spans (engine spans plus the harness's bench.* spans).
const std::vector<LayerSpec>& LayerTimes() {
  static const std::vector<LayerSpec> specs = {
      {"mdx.parse_ms", {"query.parse"}},
      {"mdx.bind_ms", {"query.bind"}},
      {"whatif.compose_ms",
       {"query.whatif", "scenario.compose", "scenario.compare",
        "whatif.compute_perspective_cube", "op.select", "op.allocate",
        "op.introduce"}},
      {"whatif.relocate_ms", {"op.relocate"}},
      {"whatif.split_ms", {"op.split"}},
      {"whatif.merge_scan_ms", {"whatif.merge_scan", "whatif.scan"}},
      {"whatif.pebble_ms", {"whatif.plan.pebble"}},
      {"whatif.refresh_ms", {"bench.refresh", "delta.refresh"}},
      {"agg.batch_prepare_ms", {"query.batch_prepare"}},
      {"agg.batch_plan_ms", {"agg.batch.plan"}},
      {"agg.rollup_ms", {"agg.rollup", "agg.rollup_outofcore"}},
      {"engine.evaluate_ms", {"query.evaluate"}},
      {"engine.filter_ms", {"query.filter"}},
      {"engine.execute_other_ms", {"bench.execute", "query.execute"}},
      {"engine.edit_ms", {"bench.edit"}},
      {"storage.fetch_batch_ms", {"pipeline.fetch_batch"}},
  };
  return specs;
}

// The module a span's self time belongs to, for the layer shares.
const char* ModuleOf(const std::string& span) {
  auto starts = [&](const char* p) { return span.rfind(p, 0) == 0; };
  if (span == "query.parse" || span == "query.bind") return "mdx";
  if (span == "query.whatif" || starts("scenario.") || starts("op.") ||
      starts("whatif.") || starts("delta.") || span == "bench.refresh") {
    return "whatif";
  }
  if (starts("agg.") || span == "query.batch_prepare") return "agg";
  if (starts("query.") || span == "bench.execute" || span == "bench.edit") {
    return "engine";
  }
  if (starts("pipeline.") || starts("disk.") || starts("storage.")) {
    return "storage";
  }
  if (span == kRootSpan) return "bench";
  return "other";
}

// Which end-to-end figure each per-layer metric should move, and on which
// workload that layer does most of its work (elsewhere it should read ~0 or
// stay unchanged). rollup_dashboard isolates the small-grid serving path
// (parse/bind, view planning, cache serving, pool dispatch) when run by hand.
const char* LayerTarget(const std::string& metric) {
  static const std::map<std::string, const char*> targets = {
      {"mdx.parse_ms", "query_p50_ms on edit_feed, rollup_dashboard"},
      {"mdx.bind_ms", "query_p50_ms on edit_feed, rollup_dashboard"},
      {"whatif.compose_ms", "query_p50_ms, query_p90_ms on whatif_mix"},
      {"whatif.relocate_ms", "query_p90_ms on whatif_mix"},
      {"whatif.split_ms", "query_p90_ms on whatif_mix"},
      {"whatif.merge_scan_ms", "query_p90_ms, modeled_io_ms on whatif_mix"},
      {"whatif.pebble_ms", "query_p90_ms, modeled_io_ms on whatif_mix"},
      {"whatif.refresh_ms", "refresh_p50_ms, ops_per_s on edit_feed"},
      {"agg.batch_prepare_ms", "query_p50_ms on outofcore_scan, whatif_mix"},
      {"agg.batch_plan_ms", "query_p50_ms on outofcore_scan, whatif_mix"},
      {"agg.rollup_ms", "query_p50_ms on outofcore_scan, whatif_mix"},
      {"engine.evaluate_ms", "query_p50_ms on whatif_mix"},
      {"engine.filter_ms", "query_p50_ms on whatif_mix"},
      {"engine.execute_other_ms", "query_p50_ms on edit_feed"},
      {"engine.edit_ms", "edit_p50_ms on edit_feed"},
      {"storage.fetch_batch_ms", "query_p50_ms on outofcore_scan"},
      {"whatif.chunk_reads", "modeled_io_ms, peak_rss_mb on whatif_mix"},
      {"whatif.cells_moved", "modeled_io_ms, peak_rss_mb on whatif_mix"},
      {"whatif.peak_merge_chunks", "modeled_io_ms, peak_rss_mb on whatif_mix"},
      {"whatif.refresh_chunks_affected", "refresh_p90_ms on edit_feed"},
      {"whatif.refresh_incremental_ratio", "refresh_p90_ms on edit_feed"},
      {"agg.cache_hit_ratio", "query_p50_ms on edit_feed"},
      {"agg.view_serve_ratio", "query_p50_ms on edit_feed, outofcore_scan"},
      {"agg.view_cells", "query_p50_ms on outofcore_scan, whatif_mix"},
      {"agg.views_kept_ratio", "query_p50_ms on edit_feed"},
      {"agg.build_aggregates_ms", "setup_s on whatif_mix, edit_feed"},
      {"engine.cells_computed", "query_p50_ms on whatif_mix"},
      {"storage.open_ms", "setup_s on every workload"},
      {"storage.stall_ms", "query_p50_ms on outofcore_scan"},
      {"storage.prefetch_hit_ratio",
       "query_p50_ms, modeled_io_ms on outofcore_scan"},
      {"storage.coalesced_reads",
       "query_p50_ms, modeled_io_ms on outofcore_scan"},
      {"storage.physical_reads",
       "modeled_io_ms on whatif_mix, outofcore_scan"},
      {"storage.seek_chunks", "modeled_io_ms on whatif_mix, outofcore_scan"},
      {"common.pool_busy_ratio", "query_p50_ms, ops_per_s on whatif_mix"},
      {"common.pool_tasks", "query_p50_ms on edit_feed, outofcore_scan"},
      {"common.parallel_for_cutoff_ratio", "query_p50_ms on edit_feed"},
      {"edit_p50_ms", "edit_feed"},
      {"edit_p90_ms", "edit_feed"},
      {"refresh_p50_ms", "edit_feed"},
      {"refresh_p90_ms", "edit_feed"},
      {"modeled_io_ms", "whatif_mix, outofcore_scan"},
  };
  auto it = targets.find(metric);
  return it != targets.end() ? it->second : "all workloads";
}

int64_t LayerCounter(const LoopResult& r, const char* name) {
  for (int i = 0; i < kNumCounters; ++i) {
    if (std::strcmp(kCounters[i], name) == 0) return r.counter_delta[i];
  }
  return 0;
}

double Ratio(int64_t num, int64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

std::vector<Metric> PerLayerMetrics(const LoopResult& traced,
                                    const LoopResult& plain,
                                    const std::vector<double>& open_s,
                                    const std::vector<double>& build_s,
                                    int eval_threads) {
  std::vector<Metric> m;
  const double ops = static_cast<double>(std::max<int64_t>(1, traced.attempted));
  auto self_ms = [&](const std::vector<const char*>& spans) {
    int64_t ns = 0;
    for (const char* s : spans) {
      auto it = traced.self.find(s);
      if (it != traced.self.end()) ns += it->second.self_ns;
    }
    return ns * 1e-6 / ops;
  };
  auto per_op = [&](const char* counter) {
    return LayerCounter(traced, counter) / ops;
  };
  for (const LayerSpec& spec : LayerTimes()) {
    m.push_back({spec.metric, self_ms(spec.spans), "ms"});
  }
  m.push_back({"whatif.chunk_reads", per_op("whatif.chunk_reads"), "count"});
  m.push_back({"whatif.cells_moved", per_op("whatif.cells_moved"), "count"});
  m.push_back({"whatif.peak_merge_chunks",
               static_cast<double>(traced.peak_merge_chunks), "count"});
  m.push_back({"whatif.refresh_chunks_affected",
               per_op("delta.refresh.chunks_affected"), "count"});
  m.push_back({"whatif.refresh_incremental_ratio",
               Ratio(LayerCounter(traced, "delta.refresh.incremental"),
                     LayerCounter(traced, "delta.refresh.runs")),
               "ratio"});
  m.push_back({"agg.cache_hit_ratio",
               Ratio(LayerCounter(traced, "agg.cache.hits"),
                     LayerCounter(traced, "agg.cache.lookups")),
               "ratio"});
  m.push_back({"agg.view_serve_ratio",
               Ratio(LayerCounter(traced, "agg.batch.view_served"),
                     LayerCounter(traced, "agg.batch.refs")),
               "ratio"});
  m.push_back({"agg.view_cells", per_op("agg.batch.view_cells"), "count"});
  const int64_t kept = LayerCounter(traced, "cache.invalidate.views_kept");
  m.push_back(
      {"agg.views_kept_ratio",
       Ratio(kept, kept + LayerCounter(traced, "cache.invalidate.views_dropped")),
       "ratio"});
  m.push_back({"agg.build_aggregates_ms", Median(build_s) * 1e3, "ms"});
  m.push_back({"engine.cells_computed", per_op("query.cells_computed"), "count"});
  m.push_back({"storage.open_ms", Median(open_s) * 1e3, "ms"});
  m.push_back({"storage.stall_ms", traced.stall_ns * 1e-6 / ops, "ms"});
  m.push_back({"storage.prefetch_hit_ratio",
               Ratio(LayerCounter(traced, "pipeline.prefetch.hits"),
                     LayerCounter(traced, "pipeline.prefetch.issued")),
               "ratio"});
  m.push_back({"storage.coalesced_reads", per_op("pipeline.coalesced_reads"),
               "count"});
  m.push_back({"storage.physical_reads", per_op("disk.reads.physical"), "count"});
  m.push_back({"storage.seek_chunks", per_op("disk.seek_chunks"), "count"});
  m.push_back({"common.pool_busy_ratio",
               traced.task_ns / (static_cast<double>(traced.timed_ns) *
                                 std::max(1, eval_threads)),
               "ratio"});
  m.push_back({"common.pool_tasks", per_op("threadpool.tasks"), "count"});
  m.push_back({"common.parallel_for_cutoff_ratio",
               Ratio(LayerCounter(traced, "threadpool.parallel_for.work_cutoff"),
                     LayerCounter(traced, "threadpool.parallel_for.calls")),
               "ratio"});

  // Each module's self time as a share of operation wall time (pool work
  // runs beside the client, so shares can add up to more than 1).
  std::map<std::string, int64_t> module_ns;
  for (const auto& [name, row] : traced.self) module_ns[ModuleOf(name)] += row.self_ns;
  for (const char* mod : {"mdx", "whatif", "agg", "engine", "storage", "bench"}) {
    m.push_back({std::string("layer.") + mod + "_share",
                 Ratio(module_ns[mod], traced.timed_ns), "ratio"});
  }
  // Tracing overhead: untraced over traced throughput on the same ops.
  const double plain_ops_s = plain.attempted / (plain.timed_ns * 1e-9);
  const double traced_ops_s = traced.attempted / (traced.timed_ns * 1e-9);
  m.push_back({"trace.overhead_ratio", plain_ops_s / traced_ops_s, "ratio"});
  m.push_back({"trace.ops_per_s", traced_ops_s, "1/s"});
  // Workload-specific end-to-end figures, from the untraced loop (0 where
  // the workload has no such operation).
  const LatencySummary edit =
      Summarize(plain.latency_ms[static_cast<int>(OpClass::kEdit)]);
  const LatencySummary refresh =
      Summarize(plain.latency_ms[static_cast<int>(OpClass::kRefresh)]);
  m.push_back({"edit_p50_ms", edit.p50, "ms"});
  m.push_back({"edit_p90_ms", edit.p90, "ms"});
  m.push_back({"refresh_p50_ms", refresh.p50, "ms"});
  m.push_back({"refresh_p90_ms", refresh.p90, "ms"});
  m.push_back({"modeled_io_ms",
               plain.query_count ? plain.modeled_ms / plain.query_count : 0.0,
               "ms"});
  m.push_back({"failed_frac",
               Ratio(plain.failed + traced.failed,
                     plain.attempted + traced.attempted),
               "fraction"});
  return m;
}

// The gated query and throughput figures. Every run repeats one cycle of
// operations (see OpStream), so each slot of the cycle is timed once per
// cycle. A slot's latency is its fastest repetition: on a shared machine
// other tenants slow everything by tens of percent for seconds at a time,
// and interference only ever adds time, so the minimum over repetitions is
// the steady estimate of an operation's cost. The percentiles are taken over
// the cycle's query slots (the spread of cost across the query mix), and
// throughput is one cycle at those latencies. Raw per-sample percentiles,
// p99 included, are in the report.
struct QueryFigures {
  int64_t slots = 0;
  int64_t query_slots = 0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double ops_per_s = 0.0;
};

QueryFigures Figures(const LoopResult& r) {
  std::map<int, std::pair<int, double>> best;  // slot -> (class, min ms)
  for (const OpRecord& op : r.ops) {
    auto [it, fresh] = best.try_emplace(op.slot, op.cls, op.ms);
    if (!fresh) it->second.second = std::min(it->second.second, op.ms);
  }
  QueryFigures f;
  std::vector<double> queries;
  double cycle_ms = 0.0;
  for (const auto& [slot, cls_ms] : best) {
    cycle_ms += cls_ms.second;
    if (cls_ms.first == static_cast<int>(OpClass::kQuery)) {
      queries.push_back(cls_ms.second);
    }
  }
  f.slots = static_cast<int64_t>(best.size());
  f.query_slots = static_cast<int64_t>(queries.size());
  f.p50_ms = Percentile(queries, 50);
  f.p90_ms = Percentile(queries, 90);
  f.ops_per_s = cycle_ms > 0 ? f.slots / (cycle_ms * 1e-3) : 0.0;
  return f;
}

std::vector<Metric> EndToEndMetrics(const QueryFigures& f,
                                    const std::vector<double>& setup_s) {
  return {
      {"setup_s", Median(setup_s), "s"},
      {"query_p50_ms", f.p50_ms, "ms"},
      {"query_p90_ms", f.p90_ms, "ms"},
      {"ops_per_s", f.ops_per_s, "1/s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

std::string SummaryJson(const std::vector<double>& samples) {
  const LatencySummary s = Summarize(samples);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"samples\": %" PRId64 ", \"p50\": %.6g, \"p90\": %.6g, "
                "\"p99\": %.6g, \"beyond_p50\": %" PRId64
                ", \"beyond_p90\": %" PRId64 ", \"beyond_p99\": %" PRId64 "}",
                s.count, s.p50, s.p90, s.p99, s.beyond_p50, s.beyond_p90,
                s.beyond_p99);
  return buf;
}

// --- main -----------------------------------------------------------------

struct Args {
  Workload workload = Workload::kWhatifMix;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      if (!ParseWorkload(v, &a->workload)) return false;
      have_workload = true;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--work-dir") {
      a->work_dir = v;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1 && a->seconds > 0;
}

int Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  return 1;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload whatif_mix|rollup_dashboard|edit_feed|"
                 "outofcore_scan --seed N --seconds S --trace 0|1 "
                 "[--work-dir DIR]\n",
                 argv[0]);
    return 2;
  }
  Context ctx;
  ctx.workload = args.workload;
  ctx.seed = args.seed;
  const int affinity = ThreadPool::AffinityVisibleCores();
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  ctx.eval_threads = std::max(1, std::min<int>(affinity, static_cast<int>(hw)));
  const std::string tag =
      std::string(WorkloadName(args.workload)) + "-" + std::to_string(args.seed);
  ctx.cube_path = args.work_dir + "/cube-" + tag + ".olap";

  // Inputs and oracles, outside every timed figure.
  const Clock::time_point start = Clock::now();
  WorkforceCube generated = BuildWorkforceCube(CubeConfig());
  const CubeShape shape = ShapeOf(generated.cube);
  ctx.shape = &shape;
  {
    SaveOptions so;
    so.sync = false;
    Status s = SaveCube(generated.cube, ctx.cube_path, so);
    if (!s.ok()) return Fail("writing the cube file: " + s.ToString());
  }
  ctx.pool = OpStream(args.workload, shape, args.seed).pool();
  Database oracle_db;
  if (Status s = RegisterWorkforce(&oracle_db, kCubeName, std::move(generated));
      !s.ok()) {
    return Fail("oracle set-up: " + s.ToString());
  }
  Oracle oracle;
  oracle.mirror = &oracle_db;
  oracle.exec = std::make_unique<Executor>(&oracle_db);
  oracle.options.eval_threads = 1;
  oracle.options.batched_eval = false;
  for (const std::string& q : ctx.pool) {
    Result<QueryResult> r = oracle.exec->Execute(q, oracle.options);
    if (!r.ok()) return Fail("oracle query failed: " + r.status().ToString());
    oracle.pool_digests.push_back(DigestGrid(r->grid));
  }

  const double inputs_s = NanosSince(start) * 1e-9;

  // Set-ups: the median of kSetups independent ones; the last one runs the
  // loop. A traced run needs two (untraced loop, traced replay).
  std::vector<double> setup_s, open_s, build_s;
  std::unique_ptr<Engine> engine;
  auto setup = [&]() -> Status {
    engine.reset();
    Result<std::unique_ptr<Engine>> e = SetUp(ctx);
    if (!e.ok()) return e.status();
    engine = std::move(*e);
    setup_s.push_back(engine->setup_s);
    open_s.push_back(engine->open_s);
    build_s.push_back(engine->build_aggregates_s);
    return Status::Ok();
  };
  const int setups = args.trace ? 1 : kSetups;
  for (int i = 0; i < setups; ++i) {
    if (Status s = setup(); !s.ok()) return Fail("set-up: " + s.ToString());
  }

  const double setups_s = NanosSince(start) * 1e-9 - inputs_s;
  const int64_t budget_ns = static_cast<int64_t>(args.seconds * 1e9);
  LoopResult plain = RunLoop(ctx, engine.get(), &oracle, INT64_MAX, budget_ns,
                             /*traced=*/false);
  std::optional<LoopResult> traced;
  if (args.trace) {
    // The mirror must restart from the same state as the fresh engine.
    Database mirror2;
    if (args.workload == Workload::kEditFeed) {
      if (Status s = LoadAndRegister(ctx.cube_path, &mirror2, nullptr); !s.ok()) {
        return Fail("mirror set-up: " + s.ToString());
      }
      oracle.mirror = &mirror2;
      oracle.exec = std::make_unique<Executor>(&mirror2);
    }
    if (Status s = setup(); !s.ok()) return Fail("set-up: " + s.ToString());
    traced = RunLoop(ctx, engine.get(), &oracle, plain.attempted, INT64_MAX,
                     /*traced=*/true);
    oracle.exec.reset();
  }
  engine.reset();
  std::remove(ctx.cube_path.c_str());
  const double total_s = NanosSince(start) * 1e-9;

  // Determinism: same seed, same counts — within this process (traced
  // replay vs untraced loop) and across runs (the stored record).
  bool counts_ok = true;
  std::string counts_why;
  const std::string counts = CountsText(plain.ops);
  if (traced) {
    const std::string replay = CountsText(traced->ops);
    const int64_t d = FirstCountDifference(counts, replay);
    if (d >= 0) {
      counts_ok = false;
      counts_why = "traced replay counts differ at operation " + std::to_string(d);
    }
  }
  if (counts_ok) {
    char id[32];
    std::snprintf(id, sizeof(id), "%016" PRIx64, BuildId());
    counts_ok = CheckCountsAgainstFile(
        args.work_dir + "/counts-" + tag + "-" + id + ".txt", counts,
        &counts_why);
  }

  int64_t attempted = plain.attempted, failed = plain.failed;
  int64_t mismatches = plain.mismatches, checkpoints = plain.checkpoints;
  std::string first_error = plain.first_error;
  if (traced) {
    attempted += traced->attempted;
    failed += traced->failed;
    mismatches += traced->mismatches;
    checkpoints += traced->checkpoints;
    if (first_error.empty()) first_error = traced->first_error;
  }
  const bool correct = failed == 0 && counts_ok;
  const QueryFigures figures = Figures(plain);
  const std::vector<Metric> metrics =
      traced ? PerLayerMetrics(*traced, plain, open_s, build_s, ctx.eval_threads)
             : EndToEndMetrics(figures, setup_s);

  // Readable report.
  std::fprintf(stderr, "perfbench %s seed=%" PRIu64 " trace=%d: %" PRId64
               " ops (%" PRId64 " queries, %" PRId64 " edits, %" PRId64
               " refreshes) in %.3f s timed, eval_threads=%d, isa=%s\n",
               WorkloadName(args.workload), args.seed, args.trace ? 1 : 0,
               plain.attempted, plain.per_class[0], plain.per_class[1],
               plain.per_class[2], plain.timed_ns * 1e-9, ctx.eval_threads,
               kernels::IsaName(kernels::ActiveIsa()));
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-34s %14.6g %s", m.name.c_str(), m.value,
                 m.unit.c_str());
    if (traced) {
      std::fprintf(stderr, "%*s-> %s", 9 - static_cast<int>(m.unit.size()),
                   "", LayerTarget(m.name));
    }
    std::fprintf(stderr, "\n");
  }
  if (traced) {
    std::fprintf(stderr,
                 "  tracing overhead: %.4g ops/s untraced vs %.4g traced on "
                 "the same %" PRId64 " operations\n",
                 plain.attempted / (plain.timed_ns * 1e-9),
                 traced->attempted / (traced->timed_ns * 1e-9), traced->attempted);
  }
  std::fprintf(stderr,
               "  oracle: %" PRId64 " of %" PRId64 " operations failed (%" PRId64
               " mismatches), %" PRId64 " live-scenario checkpoints; counts %s%s\n",
               failed, attempted, mismatches, checkpoints,
               counts_ok ? "repeat" : "DIFFER: ", counts_why.c_str());
  if (!first_error.empty()) {
    std::fprintf(stderr, "  first failure: %s\n", first_error.c_str());
  }

  // Full report line, then the result line.
  std::string report = "{\"report\": {\"workload\": \"";
  report += WorkloadName(args.workload);
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "\", \"seed\": %" PRIu64 ", \"trace\": %d, \"seconds\": %g, "
      "\"hardware_concurrency\": %u, \"affinity_cores\": %d, "
      "\"eval_threads\": %d, \"kernel_isa\": \"%s\", \"build_type\": \"%s\", "
      "\"setups\": %zu, \"pool_queries\": %zu, \"cycles\": %" PRId64 ", "
      "\"ops\": {\"query\": %" PRId64 ", \"edit\": %" PRId64
      ", \"refresh\": %" PRId64 "}, \"gated_query_slots\": %" PRId64
      ", \"phases_s\": {\"inputs_and_oracle\": %.3f, \"setups\": %.3f, "
      "\"total\": %.3f}, ",
      args.seed, args.trace ? 1 : 0, args.seconds, hw, affinity,
      ctx.eval_threads, kernels::IsaName(kernels::ActiveIsa()),
      PERFBENCH_BUILD_TYPE, setup_s.size(), ctx.pool.size(),
      plain.cycles,
      plain.per_class[0], plain.per_class[1], plain.per_class[2],
      figures.query_slots, inputs_s, setups_s, total_s);
  report += buf;
  report += "\"latency_ms\": {";
  for (int c = 0; c < kNumOpClasses; ++c) {
    report += std::string(c ? ", " : "") + "\"" +
              OpClassName(static_cast<OpClass>(c)) +
              "\": " + SummaryJson(plain.latency_ms[c]);
  }
  std::snprintf(buf, sizeof(buf),
                "}, \"failed_frac\": %.6g, \"mismatches\": %" PRId64
                ", \"checkpoints\": %" PRId64 ", \"counts_repeat\": %s",
                Ratio(failed, attempted), mismatches, checkpoints,
                counts_ok ? "true" : "false");
  report += buf;
  report += ", \"first_failure\": \"" + JsonEscape(first_error) +
            "\", \"counts_note\": \"" + JsonEscape(counts_why) + "\"}}";
  std::printf("%s\n", report.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64 ", \"failed\": %" PRId64
              ", \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              JsonMetrics(metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace olap::perfbench

int main(int argc, char** argv) { return olap::perfbench::Main(argc, argv); }
