// Out-of-core reader benchmark: a synchronous per-chunk FetchChunk loop vs
// the windowed run reader (StreamSchedule: coalesced ranged reads of
// adjacent chunk ids, delivered in schedule order on the calling thread)
// on a Fig. 12-style workload — a product cube whose merge schedule
// alternates between two far-apart chunk regions, so every per-chunk
// fetch pays a long seek while the reader's window coalesces each region's
// chunks into ranged reads (one seek per run).
//
// Measured wall time and the SimulatedDisk's modeled I/O time are reported
// as separate fields; the headline `total` (wall + modeled) matches the
// figure benches' convention. Wall times are the minimum over repetitions.
// Emits BENCH_outofcore.json.
//
// Usage: bench_outofcore [--smoke] [--check] [--out PATH]
//   --smoke  smaller cube / fewer sweep points (CI).
//   --check  exit non-zero unless: every window delivers a stream
//            bit-identical to the per-chunk FetchChunk oracle, the peak
//            number of buffered chunks never exceeds the window, each
//            out-of-core rollup block (the product cube's, and a
//            partial-plan and a slab-plan mask set on a workforce cube)
//            is bitwise equal at windows 1 and 16, to the in-memory pass,
//            and between 1 thread and the affinity-visible core count
//            (modeled I/O equal too), the headline window (16) beats the
//            per-chunk loop by >= 1.5x in total (wall + modeled) time, and
//            the headline's wall time stays within 1.1x of the per-chunk
//            loop's on the page-cached file.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "agg/chunk_aggregator.h"
#include "agg/group_by.h"
#include "common/thread_pool.h"
#include "cube/cube.h"
#include "storage/chunk_pipeline.h"
#include "storage/cube_io.h"
#include "storage/env.h"
#include "storage/simulated_disk.h"
#include "workload/product.h"
#include "workload/workforce.h"

namespace olap {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// Order-dependent FNV-style digest of a delivered chunk stream. The
// pipeline delivers in schedule order, so equal digests mean the bytes AND
// the order matched the synchronous oracle.
uint64_t FoldChunk(uint64_t h, ChunkId id, const Chunk& chunk) {
  h = (h ^ static_cast<uint64_t>(id)) * 1099511628211ull;
  for (int64_t i = 0; i < chunk.size(); ++i) {
    const double raw = CellValue::ToStorage(chunk.Get(i));
    uint64_t bits;
    std::memcpy(&bits, &raw, sizeof(bits));
    h = (h ^ bits) * 1099511628211ull;
  }
  return h;
}

// The Fig. 12 access pattern: chunks of two far-apart regions consumed
// alternately (front half, back half, front half, ...), the way a merge of
// two distant member instances walks the grid.
std::vector<ChunkId> InterleavedSchedule(const std::vector<ChunkId>& stored) {
  const size_t half = stored.size() / 2;
  std::vector<ChunkId> schedule;
  schedule.reserve(stored.size());
  for (size_t i = 0; i < half; ++i) {
    schedule.push_back(stored[i]);
    schedule.push_back(stored[half + i]);
  }
  for (size_t i = 2 * half; i < stored.size(); ++i) schedule.push_back(stored[i]);
  return schedule;
}

struct SyncResult {
  double wall_ms = 0.0;  // Min over reps.
  double modeled_ms = 0.0;
  uint64_t digest = 0;
  int64_t physical_reads = 0;
  int64_t seek_chunks = 0;
  bool ok = true;
  double total_ms() const { return wall_ms + modeled_ms; }
};

SyncResult RunSync(SimulatedDisk* disk, const std::vector<ChunkId>& schedule,
                   int reps) {
  SyncResult r;
  for (int rep = 0; rep < reps; ++rep) {
    disk->Reset();
    const Clock::time_point t0 = Clock::now();
    uint64_t h = 14695981039346656037ull;
    for (ChunkId id : schedule) {
      Result<Chunk> chunk = disk->FetchChunk(id);
      if (!chunk.ok()) {
        fprintf(stderr, "sync fetch of chunk %" PRIu64 " failed: %s\n",
                static_cast<uint64_t>(id), chunk.status().ToString().c_str());
        r.ok = false;
        return r;
      }
      h = FoldChunk(h, id, *chunk);
    }
    const double wall = MsSince(t0);
    r.wall_ms = rep == 0 ? wall : std::min(r.wall_ms, wall);
    r.digest = h;
  }
  const IoStats stats = disk->stats();
  r.modeled_ms = stats.virtual_seconds * 1e3;
  r.physical_reads = stats.physical_reads;
  r.seek_chunks = stats.total_seek_chunks;
  return r;
}

struct ReaderResult {
  int window = 0;
  int64_t cache_chunks = 0;
  double wall_ms = 0.0;  // Min over reps.
  double modeled_ms = 0.0;
  int64_t seek_chunks = 0;
  uint64_t digest = 0;
  StreamStats stats;
  bool ok = true;
  bool bit_identical = false;
  double total_ms() const { return wall_ms + modeled_ms; }
};

ReaderResult RunReader(SimulatedDisk* disk, const std::vector<ChunkId>& schedule,
                       int window, int reps) {
  ReaderResult r;
  r.window = window;
  for (int rep = 0; rep < reps; ++rep) {
    disk->Reset();
    const Clock::time_point t0 = Clock::now();
    uint64_t h = 14695981039346656037ull;
    const Status status = StreamSchedule(
        disk, schedule, window, CancellationToken(),
        [&h](ChunkId id, const Chunk& chunk) { h = FoldChunk(h, id, chunk); },
        &r.stats);
    const double wall = MsSince(t0);
    if (!status.ok()) {
      fprintf(stderr, "reader (window %d) failed: %s\n", window,
              status.ToString().c_str());
      r.ok = false;
      return r;
    }
    r.wall_ms = rep == 0 ? wall : std::min(r.wall_ms, wall);
    // Every rep must reproduce the stream, not just the last one.
    if (rep > 0 && h != r.digest) r.ok = false;
    r.digest = h;
  }
  const IoStats stats = disk->stats();
  r.modeled_ms = stats.virtual_seconds * 1e3;
  r.seek_chunks = stats.total_seek_chunks;
  return r;
}

// ---- rollup workload: ChunkAggregator::ComputeOutOfCore ------------------

// Bitwise equality of two view sets (operator== compares values, which
// would let -0.0 == 0.0 through).
bool BitwiseEqual(const std::vector<GroupByResult>& a,
                  const std::vector<GroupByResult>& b) {
  if (a.size() != b.size()) return false;
  for (size_t m = 0; m < a.size(); ++m) {
    if (a[m].mask() != b[m].mask() || a[m].num_cells() != b[m].num_cells() ||
        std::memcmp(a[m].raw_cells(), b[m].raw_cells(),
                    sizeof(double) * static_cast<size_t>(a[m].num_cells())) !=
            0) {
      return false;
    }
  }
  return true;
}

struct RollupResult {
  std::string name;
  std::string plan;  // "partial" or "slab<dim>" (DESIGN.md §7).
  int64_t units = 0;
  int threads = 1;   // The parallel runs' thread count (affinity cores).
  // Serial (1 thread) runs at window 1 (sync) and window 16 (reader).
  double sync_wall_ms = 0.0, sync_modeled_ms = 0.0;
  double reader_wall_ms = 0.0, reader_modeled_ms = 0.0;
  // The same two windows at `threads`.
  double parallel_sync_wall_ms = 0.0, parallel_reader_wall_ms = 0.0;
  bool ok = true;
  bool bit_identical = false;      // Window 16 == window 1 streaming.
  bool matches_memory = false;     // Window 1 streaming == in-memory pass.
  bool threads_identical = false;  // Every `threads` run == its serial run.
  bool modeled_identical = false;  // Modeled I/O equal at both thread counts.
  double sync_total_ms() const { return sync_wall_ms + sync_modeled_ms; }
  double reader_total_ms() const { return reader_wall_ms + reader_modeled_ms; }
};

RollupResult RunRollup(const Cube& cube, SimulatedDisk* disk,
                       const std::string& name,
                       const std::vector<GroupByMask>& masks, int threads,
                       int reps) {
  RollupResult r;
  r.name = name;
  r.threads = threads;
  std::vector<int> order(cube.num_dims());
  std::iota(order.begin(), order.end(), 0);

  // Streams the rollup at `window` on `run_threads`; keeps the min wall
  // over reps and the modeled time of the last (identical) rep.
  auto stream = [&](int window, int run_threads, double* wall_ms,
                    double* modeled_ms) {
    ChunkAggregator::OutOfCoreOptions options;
    options.window = window;
    Result<std::vector<GroupByResult>> views = Status::Internal("no rep ran");
    for (int rep = 0; rep < reps; ++rep) {
      disk->Reset();
      ChunkAggregator agg(cube);
      const Clock::time_point t0 = Clock::now();
      views = agg.ComputeOutOfCore(masks, order, disk, options, run_threads);
      const double wall = MsSince(t0);
      *wall_ms = rep == 0 ? wall : std::min(*wall_ms, wall);
      *modeled_ms = disk->stats().virtual_seconds * 1e3;
      r.plan = agg.stats().slab_dim >= 0
                   ? "slab" + std::to_string(agg.stats().slab_dim)
                   : "partial";
      r.units = agg.stats().work_units;
    }
    return views;
  };
  double parallel_sync_modeled_ms = 0.0, parallel_reader_modeled_ms = 0.0;
  Result<std::vector<GroupByResult>> sync_views =
      stream(1, 1, &r.sync_wall_ms, &r.sync_modeled_ms);
  Result<std::vector<GroupByResult>> reader_views =
      stream(kReadWindow, 1, &r.reader_wall_ms, &r.reader_modeled_ms);
  Result<std::vector<GroupByResult>> parallel_sync_views = stream(
      1, threads, &r.parallel_sync_wall_ms, &parallel_sync_modeled_ms);
  Result<std::vector<GroupByResult>> parallel_reader_views =
      stream(kReadWindow, threads, &r.parallel_reader_wall_ms,
             &parallel_reader_modeled_ms);
  for (const auto* views : {&sync_views, &reader_views, &parallel_sync_views,
                            &parallel_reader_views}) {
    if (!views->ok()) {
      fprintf(stderr, "rollup %s failed: %s\n", name.c_str(),
              views->status().ToString().c_str());
      r.ok = false;
      return r;
    }
  }
  ChunkAggregator memory_agg(cube);
  std::vector<GroupByResult> memory_views = memory_agg.Compute(masks, order);
  r.bit_identical = BitwiseEqual(*sync_views, *reader_views);
  r.matches_memory = BitwiseEqual(*sync_views, memory_views);
  r.threads_identical = BitwiseEqual(*sync_views, *parallel_sync_views) &&
                        BitwiseEqual(*reader_views, *parallel_reader_views);
  r.modeled_identical = r.sync_modeled_ms == parallel_sync_modeled_ms &&
                        r.reader_modeled_ms == parallel_reader_modeled_ms;
  return r;
}

void PrintRollup(FILE* f, const RollupResult& r, bool last) {
  fprintf(f,
          "  \"%s\": {\"plan\": \"%s\", \"units\": %lld, "
          "\"threads\": %d,\n"
          "    \"sync_wall_ms\": %.3f, \"sync_modeled_ms\": %.3f, "
          "\"sync_total_ms\": %.3f,\n"
          "    \"reader_wall_ms\": %.3f, \"reader_modeled_ms\": %.3f, "
          "\"reader_total_ms\": %.3f,\n"
          "    \"parallel_sync_wall_ms\": %.3f, "
          "\"parallel_reader_wall_ms\": %.3f,\n"
          "    \"bit_identical\": %s, \"matches_memory\": %s, "
          "\"threads_identical\": %s, \"modeled_identical\": %s}%s\n",
          r.name.c_str(), r.plan.c_str(), static_cast<long long>(r.units),
          r.threads, r.sync_wall_ms, r.sync_modeled_ms, r.sync_total_ms(),
          r.reader_wall_ms, r.reader_modeled_ms, r.reader_total_ms(),
          r.parallel_sync_wall_ms, r.parallel_reader_wall_ms,
          r.bit_identical ? "true" : "false",
          r.matches_memory ? "true" : "false",
          r.threads_identical ? "true" : "false",
          r.modeled_identical ? "true" : "false", last ? "" : ",");
}

// ---- driver --------------------------------------------------------------

int Main(int argc, char** argv) {
  bool smoke = false, check = false;
  std::string out_path = "BENCH_outofcore.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      fprintf(stderr, "usage: %s [--smoke] [--check] [--out PATH]\n", argv[0]);
      return 2;
    }
  }

  // Fig. 12 geometry: one product per chunk along the varying axis, the
  // probe's two instances far apart, fillers in between. Stored chunk ids
  // are contiguous (every grid chunk holds data), so the two halves of the
  // id range are two distant platter regions.
  ProductCubeConfig config;
  config.separation_chunks = smoke ? 2000 : 4000;
  config.chunk_products = 1;
  config.fill_data = true;
  ProductCube workload = BuildProductCube(config);
  const Cube& cube = workload.cube;

  const std::string path = "/tmp/bench_outofcore_" +
                           std::to_string(static_cast<long>(::getpid())) +
                           ".olapcub2";
  Status saved = SaveCube(cube, path);
  if (!saved.ok()) {
    fprintf(stderr, "SaveCube failed: %s\n", saved.ToString().c_str());
    return 1;
  }

  DiskModel model;
  SimulatedDisk disk(model, /*cache_capacity_chunks=*/0);
  Status attached = disk.AttachBackingFile(Env::Default(), path);
  if (!attached.ok()) {
    fprintf(stderr, "AttachBackingFile failed: %s\n",
            attached.ToString().c_str());
    return 1;
  }

  std::vector<ChunkId> stored;
  cube.ForEachChunk([&](ChunkId id, const Chunk&) { stored.push_back(id); });
  const std::vector<ChunkId> schedule = InterleavedSchedule(stored);

  fprintf(stderr,
          "bench_outofcore: %lld stored chunks, schedule %zu, file %s\n",
          static_cast<long long>(cube.NumStoredChunks()), schedule.size(),
          path.c_str());

  // Repetitions per configuration: wall times are the min over reps.
  const int reps = smoke ? 5 : 7;
  const SyncResult sync = RunSync(&disk, schedule, reps);

  std::vector<ReaderResult> runs;
  const std::vector<int> windows =
      smoke ? std::vector<int>{1, kReadWindow} : std::vector<int>{1, 4, 16, 64};
  for (int window : windows) {
    runs.push_back(RunReader(&disk, schedule, window, reps));
  }
  if (!smoke) {
    // A warm cache in front of the cost model (both modes benefit).
    SimulatedDisk cached_disk(model, /*cache_capacity_chunks=*/256);
    Status s = cached_disk.AttachBackingFile(Env::Default(), path);
    if (s.ok()) {
      ReaderResult warm = RunReader(&cached_disk, schedule, kReadWindow, reps);
      warm.cache_chunks = 256;
      runs.push_back(warm);
    }
  }
  for (ReaderResult& r : runs) r.bit_identical = r.ok && r.digest == sync.digest;
  const ReaderResult* headline = nullptr;
  for (const ReaderResult& r : runs) {
    if (r.window == kReadWindow && r.cache_chunks == 0) headline = &r;
  }

  // The rollups, serial and at the affinity-visible core count. On the
  // product cube (too little work to fan out: one serial unit), then on a
  // workforce cube — the outofcore_scan shape — with a mask set that has
  // no common kept dimension (the partial plan) and one whose masks all
  // keep Department and Period (the slab plan; the full-rank mask is the
  // what-if scratch view).
  const int threads = ThreadPool::AffinityVisibleCores();
  std::vector<RollupResult> rollups = {RunRollup(
      cube, &disk, "rollup_outofcore", {0b001, 0b010, 0b011, 0b110}, threads,
      reps)};
  WorkforceConfig wf_config;
  if (smoke) wf_config.num_employees = 500;
  const WorkforceCube wf = BuildWorkforceCube(wf_config);
  const std::string wf_path = path + ".workforce";
  SimulatedDisk wf_disk(model, /*cache_capacity_chunks=*/0);
  Status wf_saved = SaveCube(wf.cube, wf_path);
  if (wf_saved.ok()) wf_saved = wf_disk.AttachBackingFile(Env::Default(), wf_path);
  if (!wf_saved.ok()) {
    fprintf(stderr, "workforce backing file: %s\n", wf_saved.ToString().c_str());
    return 1;
  }
  const GroupByMask dept = GroupByMask{1} << wf.dept_dim;
  const GroupByMask period = GroupByMask{1} << wf.period_dim;
  const GroupByMask account = GroupByMask{1} << wf.account_dim;
  const GroupByMask scenario = GroupByMask{1} << wf.scenario_dim;
  const GroupByMask full = (GroupByMask{1} << wf.cube.num_dims()) - 1;
  rollups.push_back(RunRollup(wf.cube, &wf_disk, "rollup_workforce_partial",
                              {dept, period, account, scenario}, threads,
                              reps));
  rollups.push_back(RunRollup(wf.cube, &wf_disk, "rollup_workforce_slab",
                              {dept | period, full}, threads, reps));
  std::remove(wf_path.c_str());

  std::remove(path.c_str());

  // ---- report ------------------------------------------------------------
  FILE* f = fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  fprintf(f, "{\n");
  fprintf(f, "  \"bench\": \"bench_outofcore\",\n");
  fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  fprintf(f, "  \"hardware_cores\": %d,\n", ThreadPool::HardwareCores());
  fprintf(f, "  \"hardware_concurrency\": %u,\n",
          std::max(1u, std::thread::hardware_concurrency()));
  fprintf(f, "  \"affinity_cores\": %d,\n", ThreadPool::AffinityVisibleCores());
  fprintf(f, "  \"chunks\": %lld,\n",
          static_cast<long long>(cube.NumStoredChunks()));
  fprintf(f, "  \"schedule_len\": %zu,\n", schedule.size());
  fprintf(f, "  \"reps\": %d,\n", reps);
  fprintf(f,
          "  \"disk\": {\"seek_seconds_per_chunk\": %g, "
          "\"max_seek_seconds\": %g, \"transfer_seconds\": %g},\n",
          model.seek_seconds_per_chunk, model.max_seek_seconds,
          model.transfer_seconds);
  if (headline != nullptr) {
    fprintf(f,
            "  \"headline\": {\"window\": %d, \"wall_ms\": %.3f, "
            "\"modeled_ms\": %.3f, \"sync_wall_ms\": %.3f, "
            "\"sync_modeled_ms\": %.3f,\n"
            "    \"wall_ratio\": %.3f, \"modeled_speedup\": %.2f, "
            "\"total_speedup\": %.2f},\n",
            headline->window, headline->wall_ms, headline->modeled_ms,
            sync.wall_ms, sync.modeled_ms,
            sync.wall_ms > 0 ? headline->wall_ms / sync.wall_ms : 0.0,
            headline->modeled_ms > 0 ? sync.modeled_ms / headline->modeled_ms
                                     : 0.0,
            headline->total_ms() > 0 ? sync.total_ms() / headline->total_ms()
                                     : 0.0);
  }
  fprintf(f,
          "  \"sync\": {\"wall_ms\": %.3f, \"modeled_ms\": %.3f, "
          "\"total_ms\": %.3f, \"physical_reads\": %lld, "
          "\"seek_chunks\": %lld},\n",
          sync.wall_ms, sync.modeled_ms, sync.total_ms(),
          static_cast<long long>(sync.physical_reads),
          static_cast<long long>(sync.seek_chunks));
  fprintf(f, "  \"reader\": [\n");
  for (size_t i = 0; i < runs.size(); ++i) {
    const ReaderResult& r = runs[i];
    fprintf(f,
            "    {\"window\": %d, \"cache_chunks\": %lld, \"wall_ms\": %.3f, "
            "\"modeled_ms\": %.3f, \"total_ms\": %.3f,\n"
            "     \"reads\": %lld, \"coalesced_reads\": %lld, "
            "\"peak_buffered\": %lld, \"seek_chunks\": %lld, "
            "\"speedup_total\": %.2f, \"bit_identical\": %s}%s\n",
            r.window, static_cast<long long>(r.cache_chunks), r.wall_ms,
            r.modeled_ms, r.total_ms(), static_cast<long long>(r.stats.reads),
            static_cast<long long>(r.stats.coalesced_reads),
            static_cast<long long>(r.stats.peak_buffered),
            static_cast<long long>(r.seek_chunks),
            r.total_ms() > 0 ? sync.total_ms() / r.total_ms() : 0.0,
            r.bit_identical ? "true" : "false",
            i + 1 < runs.size() ? "," : "");
  }
  fprintf(f, "  ],\n");
  for (size_t i = 0; i < rollups.size(); ++i) {
    PrintRollup(f, rollups[i], i + 1 == rollups.size());
  }
  fprintf(f, "}\n");
  fclose(f);
  fprintf(stderr, "wrote %s\n", out_path.c_str());

  // ---- gates -------------------------------------------------------------
  int failures = 0;
  if (!sync.ok) ++failures;
  for (const RollupResult& rollup : rollups) {
    if (!rollup.ok || !rollup.bit_identical || !rollup.matches_memory) {
      fprintf(stderr, "FAIL %s: window 16/window 1/in-memory mismatch\n",
              rollup.name.c_str());
      ++failures;
    }
    if (!rollup.threads_identical || !rollup.modeled_identical) {
      fprintf(stderr,
              "FAIL %s: %d-thread views or modeled I/O differ from the "
              "serial run\n",
              rollup.name.c_str(), rollup.threads);
      ++failures;
    }
  }
  for (const ReaderResult& r : runs) {
    if (!r.ok || !r.bit_identical) {
      fprintf(stderr,
              "FAIL reader (window %d): stream differs from the per-chunk "
              "oracle\n",
              r.window);
      ++failures;
    }
    if (r.stats.peak_buffered > r.window) {
      fprintf(stderr,
              "FAIL reader (window %d): peak buffered %lld exceeds the "
              "window\n",
              r.window, static_cast<long long>(r.stats.peak_buffered));
      ++failures;
    }
  }
  if (check) {
    constexpr double kSpeedupFloor = 1.5;
    constexpr double kWallCeiling = 1.1;
    if (headline == nullptr) {
      fprintf(stderr, "FAIL: headline config (window %d) missing\n",
              kReadWindow);
      ++failures;
    } else {
      const double speedup =
          headline->total_ms() > 0 ? sync.total_ms() / headline->total_ms() : 0.0;
      if (speedup < kSpeedupFloor) {
        fprintf(stderr,
                "FAIL headline: reader total %.3f ms vs sync %.3f ms "
                "(%.2fx < %.1fx floor)\n",
                headline->total_ms(), sync.total_ms(), speedup, kSpeedupFloor);
        ++failures;
      }
      if (headline->wall_ms > kWallCeiling * sync.wall_ms) {
        fprintf(stderr,
                "FAIL headline: reader wall %.3f ms vs sync %.3f ms "
                "(> %.1fx, min of %d reps)\n",
                headline->wall_ms, sync.wall_ms, kWallCeiling, reps);
        ++failures;
      }
    }
  }
  if (failures > 0) {
    fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  fprintf(stderr, "all checks passed\n");
  return 0;
}

}  // namespace
}  // namespace olap

int main(int argc, char** argv) { return olap::Main(argc, argv); }
