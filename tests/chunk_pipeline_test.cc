// Out-of-core reader invariants: ranged-read cost math, coalesced
// backing-file reads, the windowed run plan (every entry served once, runs
// and buffering bounded by the window), schedule-order delivery that is
// bit-identical to the synchronous FetchChunk oracle at every window,
// deterministic charging, and the out-of-core aggregation / executor paths
// built on top.

#include "storage/chunk_pipeline.h"

#include <cstdio>
#include <cstring>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "agg/chunk_aggregator.h"
#include "engine/executor.h"
#include "storage/cube_io.h"
#include "storage/env.h"
#include "storage/simulated_disk.h"
#include "workload/paper_example.h"
#include "workload/product.h"

namespace olap {
namespace {

DiskModel TestModel() {
  DiskModel m;
  m.seek_seconds_per_chunk = 1e-6;
  m.max_seek_seconds = 1e-3;
  m.transfer_seconds = 1e-4;
  return m;
}

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

uint64_t BitsOf(CellValue v) {
  double raw = CellValue::ToStorage(v);
  uint64_t bits;
  std::memcpy(&bits, &raw, sizeof(bits));
  return bits;
}

void ExpectChunksBitIdentical(const Chunk& expected, const Chunk& actual,
                              const std::string& context) {
  ASSERT_EQ(expected.size(), actual.size()) << context;
  for (int64_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(BitsOf(expected.Get(i)), BitsOf(actual.Get(i)))
        << context << " offset " << i;
  }
}

// ---- ReadRun cost contract ----------------------------------------------

TEST(ReadRunTest, SingleChunkRunMatchesReadChunk) {
  SimulatedDisk a(TestModel(), 0);
  SimulatedDisk b(TestModel(), 0);
  EXPECT_DOUBLE_EQ(a.ReadChunk(7), b.ReadRun(7, 1));
  EXPECT_DOUBLE_EQ(a.ReadChunk(3), b.ReadRun(3, 1));
  EXPECT_DOUBLE_EQ(a.stats().virtual_seconds, b.stats().virtual_seconds);
}

TEST(ReadRunTest, RunChargesOneSeekPlusPerMissTransfers) {
  SimulatedDisk disk(TestModel(), 0);
  // Head at 0; run [10, 15): 10 chunks of travel + 5 transfers.
  double cost = disk.ReadRun(10, 5);
  EXPECT_DOUBLE_EQ(cost, 10 * 1e-6 + 5 * 1e-4);
  EXPECT_EQ(disk.stats().physical_reads, 5);
  EXPECT_EQ(disk.stats().total_seek_chunks, 10);
  EXPECT_EQ(disk.stats().coalesced_reads, 1);
  // Head finished on the run's last chunk: a sequential follow-up run
  // travels one chunk only.
  double next = disk.ReadRun(15, 5);
  EXPECT_DOUBLE_EQ(next, 1 * 1e-6 + 5 * 1e-4);
}

TEST(ReadRunTest, RunIsCheaperThanSeparateSeeks) {
  SimulatedDisk coalesced(TestModel(), 0);
  SimulatedDisk separate(TestModel(), 0);
  double run_cost = coalesced.ReadRun(500, 8);
  double loop_cost = 0.0;
  for (int i = 0; i < 8; ++i) {
    loop_cost += separate.ReadChunk(500 + i);
    separate.ReadChunk(0);  // Model the interleaved far access of Fig. 12.
  }
  EXPECT_LT(run_cost, loop_cost);
}

TEST(ReadRunTest, CachedChunksInsideRunAreNotTransferred) {
  SimulatedDisk disk(TestModel(), /*cache=*/8);
  disk.ReadChunk(12);
  disk.ResetStats();
  // Run [10, 15): id 12 hits; misses 10,11,13,14. One seek from head 12 to
  // the first miss (distance 2) + 4 transfers.
  double cost = disk.ReadRun(10, 5);
  EXPECT_DOUBLE_EQ(cost, 2 * 1e-6 + 4 * 1e-4);
  EXPECT_EQ(disk.stats().physical_reads, 4);
  EXPECT_EQ(disk.stats().cache_hits, 1);
}

TEST(ReadRunTest, EmptyAndFullyCachedRunsChargeNothing) {
  SimulatedDisk disk(TestModel(), /*cache=*/8);
  EXPECT_DOUBLE_EQ(disk.ReadRun(5, 0), 0.0);
  disk.ReadRun(5, 3);
  EXPECT_DOUBLE_EQ(disk.ReadRun(5, 3), 0.0);  // All hits now.
}

// ---- ranged backing reads -----------------------------------------------

TEST(FetchRunTest, RangedFetchMatchesPerChunkFetch) {
  ProductCubeConfig config;
  config.separation_chunks = 12;
  config.chunk_products = 1;
  config.fill_data = true;
  ProductCube workload = BuildProductCube(config);
  const std::string path = TempPath("fetch_run.olap");
  ASSERT_TRUE(SaveCube(workload.cube, path).ok());

  std::vector<ChunkId> stored;
  workload.cube.ForEachChunk(
      [&](ChunkId id, const Chunk&) { stored.push_back(id); });
  ASSERT_GE(stored.size(), 2u);

  // Longest fully contiguous prefix of the stored ids.
  int count = 1;
  while (count < static_cast<int>(stored.size()) &&
         stored[count] == stored[0] + static_cast<ChunkId>(count)) {
    ++count;
  }
  ASSERT_GE(count, 2) << "product cube should store adjacent chunks";

  SimulatedDisk ranged(TestModel(), 0);
  SimulatedDisk single(TestModel(), 0);
  ASSERT_TRUE(ranged.AttachBackingFile(Env::Default(), path).ok());
  ASSERT_TRUE(single.AttachBackingFile(Env::Default(), path).ok());

  Result<std::vector<Chunk>> run = ranged.FetchRun(stored[0], count);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(static_cast<int>(run->size()), count);
  for (int i = 0; i < count; ++i) {
    Result<Chunk> one = single.FetchChunk(stored[0] + i);
    ASSERT_TRUE(one.ok());
    ExpectChunksBitIdentical(*one, (*run)[i],
                             "chunk " + std::to_string(stored[0] + i));
  }
  EXPECT_EQ(ranged.stats().coalesced_reads, 1);
  std::remove(path.c_str());
}

TEST(FetchRunTest, RunWithMissingChunkIsNotFound) {
  PaperExample ex = BuildPaperExample();
  const std::string path = TempPath("fetch_run_missing.olap");
  ASSERT_TRUE(SaveCube(ex.cube, path).ok());
  // (The sparse paper-example cube is exactly what this case needs.)

  SimulatedDisk disk(TestModel(), 0);
  ASSERT_TRUE(disk.AttachBackingFile(Env::Default(), path).ok());
  ChunkId absent = 0;
  while (disk.backing_index().entries.count(absent) > 0) ++absent;
  EXPECT_EQ(disk.FetchRun(absent, 1).status().code(),
            StatusCode::kNotFound);
  std::remove(path.c_str());
}

// ---- run planning and delivery -------------------------------------------

class ChunkPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ProductCubeConfig config;
    config.separation_chunks = 60;
    config.chunk_products = 1;
    config.fill_data = true;
    workload_ = BuildProductCube(config);
    path_ = TempPath("chunk_pipeline_cube.olap");
    ASSERT_TRUE(SaveCube(workload_.cube, path_).ok());
    workload_.cube.ForEachChunk(
        [&](ChunkId id, const Chunk&) { stored_.push_back(id); });
    ASSERT_GT(stored_.size(), 8u);
  }

  void TearDown() override { std::remove(path_.c_str()); }

  // Fig. 12-style alternation between the two halves of the id range,
  // plus a revisit of the first few entries (merge passes re-read).
  std::vector<ChunkId> InterleavedSchedule() const {
    std::vector<ChunkId> schedule;
    const size_t half = stored_.size() / 2;
    for (size_t i = 0; i < half; ++i) {
      schedule.push_back(stored_[i]);
      schedule.push_back(stored_[half + i]);
    }
    for (size_t i = 0; i < 4 && i < stored_.size(); ++i) {
      schedule.push_back(stored_[i]);
    }
    return schedule;
  }

  // The synchronous oracle: FetchChunk per schedule entry.
  std::vector<Chunk> SyncStream(const std::vector<ChunkId>& schedule) {
    SimulatedDisk disk(TestModel(), 0);
    EXPECT_TRUE(disk.AttachBackingFile(Env::Default(), path_).ok());
    std::vector<Chunk> chunks;
    for (ChunkId id : schedule) {
      Result<Chunk> chunk = disk.FetchChunk(id);
      EXPECT_TRUE(chunk.ok()) << chunk.status().ToString();
      chunks.push_back(*std::move(chunk));
    }
    return chunks;
  }

  ProductCube workload_;
  std::string path_;
  std::vector<ChunkId> stored_;
};

TEST_F(ChunkPipelineTest, PlanServesEveryEntryOnceWithinTheWindow) {
  const std::vector<ChunkId> schedule = InterleavedSchedule();
  for (int window : {1, 2, 3, 8, 16, 64}) {
    std::vector<int> served(schedule.size(), 0);
    int64_t head = 0;
    for (const ScheduleRun& run : PlanScheduleRuns(schedule, window)) {
      ASSERT_FALSE(run.positions.empty());
      // Anchored at the first unserved entry, never wider than the window.
      while (served[head]) ++head;
      EXPECT_EQ(run.positions.front(), head) << "window " << window;
      EXPECT_LE(run.count, window);
      for (int64_t position : run.positions) {
        EXPECT_LT(position, head + window) << "window " << window;
        EXPECT_GE(schedule[position], run.begin);
        EXPECT_LT(schedule[position], run.begin + run.count);
        ++served[position];
      }
    }
    for (size_t i = 0; i < schedule.size(); ++i) {
      EXPECT_EQ(served[i], 1) << "window " << window << " entry " << i;
    }
  }
}

TEST_F(ChunkPipelineTest, DeliversScheduleOrderBitIdenticalAtEveryThreadCount) {
  const std::vector<ChunkId> schedule = InterleavedSchedule();
  const std::vector<Chunk> expected = SyncStream(schedule);
  const int kWindows[] = {1, 2, 4, 8, 16, 64};

  // Streams `schedule` at `window` and counts deliveries that differ from
  // the oracle in id or bits (plain counters: safe off the test thread).
  auto stream = [&](SimulatedDisk* disk, int window, StreamStats* stats,
                    int64_t* mismatches) {
    size_t i = 0;
    const Status status = StreamSchedule(
        disk, schedule, window, CancellationToken(),
        [&](ChunkId id, const Chunk& chunk) {
          bool same = i < schedule.size() && id == schedule[i] &&
                      chunk.size() == expected[i].size();
          for (int64_t off = 0; same && off < chunk.size(); ++off) {
            same = BitsOf(chunk.Get(off)) == BitsOf(expected[i].Get(off));
          }
          if (!same) ++*mismatches;
          ++i;
        },
        stats);
    if (!status.ok() || i != schedule.size()) ++*mismatches;
  };

  // One reader at every window: bit-identical, at most `window` chunks
  // buffered, and charged exactly like the charge-only walk.
  for (int window : kWindows) {
    SimulatedDisk disk(TestModel(), 0);
    ASSERT_TRUE(disk.AttachBackingFile(Env::Default(), path_).ok());
    StreamStats stats;
    int64_t mismatches = 0;
    stream(&disk, window, &stats, &mismatches);
    EXPECT_EQ(mismatches, 0) << "window " << window;
    EXPECT_EQ(stats.reads,
              static_cast<int64_t>(PlanScheduleRuns(schedule, window).size()));
    EXPECT_GE(stats.peak_buffered, 1);
    EXPECT_LE(stats.peak_buffered, window);
    SimulatedDisk charged(TestModel(), 0);
    ChargeSchedule(&charged, schedule, window);
    EXPECT_DOUBLE_EQ(disk.stats().virtual_seconds,
                     charged.stats().virtual_seconds);
    EXPECT_EQ(disk.stats().total_seek_chunks,
              charged.stats().total_seek_chunks);
  }

  // Concurrent queries each run their own reader on the calling thread;
  // readers sharing one disk must not disturb each other's delivery.
  for (int threads : {2, 4, 8}) {
    SimulatedDisk shared(TestModel(), 0);
    ASSERT_TRUE(shared.AttachBackingFile(Env::Default(), path_).ok());
    std::vector<int64_t> mismatches(threads, 0);
    std::vector<StreamStats> stats(threads);
    std::vector<std::thread> readers;
    for (int t = 0; t < threads; ++t) {
      readers.emplace_back([&, t] {
        stream(&shared, kWindows[t % 6], &stats[t], &mismatches[t]);
      });
    }
    for (std::thread& reader : readers) reader.join();
    for (int t = 0; t < threads; ++t) {
      EXPECT_EQ(mismatches[t], 0) << "threads " << threads << " reader " << t;
      EXPECT_LE(stats[t].peak_buffered, kWindows[t % 6]);
    }
  }
}

TEST_F(ChunkPipelineTest, CoalescesAdjacentIdsIntoFewerReads) {
  // Ascending contiguous schedule with a window covering it: far fewer
  // ranged reads than chunks.
  std::vector<ChunkId> schedule(stored_.begin(), stored_.begin() + 32);
  SimulatedDisk disk(TestModel(), 0);
  ASSERT_TRUE(disk.AttachBackingFile(Env::Default(), path_).ok());
  StreamStats stats;
  ASSERT_TRUE(StreamSchedule(&disk, schedule, 16, CancellationToken(),
                             [](ChunkId, const Chunk&) {}, &stats)
                  .ok());
  EXPECT_LT(stats.reads, static_cast<int64_t>(schedule.size()) / 2);
  EXPECT_GT(stats.coalesced_reads, 0);
  EXPECT_GT(disk.stats().coalesced_reads, 0);
}

TEST_F(ChunkPipelineTest, CoalescingOffIssuesOneBatchPerEntry) {
  // Window 1 is the per-chunk loop: one read per entry, charged exactly
  // like ReadChunk.
  std::vector<ChunkId> schedule(stored_.begin(), stored_.begin() + 16);
  SimulatedDisk disk(TestModel(), 0);
  ASSERT_TRUE(disk.AttachBackingFile(Env::Default(), path_).ok());
  StreamStats stats;
  ASSERT_TRUE(StreamSchedule(&disk, schedule, 1, CancellationToken(),
                             [](ChunkId, const Chunk&) {}, &stats)
                  .ok());
  EXPECT_EQ(stats.reads, static_cast<int64_t>(schedule.size()));
  EXPECT_EQ(stats.coalesced_reads, 0);
  EXPECT_EQ(stats.peak_buffered, 1);
  SimulatedDisk serial(TestModel(), 0);
  for (ChunkId id : schedule) serial.ReadChunk(id);
  EXPECT_DOUBLE_EQ(disk.stats().virtual_seconds,
                   serial.stats().virtual_seconds);
}

TEST_F(ChunkPipelineTest, ChargeScheduleIsDeterministicAndCheaperThanSerial) {
  const std::vector<ChunkId> schedule = InterleavedSchedule();

  SimulatedDisk first(TestModel(), 0);
  SimulatedDisk second(TestModel(), 0);
  const double a = ChargeSchedule(&first, schedule, 16);
  const double b = ChargeSchedule(&second, schedule, 16);
  EXPECT_DOUBLE_EQ(a, b);
  EXPECT_DOUBLE_EQ(first.stats().virtual_seconds,
                   second.stats().virtual_seconds);
  EXPECT_EQ(first.stats().physical_reads, second.stats().physical_reads);
  EXPECT_EQ(first.stats().physical_reads,
            static_cast<int64_t>(schedule.size()));

  // The windowed coalescing must beat one seek per schedule entry on the
  // alternating workload; window 1 is exactly that serial loop.
  SimulatedDisk serial(TestModel(), 0);
  double serial_cost = 0.0;
  for (ChunkId id : schedule) serial_cost += serial.ReadChunk(id);
  EXPECT_LT(a, serial_cost);
  SimulatedDisk one(TestModel(), 0);
  EXPECT_DOUBLE_EQ(ChargeSchedule(&one, schedule, 1), serial_cost);
}

// ---- out-of-core aggregation --------------------------------------------

TEST_F(ChunkPipelineTest, OutOfCoreRollupMatchesInMemoryBitwise) {
  std::vector<GroupByMask> masks = {0b001, 0b010, 0b011, 0b101, 0b110};
  std::vector<int> order(workload_.cube.num_dims());
  std::iota(order.begin(), order.end(), 0);

  ChunkAggregator memory_agg(workload_.cube);
  const std::vector<GroupByResult> expected =
      memory_agg.Compute(masks, order);

  SimulatedDisk disk(TestModel(), 0);
  ASSERT_TRUE(disk.AttachBackingFile(Env::Default(), path_).ok());

  ChunkAggregator::OutOfCoreOptions sync_options;
  sync_options.window = 1;
  ChunkAggregator sync_agg(workload_.cube);
  Result<std::vector<GroupByResult>> sync_views =
      sync_agg.ComputeOutOfCore(masks, order, &disk, sync_options);
  ASSERT_TRUE(sync_views.ok()) << sync_views.status().ToString();
  ASSERT_EQ(sync_views->size(), masks.size());
  for (size_t i = 0; i < masks.size(); ++i) {
    EXPECT_TRUE((*sync_views)[i] == expected[i]) << "mask " << i;
  }

  for (int window : {2, 8, 16, 64}) {
    ChunkAggregator::OutOfCoreOptions options;
    options.window = window;
    ChunkAggregator agg(workload_.cube);
    Result<std::vector<GroupByResult>> views =
        agg.ComputeOutOfCore(masks, order, &disk, options);
    ASSERT_TRUE(views.ok()) << views.status().ToString();
    for (size_t i = 0; i < masks.size(); ++i) {
      EXPECT_TRUE((*views)[i] == (*sync_views)[i])
          << "mask " << i << " window " << window;
    }
    EXPECT_EQ(agg.stats().chunks_read, sync_agg.stats().chunks_read);
    EXPECT_EQ(agg.stats().cells_scanned, sync_agg.stats().cells_scanned);
  }
}

TEST_F(ChunkPipelineTest, OutOfCoreRollupWithoutBackingFails) {
  SimulatedDisk bare(TestModel(), 0);
  ChunkAggregator agg(workload_.cube);
  std::vector<int> order(workload_.cube.num_dims());
  std::iota(order.begin(), order.end(), 0);
  Result<std::vector<GroupByResult>> views = agg.ComputeOutOfCore(
      {GroupByMask{0b001}}, order, &bare, ChunkAggregator::OutOfCoreOptions{});
  EXPECT_EQ(views.status().code(), StatusCode::kFailedPrecondition);
}

// ---- executor wiring -----------------------------------------------------

TEST(PipelinedQueryTest, PipelinedIoPreservesQueryResults) {
  ProductCubeConfig config;
  config.separation_chunks = 40;
  config.chunk_products = 1;
  config.fill_data = true;
  ProductCube workload = BuildProductCube(config);
  const std::string path = TempPath("pipelined_query.olap");
  ASSERT_TRUE(SaveCube(workload.cube, path).ok());

  Database db;
  ASSERT_TRUE(db.AddCube("Products", workload.cube).ok());
  Executor exec(&db);

  // A plain roll-up grid plus the Fig. 12 what-if query; both must be
  // unaffected by how the reads are charged/streamed.
  const std::string plain =
      "SELECT {[Product].Children} ON ROWS, "
      "{[Time].Children} ON COLUMNS FROM Products";
  const std::string whatif =
      "WITH PERSPECTIVE {(Jan), (Jul)} FOR Product DYNAMIC FORWARD "
      "SELECT {Time.[Jan], Time.[Jul]} ON COLUMNS, "
      "{Product.[1001]} ON ROWS FROM Products "
      "WHERE (Measures.[Sales])";
  for (const std::string& q : {plain, whatif}) {
    SimulatedDisk sync_disk(TestModel(), 0);
    ASSERT_TRUE(sync_disk.AttachBackingFile(Env::Default(), path).ok());
    QueryOptions sync_options;
    sync_options.disk = &sync_disk;
    Result<QueryResult> sync_result = exec.Execute(q, sync_options);

    SimulatedDisk piped_disk(TestModel(), 0);
    ASSERT_TRUE(piped_disk.AttachBackingFile(Env::Default(), path).ok());
    QueryOptions piped_options;
    piped_options.disk = &piped_disk;
    piped_options.pipelined_io = true;
    piped_options.eval_threads = 4;
    Result<QueryResult> piped_result = exec.Execute(q, piped_options);

    if (!sync_result.ok()) {
      // A query the binder rejects must fail identically in both modes.
      EXPECT_FALSE(piped_result.ok()) << q;
      continue;
    }
    ASSERT_TRUE(piped_result.ok()) << piped_result.status().ToString();
    ASSERT_EQ(sync_result->grid.num_rows(), piped_result->grid.num_rows());
    ASSERT_EQ(sync_result->grid.num_columns(),
              piped_result->grid.num_columns());
    for (int r = 0; r < sync_result->grid.num_rows(); ++r) {
      for (int c = 0; c < sync_result->grid.num_columns(); ++c) {
        EXPECT_EQ(sync_result->grid.at(r, c), piped_result->grid.at(r, c))
            << q << " cell " << r << "," << c;
      }
    }
  }
  std::remove(path.c_str());
}

// The reader plans its runs from the schedule alone and charges on the
// query thread, so an out-of-core query's modeled I/O — not just its grid —
// is the same at every evaluation thread count.
TEST(PipelinedQueryTest, ModeledIoIsIdenticalAtEveryThreadCount) {
  ProductCubeConfig config;
  config.separation_chunks = 40;
  config.chunk_products = 1;
  config.fill_data = true;
  ProductCube workload = BuildProductCube(config);
  const std::string path = TempPath("pipelined_threads.olap");
  ASSERT_TRUE(SaveCube(workload.cube, path).ok());

  Database db;
  ASSERT_TRUE(db.AddCube("Products", workload.cube).ok());
  Executor exec(&db);
  const std::string queries[] = {
      "SELECT {[Product].Children} ON ROWS, "
      "{[Time].Children} ON COLUMNS FROM Products",
      "WITH PERSPECTIVE {(Jan), (Jul)} FOR Product DYNAMIC FORWARD "
      "SELECT {[Time].Children} ON COLUMNS, "
      "{[Product].Children} ON ROWS FROM Products "
      "WHERE (Measures.[Sales])",
  };
  for (const std::string& q : queries) {
    std::optional<QueryResult> first;
    IoStats first_io;
    for (int threads : {1, 2, 4, 8}) {
      SimulatedDisk disk(TestModel(), 0);
      ASSERT_TRUE(disk.AttachBackingFile(Env::Default(), path).ok());
      QueryOptions options;
      options.disk = &disk;
      options.pipelined_io = true;
      options.eval_threads = threads;
      Result<QueryResult> r = exec.Execute(q, options);
      ASSERT_TRUE(r.ok()) << q << ": " << r.status().ToString();
      const IoStats io = disk.stats();
      EXPECT_GT(io.physical_reads, 0) << q;
      if (!first.has_value()) {
        first = *std::move(r);
        first_io = io;
        continue;
      }
      ASSERT_EQ(first->grid.num_rows(), r->grid.num_rows());
      ASSERT_EQ(first->grid.num_columns(), r->grid.num_columns());
      for (int row = 0; row < r->grid.num_rows(); ++row) {
        for (int col = 0; col < r->grid.num_columns(); ++col) {
          EXPECT_EQ(BitsOf(first->grid.at(row, col)),
                    BitsOf(r->grid.at(row, col)))
              << q << " threads " << threads << " cell " << row << "," << col;
        }
      }
      EXPECT_EQ(io.physical_reads, first_io.physical_reads) << threads;
      EXPECT_EQ(io.total_seek_chunks, first_io.total_seek_chunks) << threads;
      EXPECT_EQ(io.coalesced_reads, first_io.coalesced_reads) << threads;
      EXPECT_EQ(io.virtual_seconds, first_io.virtual_seconds) << threads;
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace olap
