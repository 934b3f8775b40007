// Error paths must leave closed, well-formed span trees with the failure
// recorded — a query or storage operation that dies half-way cannot leak an
// open span (which would poison the whole session's trace).

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include <vector>

#include "agg/chunk_aggregator.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "engine/executor.h"
#include "storage/chunk_pipeline.h"
#include "storage/cube_io.h"
#include "storage/fault_env.h"
#include "storage/simulated_disk.h"
#include "workload/paper_example.h"
#include "workload/product.h"

namespace olap {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

class TraceFailureTest : public ::testing::Test {
 protected:
  void TearDown() override {
    if (TraceCollector::enabled()) TraceCollector::DisableAndDrain();
  }

  // Asserts the drained session is closed and well-formed, and that at
  // least one span named `span` carries an error whose text mentions
  // `detail_fragment`.
  void ExpectClosedErrorTree(const TraceData& data, const std::string& span,
                             const std::string& detail_fragment) {
    std::string why;
    EXPECT_TRUE(data.WellFormed(&why)) << why;
    bool found = false;
    for (const SpanRecord& s : data.spans) {
      EXPECT_GT(s.end_ns, 0) << s.name << " left open";
      if (s.name == span && !s.ok) {
        found = true;
        EXPECT_NE(s.detail.find(detail_fragment), std::string::npos)
            << s.detail;
      }
    }
    EXPECT_TRUE(found) << "no failed '" << span << "' span recorded";
  }
};

TEST_F(TraceFailureTest, FetchChunkWithoutBackingClosesWithError) {
  SimulatedDisk disk(DiskModel{}, 4);
  ASSERT_TRUE(TraceCollector::Enable());
  Result<Chunk> chunk = disk.FetchChunk(7);
  EXPECT_FALSE(chunk.ok());
  ExpectClosedErrorTree(TraceCollector::DisableAndDrain(), "disk.fetch_chunk",
                        "backing");
}

TEST_F(TraceFailureTest, LoadFailureUnderFaultEnvClosesWithError) {
  PaperExample ex = BuildPaperExample();
  const std::string path = TempPath("trace_failure.olap");
  ASSERT_TRUE(SaveCube(ex.cube, path).ok());

  FaultInjectingEnv env(Env::Default());
  env.InjectError(FaultOp::kOpenRead, /*skip=*/0, StatusCode::kUnavailable,
                  FaultInjectingEnv::kForever);
  LoadOptions options;
  options.env = &env;

  ASSERT_TRUE(TraceCollector::Enable());
  Result<Cube> loaded = LoadCube(path, options);
  EXPECT_FALSE(loaded.ok());
  ExpectClosedErrorTree(TraceCollector::DisableAndDrain(), "storage.load", "");
  std::remove(path.c_str());
}

TEST_F(TraceFailureTest, RetriedLoadRecordsEveryAttemptThenError) {
  PaperExample ex = BuildPaperExample();
  const std::string path = TempPath("trace_failure_retry.olap");
  ASSERT_TRUE(SaveCube(ex.cube, path).ok());

  FaultInjectingEnv env(Env::Default());
  env.InjectError(FaultOp::kOpenRead, /*skip=*/0, StatusCode::kUnavailable,
                  FaultInjectingEnv::kForever);
  LoadOptions options;
  options.env = &env;
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_seconds = 0.0;

  ASSERT_TRUE(TraceCollector::Enable());
  Result<Cube> loaded = LoadCubeWithRetry(path, options, policy);
  EXPECT_FALSE(loaded.ok());
  TraceData data = TraceCollector::DisableAndDrain();
  ExpectClosedErrorTree(data, "storage.load_retry", "");
  // One inner load span per attempt, all closed, all failed.
  EXPECT_EQ(data.CountOf("storage.load"), 3);
  for (const SpanRecord& s : data.spans) {
    if (s.name == "storage.load") {
      EXPECT_FALSE(s.ok);
    }
  }
  std::remove(path.c_str());
}

TEST_F(TraceFailureTest, FailedQueryClosesTheWholeTree) {
  PaperExample ex = BuildPaperExample();
  Database db;
  ASSERT_TRUE(db.AddCube("Warehouse", ex.cube).ok());
  Executor exec(&db);

  // A bind-time failure (unknown member): the query dies before evaluation.
  ASSERT_TRUE(TraceCollector::Enable());
  Result<QueryResult> r = exec.Execute(
      "SELECT {Time.[Nonexistent]} ON COLUMNS FROM Warehouse");
  EXPECT_FALSE(r.ok());
  TraceData data = TraceCollector::DisableAndDrain();
  ExpectClosedErrorTree(data, "query.execute", "");
  EXPECT_EQ(data.CountOf("query.parse"), 1);
  EXPECT_EQ(data.CountOf("query.bind"), 1);
  // Phases after the failure never ran — and left no dangling spans.
  EXPECT_EQ(data.CountOf("query.evaluate"), 0);
}

TEST_F(TraceFailureTest, FaultMidPrefetchClosesFetchBatchSpansWithError) {
  PaperExample ex = BuildPaperExample();
  const std::string path = TempPath("trace_failure_stream.olap");
  ASSERT_TRUE(SaveCube(ex.cube, path).ok());

  FaultInjectingEnv env(Env::Default());
  SimulatedDisk disk(DiskModel{}, 0);
  // Attach through the healthy env (indexing must succeed), then make every
  // subsequent data read fail: the fault lands on the reader's first
  // ranged read, inside its pipeline.fetch_batch span.
  ASSERT_TRUE(disk.AttachBackingFile(&env, path).ok());
  env.InjectError(FaultOp::kRead, /*skip=*/0, StatusCode::kUnavailable,
                  FaultInjectingEnv::kForever);

  std::vector<ChunkId> schedule;
  ex.cube.ForEachChunk([&](ChunkId id, const Chunk&) { schedule.push_back(id); });
  ASSERT_FALSE(schedule.empty());

  ASSERT_TRUE(TraceCollector::Enable());
  int delivered = 0;
  const Status failure =
      StreamSchedule(&disk, schedule, /*window=*/4, CancellationToken(),
                     [&](ChunkId, const Chunk&) { ++delivered; });
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(failure.code(), StatusCode::kUnavailable) << failure.ToString();
  ExpectClosedErrorTree(TraceCollector::DisableAndDrain(),
                        "pipeline.fetch_batch", "");
  std::remove(path.c_str());
}

// The out-of-core rollup's slab-plan units stream on pool threads, each
// read in its own pipeline.fetch_batch span rooted at that worker: a fault
// there must close the worker's span with the error, and the session must
// stay well-formed. Which unit hits the fault depends on thread timing, so
// a few attempts give a pool thread the chance to be the one.
TEST_F(TraceFailureTest, FaultInPoolThreadFetchBatchClosesWithError) {
  ProductCubeConfig config;
  config.separation_chunks = 4000;
  config.chunk_products = 1;
  config.fill_data = true;
  const ProductCube pc = BuildProductCube(config);
  const std::string path = TempPath("trace_failure_parallel.olap");
  ASSERT_TRUE(SaveCube(pc.cube, path).ok());
  const std::vector<GroupByMask> masks = {0b001, 0b011};
  std::vector<int> order(pc.cube.num_dims());
  for (int d = 0; d < pc.cube.num_dims(); ++d) order[d] = d;

  bool pool_thread_fault = false;
  for (int attempt = 0; attempt < 20 && !pool_thread_fault; ++attempt) {
    FaultInjectingEnv env(Env::Default());
    SimulatedDisk disk(DiskModel{}, 0);
    ASSERT_TRUE(disk.AttachBackingFile(&env, path).ok());
    env.InjectError(FaultOp::kRead, /*skip=*/8, StatusCode::kDataLoss,
                    FaultInjectingEnv::kForever);
    ASSERT_TRUE(TraceCollector::Enable());
    ChunkAggregator agg(pc.cube);
    const Result<std::vector<GroupByResult>> views = agg.ComputeOutOfCore(
        masks, order, &disk, ChunkAggregator::OutOfCoreOptions{},
        /*threads=*/4);
    const TraceData data = TraceCollector::DisableAndDrain();
    EXPECT_EQ(views.status().code(), StatusCode::kDataLoss);
    EXPECT_GE(agg.stats().slab_dim, 0);
    ExpectClosedErrorTree(data, "pipeline.fetch_batch", "injected");
    ExpectClosedErrorTree(data, "agg.rollup_outofcore", "injected");
    int caller = -1;
    for (const SpanRecord& s : data.spans) {
      if (s.name == "agg.rollup_outofcore") caller = s.thread;
    }
    for (const SpanRecord& s : data.spans) {
      if (s.name == "pipeline.fetch_batch" && !s.ok && s.thread != caller) {
        pool_thread_fault = true;
      }
    }
  }
  std::remove(path.c_str());
  if (ThreadPool::HardwareCores() >= 2) {
    EXPECT_TRUE(pool_thread_fault)
        << "no failed fetch_batch span on a pool thread in 20 attempts";
  }
}

TEST_F(TraceFailureTest, RejectedWhatIfSpecClosesComputeSpanWithError) {
  PaperExample ex = BuildPaperExample();

  // An invalid spec straight at the what-if layer (no varying dimension):
  // ComputePerspectiveCube fails before any operator runs, and its span
  // must close carrying the error.
  WhatIfSpec spec;
  spec.varying_dim = -1;
  EvalStats stats;
  ASSERT_TRUE(TraceCollector::Enable());
  Result<PerspectiveCube> pc = ComputePerspectiveCube(
      ex.cube, spec, EvalStrategy::kDirect, nullptr, &stats, 1);
  EXPECT_FALSE(pc.ok());
  ExpectClosedErrorTree(TraceCollector::DisableAndDrain(),
                        "whatif.compute_perspective_cube", "varying");
}

}  // namespace
}  // namespace olap
