// Cancellation fuzz: inject cancellation at deterministic-but-scattered
// poll counts (phase boundaries, ParallelFor work units, out-of-core reads)
// across 1/2/4/8 evaluation threads and both I/O modes, and assert the
// engine's invariants hold on every exit path — each run either completes
// bit-identical to the oracle or returns kCancelled; afterwards no reserved
// budget cell leaks, the shared thread pool still works, and a profiled
// query still produces a well-formed span tree.
//
// CancelAfterPolls makes the schedule reproducible without timers: the
// token trips on the nth ShouldStop/Poll observation, wherever in the
// engine that poll happens to be.

#include <cstdio>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/cancellation.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "engine/executor.h"
#include "storage/cube_io.h"
#include "storage/simulated_disk.h"
#include "whatif/delta.h"
#include "whatif/scenario_algebra.h"
#include "workload/product.h"

namespace olap {
namespace {

uint64_t BitsOf(CellValue v) {
  double raw = CellValue::ToStorage(v);
  uint64_t bits;
  std::memcpy(&bits, &raw, sizeof(bits));
  return bits;
}

DiskModel TestModel() {
  DiskModel m;
  m.seek_seconds_per_chunk = 1e-6;
  m.max_seek_seconds = 1e-3;
  m.transfer_seconds = 1e-4;
  return m;
}

// The Fig. 12 colocation workload: a what-if query whose evaluation
// crosses every cancellable subsystem (bind, Split/Relocate, batched
// eval, parallel rollup, and — with a disk — the out-of-core reader).
const char kFig12Query[] =
    "WITH PERSPECTIVE {(Jan), (Jul)} FOR Product DYNAMIC FORWARD "
    "SELECT {Time.[Jan], Time.[Jul]} ON COLUMNS, "
    "{Product.[1001]} ON ROWS FROM Products "
    "WHERE (Measures.[Sales])";

class CancellationFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ProductCubeConfig config;
    config.separation_chunks = 40;
    config.chunk_products = 4;
    config.move_moment = 6;
    pc_ = BuildProductCube(config);
    ASSERT_TRUE(db_.AddCube("Products", pc_.cube).ok());
    exec_ = std::make_unique<Executor>(&db_);
    path_ = ::testing::TempDir() + "/cancellation_fuzz_cube.olap";
    ASSERT_TRUE(SaveCube(pc_.cube, path_).ok());

    QueryOptions plain;
    Result<QueryResult> oracle = exec_->Execute(kFig12Query, plain);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    oracle_ = *std::move(oracle);
  }

  void TearDown() override { std::remove(path_.c_str()); }

  void ExpectMatchesOracle(const QueryResult& r, const std::string& what) {
    ASSERT_EQ(oracle_.grid.num_rows(), r.grid.num_rows()) << what;
    ASSERT_EQ(oracle_.grid.num_columns(), r.grid.num_columns()) << what;
    for (int row = 0; row < oracle_.grid.num_rows(); ++row) {
      for (int col = 0; col < oracle_.grid.num_columns(); ++col) {
        EXPECT_EQ(BitsOf(oracle_.grid.at(row, col)), BitsOf(r.grid.at(row, col)))
            << what << " cell (" << row << ", " << col << ")";
      }
    }
  }

  // One governed run with cancellation injected at the trip-th poll.
  // Returns true if the run completed (trip never reached).
  bool RunOnce(int64_t trip, int threads, bool pipelined,
               const std::string& what) {
    SimulatedDisk disk(TestModel(), 0);
    QueryOptions options;
    options.eval_threads = threads;
    if (pipelined) {
      EXPECT_TRUE(disk.AttachBackingFile(Env::Default(), path_).ok());
      options.disk = &disk;
      options.pipelined_io = true;
    }
    CancellationSource source;
    source.CancelAfterPolls(trip);
    options.governor.cancel = source.token();
    Result<QueryResult> r = exec_->Execute(kFig12Query, options);
    if (r.ok()) {
      ExpectMatchesOracle(*r, what);
      return true;
    }
    // The only acceptable failure is the injected cancellation.
    EXPECT_EQ(r.status().code(), StatusCode::kCancelled)
        << what << ": " << r.status().ToString();
    return false;
  }

  ProductCube pc_;
  Database db_;
  std::unique_ptr<Executor> exec_;
  std::string path_;
  QueryResult oracle_;
};

TEST_F(CancellationFuzzTest, RandomCancellationPointsLeaveNoResidue) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Gauge* reserved = reg.gauge("governor.mem.reserved_cells");
  const int64_t reserved_before = reserved->value();

  // Scattered low counts (phase boundaries trip), mid counts (work-unit
  // polls trip) and one count no query reaches (the run must complete).
  const int64_t kTrips[] = {1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144,
                            int64_t{1} << 40};
  int completed = 0;
  int cancelled = 0;
  int run = 0;
  for (int threads : {1, 2, 4, 8}) {
    for (int64_t trip : kTrips) {
      const bool pipelined = (run++ % 2) == 1;
      const std::string what = "threads=" + std::to_string(threads) +
                               " trip=" + std::to_string(trip) +
                               (pipelined ? " pipelined" : " in-memory");
      if (RunOnce(trip, threads, pipelined, what)) {
        ++completed;
      } else {
        ++cancelled;
      }
      // No run may leak a budget reservation, whichever way it ended.
      ASSERT_EQ(reserved->value(), reserved_before) << what;
    }
  }
  // The unreachable trip completes at every thread count; the poll-1 trip
  // always cancels. (Counts in between vary with thread timing.)
  EXPECT_GE(completed, 4);
  EXPECT_GE(cancelled, 4);

  // The shared pool survived every abandoned fan-out: a fresh ParallelFor
  // still visits each index exactly once.
  std::vector<int> hits(512, 0);
  ThreadPool::Shared().ParallelFor(
      static_cast<int64_t>(hits.size()), 8,
      [&hits](int64_t i) { hits[static_cast<size_t>(i)]++; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 512);
  for (int h : hits) EXPECT_EQ(h, 1);

  // And the tracer is intact: a profiled run still yields a well-formed
  // span tree with every span closed.
  QueryOptions profiled;
  profiled.collect_profile = true;
  profiled.eval_threads = 4;
  Result<QueryResult> r = exec_->Execute(kFig12Query, profiled);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(r->profile.collected);
  std::string why;
  EXPECT_TRUE(r->profile.trace.WellFormed(&why)) << why;
  for (const SpanRecord& s : r->profile.trace.spans) EXPECT_TRUE(s.ok) << s.name;
  ExpectMatchesOracle(*r, "post-fuzz profiled run");
}

TEST_F(CancellationFuzzTest, ComposedScenarioAndCompareCancelCleanly) {
  // The scenario-algebra paths: a composed stack (INTRODUCE + CHANGES +
  // PERSPECTIVE through one spec) and a COMPARE ... VERSUS query. Both
  // must honor injected cancellation at any poll without leaking budget
  // reservations, and complete bit-identical when never tripped.
  const std::string kComposed =
      "WITH INTRODUCE {([1002], [100], [Feb], CLONE [1001] 0.5)} "
      "FOR Product "
      "CHANGES {([100].[1001], [100], [200], [Mar])} "
      "PERSPECTIVE {(Jan), (Jul)} FOR Product DYNAMIC FORWARD VISUAL "
      "SELECT {Time.[Jan], Time.[Jul]} ON COLUMNS, "
      "{Product.[1001], Product.[1002]} ON ROWS FROM Products "
      "WHERE (Measures.[Sales])";
  const std::string kCompare =
      "COMPARE "
      "WITH CHANGES {([100].[1001], [100], [200], [Mar])} VISUAL "
      "SELECT {Time.[Jan], Time.[Jul]} ON COLUMNS, {[100], [200]} ON ROWS "
      "FROM Products WHERE (Measures.[Sales]) "
      "VERSUS "
      "SELECT {Time.[Jan], Time.[Jul]} ON COLUMNS, {[100], [200]} ON ROWS "
      "FROM Products WHERE (Measures.[Sales])";

  MetricsRegistry& reg = MetricsRegistry::Global();
  Gauge* reserved = reg.gauge("governor.mem.reserved_cells");
  const int64_t reserved_before = reserved->value();

  const int64_t kTrips[] = {1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144,
                            int64_t{1} << 40};
  for (const std::string& query : {kComposed, kCompare}) {
    Result<QueryResult> oracle = exec_->Execute(query, QueryOptions());
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    int completed = 0, cancelled = 0, run = 0;
    for (int threads : {1, 2, 4, 8}) {
      for (int64_t trip : kTrips) {
        const bool pipelined = (run++ % 2) == 1;
        const std::string what = "threads=" + std::to_string(threads) +
                                 " trip=" + std::to_string(trip) +
                                 (pipelined ? " pipelined" : " in-memory");
        SimulatedDisk disk(TestModel(), 0);
        QueryOptions options;
        options.eval_threads = threads;
        if (pipelined) {
          EXPECT_TRUE(disk.AttachBackingFile(Env::Default(), path_).ok());
          options.disk = &disk;
          options.pipelined_io = true;
            }
        CancellationSource source;
        source.CancelAfterPolls(trip);
        options.governor.cancel = source.token();
        Result<QueryResult> r = exec_->Execute(query, options);
        if (r.ok()) {
          ++completed;
          ASSERT_EQ(oracle->grid.num_rows(), r->grid.num_rows()) << what;
          ASSERT_EQ(oracle->grid.num_columns(), r->grid.num_columns())
              << what;
          for (int row = 0; row < oracle->grid.num_rows(); ++row) {
            for (int col = 0; col < oracle->grid.num_columns(); ++col) {
              EXPECT_EQ(BitsOf(oracle->grid.at(row, col)),
                        BitsOf(r->grid.at(row, col)))
                  << what << " cell (" << row << ", " << col << ")";
            }
          }
          EXPECT_EQ(oracle->compared, r->compared) << what;
          if (oracle->compared) {
            EXPECT_EQ(BitsOf(CellValue(oracle->comparison.l1)),
                      BitsOf(CellValue(r->comparison.l1)))
                << what;
            EXPECT_EQ(oracle->comparison.overlap, r->comparison.overlap)
                << what;
          }
        } else {
          ++cancelled;
          EXPECT_EQ(r.status().code(), StatusCode::kCancelled)
              << what << ": " << r.status().ToString();
        }
        ASSERT_EQ(reserved->value(), reserved_before) << what;
      }
    }
    EXPECT_GE(completed, 4) << query;
    EXPECT_GE(cancelled, 4) << query;
  }

  // The shared pool survived every abandoned fan-out.
  std::vector<int> hits(256, 0);
  ThreadPool::Shared().ParallelFor(
      static_cast<int64_t>(hits.size()), 8,
      [&hits](int64_t i) { hits[static_cast<size_t>(i)]++; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 256);
}

TEST_F(CancellationFuzzTest, CancelledProfiledRunsDoNotWedgeTheTracer) {
  // Profiled + cancelled at assorted points: the global tracing session
  // must be released on the error path, or the next profiled query would
  // hang/misbehave.
  for (int64_t trip : {int64_t{1}, int64_t{4}, int64_t{16}, int64_t{64}}) {
    CancellationSource source;
    source.CancelAfterPolls(trip);
    QueryOptions options;
    options.collect_profile = true;
    options.eval_threads = 2;
    options.governor.cancel = source.token();
    Result<QueryResult> r = exec_->Execute(kFig12Query, options);
    if (r.ok()) {
      ExpectMatchesOracle(*r, "trip=" + std::to_string(trip));
    } else {
      EXPECT_EQ(r.status().code(), StatusCode::kCancelled)
          << r.status().ToString();
    }
  }
  QueryOptions profiled;
  profiled.collect_profile = true;
  Result<QueryResult> r = exec_->Execute(kFig12Query, profiled);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::string why;
  EXPECT_TRUE(r->profile.trace.WellFormed(&why)) << why;
}

TEST_F(CancellationFuzzTest, MidRefreshCancelLeavesScenarioRebuildable) {
  // Incremental-maintenance path: cancellation injected mid ApplyDelta at
  // scattered poll counts. Every run must either complete bit-identical
  // to the full-recompute oracle or surface kCancelled with
  // needs_rebuild() set — and in both cases release every reserved budget
  // cell. Rebuild() must then recover the cancelled scenario exactly.
  ScenarioSpec spec;
  spec.varying_dim = pc_.product_dim;
  spec.ops = {ScenarioOp::Perspective(Perspectives({6}), Semantics::kForward)};

  const std::vector<int>& extents = pc_.cube.layout().extents();
  std::vector<std::pair<std::vector<int>, CellValue>> writes;
  for (int i = 0; i < 5; ++i) {
    writes.push_back({{i % extents[0], (3 * i) % extents[1], 0},
                      CellValue(100.0 + i)});
  }

  // Oracle: full recompute over the edited base.
  Cube edited = pc_.cube;
  for (const auto& [coords, v] : writes) edited.SetCell(coords, v);
  Result<PerspectiveCube> oracle = ComputeScenario(edited, spec);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  auto expect_matches_oracle = [&](const Cube& out, const std::string& what) {
    oracle->output().ForEachChunk([&](ChunkId id, const Chunk& c) {
      const Chunk* got = out.FindChunk(id);
      ASSERT_NE(got, nullptr) << what << " chunk " << id;
      for (int64_t off = 0; off < c.size(); ++off) {
        ASSERT_EQ(BitsOf(c.Get(off)), BitsOf(got->Get(off)))
            << what << " chunk " << id << " offset " << off;
      }
    });
  };

  const int64_t kTrips[] = {1, 2, 3, 5, 8, 13, 21, 34, int64_t{1} << 40};
  int completed = 0, cancelled = 0;
  for (int threads : {1, 2, 4, 8}) {
    for (int64_t trip : kTrips) {
      const std::string what = "threads=" + std::to_string(threads) +
                               " trip=" + std::to_string(trip);
      Cube cube = pc_.cube;
      ScenarioEvalOptions so;
      so.eval_threads = threads;
      Result<IncrementalScenario> inc =
          IncrementalScenario::Create(&cube, {spec}, so);
      ASSERT_TRUE(inc.ok()) << what << ": " << inc.status().ToString();

      DeltaBatch batch(&cube);
      for (const auto& [coords, v] : writes) {
        ASSERT_TRUE(batch.Set(coords, v).ok()) << what;
      }

      CancellationSource source;
      source.CancelAfterPolls(trip);
      int64_t bytes_reserved = 0, bytes_released = 0;
      RefreshOptions ro;
      ro.eval_threads = threads;
      ro.cancel = source.token();
      ro.try_reserve_cells = [&](int64_t cells) {
        bytes_reserved += cells;
        return true;
      };
      ro.release_cells = [&](int64_t cells) { bytes_released += cells; };
      Status s = inc->ApplyDelta(batch, ro);
      // Reservations never leak, whichever way the refresh ended.
      ASSERT_EQ(bytes_reserved, bytes_released) << what;
      if (s.ok()) {
        ++completed;
        expect_matches_oracle(inc->cube().output(), what + " completed");
      } else {
        ++cancelled;
        EXPECT_EQ(s.code(), StatusCode::kCancelled)
            << what << ": " << s.ToString();
        EXPECT_TRUE(inc->needs_rebuild()) << what;
        ASSERT_TRUE(inc->Rebuild().ok()) << what;
        expect_matches_oracle(inc->cube().output(), what + " rebuilt");
      }
    }
  }
  // The unreachable trip completes at every thread count; trip=1 always
  // cancels at the first refresh poll.
  EXPECT_GE(completed, 4);
  EXPECT_GE(cancelled, 4);
}

TEST_F(CancellationFuzzTest, DeadlineFuzzReturnsOnlyTheTwoGovernorCodes) {
  // Tiny real deadlines race the query for real: whichever phase notices
  // first must surface kDeadlineExceeded, never a partial result or any
  // other error.
  for (double deadline : {1e-9, 1e-6, 1e-4, 1e-3}) {
    for (int threads : {1, 4}) {
      QueryOptions options;
      options.eval_threads = threads;
      options.governor.deadline_seconds = deadline;
      Result<QueryResult> r = exec_->Execute(kFig12Query, options);
      if (r.ok()) {
        ExpectMatchesOracle(*r, "deadline=" + std::to_string(deadline));
      } else {
        EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
            << r.status().ToString();
      }
    }
  }
  // The executor is unharmed: a final ungoverned run matches the oracle.
  Result<QueryResult> r = exec_->Execute(kFig12Query, QueryOptions());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectMatchesOracle(*r, "post-deadline-fuzz run");
}

}  // namespace
}  // namespace olap
