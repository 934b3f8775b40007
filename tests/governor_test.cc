// Query-governor contract: deadlines and cancellation surface as
// kDeadlineExceeded / kCancelled, pressure walks the degradation ladder
// (recorded in governor.* metrics, the query result and EXPLAIN ANALYZE)
// instead of failing outright, degraded and cancelled-then-retried queries
// stay bit-identical to the ungoverned oracle, and every exit path leaves
// the engine reusable (pins returned, reservations released).

#include "engine/governor.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "agg/chunk_aggregator.h"
#include "common/metrics.h"
#include "engine/executor.h"
#include "storage/chunk_pipeline.h"
#include "storage/cube_io.h"
#include "storage/fault_env.h"
#include "storage/simulated_disk.h"
#include "workload/paper_example.h"
#include "workload/product.h"

namespace olap {
namespace {

uint64_t BitsOf(CellValue v) {
  double raw = CellValue::ToStorage(v);
  uint64_t bits;
  std::memcpy(&bits, &raw, sizeof(bits));
  return bits;
}

void ExpectGridsBitIdentical(const ResultGrid& expected,
                             const ResultGrid& actual) {
  ASSERT_EQ(expected.num_rows(), actual.num_rows());
  ASSERT_EQ(expected.num_columns(), actual.num_columns());
  for (int r = 0; r < expected.num_rows(); ++r) {
    for (int c = 0; c < expected.num_columns(); ++c) {
      EXPECT_EQ(BitsOf(expected.at(r, c)), BitsOf(actual.at(r, c)))
          << "cell (" << r << ", " << c << ")";
    }
  }
}

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

bool Contains(const std::vector<std::string>& steps, const char* step) {
  for (const std::string& s : steps) {
    if (s == step) return true;
  }
  return false;
}

// ---- GovernorOptions / QueryContext unit behaviour -----------------------

TEST(GovernorOptionsTest, ActiveOnlyWhenSomeLimitOrFlagIsSet) {
  EXPECT_FALSE(GovernorOptions{}.active());
  GovernorOptions enabled;
  enabled.enabled = true;
  EXPECT_TRUE(enabled.active());
  GovernorOptions deadline;
  deadline.deadline_seconds = 1.0;
  EXPECT_TRUE(deadline.active());
  GovernorOptions budget;
  budget.memory_budget_cells = 100;
  EXPECT_TRUE(budget.active());
  GovernorOptions cancellable;
  CancellationSource source;
  cancellable.cancel = source.token();
  EXPECT_TRUE(cancellable.active());
}

TEST(QueryContextTest, BudgetDenialLatchesMemoryPressure) {
  GovernorOptions options;
  options.memory_budget_cells = 10;
  QueryContext ctx(options);
  EXPECT_FALSE(ctx.UnderMemoryPressure());
  EXPECT_TRUE(ctx.TryReserveCells(8));
  EXPECT_EQ(ctx.reserved_cells(), 8);
  EXPECT_FALSE(ctx.TryReserveCells(8));  // 16 > 10: denied.
  EXPECT_TRUE(ctx.UnderMemoryPressure());  // Sticky.
  EXPECT_EQ(ctx.reserved_cells(), 8);      // Denial reserves nothing.
  ctx.ReleaseCells(8);
  EXPECT_EQ(ctx.reserved_cells(), 0);
  EXPECT_TRUE(ctx.UnderMemoryPressure());  // Still sticky after release.
}

TEST(QueryContextTest, UnlimitedBudgetAlwaysReserves) {
  GovernorOptions options;
  options.enabled = true;  // No memory budget.
  QueryContext ctx(options);
  EXPECT_TRUE(ctx.TryReserveCells(int64_t{1} << 40));
  EXPECT_FALSE(ctx.UnderMemoryPressure());
  ctx.ReleaseCells(int64_t{1} << 40);
}

TEST(QueryContextTest, DestructorReturnsLeakedReservationsToTheGauge) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Gauge* gauge = reg.gauge("governor.mem.reserved_cells");
  const int64_t before = gauge->value();
  {
    GovernorOptions options;
    options.memory_budget_cells = 1000;
    QueryContext ctx(options);
    ASSERT_TRUE(ctx.TryReserveCells(500));
    EXPECT_EQ(gauge->value(), before + 500);
    // No release: the context must give the cells back itself.
  }
  EXPECT_EQ(gauge->value(), before);
}

TEST(QueryContextTest, DegradationStepsDeduplicateAndKeepOrder) {
  GovernorOptions options;
  options.enabled = true;
  QueryContext ctx(options);
  ctx.RecordDegradation(DegradeStep::kSyncIo);
  ctx.RecordDegradation(DegradeStep::kBatchedEvalOff);
  ctx.RecordDegradation(DegradeStep::kSyncIo);  // Duplicate collapses.
  const std::vector<std::string> steps = ctx.degradation_steps();
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_EQ(steps[0], "sync_io");
  EXPECT_EQ(steps[1], "batched_eval_off");
}

TEST(QueryContextTest, PressureFractionZeroMeansImmediatePressure) {
  GovernorOptions options;
  options.deadline_seconds = 3600.0;
  options.pressure_fraction = 0.0;
  QueryContext ctx(options);
  EXPECT_TRUE(ctx.UnderDeadlinePressure());
  EXPECT_TRUE(ctx.CheckInterrupted("phase").ok());  // Far from the deadline.
}

// ---- executor integration -------------------------------------------------

class GovernedQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ex_ = BuildPaperExample();
    ASSERT_TRUE(db_.AddCube("Warehouse", ex_.cube).ok());
    exec_ = std::make_unique<Executor>(&db_);
  }

  QueryResult MustExecute(const std::string& mdx, const QueryOptions& options) {
    Result<QueryResult> r = exec_->Execute(mdx, options);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << "\nquery: " << mdx;
    return r.ok() ? *std::move(r) : QueryResult{};
  }

  PaperExample ex_;
  Database db_;
  std::unique_ptr<Executor> exec_;
};

// A what-if query over aggregate rows: touches Split/Relocate, batched
// evaluation (derived cells) and the parallel evaluate phase.
const char kGovernedQuery[] =
    "WITH PERSPECTIVE {(Feb), (Apr)} FOR Organization DYNAMIC FORWARD "
    "SELECT {Time.[Qtr1], Time.[Qtr2]} ON COLUMNS, "
    "{[FTE], [PTE], [Contractor]} ON ROWS FROM Warehouse "
    "WHERE (Location.[NY], Measures.[Salary])";

TEST_F(GovernedQueryTest, EnabledButIdleGovernorChangesNothing) {
  QueryOptions plain;
  plain.eval_threads = 2;
  const QueryResult oracle = MustExecute(kGovernedQuery, plain);

  MetricsRegistry& reg = MetricsRegistry::Global();
  const MetricsRegistry::Snapshot before = reg.TakeSnapshot();
  QueryOptions governed = plain;
  governed.governor.enabled = true;
  const QueryResult r = MustExecute(kGovernedQuery, governed);
  const MetricsRegistry::Snapshot delta =
      MetricsRegistry::Snapshot::Delta(before, reg.TakeSnapshot());

  ExpectGridsBitIdentical(oracle.grid, r.grid);
  EXPECT_TRUE(r.governor_steps.empty());
  EXPECT_EQ(delta.counter_value("governor.queries"), 1);
  EXPECT_EQ(delta.counter_value("governor.cancelled"), 0);
  EXPECT_EQ(delta.counter_value("governor.deadline_exceeded"), 0);
}

TEST_F(GovernedQueryTest, PreCancelledQueryReturnsCancelled) {
  CancellationSource source;
  source.RequestCancel();
  QueryOptions options;
  options.governor.cancel = source.token();

  MetricsRegistry& reg = MetricsRegistry::Global();
  const MetricsRegistry::Snapshot before = reg.TakeSnapshot();
  Result<QueryResult> r = exec_->Execute(kGovernedQuery, options);
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  const MetricsRegistry::Snapshot delta =
      MetricsRegistry::Snapshot::Delta(before, reg.TakeSnapshot());
  EXPECT_EQ(delta.counter_value("governor.cancelled"), 1);

  // The engine stays reusable: the same Executor then serves the same
  // query, bit-identical to the ungoverned oracle.
  const QueryResult oracle = MustExecute(kGovernedQuery, QueryOptions());
  const QueryResult retry = MustExecute(kGovernedQuery, QueryOptions());
  ExpectGridsBitIdentical(oracle.grid, retry.grid);
}

TEST_F(GovernedQueryTest, ExpiredDeadlineReturnsDeadlineExceeded) {
  QueryOptions options;
  options.governor.deadline_seconds = 1e-9;
  MetricsRegistry& reg = MetricsRegistry::Global();
  const MetricsRegistry::Snapshot before = reg.TakeSnapshot();
  Result<QueryResult> r = exec_->Execute(kGovernedQuery, options);
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  const MetricsRegistry::Snapshot delta =
      MetricsRegistry::Snapshot::Delta(before, reg.TakeSnapshot());
  EXPECT_EQ(delta.counter_value("governor.deadline_exceeded"), 1);
}

TEST_F(GovernedQueryTest, DeadlinePressureWalksTheLadderNotFailure) {
  QueryOptions plain;
  plain.eval_threads = 4;
  const QueryResult oracle = MustExecute(kGovernedQuery, plain);

  // A huge deadline with pressure_fraction 0: the query is "pressured"
  // from the first phase but nowhere near failing — it must degrade and
  // still succeed with bit-identical results.
  QueryOptions governed = plain;
  governed.governor.deadline_seconds = 3600.0;
  governed.governor.pressure_fraction = 0.0;

  MetricsRegistry& reg = MetricsRegistry::Global();
  const MetricsRegistry::Snapshot before = reg.TakeSnapshot();
  const QueryResult r = MustExecute(kGovernedQuery, governed);
  const MetricsRegistry::Snapshot delta =
      MetricsRegistry::Snapshot::Delta(before, reg.TakeSnapshot());

  ExpectGridsBitIdentical(oracle.grid, r.grid);
  EXPECT_TRUE(Contains(r.governor_steps, "batched_eval_off"));
  EXPECT_TRUE(Contains(r.governor_steps, "serial_rollup"));
  EXPECT_GE(delta.counter_value("governor.degrade.batched_eval_off"), 1);
  EXPECT_GE(delta.counter_value("governor.degrade.serial_rollup"), 1);
  EXPECT_EQ(delta.counter_value("governor.deadline_exceeded"), 0);
}

// A query whose derived cells leave Location at its droppable root: the
// batch planner materializes a scratch cover view for it (kGovernedQuery
// pins every dimension, so its "view" would be the raw cube and no scratch
// is ever planned — no allocation to deny).
const char kBudgetQuery[] =
    "WITH PERSPECTIVE {(Feb), (Apr)} FOR Organization DYNAMIC FORWARD "
    "SELECT {Time.[Qtr1], Time.[Qtr2]} ON COLUMNS, "
    "{[FTE], [PTE], [Contractor]} ON ROWS FROM Warehouse "
    "WHERE (Measures.[Salary])";

TEST_F(GovernedQueryTest, MemoryBudgetDenialShedsBatchedEval) {
  const QueryResult oracle = MustExecute(kBudgetQuery, QueryOptions());

  QueryOptions governed;
  governed.governor.memory_budget_cells = 1;  // Denies any scratch plan.

  MetricsRegistry& reg = MetricsRegistry::Global();
  const MetricsRegistry::Snapshot before = reg.TakeSnapshot();
  const QueryResult r = MustExecute(kBudgetQuery, governed);
  const MetricsRegistry::Snapshot delta =
      MetricsRegistry::Snapshot::Delta(before, reg.TakeSnapshot());

  ExpectGridsBitIdentical(oracle.grid, r.grid);
  EXPECT_TRUE(Contains(r.governor_steps, "batched_eval_off"));
  EXPECT_GE(delta.counter_value("governor.mem.denied"), 1);
  EXPECT_GE(delta.counter_value("agg.batch.budget_denied"), 1);
  // All reservations returned by the end of the query.
  EXPECT_EQ(reg.gauge("governor.mem.reserved_cells")->value(), 0);
}

TEST_F(GovernedQueryTest, CancelDuringExecutionLeavesExecutorReusable) {
  CancellationSource source;
  source.CancelAfterPolls(5);  // Trip early, mid-pipeline.
  QueryOptions options;
  options.eval_threads = 2;
  options.governor.cancel = source.token();
  Result<QueryResult> r = exec_->Execute(kGovernedQuery, options);
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled) << r.status().ToString();

  const QueryResult oracle = MustExecute(kGovernedQuery, QueryOptions());
  QueryOptions parallel;
  parallel.eval_threads = 4;
  const QueryResult retry = MustExecute(kGovernedQuery, parallel);
  ExpectGridsBitIdentical(oracle.grid, retry.grid);
}

TEST_F(GovernedQueryTest, ExplainAnalyzeShowsLadderSteps) {
  QueryOptions governed;
  governed.eval_threads = 4;
  governed.governor.deadline_seconds = 3600.0;
  governed.governor.pressure_fraction = 0.0;
  Result<std::string> text = exec_->ExplainAnalyze(kGovernedQuery, governed);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("governor: degraded ["), std::string::npos);
  EXPECT_NE(text->find("batched_eval_off"), std::string::npos);
  EXPECT_NE(text->find("serial_rollup"), std::string::npos);
}

TEST_F(GovernedQueryTest, ExplainAnalyzeShowsIdleGovernor) {
  QueryOptions governed;
  governed.governor.enabled = true;
  Result<std::string> text = exec_->ExplainAnalyze(kGovernedQuery, governed);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("governor: active, no degradation"), std::string::npos);
}

// ---- out-of-core ladder (kResourceExhausted degradation) ------------------

class OutOfCoreLadderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ProductCubeConfig config;
    config.separation_chunks = 30;
    config.chunk_products = 1;
    config.fill_data = true;
    workload_ = BuildProductCube(config);
    path_ = TempPath("governor_ooc_cube.olap");
    ASSERT_TRUE(SaveCube(workload_.cube, path_).ok());
    masks_ = {GroupByMask{0b001}, GroupByMask{0b011}};
    order_.resize(workload_.cube.num_dims());
    std::iota(order_.begin(), order_.end(), 0);
    ChunkAggregator oracle_agg(workload_.cube);
    oracle_ = oracle_agg.Compute(masks_, order_);
  }

  void TearDown() override { std::remove(path_.c_str()); }

  ProductCube workload_;
  std::string path_;
  std::vector<GroupByMask> masks_;
  std::vector<int> order_;
  std::vector<GroupByResult> oracle_;
};

TEST_F(OutOfCoreLadderTest, LookaheadExhaustionFallsBackToSyncIo) {
  FaultInjectingEnv env(Env::Default());
  SimulatedDisk disk(TestModel(), 0);
  ASSERT_TRUE(disk.AttachBackingFile(&env, path_).ok());
  env.InjectError(FaultOp::kRead, /*skip=*/0, StatusCode::kResourceExhausted,
                  /*times=*/1);

  // A coalesced read (window 16) reports kResourceExhausted once: the
  // stream restarts as the per-chunk loop and succeeds.
  ChunkAggregator::OutOfCoreOptions options;
  std::vector<std::string> degradations;
  options.on_degrade = [&](const char* step) { degradations.push_back(step); };

  MetricsRegistry& reg = MetricsRegistry::Global();
  const MetricsRegistry::Snapshot before = reg.TakeSnapshot();
  ChunkAggregator agg(workload_.cube);
  Result<std::vector<GroupByResult>> views =
      agg.ComputeOutOfCore(masks_, order_, &disk, options);
  ASSERT_TRUE(views.ok()) << views.status().ToString();
  const MetricsRegistry::Snapshot delta =
      MetricsRegistry::Snapshot::Delta(before, reg.TakeSnapshot());

  for (size_t i = 0; i < masks_.size(); ++i) {
    EXPECT_TRUE((*views)[i] == oracle_[i]) << "mask " << i;
  }
  ASSERT_FALSE(degradations.empty());
  EXPECT_EQ(degradations[0], "sync_io");
  EXPECT_GE(delta.counter_value("agg.outofcore.sync_fallbacks"), 1);
}

TEST_F(OutOfCoreLadderTest, PersistentExhaustionSurfacesTheError) {
  FaultInjectingEnv env(Env::Default());
  SimulatedDisk disk(TestModel(), 0);
  ASSERT_TRUE(disk.AttachBackingFile(&env, path_).ok());
  env.InjectError(FaultOp::kRead, /*skip=*/0, StatusCode::kResourceExhausted,
                  FaultInjectingEnv::kForever);

  ChunkAggregator::OutOfCoreOptions options;
  options.window = 4;
  ChunkAggregator agg(workload_.cube);
  Result<std::vector<GroupByResult>> views =
      agg.ComputeOutOfCore(masks_, order_, &disk, options);
  // Every rung failed (sync included): the ladder is exhausted and the
  // error surfaces instead of looping forever.
  EXPECT_EQ(views.status().code(), StatusCode::kResourceExhausted);
}

// ---- mid-stream cancellation ---------------------------------------------

TEST_F(OutOfCoreLadderTest, MidStreamCancelStopsAndLeavesTheDiskReusable) {
  // Reads flow through a FaultInjectingEnv (cancellation with the fault
  // harness in the I/O path). One transient fault is pending but the
  // cancel must win — the reader polls the token before every read.
  FaultInjectingEnv env(Env::Default());
  SimulatedDisk disk(TestModel(), 0);
  ASSERT_TRUE(disk.AttachBackingFile(&env, path_).ok());
  std::vector<ChunkId> schedule;
  workload_.cube.ForEachChunk(
      [&](ChunkId id, const Chunk&) { schedule.push_back(id); });
  ASSERT_GT(schedule.size(), 4u);

  CancellationSource source;
  size_t delivered = 0;
  const Status stopped = StreamSchedule(
      &disk, schedule, /*window=*/1, source.token(),
      [&](ChunkId, const Chunk&) {
        if (++delivered == 2) source.RequestCancel();
      });
  EXPECT_EQ(stopped.code(), StatusCode::kCancelled) << stopped.ToString();
  EXPECT_EQ(delivered, 2u);  // Nothing read after the stop request.

  // The disk is immediately reusable for an uncancelled stream.
  size_t i = 0;
  const Status clean = StreamSchedule(
      &disk, schedule, /*window=*/8, CancellationToken(),
      [&](ChunkId id, const Chunk&) {
        ASSERT_LT(i, schedule.size());
        EXPECT_EQ(id, schedule[i]);
        ++i;
      });
  ASSERT_TRUE(clean.ok()) << clean.ToString();
  EXPECT_EQ(i, schedule.size());
}

// ---- the sync_io rung under memory pressure ------------------------------

// A paper-example database whose cube is also the disk's backing file, so
// pipelined_io streams scratch views and coalesces what-if read passes.
class GovernedIoTest : public GovernedQueryTest {
 protected:
  void SetUp() override {
    GovernedQueryTest::SetUp();
    path_ = TempPath("governor_io_cube.olap");
    ASSERT_TRUE(SaveCube(ex_.cube, path_).ok());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  // Runs `mdx` against a fresh backed disk; returns the result and the
  // disk's modeled I/O.
  QueryResult Run(const std::string& mdx, QueryOptions options,
                  IoStats* io) {
    SimulatedDisk disk(TestModel(), 0);
    EXPECT_TRUE(disk.AttachBackingFile(Env::Default(), path_).ok());
    options.disk = &disk;
    QueryResult r = MustExecute(mdx, options);
    *io = disk.stats();
    return r;
  }

  std::string path_;
};

const char kCompareQuery[] =
    "COMPARE "
    "WITH PERSPECTIVE {(Feb), (Apr)} FOR Organization DYNAMIC FORWARD "
    "SELECT {Time.[Qtr1], Time.[Qtr2]} ON COLUMNS, "
    "{[FTE], [PTE], [Contractor]} ON ROWS FROM Warehouse "
    "WHERE (Measures.[Salary]) "
    "VERSUS "
    "SELECT {Time.[Qtr1], Time.[Qtr2]} ON COLUMNS, "
    "{[FTE], [PTE], [Contractor]} ON ROWS FROM Warehouse "
    "WHERE (Measures.[Salary])";

// A budget too small for the reader's window buffer takes the sync_io rung
// — for a plain query and, through the same I/O decision, for COMPARE —
// and the degraded run reads exactly like pipelined_io off (window 1, no
// streaming) with bit-identical results.
TEST_F(GovernedIoTest, MemoryPressureTakesSyncIoForQueriesAndCompare) {
  for (const char* mdx : {kBudgetQuery, kCompareQuery}) {
    SCOPED_TRACE(mdx);
    IoStats sync_io;
    const QueryResult sync = Run(mdx, QueryOptions(), &sync_io);

    QueryOptions piped;
    piped.pipelined_io = true;
    IoStats piped_io;
    const QueryResult undegraded = Run(mdx, piped, &piped_io);
    ExpectGridsBitIdentical(sync.grid, undegraded.grid);
    EXPECT_TRUE(undegraded.governor_steps.empty());

    QueryOptions governed = piped;
    governed.governor.memory_budget_cells = 1;
    MetricsRegistry& reg = MetricsRegistry::Global();
    const MetricsRegistry::Snapshot before = reg.TakeSnapshot();
    IoStats degraded_io;
    const QueryResult degraded = Run(mdx, governed, &degraded_io);
    const MetricsRegistry::Snapshot delta =
        MetricsRegistry::Snapshot::Delta(before, reg.TakeSnapshot());

    ExpectGridsBitIdentical(sync.grid, degraded.grid);
    ASSERT_FALSE(degraded.governor_steps.empty());
    EXPECT_EQ(degraded.governor_steps[0], "sync_io");
    EXPECT_GE(delta.counter_value("governor.degrade.sync_io"), 1);
    EXPECT_EQ(delta.counter_value("agg.rollups"), 0);  // Nothing streamed.
    EXPECT_EQ(degraded_io.physical_reads, sync_io.physical_reads);
    EXPECT_EQ(degraded_io.total_seek_chunks, sync_io.total_seek_chunks);
    EXPECT_DOUBLE_EQ(degraded_io.virtual_seconds, sync_io.virtual_seconds);
    EXPECT_EQ(reg.gauge("governor.mem.reserved_cells")->value(), 0);
  }
}

}  // namespace
}  // namespace olap
