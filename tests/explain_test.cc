#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "engine/executor.h"
#include "storage/cube_io.h"
#include "storage/env.h"
#include "storage/simulated_disk.h"
#include "workload/paper_example.h"

namespace olap {
namespace {

class ExplainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ex_ = BuildPaperExample();
    ASSERT_TRUE(db_.AddCube("Warehouse", ex_.cube).ok());
    exec_ = std::make_unique<Executor>(&db_);
  }

  std::string MustExplain(const std::string& mdx,
                          const QueryOptions& options = QueryOptions()) {
    Result<std::string> r = exec_->Explain(mdx, options);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? *r : "";
  }

  PaperExample ex_;
  Database db_;
  std::unique_ptr<Executor> exec_;
};

TEST_F(ExplainTest, PlainQuery) {
  std::string plan = MustExplain(
      "SELECT {Time.[Qtr1], Time.[Qtr2]} ON COLUMNS, "
      "NON EMPTY {[FTE].Children} ON ROWS FROM Warehouse "
      "WHERE ([NY], [Salary])");
  EXPECT_NE(plan.find("cube: Warehouse"), std::string::npos);
  EXPECT_NE(plan.find("columns: 2 tuple(s)"), std::string::npos);
  EXPECT_NE(plan.find("rows: 3 tuple(s), NON EMPTY"), std::string::npos);
  EXPECT_NE(plan.find("slicer: 2 coordinate(s)"), std::string::npos);
  EXPECT_EQ(plan.find("what-if"), std::string::npos);
}

TEST_F(ExplainTest, WhatIfQueryShowsSpecAndScope) {
  std::string plan = MustExplain(
      "WITH PERSPECTIVE {(Feb), (Apr)} FOR Organization DYNAMIC FORWARD "
      "SELECT {Time.[Jan]} ON COLUMNS, {[Organization].[Joe]} ON ROWS "
      "FROM Warehouse WHERE ([NY], [Salary])");
  EXPECT_NE(plan.find("what-if: dimension 'Organization', DYNAMIC FORWARD, "
                      "NON-VISUAL, 2 perspective(s) {1, 3}"),
            std::string::npos);
  EXPECT_NE(plan.find("merge scoped to 1 member(s)"), std::string::npos);
  EXPECT_NE(plan.find("strategy: direct"), std::string::npos);
}

TEST_F(ExplainTest, VisualModeIsUnscoped) {
  std::string plan = MustExplain(
      "WITH PERSPECTIVE {(Feb)} FOR Organization DYNAMIC FORWARD VISUAL "
      "SELECT {Time.[Jan]} ON COLUMNS, {[Organization].[Joe]} ON ROWS "
      "FROM Warehouse WHERE ([NY], [Salary])");
  EXPECT_NE(plan.find("VISUAL, 1 perspective(s)"), std::string::npos);
  EXPECT_NE(plan.find("unscoped merge"), std::string::npos);
}

TEST_F(ExplainTest, StrategyAndAggregatesReported) {
  ASSERT_TRUE(db_.BuildAggregates("Warehouse", 4).ok());
  QueryOptions options;
  options.strategy = EvalStrategy::kMultipleMdx;
  std::string plan = MustExplain(
      "WITH PERSPECTIVE {(Feb)} FOR Organization STATIC "
      "SELECT {Time.[Jan]} ON COLUMNS, {[Organization].[Joe]} ON ROWS "
      "FROM Warehouse",
      options);
  EXPECT_NE(plan.find("strategy: multiple-MDX simulation"), std::string::npos);
  // Non-visual what-if evaluates derived cells on the stored input cube, so
  // the persistent aggregations still apply.
  EXPECT_NE(plan.find("aggregations: 4 view(s), 4 resident, serving derived cells"),
            std::string::npos);
  // Visual mode evaluates the transformed output cube: only the per-query
  // scratch views built by batched evaluation can serve.
  plan = MustExplain(
      "WITH PERSPECTIVE {(Feb)} FOR Organization DYNAMIC FORWARD VISUAL "
      "SELECT {Time.[Jan]} ON COLUMNS, {[Organization].[Joe]} ON ROWS "
      "FROM Warehouse",
      options);
  EXPECT_NE(plan.find("aggregations: 4 view(s), 4 resident, scratch only (transformed cube)"),
            std::string::npos);
  plan = MustExplain("SELECT {Time.[Jan]} ON COLUMNS FROM Warehouse");
  EXPECT_NE(plan.find("aggregations: 4 view(s), 4 resident, serving derived cells"),
            std::string::npos);
}

TEST_F(ExplainTest, AllocationReported) {
  std::string plan = MustExplain(
      "WITH ALLOCATION {(0.25, [NY], [MA], ([PTE], [Salary]))} "
      "SELECT {Time.[Jan]} ON COLUMNS FROM Warehouse");
  EXPECT_NE(plan.find("allocation: move 25% along dimension 'Location'"),
            std::string::npos);
}

TEST_F(ExplainTest, IntroduceReported) {
  std::string plan = MustExplain(
      "WITH INTRODUCE {([Consulting], [Organization]), "
      "([Newbie], [FTE], [Mar], CLONE [Lisa] 0.5)} FOR Organization "
      "SELECT {Time.[Jan]} ON COLUMNS, {[FTE]} ON ROWS "
      "FROM Warehouse WHERE ([NY], [Salary])");
  EXPECT_NE(plan.find("2 introduced member(s) (1 seeded)"), std::string::npos)
      << plan;
}

TEST_F(ExplainTest, CompareShowsBothScenarioPlans) {
  std::string plan = MustExplain(
      "COMPARE "
      "WITH CHANGES {([Contractor].[Joe], [Contractor], [FTE], [Apr])} "
      "VISUAL "
      "SELECT {Time.[Apr]} ON COLUMNS, {[FTE]} ON ROWS "
      "FROM Warehouse WHERE ([NY], [Salary]) "
      "VERSUS "
      "SELECT {Time.[Apr]} ON COLUMNS, {[FTE]} ON ROWS "
      "FROM Warehouse WHERE ([NY], [Salary])");
  EXPECT_NE(plan.find("compare: delta grid"), std::string::npos) << plan;
  EXPECT_NE(plan.find("-- scenario A --"), std::string::npos);
  EXPECT_NE(plan.find("-- scenario B --"), std::string::npos);
  // Side A's what-if clause renders inside its block; side B is plain.
  EXPECT_NE(plan.find("1 positive change(s)"), std::string::npos);
}

TEST_F(ExplainTest, ExplainAnalyzeRendersComparisonAndComposeSpan) {
  Result<std::string> r = exec_->ExplainAnalyze(
      "COMPARE "
      "WITH CHANGES {([Contractor].[Joe], [Contractor], [FTE], [Apr])} "
      "VISUAL "
      "SELECT {Time.[Apr]} ON COLUMNS, {[FTE], [Contractor]} ON ROWS "
      "FROM Warehouse WHERE ([NY], [Salary]) "
      "VERSUS "
      "SELECT {Time.[Apr]} ON COLUMNS, {[FTE], [Contractor]} ON ROWS "
      "FROM Warehouse WHERE ([NY], [Salary])");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r->find("comparison: cells=2"), std::string::npos) << *r;
  EXPECT_NE(r->find("containment=equal"), std::string::npos);
  // The profiled span tree includes the scenario algebra's spans.
  EXPECT_NE(r->find("scenario.compare"), std::string::npos);
  EXPECT_NE(r->find("scenario.compose"), std::string::npos);
}

// The "I/O:" line comes from the same decision Execute runs: for a
// pipelined_io query on a disk backed by the cube's file, EXPLAIN says
// "streamed" exactly when EXPLAIN ANALYZE shows the out-of-core rollup.
TEST_F(ExplainTest, IoLineMatchesTheOutOfCoreRollupSpan) {
  const std::string path = ::testing::TempDir() + "/explain_io.olap";
  ASSERT_TRUE(SaveCube(ex_.cube, path).ok());
  SimulatedDisk disk(DiskModel{}, 0);
  ASSERT_TRUE(disk.AttachBackingFile(Env::Default(), path).ok());

  const std::string grid =
      "SELECT {Time.[Qtr1], Time.[Qtr2]} ON COLUMNS, "
      "{[FTE], [PTE], [Contractor]} ON ROWS FROM Warehouse "
      "WHERE (Measures.[Salary])";
  const std::string perspective =
      "WITH PERSPECTIVE {(Feb), (Apr)} FOR Organization DYNAMIC FORWARD ";
  const std::string queries[] = {
      grid,                                         // Stored cube.
      perspective + grid,                           // Non-visual: stored.
      perspective + "VISUAL " + grid,               // Transformed cube.
      "COMPARE " + perspective + grid + " VERSUS " + grid,  // Shared views.
      "COMPARE " + perspective + "VISUAL " + grid + " VERSUS " + grid,
  };
  int streamed = 0, resident = 0;
  for (bool pipelined : {true, false}) {
    for (bool batched : {true, false}) {
      for (const std::string& q : queries) {
        QueryOptions options;
        options.disk = &disk;
        options.pipelined_io = pipelined;
        options.batched_eval = batched;
        const std::string plan = MustExplain(q, options);
        Result<std::string> analyzed = exec_->ExplainAnalyze(q, options);
        ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
        const bool says_streamed = plan.find("streamed") != std::string::npos;
        const bool ran_streamed =
            analyzed->find("agg.rollup_outofcore") != std::string::npos;
        EXPECT_EQ(says_streamed, ran_streamed) << q << "\n" << *analyzed;
        EXPECT_NE(plan.find(pipelined ? "I/O: read window 16"
                                      : "I/O: read window 1,"),
                  std::string::npos)
            << plan;
        ++(says_streamed ? streamed : resident);
      }
    }
  }
  // Both outcomes were exercised.
  EXPECT_EQ(streamed, 3);
  EXPECT_EQ(resident, 17);
  std::remove(path.c_str());
}

TEST_F(ExplainTest, ErrorsPropagate) {
  EXPECT_FALSE(exec_->Explain("garbage").ok());
  EXPECT_FALSE(exec_->Explain("SELECT {x} ON COLUMNS FROM Nowhere").ok());
}

}  // namespace
}  // namespace olap
