// Unit tests of the benchmark harness: the operation generator, the
// percentile helper and span self-time accounting.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/trace.h"
#include "harness/ops.h"
#include "harness/stats.h"
#include "workload/workforce.h"

namespace olap::perfbench {
namespace {

const CubeShape& SmallShape() {
  static const CubeShape shape = [] {
    WorkforceConfig c;
    c.num_departments = 8;
    c.num_employees = 64;
    c.num_changing = 8;
    c.num_measures = 3;
    c.num_scenarios = 2;
    c.seed = 7;
    return ShapeOf(BuildWorkforceCube(c).cube);
  }();
  return shape;
}

std::string Render(const Op& op) {
  std::string s = std::string(OpClassName(op.cls)) + "|" +
                  std::to_string(op.slot) + "|" + op.mdx;
  for (const Write& w : op.writes) {
    for (int c : w.coords) {
      s += ',';
      s += std::to_string(c);
    }
    s += '=';
    s += std::to_string(w.value);
  }
  return s;
}

std::vector<std::string> Take(Workload w, uint64_t seed, int n) {
  OpStream stream(w, SmallShape(), seed);
  std::vector<std::string> out;
  for (int i = 0; i < n; ++i) out.push_back(Render(stream.Next()));
  return out;
}

constexpr Workload kAll[] = {Workload::kWhatifMix, Workload::kRollupDashboard,
                             Workload::kEditFeed, Workload::kOutofcoreScan};

TEST(OpStreamTest, SameSeedSameSequence) {
  for (Workload w : kAll) {
    EXPECT_EQ(Take(w, 11, 300), Take(w, 11, 300)) << WorkloadName(w);
  }
}

TEST(OpStreamTest, OtherSeedOtherSequence) {
  for (Workload w : kAll) {
    EXPECT_NE(Take(w, 11, 300), Take(w, 12, 300)) << WorkloadName(w);
  }
}

TEST(OpStreamTest, WorkloadNamesRoundTrip) {
  for (Workload w : kAll) {
    Workload parsed;
    ASSERT_TRUE(ParseWorkload(WorkloadName(w), &parsed));
    EXPECT_EQ(parsed, w);
  }
  Workload parsed;
  EXPECT_FALSE(ParseWorkload("hit", &parsed));
}

TEST(OpStreamTest, EveryCycleIsAPermutationOfThePool) {
  for (Workload w : {Workload::kWhatifMix, Workload::kRollupDashboard,
                     Workload::kOutofcoreScan}) {
    OpStream stream(w, SmallShape(), 3);
    const size_t n = stream.pool().size();
    ASSERT_GT(n, 0u);
    for (int cycle = 0; cycle < 3; ++cycle) {
      ASSERT_TRUE(stream.at_cycle_start());
      std::set<int> seen;
      for (size_t i = 0; i < n; ++i) {
        const Op op = stream.Next();
        EXPECT_EQ(op.cls, OpClass::kQuery);
        EXPECT_EQ(op.mdx, stream.pool()[op.slot]);
        seen.insert(op.slot);
        if (i + 1 < n) {
          EXPECT_FALSE(stream.at_cycle_start());
        }
      }
      EXPECT_EQ(seen.size(), n) << WorkloadName(w);
    }
  }
}

TEST(OpStreamTest, WhatifMixComposition) {
  Rng rng(5);
  const std::vector<std::string> pool = WhatifMixPool(SmallShape(), &rng);
  int head = 0, visual = 0, changes = 0, compare = 0;
  for (const std::string& q : pool) {
    if (q.rfind("COMPARE", 0) == 0) {
      ++compare;
    } else if (q.rfind("WITH CHANGES", 0) == 0) {
      ++changes;
    } else if (q.find(" VISUAL ") != std::string::npos) {
      ++visual;
    } else if (q.find("Head(") != std::string::npos) {
      ++head;
    }
  }
  EXPECT_EQ(pool.size(), 20u);
  EXPECT_EQ(head, 13);
  EXPECT_EQ(visual, 5);
  EXPECT_EQ(changes, 1);
  EXPECT_EQ(compare, 1);
}

TEST(OpStreamTest, EditFeedWritesValidCellsAndReadsAfterEachEdit) {
  const CubeShape& s = SmallShape();
  std::set<std::pair<int, int>> valid;  // (position, month)
  for (const CubeShape::Employee& e : s.employees) {
    for (const CubeShape::Instance& in : e.instances) {
      for (int m : in.months) valid.insert({in.position, m});
    }
  }
  OpStream stream(Workload::kEditFeed, s, 9);
  int refreshes = 0;
  for (int i = 0; i < 7 * 20; ++i) {
    const Op op = stream.Next();
    if (op.cls == OpClass::kEdit) {
      const Op read = stream.Next();
      ++i;
      ASSERT_EQ(read.cls, OpClass::kQuery);
      EXPECT_NE(read.mdx.find("WHERE"), std::string::npos);
    }
    if (op.cls == OpClass::kRefresh) ++refreshes;
    ASSERT_NE(op.cls == OpClass::kQuery, true) << "read without an edit";
    ASSERT_GE(op.writes.size(), 1u);
    ASSERT_LE(op.writes.size(), 16u);
    for (const Write& w : op.writes) {
      ASSERT_EQ(static_cast<int>(w.coords.size()), s.num_dims);
      EXPECT_TRUE(valid.count({w.coords[s.dept_dim], w.coords[s.period_dim]}));
      EXPECT_GT(w.value, 0);
    }
  }
  EXPECT_EQ(refreshes, 20);
}

TEST(OpStreamTest, EditFeedCyclesRewriteTheSameCellsWithNewValues) {
  OpStream stream(Workload::kEditFeed, SmallShape(), 4);
  std::vector<Op> first;
  do {
    first.push_back(stream.Next());
  } while (!stream.at_cycle_start());
  EXPECT_EQ(first.size(), 16u * 7u);
  for (const Op& a : first) {
    const Op b = stream.Next();
    EXPECT_EQ(b.slot, a.slot);
    EXPECT_EQ(b.cls, a.cls);
    EXPECT_EQ(b.mdx, a.mdx);
    ASSERT_EQ(b.writes.size(), a.writes.size());
    for (size_t i = 0; i < a.writes.size(); ++i) {
      EXPECT_EQ(b.writes[i].coords, a.writes[i].coords);
      EXPECT_EQ(b.writes[i].value, a.writes[i].value + 1);
    }
  }
}

TEST(OpStreamTest, ShapeSeparatesChangingEmployees) {
  const CubeShape& s = SmallShape();
  EXPECT_EQ(s.employees.size(), 64u);
  EXPECT_EQ(s.changing.size(), 8u);
  EXPECT_EQ(s.stable.size(), 56u);
  EXPECT_EQ(s.departments.size(), 8u);
  EXPECT_EQ(s.months.size(), 12u);
}

TEST(PercentileTest, NearestRankAndSamplesBeyond) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  int64_t beyond = -1;
  EXPECT_EQ(Percentile(v, 50, &beyond), 50);
  EXPECT_EQ(beyond, 50);
  EXPECT_EQ(Percentile(v, 90, &beyond), 90);
  EXPECT_EQ(beyond, 10);
  EXPECT_EQ(Percentile(v, 99, &beyond), 99);
  EXPECT_EQ(beyond, 1);
  EXPECT_EQ(Percentile({}, 90, &beyond), 0);
  EXPECT_EQ(beyond, 0);
}

TEST(PercentileTest, SummaryStatesItsSampleCounts) {
  std::vector<double> v;
  for (int i = 1; i <= 250; ++i) v.push_back(i * 0.5);
  const LatencySummary s = Summarize(v);
  EXPECT_EQ(s.count, 250);
  EXPECT_EQ(s.p50, 62.5);
  EXPECT_EQ(s.beyond_p50, 125);
  EXPECT_EQ(s.p90, 112.5);
  EXPECT_EQ(s.beyond_p90, 25);
  EXPECT_EQ(s.beyond_p99, 2);
}

TEST(SelfTimeTest, UnionLengthMergesOverlaps) {
  EXPECT_EQ(UnionLength({}), 0);
  EXPECT_EQ(UnionLength({{0, 10}, {5, 15}, {20, 25}, {21, 22}}), 20);
}

SpanRecord Span(const char* name, int64_t b, int64_t e, int thread,
                int parent) {
  SpanRecord s;
  s.name = name;
  s.start_ns = b;
  s.end_ns = e;
  s.thread = thread;
  s.parent = parent;
  return s;
}

TEST(SelfTimeTest, PoolThreadSpansAttachToTheInnermostClientSpan) {
  TraceData t;
  t.spans = {
      Span("bench.op", 0, 100, 0, -1),          // 0
      Span("bench.execute", 10, 90, 0, 0),      // 1
      Span("query.evaluate", 20, 80, 0, 1),     // 2
      Span("agg.rollup", 30, 60, 1, -1),        // 3: pool thread 1
      Span("disk.fetch_chunk", 35, 45, 1, 3),   // 4: nested on thread 1
      Span("agg.rollup", 40, 70, 2, -1),        // 5: pool thread 2
      Span("agg.rollup", 92, 98, 1, -1),        // 6: after bench.execute
  };
  SelfTimes self;
  AccumulateSelfTimes(t, "bench.op", &self);
  // query.evaluate [20,80] is covered by the pool work [30,70].
  EXPECT_EQ(self["query.evaluate"].self_ns, 20);
  // Pool spans: 30 - 10 (nested fetch) + 30 + 6.
  EXPECT_EQ(self["agg.rollup"].self_ns, 56);
  EXPECT_EQ(self["agg.rollup"].count, 3);
  EXPECT_EQ(self["disk.fetch_chunk"].self_ns, 10);
  EXPECT_EQ(self["bench.execute"].self_ns, 20);
  // The root loses bench.execute [10,90] and the late pool span [92,98].
  EXPECT_EQ(self["bench.op"].self_ns, 14);

  // Accumulates across sessions.
  AccumulateSelfTimes(t, "bench.op", &self);
  EXPECT_EQ(self["bench.op"].self_ns, 28);
  EXPECT_EQ(self["bench.op"].count, 2);
}

TEST(SelfTimeTest, WithoutTheClientRootPoolSpansStayRoots) {
  TraceData t;
  t.spans = {Span("query.evaluate", 0, 50, 0, -1),
             Span("agg.rollup", 10, 20, 1, -1)};
  SelfTimes self;
  AccumulateSelfTimes(t, "bench.op", &self);
  EXPECT_EQ(self["query.evaluate"].self_ns, 50);
  EXPECT_EQ(self["agg.rollup"].self_ns, 10);
}

}  // namespace
}  // namespace olap::perfbench
