#include "agg/chunk_aggregator.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "workload/paper_example.h"

namespace olap {
namespace {

// A small random cube over a plain (non-varying) schema.
Cube RandomCube(uint64_t seed, std::vector<int> leaf_counts, int chunk_size,
                double density) {
  Schema schema;
  for (size_t d = 0; d < leaf_counts.size(); ++d) {
    Dimension dim("D" + std::to_string(d));
    for (int i = 0; i < leaf_counts[d]; ++i) {
      EXPECT_TRUE(dim.AddChildOfRoot("m" + std::to_string(d) + "_" +
                                     std::to_string(i))
                      .ok());
    }
    schema.AddDimension(std::move(dim));
  }
  CubeOptions options;
  options.chunk_size = chunk_size;
  Cube cube(std::move(schema), options);
  Rng rng(seed);
  std::vector<int> coords(leaf_counts.size(), 0);
  while (true) {
    if (rng.NextBool(density)) {
      cube.SetCell(coords, CellValue(static_cast<double>(rng.NextBelow(100))));
    }
    size_t d = coords.size();
    while (d-- > 0) {
      if (++coords[d] < leaf_counts[d]) break;
      coords[d] = 0;
      if (d == 0) return cube;
    }
    if (coords == std::vector<int>(leaf_counts.size(), 0)) return cube;
  }
}

std::vector<GroupByMask> AllMasks(int dims) {
  std::vector<GroupByMask> masks;
  for (GroupByMask m = 0; m < (GroupByMask{1} << dims); ++m) masks.push_back(m);
  return masks;
}

TEST(GroupByResultTest, AccumulateSkipsNullAndProjects) {
  GroupByResult g(0b01, {0}, {3});
  EXPECT_TRUE(g.Get({0}).is_null());
  g.Accumulate({0}, CellValue(2.0));
  g.Accumulate({0}, CellValue(3.0));
  g.AccumulateFull({1, 7}, CellValue(5.0));  // Projects away dim 1.
  EXPECT_EQ(g.Get({0}), CellValue(5.0));
  EXPECT_EQ(g.Get({1}), CellValue(5.0));
  EXPECT_TRUE(g.Get({2}).is_null());
  EXPECT_EQ(g.CountNonNull(), 2);
}

TEST(NaiveAggregatorTest, GrandTotalAndSlices) {
  Cube cube = RandomCube(1, {4, 4}, 2, 1.0);
  std::vector<GroupByResult> results =
      NaiveAggregator::Compute(cube, {0b00, 0b01, 0b10});
  // Grand total equals the sum over either 1-D group-by.
  CellValue total = results[0].Get({});
  CellValue sum_rows;
  for (int i = 0; i < 4; ++i) sum_rows += results[1].Get({i});
  CellValue sum_cols;
  for (int i = 0; i < 4; ++i) sum_cols += results[2].Get({i});
  EXPECT_EQ(total, sum_rows);
  EXPECT_EQ(total, sum_cols);
}

// The central equivalence: the chunk-order aggregator computes exactly what
// the naive scan computes, for every dimension order, on cubes of various
// shapes and densities.
struct AggCase {
  uint64_t seed;
  std::vector<int> extents;
  int chunk_size;
  double density;
  std::vector<int> order;
};

// Without this gtest prints the raw bytes of the case, vector heap pointers
// included, so the discovered ctest names would differ on every run.
void PrintTo(const AggCase& c, std::ostream* os) {
  auto join = [](const std::vector<int>& v) {
    std::string s;
    for (size_t i = 0; i < v.size(); ++i) {
      s += (i ? "x" : "") + std::to_string(v[i]);
    }
    return s;
  };
  *os << "seed" << c.seed << "_extents" << join(c.extents) << "_chunk"
      << c.chunk_size << "_density" << c.density << "_order"
      << join(c.order);
}

class ChunkAggEquivalence : public ::testing::TestWithParam<AggCase> {};

TEST_P(ChunkAggEquivalence, MatchesNaive) {
  const AggCase& c = GetParam();
  Cube cube = RandomCube(c.seed, c.extents, c.chunk_size, c.density);
  std::vector<GroupByMask> masks = AllMasks(static_cast<int>(c.extents.size()));
  std::vector<GroupByResult> expected = NaiveAggregator::Compute(cube, masks);
  ChunkAggregator agg(cube);
  std::vector<GroupByResult> actual = agg.Compute(masks, c.order);
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < masks.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << "mask " << masks[i];
  }
  EXPECT_EQ(agg.stats().cells_scanned,
            cube.CountNonNullCells() * static_cast<int64_t>(1));
  EXPECT_GE(agg.stats().chunks_visited, agg.stats().chunks_read);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ChunkAggEquivalence,
    ::testing::Values(
        AggCase{1, {8, 8}, 4, 1.0, {0, 1}}, AggCase{2, {8, 8}, 4, 1.0, {1, 0}},
        AggCase{3, {8, 8}, 3, 0.5, {0, 1}},
        AggCase{4, {6, 5, 4}, 2, 0.7, {0, 1, 2}},
        AggCase{5, {6, 5, 4}, 2, 0.7, {2, 1, 0}},
        AggCase{6, {6, 5, 4}, 2, 0.7, {1, 2, 0}},
        AggCase{7, {16, 16, 16}, 4, 0.1, {0, 1, 2}},
        AggCase{8, {3, 3, 3, 3}, 2, 0.9, {3, 2, 1, 0}},
        AggCase{9, {12, 1, 7}, 4, 0.4, {2, 0, 1}},
        AggCase{10, {5, 5}, 5, 0.0, {0, 1}}));

// A workload big enough to cross kMinWorkForPartitioning with coarse views:
// the partitioned accumulation path must be bit-identical across thread
// counts (the partition plan is workload-only) and agree with the naive
// scan up to floating-point re-association.
TEST(ChunkAggregatorTest, PartitionedPathIsThreadInvariantAndNearNaive) {
  Schema schema;
  std::vector<int> extents = {48, 48, 8};
  for (size_t d = 0; d < extents.size(); ++d) {
    Dimension dim("D" + std::to_string(d));
    for (int i = 0; i < extents[d]; ++i) {
      EXPECT_TRUE(dim.AddChildOfRoot("m" + std::to_string(d) + "_" +
                                     std::to_string(i))
                      .ok());
    }
    schema.AddDimension(std::move(dim));
  }
  Cube cube(std::move(schema), CubeOptions{});
  Rng rng(77);
  std::vector<int> coords(3, 0);
  for (coords[0] = 0; coords[0] < extents[0]; ++coords[0]) {
    for (coords[1] = 0; coords[1] < extents[1]; ++coords[1]) {
      for (coords[2] = 0; coords[2] < extents[2]; ++coords[2]) {
        // Fractional values: partition boundaries re-associate the sums, so
        // this exercises the "identical across threads, only near naive"
        // half of the contract (integer cubes would mask association bugs).
        cube.SetCell(coords, CellValue(0.1 + rng.NextDouble() * 10.0));
      }
    }
  }

  std::vector<GroupByMask> masks = {0b000, 0b001, 0b010, 0b100};
  std::vector<int> order = {2, 1, 0};
  ChunkAggregator serial(cube);
  std::vector<GroupByResult> expect = serial.Compute(masks, order, nullptr, 1);
  for (int threads : {2, 4, 8}) {
    ChunkAggregator agg(cube);
    std::vector<GroupByResult> got = agg.Compute(masks, order, nullptr, threads);
    ASSERT_EQ(got.size(), expect.size());
    for (size_t i = 0; i < masks.size(); ++i) {
      EXPECT_TRUE(got[i] == expect[i]) << "mask " << masks[i] << " threads "
                                       << threads;
    }
  }

  std::vector<GroupByResult> naive = NaiveAggregator::Compute(cube, masks);
  for (size_t i = 0; i < masks.size(); ++i) {
    ASSERT_EQ(expect[i].num_cells(), naive[i].num_cells());
    for (int64_t c = 0; c < expect[i].num_cells(); ++c) {
      const double a = expect[i].GetAt(c).value();
      const double b = naive[i].GetAt(c).value();
      EXPECT_NEAR(a, b, 1e-7 * std::max(1.0, std::abs(b)))
          << "mask " << masks[i] << " cell " << c;
    }
  }
}

TEST(ChunkAggregatorTest, ChargesDiskOncePerStoredChunk) {
  Cube cube = RandomCube(11, {8, 8}, 4, 1.0);
  SimulatedDisk disk(DiskModel{}, /*cache=*/0);
  ChunkAggregator agg(cube);
  agg.Compute({0b11}, {0, 1}, &disk);
  EXPECT_EQ(disk.stats().physical_reads, cube.NumStoredChunks());
}

TEST(ChunkAggregatorTest, ReportsMmstMemoryBound) {
  Cube cube = RandomCube(12, {16, 16, 16}, 4, 0.3);
  ChunkAggregator agg(cube);
  agg.Compute({0b011, 0b101, 0b110}, {0, 1, 2});
  // BC(=0b110 keeps dims 1,2): 16 cells; AC: 64; AB: 256 (the Fig. 6 numbers).
  EXPECT_EQ(agg.stats().mmst_memory_cells, 16 + 64 + 256);
}

TEST(ChunkAggregatorTest, WorksOnVaryingDimensionCube) {
  PaperExample ex = BuildPaperExample();
  std::vector<GroupByMask> masks = {0b0000, 0b0100};  // Total + by-time.
  std::vector<GroupByResult> naive = NaiveAggregator::Compute(ex.cube, masks);
  ChunkAggregator agg(ex.cube);
  std::vector<GroupByResult> chunked = agg.Compute(masks, {0, 1, 2, 3});
  EXPECT_EQ(chunked[0], naive[0]);
  EXPECT_EQ(chunked[1], naive[1]);
  EXPECT_EQ(naive[0].Get({}), CellValue(250.0));
}

}  // namespace
}  // namespace olap
