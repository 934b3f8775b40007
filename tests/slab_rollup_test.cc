// The rollup plans of ChunkAggregator (DESIGN.md §7) on fractional-valued
// fuzz cubes: the slab plan (every mask keeps one dimension) must be
// bitwise equal to the serial single-partition fold at every thread count,
// in memory and out of core at every window; mask sets without a common
// kept dimension must stay on the partial plan; and the out-of-core pass
// must charge the disk exactly what ChargeSchedule charges for the visit
// schedule, whatever the thread count.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "agg/chunk_aggregator.h"
#include "common/rng.h"
#include "storage/chunk_pipeline.h"
#include "storage/cube_io.h"
#include "storage/env.h"
#include "storage/simulated_disk.h"

namespace olap {
namespace {

struct FuzzCube {
  uint64_t seed = 0;
  Cube cube;
  std::vector<int> order;  // Random traversal order.
};

// A random plain-schema cube with fractional values (so any re-association
// of a sum shows in the bits) and a random traversal order. Big enough
// that every mask set below crosses the plan's minimum-work threshold.
FuzzCube MakeFuzzCube(uint64_t seed) {
  Rng rng(seed);
  const int dims = 3;
  std::vector<int> extents(dims);
  for (int& e : extents) e = static_cast<int>(rng.NextInRange(50, 64));
  Schema schema;
  for (int d = 0; d < dims; ++d) {
    Dimension dim("D" + std::to_string(d));
    for (int i = 0; i < extents[d]; ++i) {
      EXPECT_TRUE(dim.AddChildOfRoot("m" + std::to_string(d) + "_" +
                                     std::to_string(i))
                      .ok());
    }
    schema.AddDimension(std::move(dim));
  }
  CubeOptions options;
  options.chunk_size = static_cast<int>(rng.NextInRange(3, 6));
  Cube cube(std::move(schema), options);
  const double density = 0.7 + 0.3 * rng.NextDouble();
  std::vector<int> c(dims, 0);
  for (c[0] = 0; c[0] < extents[0]; ++c[0]) {
    for (c[1] = 0; c[1] < extents[1]; ++c[1]) {
      for (c[2] = 0; c[2] < extents[2]; ++c[2]) {
        if (rng.NextBool(density)) {
          cube.SetCell(c, CellValue(rng.NextDouble() * 20.0 - 5.0));
        }
      }
    }
  }
  std::vector<int> order(dims);
  std::iota(order.begin(), order.end(), 0);
  for (int i = dims - 1; i > 0; --i) {
    std::swap(order[i], order[rng.NextBelow(static_cast<uint64_t>(i + 1))]);
  }
  return FuzzCube{seed, std::move(cube), std::move(order)};
}

// The stored chunks in traversal order (order[0] fastest): the serial
// visit list every plan and the out-of-core charge are defined against.
std::vector<ChunkId> VisitOrder(const Cube& cube, const std::vector<int>& order) {
  const ChunkLayout& layout = cube.layout();
  const std::vector<int>& grid = layout.chunks_per_dim();
  std::vector<int> coords(layout.num_dims(), 0);
  std::vector<ChunkId> visit;
  while (true) {
    const ChunkId id = layout.ChunkIdAt(coords);
    if (cube.FindChunk(id) != nullptr) visit.push_back(id);
    size_t pos = 0;
    while (pos < order.size()) {
      if (++coords[order[pos]] < grid[order[pos]]) break;
      coords[order[pos]] = 0;
      ++pos;
    }
    if (pos == order.size()) return visit;
  }
}

// The test-side oracle: one serial fold of every stored chunk, in visit
// order, into fresh shells.
std::vector<GroupByResult> SerialFold(const Cube& cube,
                                      const std::vector<GroupByMask>& masks,
                                      const std::vector<int>& order) {
  std::vector<GroupByResult> out;
  for (GroupByMask mask : masks) out.push_back(MakeGroupByShell(cube, mask));
  for (ChunkId id : VisitOrder(cube, order)) {
    AccumulateChunkIntoGroupBys(cube.layout(), id, *cube.FindChunk(id), &out);
  }
  return out;
}

void ExpectBitwiseEqual(const std::vector<GroupByResult>& expected,
                        const std::vector<GroupByResult>& actual,
                        const std::string& context) {
  ASSERT_EQ(expected.size(), actual.size()) << context;
  for (size_t m = 0; m < expected.size(); ++m) {
    ASSERT_EQ(expected[m].num_cells(), actual[m].num_cells()) << context;
    EXPECT_EQ(std::memcmp(expected[m].raw_cells(), actual[m].raw_cells(),
                          sizeof(double) * expected[m].num_cells()),
              0)
        << context << " mask " << expected[m].mask();
  }
}

GroupByMask FullRank(const Cube& cube) {
  return (GroupByMask{1} << cube.num_dims()) - 1;
}

// Masks whose only common kept dimension is `shared` (of three). The
// full-rank mask dominates the view cells, so the partial plan would run
// one partition and the slab plan is always at least as parallel.
std::vector<GroupByMask> SharedDimMasks(int shared) {
  const GroupByMask bit = GroupByMask{1} << shared;
  return {static_cast<GroupByMask>(bit | (GroupByMask{1} << ((shared + 1) % 3))),
          static_cast<GroupByMask>(bit | (GroupByMask{1} << ((shared + 2) % 3))),
          GroupByMask{0b111}};
}

constexpr uint64_t kSeeds[] = {3, 17, 101, 2024};

class SlabRollupTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& path : paths_) std::remove(path.c_str());
  }

  // Saves `cube` as a backing file and returns a disk attached to it.
  std::unique_ptr<SimulatedDisk> BackedDisk(const Cube& cube, uint64_t seed,
                                            int64_t cache_chunks = 0) {
    const std::string path = ::testing::TempDir() + "/slab_rollup_" +
                             std::to_string(seed) + ".olap";
    if (std::find(paths_.begin(), paths_.end(), path) == paths_.end()) {
      EXPECT_TRUE(SaveCube(cube, path).ok());
      paths_.push_back(path);
    }
    auto disk = std::make_unique<SimulatedDisk>(DiskModel{}, cache_chunks);
    EXPECT_TRUE(disk->AttachBackingFile(Env::Default(), path).ok());
    return disk;
  }

  // Runs every in-memory and out-of-core configuration of `masks` against
  // the serial fold, expecting the slab plan along `slab_dim`.
  void CheckSlabPlan(const FuzzCube& f, const std::vector<GroupByMask>& masks,
                     int slab_dim) {
    const std::vector<GroupByResult> expected =
        SerialFold(f.cube, masks, f.order);
    for (int threads : {1, 2, 4, 8}) {
      ChunkAggregator agg(f.cube);
      const std::vector<GroupByResult> got =
          agg.Compute(masks, f.order, nullptr, threads);
      EXPECT_EQ(agg.stats().slab_dim, slab_dim) << "threads " << threads;
      EXPECT_GT(agg.stats().work_units, 1) << "threads " << threads;
      ExpectBitwiseEqual(expected, got,
                         "in-memory threads " + std::to_string(threads));
    }
    std::unique_ptr<SimulatedDisk> disk = BackedDisk(f.cube, f.seed);
    for (int window : {1, kReadWindow}) {
      for (int threads : {1, 4, 8}) {
        ChunkAggregator::OutOfCoreOptions options;
        options.window = window;
        ChunkAggregator agg(f.cube);
        Result<std::vector<GroupByResult>> got =
            agg.ComputeOutOfCore(masks, f.order, disk.get(), options, threads);
        const std::string context = "out-of-core window " +
                                    std::to_string(window) + " threads " +
                                    std::to_string(threads);
        ASSERT_TRUE(got.ok()) << context << ": " << got.status().ToString();
        EXPECT_EQ(agg.stats().slab_dim, slab_dim) << context;
        ExpectBitwiseEqual(expected, *got, context);
      }
    }
  }

  std::vector<std::string> paths_;
};

TEST_F(SlabRollupTest, FullRankMaskIsBitwiseSerialAtEveryThreadCountAndWindow) {
  for (uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const FuzzCube f = MakeFuzzCube(seed);
    const std::vector<int>& grid = f.cube.layout().chunks_per_dim();
    const int widest = static_cast<int>(
        std::max_element(grid.begin(), grid.end()) - grid.begin());
    CheckSlabPlan(f, {FullRank(f.cube)}, widest);
  }
}

TEST_F(SlabRollupTest, SharedKeptDimensionIsBitwiseSerial) {
  for (uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const FuzzCube f = MakeFuzzCube(seed);
    const int shared = static_cast<int>(seed % 3);
    CheckSlabPlan(f, SharedDimMasks(shared), shared);
  }
}

TEST_F(SlabRollupTest, MasksWithoutCommonKeptDimensionTakeThePartialPlan) {
  for (uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const FuzzCube f = MakeFuzzCube(seed);
    for (const std::vector<GroupByMask>& masks :
         {std::vector<GroupByMask>{0b001, 0b010, 0b100},
          std::vector<GroupByMask>{0b000, FullRank(f.cube)},
          std::vector<GroupByMask>{0b011, 0b100}}) {
      ChunkAggregator serial(f.cube);
      const std::vector<GroupByResult> expected =
          serial.Compute(masks, f.order, nullptr, 1);
      EXPECT_EQ(serial.stats().slab_dim, -1);
      for (int threads : {2, 4, 8}) {
        ChunkAggregator agg(f.cube);
        const std::vector<GroupByResult> got =
            agg.Compute(masks, f.order, nullptr, threads);
        EXPECT_EQ(agg.stats().slab_dim, -1);
        EXPECT_EQ(agg.stats().work_units, serial.stats().work_units);
        ExpectBitwiseEqual(expected, got,
                           "partial threads " + std::to_string(threads));
      }
    }
  }
}

// A successful out-of-core pass charges exactly ChargeSchedule(visit,
// window) — the same IoStats at every thread count, on a disk with a cache
// small enough to evict.
TEST_F(SlabRollupTest, OutOfCoreChargesAreThoseOfChargeSchedule) {
  const FuzzCube f = MakeFuzzCube(kSeeds[0]);
  const std::vector<ChunkId> visit = VisitOrder(f.cube, f.order);
  constexpr int64_t kCache = 64;
  for (const std::vector<GroupByMask>& masks :
       {std::vector<GroupByMask>{FullRank(f.cube)}, SharedDimMasks(1),
        std::vector<GroupByMask>{0b001, 0b010, 0b100}}) {
    for (int window : {1, kReadWindow}) {
      SimulatedDisk charged(DiskModel{}, kCache);
      ChargeSchedule(&charged, visit, window);
      const IoStats want = charged.stats();
      ASSERT_GT(want.evictions, 0);
      for (int threads : {1, 2, 4, 8}) {
        std::unique_ptr<SimulatedDisk> disk =
            BackedDisk(f.cube, kSeeds[0], kCache);
        ChunkAggregator::OutOfCoreOptions options;
        options.window = window;
        ChunkAggregator agg(f.cube);
        ASSERT_TRUE(
            agg.ComputeOutOfCore(masks, f.order, disk.get(), options, threads)
                .ok());
        const IoStats got = disk->stats();
        const std::string context = "window " + std::to_string(window) +
                                    " threads " + std::to_string(threads);
        EXPECT_EQ(got.physical_reads, want.physical_reads) << context;
        EXPECT_EQ(got.cache_hits, want.cache_hits) << context;
        EXPECT_EQ(got.evictions, want.evictions) << context;
        EXPECT_EQ(got.total_seek_chunks, want.total_seek_chunks) << context;
        EXPECT_EQ(got.coalesced_reads, want.coalesced_reads) << context;
        EXPECT_EQ(got.virtual_seconds, want.virtual_seconds) << context;
      }
    }
  }
}

}  // namespace
}  // namespace olap
