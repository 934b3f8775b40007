// Randomized equivalence: the chunk-native Relocate/Split kernels must be
// bit-identical to the cell-at-a-time reference implementations on fuzzed
// cubes and specs, at every thread count, and the parallel ChunkAggregator
// must reproduce its serial results exactly.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "agg/chunk_aggregator.h"
#include "common/rng.h"
#include "storage/chunk_pipeline.h"
#include "storage/cube_io.h"
#include "storage/env.h"
#include "storage/simulated_disk.h"
#include "whatif/operators.h"
#include "whatif/perspective.h"
#include "whatif/perspective_cube.h"

namespace olap {
namespace {

constexpr int kThreadCounts[] = {1, 2, 4, 8};

struct FuzzWorld {
  Cube cube;
  int org_dim = 0;
  int time_dim = 1;
  int measures_dim = 2;
  std::vector<MemberId> members;
  std::vector<MemberId> groups;
  int months = 0;
};

FuzzWorld BuildFuzzWorld(uint64_t seed) {
  Rng rng(seed);
  const int months = 4 + static_cast<int>(rng.NextBelow(9));      // 4..12
  const int num_members = 3 + static_cast<int>(rng.NextBelow(8)); // 3..10
  const int num_changes = static_cast<int>(rng.NextBelow(7));     // 0..6
  const int num_measures = 1 + static_cast<int>(rng.NextBelow(3));

  Schema schema;
  Dimension org("Org");
  std::vector<MemberId> groups;
  const int num_groups = std::min(4, num_members);
  for (int g = 0; g < num_groups; ++g) {
    groups.push_back(*org.AddChildOfRoot("G" + std::to_string(g)));
  }
  std::vector<MemberId> members;
  for (int m = 0; m < num_members; ++m) {
    members.push_back(
        *org.AddMember("M" + std::to_string(m), groups[m % groups.size()]));
  }
  Dimension time("Time", DimensionKind::kParameter);
  for (int t = 0; t < months; ++t) {
    EXPECT_TRUE(time.AddChildOfRoot("T" + std::to_string(t)).ok());
  }
  Dimension measures("Measures", DimensionKind::kMeasure);
  for (int v = 0; v < num_measures; ++v) {
    EXPECT_TRUE(measures.AddChildOfRoot("V" + std::to_string(v)).ok());
  }

  FuzzWorld world;
  world.months = months;
  world.org_dim = schema.AddDimension(std::move(org));
  world.time_dim = schema.AddDimension(std::move(time));
  world.measures_dim = schema.AddDimension(std::move(measures));
  EXPECT_TRUE(schema.BindVarying(world.org_dim, world.time_dim, true).ok());

  Dimension* mut = schema.mutable_dimension(world.org_dim);
  for (int c = 0; c < num_changes; ++c) {
    MemberId member = members[rng.NextBelow(members.size())];
    MemberId target = groups[rng.NextBelow(groups.size())];
    int moment = static_cast<int>(rng.NextBelow(months));
    EXPECT_TRUE(mut->ApplyChange(member, target, moment).ok());
  }

  // Random tiling so chunk-boundary cases (runs straddling the varying and
  // parameter dimensions, clamped edge chunks) all get exercised.
  CubeOptions options;
  options.chunk_sizes = {1 + static_cast<int>(rng.NextBelow(4)),
                         1 + static_cast<int>(rng.NextBelow(4)),
                         1 + static_cast<int>(rng.NextBelow(3))};
  Cube cube(std::move(schema), options);
  const Dimension& d = cube.schema().dimension(world.org_dim);
  for (const MemberInstance& inst : d.instances()) {
    for (int t = inst.validity.FindFirst(); t >= 0;
         t = inst.validity.FindNext(t + 1)) {
      for (int v = 0; v < num_measures; ++v) {
        if (rng.NextBool(0.7)) {
          cube.SetCell({inst.id, t, v},
                       CellValue(0.1 + rng.NextDouble() * 100.0));
        }
      }
    }
  }
  world.members = members;
  world.groups = groups;
  world.cube = std::move(cube);
  return world;
}

uint64_t BitsOf(CellValue v) {
  double raw = CellValue::ToStorage(v);
  uint64_t bits;
  std::memcpy(&bits, &raw, sizeof(bits));
  return bits;
}

// Bit-level cube equality: identical stored-chunk sets and identical raw
// cell bits in every chunk, plus matching varying-dimension metadata.
void ExpectBitIdentical(const Cube& expected, const Cube& actual, int vd,
                        const std::string& context) {
  const Dimension& de = expected.schema().dimension(vd);
  const Dimension& da = actual.schema().dimension(vd);
  ASSERT_EQ(de.num_instances(), da.num_instances()) << context;
  for (int i = 0; i < de.num_instances(); ++i) {
    EXPECT_EQ(de.instance(i).member, da.instance(i).member) << context;
    EXPECT_TRUE(de.instance(i).validity == da.instance(i).validity)
        << context << " instance " << i;
  }

  std::map<ChunkId, const Chunk*> ea, aa;
  expected.ForEachChunk([&](ChunkId id, const Chunk& c) { ea[id] = &c; });
  actual.ForEachChunk([&](ChunkId id, const Chunk& c) { aa[id] = &c; });
  ASSERT_EQ(ea.size(), aa.size()) << context << ": stored chunk count differs";
  for (const auto& [id, chunk] : ea) {
    auto it = aa.find(id);
    ASSERT_TRUE(it != aa.end()) << context << ": chunk " << id << " missing";
    ASSERT_EQ(chunk->size(), it->second->size()) << context;
    for (int64_t off = 0; off < chunk->size(); ++off) {
      ASSERT_EQ(BitsOf(chunk->Get(off)), BitsOf(it->second->Get(off)))
          << context << ": chunk " << id << " offset " << off;
    }
  }
}

Perspectives RandomPerspectives(Rng* rng, int months) {
  std::vector<int> moments;
  const int k = 1 + static_cast<int>(rng->NextBelow(3));
  for (int i = 0; i < k; ++i) {
    moments.push_back(static_cast<int>(rng->NextBelow(months)));
  }
  return Perspectives(std::move(moments));
}

Semantics RandomSemantics(Rng* rng) {
  switch (rng->NextBelow(5)) {
    case 0: return Semantics::kStatic;
    case 1: return Semantics::kForward;
    case 2: return Semantics::kBackward;
    case 3: return Semantics::kExtendedForward;
    default: return Semantics::kExtendedBackward;
  }
}

TEST(KernelEquivalenceTest, RelocateMatchesReferenceAtEveryThreadCount) {
  for (uint64_t seed = 0; seed < 24; ++seed) {
    FuzzWorld world = BuildFuzzWorld(seed);
    Rng rng(seed * 7919 + 1);
    const Dimension& dim = world.cube.schema().dimension(world.org_dim);
    std::vector<DynamicBitset> vs_out = TransformValiditySets(
        dim, RandomPerspectives(&rng, world.months), RandomSemantics(&rng));

    int64_t ref_moved = 0;
    Cube ref = RelocateReference(world.cube, world.org_dim, vs_out, {}, true,
                                 &ref_moved);
    for (int threads : kThreadCounts) {
      int64_t moved = 0;
      Cube got = Relocate(world.cube, world.org_dim, vs_out, {}, true, &moved,
                          threads);
      EXPECT_EQ(ref_moved, moved) << "seed " << seed;
      ExpectBitIdentical(ref, got, world.org_dim,
                         "seed " + std::to_string(seed) + " threads " +
                             std::to_string(threads));
    }
  }
}

TEST(KernelEquivalenceTest, ScopedRelocateMatchesReference) {
  for (uint64_t seed = 0; seed < 24; ++seed) {
    FuzzWorld world = BuildFuzzWorld(seed + 1000);
    Rng rng(seed * 104729 + 3);
    const Dimension& dim = world.cube.schema().dimension(world.org_dim);
    std::vector<DynamicBitset> vs_out = TransformValiditySets(
        dim, RandomPerspectives(&rng, world.months), RandomSemantics(&rng));

    std::vector<MemberId> scope;
    for (MemberId m : world.members) {
      if (rng.NextBool(0.4)) scope.push_back(m);
    }
    if (scope.empty()) scope.push_back(world.members[0]);

    for (bool copy_out_of_scope : {true, false}) {
      int64_t ref_moved = 0;
      Cube ref = RelocateReference(world.cube, world.org_dim, vs_out, scope,
                                   copy_out_of_scope, &ref_moved);
      for (int threads : kThreadCounts) {
        int64_t moved = 0;
        Cube got = Relocate(world.cube, world.org_dim, vs_out, scope,
                            copy_out_of_scope, &moved, threads);
        EXPECT_EQ(ref_moved, moved) << "seed " << seed;
        ExpectBitIdentical(
            ref, got, world.org_dim,
            "seed " + std::to_string(seed) + " copy_out_of_scope " +
                std::to_string(copy_out_of_scope) + " threads " +
                std::to_string(threads));
      }
    }
  }
}

TEST(KernelEquivalenceTest, SplitMatchesReferenceAtEveryThreadCount) {
  int compared = 0;
  for (uint64_t seed = 0; seed < 32; ++seed) {
    FuzzWorld world = BuildFuzzWorld(seed + 2000);
    Rng rng(seed * 6151 + 5);
    const Dimension& dim = world.cube.schema().dimension(world.org_dim);

    // Tuples built against the INPUT dimension; later tuples of the same
    // member may become invalid after earlier ones apply — both
    // implementations must then fail identically.
    ChangeRelation r;
    const int num_tuples = 1 + static_cast<int>(rng.NextBelow(4));
    for (int i = 0; i < num_tuples; ++i) {
      MemberId m = world.members[rng.NextBelow(world.members.size())];
      int moment = static_cast<int>(rng.NextBelow(world.months));
      InstanceId inst = dim.InstanceValidAt(m, moment);
      if (inst == kInvalidInstance) continue;
      MemberId new_parent = world.groups[rng.NextBelow(world.groups.size())];
      r.push_back(ChangeTuple{m, dim.instance(inst).parent, new_parent, moment});
    }
    if (r.empty()) continue;

    Result<Cube> ref = SplitReference(world.cube, world.org_dim, r);
    for (int threads : kThreadCounts) {
      Result<Cube> got = Split(world.cube, world.org_dim, r, threads);
      ASSERT_EQ(ref.ok(), got.ok()) << "seed " << seed;
      if (!ref.ok()) {
        EXPECT_EQ(ref.status(), got.status()) << "seed " << seed;
        continue;
      }
      ExpectBitIdentical(*ref, *got, world.org_dim,
                         "seed " + std::to_string(seed) + " threads " +
                             std::to_string(threads));
      ++compared;
    }
  }
  EXPECT_GT(compared, 0) << "fuzzer produced no applicable change relations";
}

// Numeric (not bitwise) group-by equality, for fractional fuzz data: the
// vectorized run-sum kernel folds each unit-stride row into a fixed 4-lane
// shape, which is deterministic and thread-invariant but associates
// differently from the naive per-cell scan. ⊥-ness must still match exactly.
void ExpectNumericallyEqual(const GroupByResult& a, const GroupByResult& b,
                            const std::string& context) {
  ASSERT_EQ(a.mask(), b.mask()) << context;
  ASSERT_EQ(a.extents(), b.extents()) << context;
  for (int64_t i = 0; i < a.num_cells(); ++i) {
    CellValue va = a.GetAt(i);
    CellValue vb = b.GetAt(i);
    ASSERT_EQ(va.is_null(), vb.is_null()) << context << " cell " << i;
    if (va.is_null()) continue;
    EXPECT_NEAR(va.value(), vb.value(),
                1e-9 * std::max(1.0, std::fabs(vb.value())))
        << context << " cell " << i;
  }
}

TEST(KernelEquivalenceTest, ParallelAggregatorIsBitIdenticalToSerial) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    FuzzWorld world = BuildFuzzWorld(seed + 3000);
    std::vector<GroupByMask> masks;
    for (GroupByMask mask = 0; mask < 8; ++mask) masks.push_back(mask);
    std::vector<int> order = {2, 1, 0};

    ChunkAggregator serial(world.cube);
    std::vector<GroupByResult> expect =
        serial.Compute(masks, order, nullptr, 1);
    AggStats serial_stats = serial.stats();

    std::vector<GroupByResult> naive =
        NaiveAggregator::Compute(world.cube, masks);
    for (size_t i = 0; i < masks.size(); ++i) {
      ExpectNumericallyEqual(expect[i], naive[i],
                             "seed " + std::to_string(seed) + " mask " +
                                 std::to_string(i));
    }

    for (int threads : kThreadCounts) {
      ChunkAggregator agg(world.cube);
      std::vector<GroupByResult> got = agg.Compute(masks, order, nullptr, threads);
      ASSERT_EQ(expect.size(), got.size());
      for (size_t i = 0; i < masks.size(); ++i) {
        EXPECT_TRUE(expect[i] == got[i])
            << "seed " << seed << " mask " << i << " threads " << threads;
      }
      EXPECT_EQ(serial_stats.chunks_visited, agg.stats().chunks_visited);
      EXPECT_EQ(serial_stats.chunks_read, agg.stats().chunks_read);
      EXPECT_EQ(serial_stats.cells_scanned, agg.stats().cells_scanned);
      EXPECT_EQ(serial_stats.mmst_memory_cells, agg.stats().mmst_memory_cells);
    }
  }
}

// End-to-end: the full perspective-cube computation (Split + Relocate under
// the executor's entry point) is thread-count invariant.
TEST(KernelEquivalenceTest, PerspectiveCubeIsThreadCountInvariant) {
  for (uint64_t seed = 0; seed < 12; ++seed) {
    FuzzWorld world = BuildFuzzWorld(seed + 4000);
    Rng rng(seed * 31 + 17);
    WhatIfSpec spec;
    spec.varying_dim = world.org_dim;
    spec.perspectives = RandomPerspectives(&rng, world.months);
    spec.semantics = RandomSemantics(&rng);

    Result<PerspectiveCube> ref =
        ComputePerspectiveCube(world.cube, spec, EvalStrategy::kDirect,
                               nullptr, nullptr, 1);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    for (int threads : {2, 4, 8}) {
      Result<PerspectiveCube> got =
          ComputePerspectiveCube(world.cube, spec, EvalStrategy::kDirect,
                                 nullptr, nullptr, threads);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectBitIdentical(ref->output(), got->output(), world.org_dim,
                         "seed " + std::to_string(seed) + " threads " +
                             std::to_string(threads));
    }
  }
}

// Out-of-core streaming: the windowed reader must deliver fuzz cubes'
// chunks bit-identically to a synchronous FetchChunk loop over the same
// schedule, at every window, whatever the (random) tiling and sparsity of
// the stored chunk set.
TEST(KernelEquivalenceTest, PipelineStreamsFuzzCubesBitIdentically) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    FuzzWorld world = BuildFuzzWorld(seed + 5000);
    const std::string path = ::testing::TempDir() + "/kernel_equiv_pipe_" +
                             std::to_string(seed) + ".olap";
    ASSERT_TRUE(SaveCube(world.cube, path).ok());

    std::vector<ChunkId> stored;
    world.cube.ForEachChunk(
        [&](ChunkId id, const Chunk&) { stored.push_back(id); });
    if (stored.empty()) {
      std::remove(path.c_str());
      continue;
    }

    // Interleave the two halves of the stored-id list (the Fig. 12 access
    // shape) and append random revisits so cached re-reads are exercised.
    Rng rng(seed * 2654435761u + 11);
    std::vector<ChunkId> schedule;
    const size_t half = stored.size() / 2;
    for (size_t i = 0; i < half; ++i) {
      schedule.push_back(stored[i]);
      schedule.push_back(stored[half + i]);
    }
    if (stored.size() % 2 != 0) schedule.push_back(stored.back());
    const int revisits = 1 + static_cast<int>(rng.NextBelow(6));
    for (int i = 0; i < revisits; ++i) {
      schedule.push_back(stored[rng.NextBelow(stored.size())]);
    }

    DiskModel model;
    model.seek_seconds_per_chunk = 1e-6;
    model.max_seek_seconds = 1e-3;
    model.transfer_seconds = 1e-4;

    // Synchronous oracle: per-schedule-entry FetchChunk.
    std::vector<Chunk> expected;
    {
      SimulatedDisk disk(model, /*cache_capacity_chunks=*/0);
      ASSERT_TRUE(disk.AttachBackingFile(Env::Default(), path).ok());
      for (ChunkId id : schedule) {
        Result<Chunk> chunk = disk.FetchChunk(id);
        ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
        expected.push_back(std::move(*chunk));
      }
    }

    for (int window : {1, 2, 8, 16, 64}) {
      SimulatedDisk disk(model, /*cache_capacity_chunks=*/0);
      ASSERT_TRUE(disk.AttachBackingFile(Env::Default(), path).ok());
      size_t i = 0;
      StreamStats stats;
      Status status = StreamSchedule(
          &disk, schedule, window, CancellationToken(),
          [&](ChunkId id, const Chunk& got) {
            ASSERT_LT(i, schedule.size());
            ASSERT_EQ(id, schedule[i])
                << "seed " << seed << " window " << window << " entry " << i;
            ASSERT_EQ(expected[i].size(), got.size());
            for (int64_t off = 0; off < got.size(); ++off) {
              ASSERT_EQ(BitsOf(expected[i].Get(off)), BitsOf(got.Get(off)))
                  << "seed " << seed << " window " << window << " entry "
                  << i << " offset " << off;
            }
            ++i;
          },
          &stats);
      ASSERT_TRUE(status.ok()) << status.ToString();
      EXPECT_EQ(i, schedule.size());
      EXPECT_LE(stats.peak_buffered, window);
    }
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace olap
