// Layout equivalence: the bitmap Chunk (dense 64-byte-aligned values +
// validity bitmap, cube/chunk.h) against a sentinel-encoded oracle that
// replicates the old storage layout (one double per cell, ⊥ as the
// quiet-NaN sentinel, every operation cell-at-a-time). Randomized op
// sequences must leave both representations bit-identical through every
// Get/Set/CopyRunFrom/MergeNonNullFrom/AccumulateFrom/RunHasNonNull, the
// OLAPCUB2 storage format must round-trip the bitmap layout byte-exactly
// (raw, compressed, and the legacy v1 format), and the chunk aggregator
// must stay thread-count-invariant on top of the new layout.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "agg/chunk_aggregator.h"
#include "common/rng.h"
#include "cube/cube.h"
#include "storage/cube_io.h"
#include "v1_cube_file.h"

namespace olap {
namespace {

constexpr int kThreadCounts[] = {1, 2, 4, 8};

// The pre-vectorization chunk: sentinel-encoded doubles, per-cell loops.
// Every method mirrors the documented Chunk contract; this is the oracle
// the bitmap layout is fuzzed against.
struct SentinelChunk {
  std::vector<double> cells;

  explicit SentinelChunk(int64_t n) : cells(n, CellValue::NullStorage()) {}

  CellValue Get(int64_t off) const { return CellValue::FromStorage(cells[off]); }
  void Set(int64_t off, CellValue v) { cells[off] = CellValue::ToStorage(v); }

  int64_t CountNonNull() const {
    int64_t n = 0;
    for (double c : cells) n += !CellValue::IsStorageNull(c);
    return n;
  }
  bool RunHasNonNull(int64_t off, int64_t len) const {
    for (int64_t i = 0; i < len; ++i) {
      if (!CellValue::IsStorageNull(cells[off + i])) return true;
    }
    return false;
  }
  int64_t CopyRunFrom(const SentinelChunk& src, int64_t src_off,
                      int64_t dst_off, int64_t len) {
    int64_t copied = 0;
    for (int64_t i = 0; i < len; ++i) {
      const double raw = src.cells[src_off + i];
      if (!CellValue::IsStorageNull(raw)) {
        cells[dst_off + i] = raw;
        ++copied;
      }
    }
    return copied;
  }
  int64_t MergeNonNullFrom(const SentinelChunk& other) {
    return CopyRunFrom(other, 0, 0, static_cast<int64_t>(other.cells.size()));
  }
  void AccumulateFrom(const SentinelChunk& other) {
    for (size_t i = 0; i < cells.size(); ++i) {
      const CellValue v = CellValue::FromStorage(other.cells[i]);
      if (v.is_null()) continue;
      cells[i] =
          CellValue::ToStorage(CellValue::FromStorage(cells[i]) + v);
    }
  }
};

// Full-state comparison: every cell's sentinel-encoded image must match
// bitwise, and the bitmap layout's invariants must hold (⊥ slots store
// +0.0, stored values are never NaN).
void ExpectSameState(const Chunk& chunk, const SentinelChunk& oracle,
                     const std::string& context) {
  ASSERT_EQ(chunk.size(), static_cast<int64_t>(oracle.cells.size())) << context;
  for (int64_t i = 0; i < chunk.size(); ++i) {
    const double got = chunk.StorageAt(i);
    const double want = oracle.cells[i];
    EXPECT_EQ(0, std::memcmp(&got, &want, sizeof(double)))
        << context << " cell " << i;
    if (chunk.IsNull(i)) {
      const double slot = chunk.ValueAt(i);
      EXPECT_EQ(0.0, slot) << context << " ⊥ slot " << i;
      EXPECT_FALSE(std::signbit(slot)) << context << " ⊥ slot " << i;
    } else {
      EXPECT_FALSE(std::isnan(chunk.ValueAt(i))) << context << " cell " << i;
    }
  }
  EXPECT_EQ(chunk.CountNonNull(), oracle.CountNonNull()) << context;
}

CellValue RandomCell(Rng& rng) {
  switch (rng.NextBelow(8)) {
    case 0: return CellValue::Null();
    case 1: return CellValue(0.0);
    case 2: return CellValue(-0.0);
    // CellValue canonicalises NaN to ⊥ on entry; the layouts must agree on
    // that canonicalisation.
    case 3: return CellValue(std::numeric_limits<double>::quiet_NaN());
    case 4: return CellValue(-1e300);
    default: return CellValue((rng.NextDouble() - 0.5) * 2e4);
  }
}

TEST(LayoutEquivalenceTest, RandomOpSequencesMatchSentinelOracle) {
  for (uint64_t seed = 0; seed < 12; ++seed) {
    Rng rng(seed * 2654435761 + 17);
    const int64_t n = 1 + rng.NextBelow(200);
    Chunk a(n), b(n);
    SentinelChunk oa(n), ob(n);
    // Seed both pairs with random content.
    for (int64_t i = 0; i < n; ++i) {
      CellValue v = RandomCell(rng);
      a.Set(i, v);
      oa.Set(i, v);
      v = RandomCell(rng);
      b.Set(i, v);
      ob.Set(i, v);
    }
    for (int op = 0; op < 300; ++op) {
      const std::string context =
          "seed " + std::to_string(seed) + " op " + std::to_string(op);
      switch (rng.NextBelow(7)) {
        case 0: {  // Point write.
          const int64_t off = rng.NextBelow(n);
          const CellValue v = RandomCell(rng);
          a.Set(off, v);
          oa.Set(off, v);
          break;
        }
        case 1: {  // Point read.
          const int64_t off = rng.NextBelow(n);
          EXPECT_EQ(a.Get(off), oa.Get(off)) << context;
          break;
        }
        case 2: {  // Ranged copy between chunks of different content.
          const int64_t len = rng.NextBelow(n + 1);
          const int64_t src_off = len < n ? rng.NextBelow(n - len + 1) : 0;
          const int64_t dst_off = len < n ? rng.NextBelow(n - len + 1) : 0;
          EXPECT_EQ(a.CopyRunFrom(b, src_off, dst_off, len),
                    oa.CopyRunFrom(ob, src_off, dst_off, len))
              << context;
          break;
        }
        case 3: {  // Run emptiness probe.
          const int64_t len = rng.NextBelow(n + 1);
          const int64_t off = len < n ? rng.NextBelow(n - len + 1) : 0;
          EXPECT_EQ(a.RunHasNonNull(off, len), oa.RunHasNonNull(off, len))
              << context;
          break;
        }
        case 4: {  // Whole-chunk ⊥-skipping merge.
          EXPECT_EQ(a.MergeNonNullFrom(b), oa.MergeNonNullFrom(ob)) << context;
          break;
        }
        case 5: {  // ⊥-skipping addition.
          a.AccumulateFrom(b);
          oa.AccumulateFrom(ob);
          break;
        }
        case 6: {  // Copy construction / assignment preserve bits.
          Chunk copy(a);
          a = copy;
          break;
        }
      }
      ExpectSameState(a, oa, context);
    }
    // Storage-boundary round trip: sentinel encode -> fresh chunk decode.
    std::vector<double> sentinel(n);
    a.FillSentinel(sentinel.data());
    EXPECT_EQ(0, std::memcmp(sentinel.data(), oa.cells.data(),
                             n * sizeof(double)))
        << "seed " << seed;
    Chunk decoded(n);
    EXPECT_EQ(decoded.AssignRunFromSentinel(0, sentinel.data(), n),
              a.CountNonNull())
        << "seed " << seed;
    ExpectSameState(decoded, oa, "decode seed " + std::to_string(seed));
  }
}

// A small random cube over a plain schema, fractional values included.
Cube RandomCube(uint64_t seed, std::vector<int> leaf_counts, int chunk_size,
                double density, bool integer_values) {
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
      cube.SetCell(coords,
                   CellValue(integer_values
                                 ? static_cast<double>(rng.NextBelow(100))
                                 : 0.1 + rng.NextDouble() * 100.0));
    }
    size_t d = coords.size();
    bool done = true;
    while (d-- > 0) {
      if (++coords[d] < leaf_counts[d]) {
        done = false;
        break;
      }
      coords[d] = 0;
    }
    if (done) return cube;
  }
}

void ExpectCubesBitIdentical(const Cube& a, const Cube& b,
                             const std::string& context) {
  ASSERT_EQ(a.NumStoredChunks(), b.NumStoredChunks()) << context;
  a.ForEachChunk([&](ChunkId id, const Chunk& chunk) {
    const Chunk* other = b.FindChunk(id);
    ASSERT_NE(other, nullptr) << context << " chunk " << id;
    ASSERT_EQ(other->size(), chunk.size()) << context << " chunk " << id;
    for (int64_t off = 0; off < chunk.size(); ++off) {
      const double x = chunk.StorageAt(off);
      const double y = other->StorageAt(off);
      EXPECT_EQ(0, std::memcmp(&x, &y, sizeof(double)))
          << context << " chunk " << id << " cell " << off;
    }
  });
}

TEST(LayoutEquivalenceTest, StorageRoundTripsBitmapLayout) {
  int variant = 0;
  for (uint64_t seed : {11u, 23u}) {
    Cube cube = RandomCube(seed, {7, 9, 5}, 3, 0.6, /*integer_values=*/false);
    for (bool compress : {false, true}) {
      for (int version : {1, 2}) {
        if (version == 1 && compress) continue;  // v1 is raw-only coverage.
        const std::string path = ::testing::TempDir() + "/layout_rt_" +
                                 std::to_string(variant++) + ".olapcube";
        if (version == 1) {
          ASSERT_TRUE(testing_v1::SaveCubeV1(cube, path, compress).ok());
        } else {
          SaveOptions save;
          save.compress = compress;
          save.sync = false;
          ASSERT_TRUE(SaveCube(cube, path, save).ok());
        }
        Result<Cube> loaded = LoadCube(path);
        ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
        ExpectCubesBitIdentical(cube, *loaded,
                                "seed " + std::to_string(seed) + " compress " +
                                    std::to_string(compress) + " v" +
                                    std::to_string(version));
      }
    }
  }
}

TEST(LayoutEquivalenceTest, AggregationOverBitmapLayoutIsThreadInvariant) {
  for (uint64_t seed = 0; seed < 4; ++seed) {
    // Fractional values: the vector kernels' fixed lane shape must make
    // results deterministic across thread counts even where reassociation
    // matters most.
    Cube cube =
        RandomCube(900 + seed, {8, 6, 7}, 3, 0.5, /*integer_values=*/false);
    std::vector<GroupByMask> masks;
    for (GroupByMask m = 0; m < 8; ++m) masks.push_back(m);
    std::vector<int> order = {0, 1, 2};

    ChunkAggregator serial(cube);
    std::vector<GroupByResult> expect = serial.Compute(masks, order, nullptr, 1);
    for (int threads : kThreadCounts) {
      ChunkAggregator agg(cube);
      std::vector<GroupByResult> got = agg.Compute(masks, order, nullptr, threads);
      ASSERT_EQ(expect.size(), got.size());
      for (size_t i = 0; i < masks.size(); ++i) {
        EXPECT_TRUE(expect[i] == got[i])
            << "seed " << seed << " mask " << i << " threads " << threads;
      }
    }
  }
}

TEST(LayoutEquivalenceTest, IntegerAggregationMatchesNaiveBitwise) {
  for (uint64_t seed = 0; seed < 4; ++seed) {
    // Integer-valued cells: double summation is exact, so the kernel path
    // must match the per-cell naive scan bitwise despite reassociating.
    Cube cube =
        RandomCube(700 + seed, {6, 5, 8}, 2, 0.7, /*integer_values=*/true);
    std::vector<GroupByMask> masks;
    for (GroupByMask m = 0; m < 8; ++m) masks.push_back(m);
    std::vector<GroupByResult> naive = NaiveAggregator::Compute(cube, masks);
    for (int threads : kThreadCounts) {
      ChunkAggregator agg(cube);
      std::vector<GroupByResult> got =
          agg.Compute(masks, {2, 1, 0}, nullptr, threads);
      ASSERT_EQ(naive.size(), got.size());
      for (size_t i = 0; i < masks.size(); ++i) {
        EXPECT_TRUE(got[i] == naive[i])
            << "seed " << seed << " mask " << i << " threads " << threads;
      }
    }
  }
}

}  // namespace
}  // namespace olap
