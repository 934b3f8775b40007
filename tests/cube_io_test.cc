#include "storage/cube_io.h"

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "agg/rollup.h"
#include "common/rng.h"
#include "v1_cube_file.h"
#include "workload/paper_example.h"
#include "workload/workforce.h"

namespace olap {
namespace {

// Temp file path unique to the current test case: parameterized instances
// of the same test run concurrently under `ctest -j`, and a shared filename
// would let one instance load a file another is mid-way through replacing.
std::string TempPath(const char* name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string unique = info == nullptr
                           ? std::string("unknown")
                           : std::string(info->test_suite_name()) + "_" +
                                 info->name();
  for (char& c : unique) {
    if (c == '/' || c == '\\') c = '_';
  }
  return std::string(::testing::TempDir()) + "/" + unique + "_" + name;
}

void ExpectCubesEqual(const Cube& a, const Cube& b) {
  const Schema& sa = a.schema();
  const Schema& sb = b.schema();
  ASSERT_EQ(sa.num_dimensions(), sb.num_dimensions());
  for (int d = 0; d < sa.num_dimensions(); ++d) {
    const Dimension& da = sa.dimension(d);
    const Dimension& db = sb.dimension(d);
    EXPECT_EQ(da.name(), db.name());
    EXPECT_EQ(da.kind(), db.kind());
    EXPECT_EQ(sa.parameter_of(d), sb.parameter_of(d));
    ASSERT_EQ(da.num_members(), db.num_members());
    for (MemberId m = 0; m < da.num_members(); ++m) {
      EXPECT_EQ(da.member(m).name, db.member(m).name);
      EXPECT_EQ(da.member(m).parent, db.member(m).parent);
      EXPECT_EQ(da.member(m).children, db.member(m).children);
    }
    EXPECT_EQ(da.is_varying(), db.is_varying());
    if (da.is_varying()) {
      EXPECT_EQ(da.parameter_is_ordered(), db.parameter_is_ordered());
      ASSERT_EQ(da.num_instances(), db.num_instances());
      for (InstanceId i = 0; i < da.num_instances(); ++i) {
        EXPECT_EQ(da.instance(i).member, db.instance(i).member);
        EXPECT_EQ(da.instance(i).parent, db.instance(i).parent);
        EXPECT_EQ(da.instance(i).validity, db.instance(i).validity);
        EXPECT_EQ(da.instance(i).qualified_name, db.instance(i).qualified_name);
      }
    }
  }
  EXPECT_EQ(a.layout().extents(), b.layout().extents());
  EXPECT_EQ(a.layout().chunk_sizes(), b.layout().chunk_sizes());
  ASSERT_EQ(a.NumStoredChunks(), b.NumStoredChunks());
  EXPECT_EQ(a.CountNonNullCells(), b.CountNonNullCells());
  a.ForEachCell([&](const std::vector<int>& coords, CellValue v) {
    EXPECT_EQ(b.GetCell(coords), v);
  });
}

TEST(CubeIoTest, RoundTripPaperExample) {
  PaperExample ex = BuildPaperExample();
  std::string path = TempPath("paper.olap");
  ASSERT_TRUE(SaveCube(ex.cube, path).ok());
  Result<Cube> loaded = LoadCube(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectCubesEqual(ex.cube, *loaded);
  std::remove(path.c_str());
}

TEST(CubeIoTest, RoundTripWorkforce) {
  WorkforceConfig config;
  config.num_departments = 6;
  config.num_employees = 50;
  config.num_changing = 10;
  config.num_measures = 3;
  config.num_scenarios = 2;
  WorkforceCube wf = BuildWorkforceCube(config);
  std::string path = TempPath("workforce.olap");
  ASSERT_TRUE(SaveCube(wf.cube, path).ok());
  Result<Cube> loaded = LoadCube(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectCubesEqual(wf.cube, *loaded);
  std::remove(path.c_str());
}

TEST(CubeIoTest, LoadedCubeIsQueryable) {
  PaperExample ex = BuildPaperExample();
  std::string path = TempPath("queryable.olap");
  ASSERT_TRUE(SaveCube(ex.cube, path).ok());
  Result<Cube> loaded = LoadCube(path);
  ASSERT_TRUE(loaded.ok());
  // Names resolve and aggregates roll up identically.
  EXPECT_EQ(*loaded->GetByName({"Contractor/Joe", "NY", "Mar", "Salary"}),
            CellValue(30.0));
  CellRef total(4);
  for (int d = 0; d < 4; ++d) {
    total[d] = AxisRef::OfMember(loaded->schema().dimension(d).root());
  }
  EXPECT_EQ(EvaluateCell(*loaded, total), CellValue(250.0));
  std::remove(path.c_str());
}

TEST(CubeIoTest, LevelNamesSurvive) {
  PaperExample ex = BuildPaperExample();
  std::string path = TempPath("levels.olap");
  ASSERT_TRUE(SaveCube(ex.cube, path).ok());
  Result<Cube> loaded = LoadCube(path);
  ASSERT_TRUE(loaded.ok());
  const Dimension& loc = loaded->schema().dimension(ex.location_dim);
  EXPECT_EQ(loc.FindLevelByName("Region"), 1);
  EXPECT_EQ(loc.FindLevelByName("State"), 2);
}

// Property sweep: random varying cubes round-trip bit-exactly, raw and
// compressed.
class CubeIoPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CubeIoPropertyTest, RandomCubeRoundTrips) {
  Rng rng(GetParam());
  Schema schema;
  Dimension org("Org");
  std::vector<MemberId> groups;
  for (int g = 0; g < 3; ++g) {
    groups.push_back(*org.AddChildOfRoot("G" + std::to_string(g)));
  }
  std::vector<MemberId> leaves;
  for (int m = 0; m < 6; ++m) {
    leaves.push_back(
        *org.AddMember("M" + std::to_string(m), groups[m % 3],
                       /*weight=*/rng.NextBool(0.3) ? -1.0 : 1.0));
  }
  Dimension time("Time", DimensionKind::kParameter);
  for (int t = 0; t < 8; ++t) {
    ASSERT_TRUE(time.AddChildOfRoot("T" + std::to_string(t)).ok());
  }
  int org_dim = schema.AddDimension(std::move(org));
  int time_dim = schema.AddDimension(std::move(time));
  ASSERT_TRUE(schema.BindVarying(org_dim, time_dim, true).ok());
  Dimension* mut = schema.mutable_dimension(org_dim);
  for (int c = 0; c < 10; ++c) {
    ASSERT_TRUE(mut->ApplyChange(leaves[rng.NextBelow(leaves.size())],
                                 groups[rng.NextBelow(groups.size())],
                                 static_cast<int>(rng.NextBelow(8)))
                    .ok());
  }
  CubeOptions options;
  options.chunk_size = 1 + static_cast<int>(rng.NextBelow(4));
  Cube cube(std::move(schema), options);
  const Dimension& d = cube.schema().dimension(org_dim);
  for (const MemberInstance& inst : d.instances()) {
    for (int t = inst.validity.FindFirst(); t >= 0;
         t = inst.validity.FindNext(t + 1)) {
      if (rng.NextBool(0.5)) {
        cube.SetCell({inst.id, t},
                     CellValue(static_cast<double>(rng.NextBelow(1000)) / 4));
      }
    }
  }
  for (bool compress : {false, true}) {
    std::string path = TempPath(compress ? "rand_c.olap" : "rand.olap");
    ASSERT_TRUE(SaveCube(cube, path, compress).ok());
    Result<Cube> loaded = LoadCube(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ExpectCubesEqual(cube, *loaded);
    std::remove(path.c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CubeIoPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// Read-compatibility: files written in the legacy OLAPCUB1 format (no
// checksums, unframed chunks) still load bit-exactly.
TEST(CubeIoTest, LegacyV1FilesStillLoad) {
  PaperExample ex = BuildPaperExample();
  for (bool compress : {false, true}) {
    std::string path = TempPath(compress ? "v1_c.olap" : "v1.olap");
    ASSERT_TRUE(testing_v1::SaveCubeV1(ex.cube, path, compress).ok());
    // The file really is v1.
    std::string head;
    {
      std::ifstream in(path, std::ios::binary);
      head.resize(8);
      in.read(head.data(), 8);
    }
    EXPECT_EQ(head, "OLAPCUB1");
    Result<Cube> loaded = LoadCube(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ExpectCubesEqual(ex.cube, *loaded);
    std::remove(path.c_str());
  }
}

TEST(CubeIoTest, SaveWritesV2AndLeavesNoTempFile) {
  PaperExample ex = BuildPaperExample();
  std::string path = TempPath("v2_clean.olap");
  ASSERT_TRUE(SaveCube(ex.cube, path).ok());
  std::string head;
  {
    std::ifstream in(path, std::ios::binary);
    head.resize(8);
    in.read(head.data(), 8);
  }
  EXPECT_EQ(head, "OLAPCUB2");
  EXPECT_FALSE(Env::Default()->FileExists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(CubeIoTest, SaveAtomicallyReplacesExistingFile) {
  PaperExample ex = BuildPaperExample();
  std::string path = TempPath("replace.olap");
  ASSERT_TRUE(SaveCube(ex.cube, path).ok());

  WorkforceConfig config;
  config.num_departments = 3;
  config.num_employees = 12;
  config.num_changing = 3;
  config.num_measures = 2;
  config.num_scenarios = 1;
  WorkforceCube wf = BuildWorkforceCube(config);
  ASSERT_TRUE(SaveCube(wf.cube, path).ok());

  Result<Cube> loaded = LoadCube(path);
  ASSERT_TRUE(loaded.ok());
  ExpectCubesEqual(wf.cube, *loaded);
  std::remove(path.c_str());
}

TEST(CubeIoTest, CleanLoadReportsAllChunksSalvaged) {
  PaperExample ex = BuildPaperExample();
  std::string path = TempPath("report.olap");
  ASSERT_TRUE(SaveCube(ex.cube, path).ok());
  LoadOptions options;
  RecoveryReport report;
  options.report = &report;
  Result<Cube> loaded = LoadCube(path, options);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(report.chunks_total, ex.cube.NumStoredChunks());
  EXPECT_EQ(report.chunks_salvaged, ex.cube.NumStoredChunks());
  EXPECT_EQ(report.chunks_dropped, 0);
  std::remove(path.c_str());
}

// The chunk index locates every stored chunk, and ReadIndexedChunk returns
// payloads identical to the in-memory cube — for raw and compressed files.
TEST(CubeIoTest, ChunkIndexRoundTripsEveryChunk) {
  PaperExample ex = BuildPaperExample();
  for (bool compress : {false, true}) {
    std::string path = TempPath(compress ? "index_c.olap" : "index.olap");
    ASSERT_TRUE(SaveCube(ex.cube, path, compress).ok());
    Result<CubeChunkIndex> index = IndexCubeChunks(Env::Default(), path);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    EXPECT_EQ(index->compressed, compress);
    EXPECT_EQ(index->cells_per_chunk, ex.cube.layout().cells_per_chunk());
    EXPECT_EQ(static_cast<int64_t>(index->entries.size()),
              ex.cube.NumStoredChunks());

    Result<std::unique_ptr<RandomAccessFile>> file =
        Env::Default()->NewRandomAccessFile(path);
    ASSERT_TRUE(file.ok());
    ex.cube.ForEachChunk([&](ChunkId id, const Chunk& chunk) {
      Result<Chunk> read = ReadIndexedChunk(file->get(), *index, id);
      ASSERT_TRUE(read.ok()) << read.status().ToString();
      ASSERT_EQ(read->size(), chunk.size());
      for (int64_t i = 0; i < chunk.size(); ++i) {
        EXPECT_EQ(read->Get(i), chunk.Get(i));
      }
    });
    EXPECT_FALSE(
        ReadIndexedChunk(file->get(), *index, ChunkId{999999}).ok());
    std::remove(path.c_str());
  }
}

TEST(CubeIoTest, MissingFileIsNotFound) {
  EXPECT_EQ(LoadCube(TempPath("nope.olap")).status().code(),
            StatusCode::kNotFound);
}

TEST(CubeIoTest, WrongMagicRejected) {
  std::string path = TempPath("bad_magic.olap");
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOTACUBE and then some";
  }
  EXPECT_EQ(LoadCube(path).status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(CubeIoTest, TruncatedFileRejected) {
  PaperExample ex = BuildPaperExample();
  std::string path = TempPath("full.olap");
  ASSERT_TRUE(SaveCube(ex.cube, path).ok());
  // Copy a truncated prefix.
  std::string truncated_path = TempPath("truncated.olap");
  {
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    ASSERT_GT(bytes.size(), 64u);
    std::ofstream out(truncated_path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_FALSE(LoadCube(truncated_path).ok());
  std::remove(path.c_str());
  std::remove(truncated_path.c_str());
}

TEST(CubeIoTest, SaveToUnwritablePathFails) {
  PaperExample ex = BuildPaperExample();
  EXPECT_FALSE(SaveCube(ex.cube, "/nonexistent_dir_zz/cube.olap").ok());
}

}  // namespace
}  // namespace olap
