// Corruption fuzz for cube files: every byte offset of a small saved cube
// is bit-flipped, and every truncation length is tried. LoadCube must
// always return a typed Status — never crash, never UB (the suite runs
// under ASan/UBSan in CI via -DOLAP_SANITIZE=ON). For the checksummed
// OLAPCUB2 format, every single-byte mutation must additionally be
// *detected* (non-OK), since every file byte lies in some CRC32C domain.

#include <cstdint>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "storage/cube_io.h"
#include "storage/env.h"
#include "v1_cube_file.h"

namespace olap {
namespace {

// Temp file path unique to the current test case: test cases of the same
// binary run concurrently under `ctest -j`, and a shared filename would let
// one case read a file another is mid-way through replacing.
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

void WriteFile(const std::string& path, const std::string& bytes) {
  Result<std::unique_ptr<WritableFile>> file =
      Env::Default()->NewWritableFile(path);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append(bytes).ok());
  ASSERT_TRUE((*file)->Close().ok());
}

// A deliberately tiny cube that still exercises every schema feature the
// format stores: a hierarchy, a varying dimension bound to an ordered
// parameter, member instances with validity sets, and several chunks.
Cube BuildTinyCube() {
  Schema schema;
  Dimension org("Org");
  MemberId g1 = *org.AddChildOfRoot("G1");
  MemberId g2 = *org.AddChildOfRoot("G2");
  MemberId a = *org.AddMember("A", g1, 1.0);
  (void)*org.AddMember("B", g2, -1.0);
  Dimension time("Time", DimensionKind::kParameter);
  for (int t = 0; t < 3; ++t) {
    std::string member_name = "T";
    member_name.push_back(static_cast<char>('0' + t));
    EXPECT_TRUE(time.AddChildOfRoot(member_name).ok());
  }
  int org_dim = schema.AddDimension(std::move(org));
  int time_dim = schema.AddDimension(std::move(time));
  EXPECT_TRUE(schema.BindVarying(org_dim, time_dim, true).ok());
  EXPECT_TRUE(schema.mutable_dimension(org_dim)->ApplyChange(a, g2, 1).ok());

  CubeOptions options;
  options.chunk_size = 2;
  Cube cube(std::move(schema), options);
  const Dimension& d = cube.schema().dimension(org_dim);
  int filled = 0;
  for (const MemberInstance& inst : d.instances()) {
    for (int t = inst.validity.FindFirst(); t >= 0;
         t = inst.validity.FindNext(t + 1)) {
      cube.SetCell({inst.id, t}, CellValue(1.0 + filled++));
    }
  }
  EXPECT_GT(cube.NumStoredChunks(), 1);
  return cube;
}

std::string SaveToBytes(const Cube& cube, bool compress, int format_version) {
  std::string path = TempPath("fuzz_source.olap");
  SaveOptions options;
  options.compress = compress;
  EXPECT_TRUE(SaveCube(cube, path, options).ok());
  std::string bytes;
  EXPECT_TRUE(Env::Default()->ReadFileToString(path, &bytes).ok());
  EXPECT_GT(bytes.size(), 32u);
  std::remove(path.c_str());
  return format_version == 1 ? testing_v1::V1BytesFromV2(bytes) : bytes;
}

// Flips every byte offset (two masks) and loads strictly and in recovery
// mode. `every_flip_detected` is the OLAPCUB2 guarantee; v1 files predate
// checksums, so for them the only assertion is "typed Status, no crash".
void FuzzByteFlips(const std::string& bytes, bool every_flip_detected) {
  std::string scratch = TempPath("fuzz_flip.olap");
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (uint8_t mask : {uint8_t{0xFF}, uint8_t{0x01}}) {
      std::string mutated = bytes;
      mutated[i] = static_cast<char>(mutated[i] ^ mask);
      WriteFile(scratch, mutated);
      Result<Cube> strict = LoadCube(scratch);
      if (every_flip_detected) {
        EXPECT_FALSE(strict.ok())
            << "undetected corruption at offset " << i << " mask "
            << static_cast<int>(mask);
      }
      LoadOptions recovery;
      recovery.recover = true;
      RecoveryReport report;
      recovery.report = &report;
      (void)LoadCube(scratch, recovery);  // Must not crash; any Status.
      (void)IndexCubeChunks(Env::Default(), scratch);  // Same.
    }
  }
  std::remove(scratch.c_str());
}

void FuzzTruncations(const std::string& bytes) {
  std::string scratch = TempPath("fuzz_trunc.olap");
  for (size_t len = 0; len < bytes.size(); ++len) {
    WriteFile(scratch, bytes.substr(0, len));
    Result<Cube> strict = LoadCube(scratch);
    EXPECT_FALSE(strict.ok()) << "truncation to " << len << " loaded";
    LoadOptions recovery;
    recovery.recover = true;
    (void)LoadCube(scratch, recovery);
    (void)IndexCubeChunks(Env::Default(), scratch);
  }
  std::remove(scratch.c_str());
}

TEST(CubeIoFuzzTest, V2RawEveryByteFlipIsDetected) {
  std::string bytes = SaveToBytes(BuildTinyCube(), /*compress=*/false, 2);
  FuzzByteFlips(bytes, /*every_flip_detected=*/true);
}

TEST(CubeIoFuzzTest, V2CompressedEveryByteFlipIsDetected) {
  std::string bytes = SaveToBytes(BuildTinyCube(), /*compress=*/true, 2);
  FuzzByteFlips(bytes, /*every_flip_detected=*/true);
}

TEST(CubeIoFuzzTest, V2EveryTruncationIsDetected) {
  std::string bytes = SaveToBytes(BuildTinyCube(), /*compress=*/false, 2);
  FuzzTruncations(bytes);
  bytes = SaveToBytes(BuildTinyCube(), /*compress=*/true, 2);
  FuzzTruncations(bytes);
}

TEST(CubeIoFuzzTest, V1LegacyFilesNeverCrashTheLoader) {
  // No checksums in v1, so some flips legitimately load (e.g. a mutated
  // member weight); the guarantee is typed-Status-or-success, no UB.
  std::string bytes = SaveToBytes(BuildTinyCube(), /*compress=*/false, 1);
  FuzzByteFlips(bytes, /*every_flip_detected=*/false);
  FuzzTruncations(bytes);
  bytes = SaveToBytes(BuildTinyCube(), /*compress=*/true, 1);
  FuzzByteFlips(bytes, /*every_flip_detected=*/false);
}

// Random multi-byte garbage with a valid magic must also fail cleanly.
TEST(CubeIoFuzzTest, GarbageAfterMagicIsRejected) {
  std::string scratch = TempPath("fuzz_garbage.olap");
  uint64_t state = 0x9E3779B97F4A7C15ull;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return static_cast<char>(state & 0xFF);
  };
  for (int trial = 0; trial < 200; ++trial) {
    std::string bytes = "OLAPCUB2";
    int len = 1 + static_cast<int>(state % 256);
    for (int i = 0; i < len; ++i) bytes.push_back(next());
    WriteFile(scratch, bytes);
    EXPECT_FALSE(LoadCube(scratch).ok());
    LoadOptions recovery;
    recovery.recover = true;
    (void)LoadCube(scratch, recovery);
  }
  std::remove(scratch.c_str());
}

}  // namespace
}  // namespace olap
