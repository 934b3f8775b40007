#ifndef OLAP_TESTS_V1_CUBE_FILE_H_
#define OLAP_TESTS_V1_CUBE_FILE_H_

// Test-only writer for the legacy OLAPCUB1 format, which the engine still
// reads (LoadCube) but no longer writes. The v1 stream carries the same
// schema, layout and chunk payload encodings as OLAPCUB2 with lighter
// framing, so the v1 bytes are rebuilt from a freshly saved v2 file:
//
//   v2: magic | flags u32 | header crc u32 | schema (u64 len, bytes, crc)
//       | layout (u64 len, bytes, crc) | chunk count u64 | dir crc u32
//       | per chunk: id u64, nbytes u32, payload, crc u32
//   v1: magic | flags u32 | schema bytes | layout bytes | chunk count u64
//       | per chunk: id u64, [nbytes u32 when compressed], payload

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>

#include "cube/cube.h"
#include "storage/cube_io.h"
#include "storage/env.h"

namespace olap::testing_v1 {

// Rebuilds the OLAPCUB1 encoding of a well-formed OLAPCUB2 byte string.
inline std::string V1BytesFromV2(std::string_view v2) {
  size_t pos = 0;
  auto take = [&](size_t n) {
    std::string_view out = v2.substr(pos, n);
    pos += n;
    return out;
  };
  auto u32 = [&] {
    uint32_t v = 0;
    std::memcpy(&v, take(4).data(), 4);
    return v;
  };
  auto u64 = [&] {
    uint64_t v = 0;
    std::memcpy(&v, take(8).data(), 8);
    return v;
  };
  auto section = [&] {
    const uint64_t length = u64();
    std::string_view payload = take(static_cast<size_t>(length));
    u32();  // Section CRC.
    return payload;
  };

  take(8);  // "OLAPCUB2".
  const uint32_t flags = u32();
  u32();  // Header CRC.
  const std::string_view schema = section();
  const std::string_view layout = section();
  const uint64_t num_chunks = u64();
  u32();  // Directory CRC.

  std::string out("OLAPCUB1", 8);
  out.append(reinterpret_cast<const char*>(&flags), 4);
  out.append(schema);
  out.append(layout);
  out.append(reinterpret_cast<const char*>(&num_chunks), 8);
  for (uint64_t c = 0; c < num_chunks; ++c) {
    const uint64_t id = u64();
    const uint32_t nbytes = u32();
    const std::string_view payload = take(nbytes);
    u32();  // Record CRC.
    out.append(reinterpret_cast<const char*>(&id), 8);
    if (flags == 1) out.append(reinterpret_cast<const char*>(&nbytes), 4);
    out.append(payload);
  }
  return out;
}

// Writes `cube` to `path` as an OLAPCUB1 file.
inline Status SaveCubeV1(const Cube& cube, const std::string& path,
                         bool compress) {
  const std::string v2_path = path + ".v2";
  SaveOptions options;
  options.compress = compress;
  options.sync = false;
  OLAP_RETURN_IF_ERROR(SaveCube(cube, v2_path, options));
  std::string v2;
  Status read = Env::Default()->ReadFileToString(v2_path, &v2);
  std::remove(v2_path.c_str());
  OLAP_RETURN_IF_ERROR(read);
  const std::string v1 = V1BytesFromV2(v2);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(v1.data(), static_cast<std::streamsize>(v1.size()));
  return out.good() ? Status::Ok() : Status::Internal("cannot write " + path);
}

}  // namespace olap::testing_v1

#endif  // OLAP_TESTS_V1_CUBE_FILE_H_
