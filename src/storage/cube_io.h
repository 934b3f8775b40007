#ifndef OLAP_STORAGE_CUBE_IO_H_
#define OLAP_STORAGE_CUBE_IO_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/status.h"
#include "cube/cube.h"
#include "storage/env.h"
#include "storage/retry.h"

namespace olap {

// Binary persistence for cubes: the full schema (dimensions, hierarchies,
// varying/parameter wiring, member instances with validity sets), the
// chunk layout, and every stored chunk's cells.
//
// ## OLAPCUB2 on-disk layout (little-endian)
//
//   offset 0   magic        "OLAPCUB2"                          8 bytes
//              flags        u32  (bit 0: chunk payloads use the ⊥-run-
//                                 length codec of storage/compression.h)
//              header_crc   u32  = CRC32C(magic ‖ flags)
//   SCHEMA     length       u64  (payload bytes)
//    section   payload      dimensions, members, instances, validity sets
//              crc          u32  = CRC32C("SCHM" ‖ length ‖ payload)
//   LAYOUT     length       u64
//    section   payload      u32 rank, i32 chunk_size per dimension
//              crc          u32  = CRC32C("LAYT" ‖ length ‖ payload)
//   CHUNK      num_chunks   u64
//    directory crc          u32  = CRC32C("CDIR" ‖ num_chunks)
//   chunk      id           u64
//    records   nbytes       u32  (payload bytes; raw = cells × 8)
//    (× num)   payload      raw doubles or compressed bytes
//              crc          u32  = CRC32C("CHNK" ‖ id ‖ nbytes ‖ payload)
//
// Every byte of the file is covered by exactly one CRC32C (the section
// tags are folded into the checksum domain but not written), so any
// single-byte flip or truncation is detected. Fixed-size chunk-record
// framing makes chunks independently verifiable: recovery mode salvages
// every record whose CRC checks out, and the chunk index supports random
// chunk reads without loading the cube (see SimulatedDisk backing files).
//
// ## Durability protocol
//
// SaveCube never touches `path` in place: it writes `path.tmp`, fsyncs,
// closes, then renames over `path` (POSIX rename atomicity). A crash at
// any point leaves either the complete old file or the complete new file.
//
// ## Version 1 compatibility
//
// Files with magic "OLAPCUB1" (no checksums, unframed chunk records) are
// still read; LoadCube detects the version from the magic. Saves always
// write OLAPCUB2 (the tests rebuild v1 bytes from it to keep
// read-compatibility covered). LoadCube rejects unknown
// magics with kInvalidArgument and any corruption with kDataLoss — it
// returns a typed Status on every malformed input, never crashes.

// Number of chunk records inspected/salvaged by a LoadCube call (recovery
// reporting; all zero when loading a v1 file strictly).
struct RecoveryReport {
  int64_t chunks_total = 0;     // Records present in the directory.
  int64_t chunks_salvaged = 0;  // Records decoded with a valid CRC.
  int64_t chunks_dropped = 0;   // Records skipped in recovery mode.
};

struct SaveOptions {
  bool compress = false;
  // fsync before the final rename. Disable only where durability does not
  // matter (benchmarks).
  bool sync = true;
  Env* env = nullptr;  // nullptr -> Env::Default().
};

struct LoadOptions {
  // Best-effort mode: salvage every chunk whose CRC verifies instead of
  // failing on the first corrupt record. Schema/layout corruption is never
  // recoverable (there is nothing to attach chunks to).
  bool recover = false;
  RecoveryReport* report = nullptr;  // Optional out-param.
  Env* env = nullptr;                // nullptr -> Env::Default().
};

Status SaveCube(const Cube& cube, const std::string& path,
                const SaveOptions& options);
inline Status SaveCube(const Cube& cube, const std::string& path,
                       bool compress = false) {
  SaveOptions options;
  options.compress = compress;
  return SaveCube(cube, path, options);
}

Result<Cube> LoadCube(const std::string& path, const LoadOptions& options);
inline Result<Cube> LoadCube(const std::string& path) {
  return LoadCube(path, LoadOptions{});
}

// LoadCube wrapped in the bounded-backoff retry policy: transient faults
// (kUnavailable, kResourceExhausted) are retried, everything else returns
// immediately. `clock` nullptr -> Clock::Real().
Result<Cube> LoadCubeWithRetry(const std::string& path,
                               const LoadOptions& options,
                               const RetryPolicy& policy,
                               Clock* clock = nullptr);

// Index of the chunk records of an OLAPCUB2 file: enough to fetch and
// CRC-verify one chunk with a single ranged read, without materializing
// the cube. Built by reading only the file's framing (header, schema/
// layout lengths, chunk record headers) — O(num_chunks) small reads.
struct CubeChunkIndex {
  bool compressed = false;
  int64_t cells_per_chunk = 0;
  struct Entry {
    int64_t payload_offset = 0;  // File offset of the record's payload.
    uint32_t nbytes = 0;         // Payload length.
  };
  std::map<ChunkId, Entry> entries;
};

Result<CubeChunkIndex> IndexCubeChunks(Env* env, const std::string& path);

// Reads, CRC-verifies and decodes one indexed chunk. kNotFound if the file
// stores no such chunk; kDataLoss on checksum mismatch.
Result<Chunk> ReadIndexedChunk(RandomAccessFile* file,
                               const CubeChunkIndex& index, ChunkId id);

// Reads chunks [begin, begin + count) with ONE ranged file read covering
// their records, then CRC-verifies and decodes each. The writer emits
// chunk records in ascending id order, so a run of consecutively-stored
// ids is physically contiguous; if the records turn out not to be back to
// back (ids missing in between), this falls back to per-chunk reads —
// the result is the same either way. kNotFound if any id is unstored.
Result<std::vector<Chunk>> ReadIndexedChunkRun(RandomAccessFile* file,
                                               const CubeChunkIndex& index,
                                               ChunkId begin, int count);

// Size of the file at `path`, in bytes (for reporting).
Result<int64_t> FileSize(const std::string& path, Env* env = nullptr);

}  // namespace olap

#endif  // OLAP_STORAGE_CUBE_IO_H_
