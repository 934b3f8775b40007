#ifndef OLAP_STORAGE_SIMULATED_DISK_H_
#define OLAP_STORAGE_SIMULATED_DISK_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "cube/chunk.h"
#include "cube/chunk_layout.h"
#include "storage/cube_io.h"
#include "storage/lru_cache.h"

namespace olap {

// Cost model of a rotating disk holding the cube's chunks contiguously in
// chunk-id order.
//
// The paper's Fig. 12 experiment measures query time against the physical
// separation of two related chunks on a real 20 GB cube: elapsed time grows
// with separation and then flattens "because disk seek time eventually
// becomes a constant overhead". We reproduce that mechanism directly: the
// cost of reading a chunk is a transfer cost plus a seek cost that grows
// linearly with head travel distance and saturates at the full-stroke seek
// time. (Documented substitution — see DESIGN.md §2.)
struct DiskModel {
  // Seconds of head travel per chunk of distance.
  double seek_seconds_per_chunk = 2e-7;
  // Full-stroke seek time; seek cost saturates here.
  double max_seek_seconds = 8e-3;
  // Fixed cost to transfer one chunk.
  double transfer_seconds = 1e-4;
};

// Read/seek statistics accumulated by a SimulatedDisk.
struct IoStats {
  int64_t physical_reads = 0;
  int64_t cache_hits = 0;
  int64_t evictions = 0;          // LRU entries displaced by misses.
  int64_t total_seek_chunks = 0;  // Sum of head travel distances.
  int64_t coalesced_reads = 0;    // Ranged accesses spanning > 1 chunk.
  double virtual_seconds = 0.0;   // Total simulated I/O time.
};

// Charges virtual I/O time for chunk accesses, with an LRU cache in front.
// The engine's evaluation strategies call ReadChunk for every chunk they
// visit; benchmarks read stats().virtual_seconds as the modeled I/O time.
//
// Thread-safe. The cache and head position are inherently sequential (the
// cost of an access depends on the previous one), so they stay behind one
// mutex — but the critical section is just the cache touch and the
// head/seek arithmetic. Statistics accumulate in cache-line-padded stripes
// of relaxed atomics outside the lock and are merged on demand by stats(),
// so parallel fetches do not serialise on stats accounting. The engine's
// out-of-core reader (storage/chunk_pipeline.h) charges from one thread in
// a plan fixed by the schedule, so its virtual seconds and seek totals are
// the same on every run.
//
// Optionally backed by a real OLAPCUB2 cube file via AttachBackingFile:
// FetchChunk/FetchRun then route cache misses through the Env as ranged,
// CRC-verified reads of the file's chunk records (storage/cube_io.h) while
// charging the same cost model — the out-of-core read path of the engine.
class SimulatedDisk {
 public:
  SimulatedDisk(const DiskModel& model, int64_t cache_capacity_chunks)
      : model_(model), cache_(cache_capacity_chunks) {}

  // Accounts for accessing chunk `id`; returns the virtual seconds charged
  // (0 on a cache hit).
  double ReadChunk(ChunkId id);

  // Accounts for ONE coalesced ranged access covering chunks
  // [begin, begin + count): ids resident in the cache are hits; the misses
  // are charged a single seek (head to the first miss) plus one transfer
  // each, and the head finishes on the last miss — the cost contract of a
  // single contiguous I/O, which is what makes coalescing adjacent chunk
  // ids worth it under the Fig. 12 seek model. Returns the seconds charged
  // (0 when every id hits).
  double ReadRun(ChunkId begin, int count);

  // Indexes the OLAPCUB2 file at `path` and keeps it open for FetchChunk.
  // `env` nullptr -> Env::Default(); must outlive this disk.
  Status AttachBackingFile(Env* env, const std::string& path);
  bool has_backing() const { return backing_file_ != nullptr; }
  // The backing file's chunk index (valid while has_backing()).
  const CubeChunkIndex& backing_index() const { return backing_index_; }

  // Reads chunk `id` from the backing file (CRC-verified), charging the
  // cost model exactly as ReadChunk does. kFailedPrecondition without a
  // backing file; kNotFound if the file stores no such chunk; kDataLoss on
  // checksum mismatch.
  Result<Chunk> FetchChunk(ChunkId id);

  // Ranged fetch: charges ReadRun(begin, count) and reads the chunks'
  // records with one ranged, CRC-verified file read (positional, so
  // concurrent calls are safe). kNotFound if any id in the range is not
  // stored.
  Result<std::vector<Chunk>> FetchRun(ChunkId begin, int count);

  // A merged snapshot of the counters (safe while other threads read;
  // exact once concurrent readers have quiesced).
  IoStats stats() const;
  void ResetStats();
  // Drops cache contents, resets the head to chunk 0 and zeroes the stats.
  void Reset();

  const DiskModel& model() const { return model_; }

 private:
  // Per-stripe statistics, padded to a cache line so concurrent fetch
  // threads don't false-share. Stripes are picked by thread identity;
  // totals are exact because every field is a commutative sum. The virtual
  // time accumulates per-stripe as a double (serial charging stays on one
  // stripe, preserving the exact pre-striping sums) and merges in
  // ascending stripe order.
  struct alignas(64) StatStripe {
    std::atomic<int64_t> physical_reads{0};
    std::atomic<int64_t> cache_hits{0};
    std::atomic<int64_t> evictions{0};
    std::atomic<int64_t> seek_chunks{0};
    std::atomic<int64_t> coalesced_reads{0};
    std::atomic<double> virtual_seconds{0.0};
  };
  static constexpr int kStatStripes = 8;

  StatStripe& LocalStripe();
  static void AddSeconds(std::atomic<double>* slot, double delta);

  DiskModel model_;
  mutable std::mutex mu_;  // Guards cache_ and head_ only.
  LruChunkCache cache_;
  ChunkId head_ = 0;
  std::array<StatStripe, kStatStripes> stripes_;
  std::unique_ptr<RandomAccessFile> backing_file_;
  CubeChunkIndex backing_index_;
};

}  // namespace olap

#endif  // OLAP_STORAGE_SIMULATED_DISK_H_
