#include "storage/simulated_disk.h"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <thread>

#include "common/metrics.h"
#include "common/trace.h"

namespace olap {

namespace {

struct DiskMetrics {
  Counter* physical_reads;
  Counter* cache_hits;
  Counter* evictions;
  Counter* seek_chunks;
  Counter* coalesced_reads;

  static const DiskMetrics& Get() {
    static DiskMetrics m = [] {
      MetricsRegistry& reg = MetricsRegistry::Global();
      return DiskMetrics{reg.counter("disk.reads.physical"),
                         reg.counter("disk.reads.cache_hits"),
                         reg.counter("disk.cache.evictions"),
                         reg.counter("disk.seek_chunks"),
                         reg.counter("disk.coalesced_reads")};
    }();
    return m;
  }
};

}  // namespace

SimulatedDisk::StatStripe& SimulatedDisk::LocalStripe() {
  // One stripe per thread (hashed): a charging thread always lands on the
  // same stripe, so serial charges keep the exact accumulation order the
  // single-mutex implementation had.
  static thread_local size_t slot =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  return stripes_[slot % kStatStripes];
}

void SimulatedDisk::AddSeconds(std::atomic<double>* slot, double delta) {
  double seen = slot->load(std::memory_order_relaxed);
  while (!slot->compare_exchange_weak(seen, seen + delta,
                                      std::memory_order_relaxed)) {
  }
}

double SimulatedDisk::ReadChunk(ChunkId id) {
  const DiskMetrics& metrics = DiskMetrics::Get();
  StatStripe& stripe = LocalStripe();
  int64_t distance;
  int64_t evicted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const int64_t evictions_before = cache_.evictions();
    if (cache_.Touch(id)) {
      stripe.cache_hits.fetch_add(1, std::memory_order_relaxed);
      metrics.cache_hits->Increment();
      return 0.0;
    }
    evicted = cache_.evictions() - evictions_before;
    distance = std::llabs(id - head_);
    head_ = id;
  }
  const double seek =
      std::min(model_.seek_seconds_per_chunk * static_cast<double>(distance),
               model_.max_seek_seconds);
  const double cost = seek + model_.transfer_seconds;
  stripe.physical_reads.fetch_add(1, std::memory_order_relaxed);
  stripe.seek_chunks.fetch_add(distance, std::memory_order_relaxed);
  if (evicted > 0) {
    stripe.evictions.fetch_add(evicted, std::memory_order_relaxed);
    metrics.evictions->Increment(evicted);
  }
  AddSeconds(&stripe.virtual_seconds, cost);
  metrics.physical_reads->Increment();
  metrics.seek_chunks->Increment(distance);
  return cost;
}

double SimulatedDisk::ReadRun(ChunkId begin, int count) {
  if (count <= 0) return 0.0;
  if (count == 1) return ReadChunk(begin);
  const DiskMetrics& metrics = DiskMetrics::Get();
  StatStripe& stripe = LocalStripe();
  int64_t misses = 0;
  int64_t hits = 0;
  int64_t evicted = 0;
  int64_t distance = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const int64_t evictions_before = cache_.evictions();
    ChunkId first_miss = begin;
    ChunkId last_miss = begin;
    for (int i = 0; i < count; ++i) {
      const ChunkId id = begin + i;
      if (cache_.Touch(id)) {
        ++hits;
        continue;
      }
      if (misses == 0) first_miss = id;
      last_miss = id;
      ++misses;
    }
    evicted = cache_.evictions() - evictions_before;
    if (misses > 0) {
      distance = std::llabs(first_miss - head_);
      head_ = last_miss;
    }
  }
  if (hits > 0) {
    stripe.cache_hits.fetch_add(hits, std::memory_order_relaxed);
    metrics.cache_hits->Increment(hits);
  }
  if (evicted > 0) {
    stripe.evictions.fetch_add(evicted, std::memory_order_relaxed);
    metrics.evictions->Increment(evicted);
  }
  if (misses == 0) return 0.0;
  // One contiguous I/O: a single seek to the run's first miss, then the
  // transfer of every missed chunk while the head sweeps forward.
  const double seek =
      std::min(model_.seek_seconds_per_chunk * static_cast<double>(distance),
               model_.max_seek_seconds);
  const double cost =
      seek + model_.transfer_seconds * static_cast<double>(misses);
  stripe.physical_reads.fetch_add(misses, std::memory_order_relaxed);
  stripe.seek_chunks.fetch_add(distance, std::memory_order_relaxed);
  stripe.coalesced_reads.fetch_add(1, std::memory_order_relaxed);
  AddSeconds(&stripe.virtual_seconds, cost);
  metrics.physical_reads->Increment(misses);
  metrics.seek_chunks->Increment(distance);
  metrics.coalesced_reads->Increment();
  return cost;
}

IoStats SimulatedDisk::stats() const {
  IoStats total;
  for (const StatStripe& s : stripes_) {
    total.physical_reads += s.physical_reads.load(std::memory_order_relaxed);
    total.cache_hits += s.cache_hits.load(std::memory_order_relaxed);
    total.evictions += s.evictions.load(std::memory_order_relaxed);
    total.total_seek_chunks += s.seek_chunks.load(std::memory_order_relaxed);
    total.coalesced_reads += s.coalesced_reads.load(std::memory_order_relaxed);
    total.virtual_seconds += s.virtual_seconds.load(std::memory_order_relaxed);
  }
  return total;
}

void SimulatedDisk::ResetStats() {
  for (StatStripe& s : stripes_) {
    s.physical_reads.store(0, std::memory_order_relaxed);
    s.cache_hits.store(0, std::memory_order_relaxed);
    s.evictions.store(0, std::memory_order_relaxed);
    s.seek_chunks.store(0, std::memory_order_relaxed);
    s.coalesced_reads.store(0, std::memory_order_relaxed);
    s.virtual_seconds.store(0.0, std::memory_order_relaxed);
  }
}

void SimulatedDisk::Reset() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    cache_.Clear();
    head_ = 0;
  }
  ResetStats();
}

Status SimulatedDisk::AttachBackingFile(Env* env, const std::string& path) {
  if (env == nullptr) env = Env::Default();
  Result<CubeChunkIndex> index = IndexCubeChunks(env, path);
  if (!index.ok()) return index.status();
  Result<std::unique_ptr<RandomAccessFile>> file = env->NewRandomAccessFile(path);
  if (!file.ok()) return file.status();
  backing_index_ = *std::move(index);
  backing_file_ = *std::move(file);
  return Status::Ok();
}

Result<Chunk> SimulatedDisk::FetchChunk(ChunkId id) {
  TraceSpan span("disk.fetch_chunk");
  if (backing_file_ == nullptr) {
    Status status = Status::FailedPrecondition("no backing file attached");
    span.SetError(status);
    return status;
  }
  ReadChunk(id);  // Charge the cost model (cache hit => no physical read).
  // The actual read runs outside the accounting mutex: the backing file is
  // positional (pread), so concurrent fetches do not interleave state.
  Result<Chunk> chunk = ReadIndexedChunk(backing_file_.get(), backing_index_, id);
  if (!chunk.ok()) {
    static Counter* failures =
        MetricsRegistry::Global().counter("disk.fetch_failures");
    failures->Increment();
    span.SetError(chunk.status());
  }
  return chunk;
}

Result<std::vector<Chunk>> SimulatedDisk::FetchRun(ChunkId begin, int count) {
  if (backing_file_ == nullptr) {
    return Status::FailedPrecondition("no backing file attached");
  }
  ReadRun(begin, count);
  Result<std::vector<Chunk>> chunks =
      ReadIndexedChunkRun(backing_file_.get(), backing_index_, begin, count);
  if (!chunks.ok()) {
    static Counter* failures =
        MetricsRegistry::Global().counter("disk.fetch_failures");
    failures->Increment();
  }
  return chunks;
}

}  // namespace olap
