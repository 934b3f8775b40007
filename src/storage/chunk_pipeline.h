#ifndef OLAP_STORAGE_CHUNK_PIPELINE_H_
#define OLAP_STORAGE_CHUNK_PIPELINE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/cancellation.h"
#include "common/status.h"
#include "cube/chunk.h"
#include "cube/chunk_layout.h"
#include "storage/simulated_disk.h"

namespace olap {

// The out-of-core reader's window (DESIGN.md §10): how many schedule
// entries past the first unread one may join its coalesced ranged read,
// and so the most chunks the reader ever buffers. Window 1 is the plain
// per-chunk loop: one read per schedule entry, nothing buffered.
inline constexpr int kReadWindow = 16;

// One coalesced ranged read: chunk ids [begin, begin + count), serving the
// schedule entries at `positions` (ascending; a revisited id serves more
// than one entry).
struct ScheduleRun {
  ChunkId begin = 0;
  int count = 0;
  std::vector<int64_t> positions;
};

// Splits `schedule` into the ranged reads of a windowed reader, in issue
// order. Each run is anchored at the first schedule entry no earlier run
// serves (the head): it is the maximal interval of adjacent chunk ids
// around the head's id among the unserved entries within `window`
// positions of the head, and it serves every such entry. Runs therefore
// never span more than `window` ids, and a reader that hands chunks out
// in schedule order buffers at most `window` of them. Pure and
// deterministic: the plan depends only on (schedule, window).
std::vector<ScheduleRun> PlanScheduleRuns(const std::vector<ChunkId>& schedule,
                                          int window);

// Charges the planned runs of `schedule` to `disk` (one ReadRun each, in
// issue order) without reading data — the perspective-cube read passes.
// Returns the virtual seconds charged. Window 1 charges exactly what a
// ReadChunk per entry does.
double ChargeSchedule(SimulatedDisk* disk, const std::vector<ChunkId>& schedule,
                      int window);

// What one StreamSchedule call did.
struct StreamStats {
  int64_t reads = 0;            // Ranged reads issued.
  int64_t coalesced_reads = 0;  // Reads spanning > 1 chunk.
  int64_t peak_buffered = 0;    // Most chunks held at once (<= window).
};

// Streams the chunks of `schedule` from `disk`'s backing file to `fn`,
// strictly in schedule order, on the calling thread. Each planned run is
// one FetchRun — the ReadRun charge plus one ranged, CRC-verified read —
// inside a `pipeline.fetch_batch` span; chunks a run fetched ahead of
// their turn wait in a buffer of at most `window` chunks. `cancel` is
// polled before every read.
//
// Returns the first read error or the token's stop status; `fn` has then
// seen a prefix of the schedule. The data handed to `fn`, the charges and
// the resulting SimulatedDisk stats are identical on every run and
// thread count; the data is the same at every window.
Status StreamSchedule(SimulatedDisk* disk, const std::vector<ChunkId>& schedule,
                      int window, const CancellationToken& cancel,
                      const std::function<void(ChunkId, const Chunk&)>& fn,
                      StreamStats* stats = nullptr);

}  // namespace olap

#endif  // OLAP_STORAGE_CHUNK_PIPELINE_H_
