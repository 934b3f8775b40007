#ifndef OLAP_AGG_CHUNK_AGGREGATOR_H_
#define OLAP_AGG_CHUNK_AGGREGATOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "agg/group_by.h"
#include "agg/lattice.h"
#include "common/cancellation.h"
#include "cube/cube.h"
#include "storage/chunk_pipeline.h"
#include "storage/simulated_disk.h"

namespace olap {

// Statistics from one aggregation pass.
struct AggStats {
  int64_t chunks_visited = 0;   // Chunk-grid cells traversed.
  int64_t chunks_read = 0;      // Chunks that actually held data.
  int64_t cells_scanned = 0;    // Non-⊥ input cells.
  int64_t mmst_memory_cells = 0;  // Analytic Zhao memory bound for the pass.
  // The accumulation plan that ran (DESIGN.md §7): the slab plan's
  // dimension, or -1 for the partial plan; and its number of work units.
  int slab_dim = -1;
  int64_t work_units = 0;
};

// Simple whole-cube scanner: visits every stored cell once and projects it
// onto each requested group-by. The oracle against which ChunkAggregator is
// tested.
class NaiveAggregator {
 public:
  // Computes the requested group-bys of `cube` (sum over dropped dims).
  static std::vector<GroupByResult> Compute(const Cube& cube,
                                            const std::vector<GroupByMask>& masks);
};

// Zhao-style aggregator: reads chunks in an explicit dimension order
// (order[0] varies fastest) and accumulates every requested group-by in one
// pass. Optionally charges each chunk read to a SimulatedDisk.
//
// The numeric results are identical to NaiveAggregator (tested); what the
// dimension order changes is the I/O pattern and the analytic memory bound
// (AggStats::mmst_memory_cells) — which is what the paper's Lemma 5.1
// argument and the Zhao MMST are about.
class ChunkAggregator {
 public:
  explicit ChunkAggregator(const Cube& cube) : cube_(cube) {}

  // `order`: permutation of dimensions; order[0] is read fastest.
  // `disk` may be null.
  //
  // The stored chunks (in traversal order) are accumulated under one
  // workload-only plan (never dependent on `threads`; DESIGN.md §7):
  //   - the slab plan, when every mask keeps some dimension d and d has
  //     more than one chunk slab and at least as many as the partial plan
  //     has partitions (and the work clears the partitioning floor): the
  //     visit list is cut into groups of contiguous slabs along d, and
  //     each group accumulates straight into the shared output views.
  //     Different slabs write disjoint output cells, so each cell receives
  //     its inputs in exactly the serial visit order — bitwise equal to
  //     the serial pass, on fractional data too;
  //   - otherwise the partial plan: contiguous partitions of the visit
  //     list fill private partials, merged in ascending partition order.
  // `threads` > 1 runs the units on the shared pool; results are
  // bit-identical at every thread count either way, and stats() reports
  // which plan ran. Stats and disk charging come from a serial traversal
  // pre-pass and are likewise unchanged.
  //
  // `cancel` is polled at chunk/unit granularity. A pass that observes a
  // stop request returns early with *incomplete* results — the caller owns
  // checking the token afterwards and must discard the result (never
  // publish it into a cache).
  std::vector<GroupByResult> Compute(const std::vector<GroupByMask>& masks,
                                     const std::vector<int>& order,
                                     SimulatedDisk* disk = nullptr,
                                     int threads = 1,
                                     const CancellationToken& cancel = {});

  // Out-of-core variant: reads the chunk data from `disk`'s backing file
  // (which must store this aggregator's cube) instead of the in-memory
  // chunk map. The traversal order and the plan are Compute's (the work
  // estimate counts whole chunks, since cells are unknown before the
  // read), so the result is bit-identical at every window and thread
  // count. A pass charges before it reads: the calling thread charges the
  // whole visit schedule with ChargeSchedule (storage/chunk_pipeline.h) —
  // the runs, IoStats and modeled seconds a serial stream would produce —
  // then each plan unit streams its own sub-schedule through uncharged,
  // CRC-verified ReadBackingRun reads, on the pool when `threads` > 1.
  // Window 1 is the per-chunk read loop; larger windows coalesce adjacent
  // chunk ids into single ranged reads. A failed or cancelled pass has
  // therefore already charged its whole schedule.
  // kFailedPrecondition without a backing file; read errors propagate (the
  // first unit to fail stops the others) — except kResourceExhausted at
  // window > 1, which takes the sync_io rung of the degradation ladder
  // first: the whole pass restarts at window 1, and only a still-failing
  // per-chunk pass surfaces the error. The retry restarts accumulation
  // from scratch, so the delivered numbers are exactly the successful
  // pass's (bit-identical to an undegraded run). The rung is reported
  // through `on_degrade` and agg.outofcore.sync_fallbacks.
  struct OutOfCoreOptions {
    // Read window of the stream (kReadWindow; 1 = one read per chunk).
    int window = kReadWindow;
    // Polled before every read of every unit. On a stop request
    // ComputeOutOfCore returns kCancelled/kDeadlineExceeded (cancellation
    // is terminal: the ladder does not retry it).
    CancellationToken cancel;
    // Ladder-step callback ("sync_io"); the engine wires this to
    // QueryContext::RecordDegradation. May be empty.
    std::function<void(const char*)> on_degrade;
  };
  Result<std::vector<GroupByResult>> ComputeOutOfCore(
      const std::vector<GroupByMask>& masks, const std::vector<int>& order,
      SimulatedDisk* disk, const OutOfCoreOptions& options, int threads = 1);

  const AggStats& stats() const { return stats_; }

 private:
  const Cube& cube_;
  AggStats stats_;
};

// Accumulates every non-⊥ cell of `chunk` (chunk id `id` of `layout`) into
// each group-by of `out` in row-major offset order, maintaining one
// incrementally-updated output index per group-by (no per-cell coordinate
// vectors). Padded cells beyond the layout extents are always ⊥, so the
// null check alone keeps them out. Shared by ChunkAggregator and the
// batched derived-cell evaluator.
void AccumulateChunkIntoGroupBys(const ChunkLayout& layout, ChunkId id,
                                 const Chunk& chunk,
                                 std::vector<GroupByResult>* out);

// Single-view weighted variant for delta maintenance: accumulates
// `weight` * every non-⊥ cell of `chunk` into `view` (⊥-aware; a ⊥ output
// cell becomes the weighted value), through the same row-tiled kernel
// dispatch as AccumulateChunkIntoGroupBys. With w = -1 this is exact
// subtraction on integer-valued data (fma(-1, x, s) = s - x), which is how
// AggregateCache patches resident views after a chunk swap: subtract the
// old chunk, add the new one.
//
// `counts` (nullable): per-view-cell contribution counters, bumped by
// sign(weight) per non-⊥ input cell — the bookkeeping that lets the caller
// restore ⊥ when a cell's last contribution disappears. Pass
// update_values=false to maintain only the counters (the sidecar build
// pass of AggregateCache::EnableIncrementalMaintenance).
void AccumulateChunkIntoGroupByWeighted(const ChunkLayout& layout, ChunkId id,
                                        const Chunk& chunk, double weight,
                                        GroupByResult* view, int32_t* counts,
                                        bool update_values = true);

// Helper shared with the engine: makes one GroupByResult shell for `mask`
// over `cube`'s position extents.
GroupByResult MakeGroupByShell(const Cube& cube, GroupByMask mask);

}  // namespace olap

#endif  // OLAP_AGG_CHUNK_AGGREGATOR_H_
