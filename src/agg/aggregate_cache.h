#ifndef OLAP_AGG_AGGREGATE_CACHE_H_
#define OLAP_AGG_AGGREGATE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "agg/chunk_aggregator.h"
#include "agg/group_by.h"
#include "agg/view_selection.h"
#include "cube/cube.h"

namespace olap {

// Identity of the data a persistent cache's views were aggregated from.
// The engine compares the cache's key against the entry's current state and
// bypasses (rather than serves from) a cache whose key no longer matches:
//   cube_version         bumped per applied edit feed; patched caches bump
//                        in lockstep and stay fresh,
//   scenario_fingerprint ScenarioFingerprint of the transformation the
//                        cached cube went through (0 for a base cube),
//   epoch                validity-set epoch: structural dimension changes
//                        (relocation feeds, splits) re-shape the axes, so
//                        an epoch bump strands every cache built before it.
struct CacheKey {
  uint64_t cube_version = 0;
  uint64_t scenario_fingerprint = 0;
  uint64_t epoch = 0;

  friend bool operator==(const CacheKey& a, const CacheKey& b) {
    return a.cube_version == b.cube_version &&
           a.scenario_fingerprint == b.scenario_fingerprint &&
           a.epoch == b.epoch;
  }
  friend bool operator!=(const CacheKey& a, const CacheKey& b) {
    return !(a == b);
  }
};

// Materialized group-by views for one cube, in the style of Essbase's
// pre-built aggregations (the paper's test cube went from 121M input cells
// to a 20.2 GB footprint "after creation of required aggregations").
//
// Views are flat projections over axis positions (one GroupByResult per
// selected mask, from agg/view_selection.h). A derived cell whose
// coordinates are each either (a) the dimension root or (b) any member
// scope can be answered by summing the smallest materialized view that
// keeps every restricted dimension — usually orders of magnitude fewer
// cells than the leaf scan.
//
// The cache answers queries against the cube it was built from; what-if
// transformations produce different cubes, so the engine bypasses the
// cache for what-if queries.
class AggregateCache {
 public:
  // Materializes the given group-bys of `cube` in one chunk pass.
  // `threads` parallelises the materialization pass (results are
  // bit-identical at every thread count; see ChunkAggregator).
  //
  // `cancel`: a build that observes a stop request abandons the pass; the
  // resulting cache holds garbage partials and must be discarded by the
  // caller (BatchCellEvaluator drops its scratch in exactly this case).
  AggregateCache(const Cube& cube, const std::vector<GroupByMask>& masks,
                 int threads = 1, const CancellationToken& cancel = {});

  // Out-of-core materialization: streams the chunk data from `disk`'s
  // backing file (which must store `cube`) through
  // ChunkAggregator::ComputeOutOfCore at `options.window`. Falls back to
  // the in-memory pass when streaming is unavailable (no backing file) or
  // fails; either way the views are value-equivalent. Exception: a stream
  // abandoned by options.cancel does NOT fall back (no wasted full scan
  // after a cancelled query) — the cache is left empty and must be
  // discarded.
  AggregateCache(const Cube& cube, const std::vector<GroupByMask>& masks,
                 SimulatedDisk* disk,
                 const ChunkAggregator::OutOfCoreOptions& options,
                 int threads = 1);

  // Convenience: HRU-greedy selection of up to `max_views` views.
  static AggregateCache BuildGreedy(const Cube& cube, int max_views);

  // Movable (the atomic counters are carried over by value).
  AggregateCache(AggregateCache&& other) noexcept
      : hits(other.hits.load()),
        misses(other.misses.load()),
        masks_(std::move(other.masks_)),
        views_(std::move(other.views_)),
        root_droppable_(std::move(other.root_droppable_)),
        resident_(std::move(other.resident_)),
        counts_(std::move(other.counts_)),
        incremental_(other.incremental_),
        key_(other.key_),
        capacity_cells_(other.capacity_cells_),
        last_use_(std::move(other.last_use_)),
        use_tick_(other.use_tick_.load()) {}
  AggregateCache& operator=(AggregateCache&&) = delete;
  AggregateCache(const AggregateCache&) = delete;
  AggregateCache& operator=(const AggregateCache&) = delete;

  int num_views() const { return static_cast<int>(views_.size()); }
  const std::vector<GroupByMask>& masks() const { return masks_; }
  const GroupByResult& view(int i) const { return views_[i]; }
  // False once view `i` was evicted or dropped (its GroupByResult is then
  // an empty shell the serving paths skip).
  bool view_resident(int i) const { return resident_[i] != 0; }
  // Total cells held across resident views.
  int64_t TotalCells() const;

  // --- Key-based freshness ------------------------------------------------

  const CacheKey& key() const { return key_; }
  void set_key(const CacheKey& key) { key_ = key; }

  // --- Incremental maintenance (fine-grained invalidation) ----------------

  // Builds the per-cell contribution-count sidecar (one int32 per view
  // cell, one extra chunk pass over `cube`) that makes the Patch* calls
  // below able to restore ⊥ exactly: a view cell whose count returns to
  // zero has no contributing input cells left. Without this, any data edit
  // drops the resident views wholesale (counted as views_dropped).
  void EnableIncrementalMaintenance(const Cube& cube);
  bool incremental() const { return incremental_; }

  // Propagates an in-place chunk swap of the cached cube into every
  // resident view: subtract `before`'s cells (w = -1 through the same SIMD
  // row tiling as the build), add `after`'s (w = +1), then restore ⊥ on
  // cells whose contribution count hit zero. Either chunk pointer may be
  // null (chunk created / erased). Surviving views count toward
  // cache.invalidate.views_kept; a non-incremental cache instead drops its
  // views (cache.invalidate.views_dropped). Exact (not just close) on
  // integer-valued data — see DESIGN.md §14.
  void PatchChunkDelta(const ChunkLayout& layout, ChunkId id,
                       const Chunk* before, const Chunk* after);

  // Single-cell variant for the Database edit feed: the cell at full-rank
  // `coords` went from `old_storage` to `new_storage` (storage encoding,
  // ⊥ = sentinel).
  void PatchCellDelta(const std::vector<int>& coords, double old_storage,
                      double new_storage);

  // Invalidation fallback: marks every resident view non-resident and
  // frees its cells (cache.invalidate.views_dropped). The cache object
  // stays alive so its counters and key survive; lookups miss until a
  // rebuild replaces it.
  void DropResidentViews();

  // --- LRU capacity bound -------------------------------------------------

  // Bounds the resident footprint to `max_cells` view cells (< 0 =
  // unbounded, the default), evicting least-recently-served views first
  // (ties: the costlier view — more cells — goes first) until under the
  // bound. Eviction is counted by cache.evictions. Call from a quiesce
  // point: concurrent TryAnswer readers may still hold pointers into a
  // view being evicted.
  void SetCapacity(int64_t max_cells);
  int64_t capacity_cells() const { return capacity_cells_; }

  // A view may drop dimension d only when summing it in full with unit
  // weights equals the root roll-up: the root's weighted scope must cover
  // every axis position exactly once with weight 1.0. Precomputed at build
  // time; dimensions failing this stay in every ref's needed mask.
  bool root_droppable(int dim) const { return root_droppable_[dim] != 0; }

  // The smallest materialized view whose mask keeps every dimension of
  // `needed`, or nullptr when none covers it.
  const GroupByResult* SmallestCovering(GroupByMask needed) const;

  // Answers `ref` from the smallest covering view, or nullopt when no
  // materialized view keeps every dimension the ref restricts. `cube` must
  // be the cube the cache was built from (used for scope resolution).
  std::optional<CellValue> TryAnswer(const Cube& cube, const CellRef& ref) const;

  // How many answers were served / declined (for tests and benches).
  // Atomic: TryAnswer may run from several evaluation threads.
  mutable std::atomic<int64_t> hits{0};
  mutable std::atomic<int64_t> misses{0};

 private:
  // Evicts LRU views until the resident footprint fits capacity_cells_.
  void EnforceCapacity();
  // Marks view `g` served "now" (relaxed; recency only guides eviction).
  void TouchView(int g) const;

  std::vector<GroupByMask> masks_;
  std::vector<GroupByResult> views_;
  std::vector<char> root_droppable_;  // Per dimension; see root_droppable().
  std::vector<char> resident_;        // Per view; see view_resident().
  // Per view, per cell: number of non-⊥ input cells contributing. Empty
  // until EnableIncrementalMaintenance; evicted views clear theirs.
  std::vector<std::vector<int32_t>> counts_;
  bool incremental_ = false;
  CacheKey key_;
  int64_t capacity_cells_ = -1;  // < 0: unbounded.
  // Per view: use_tick_ value at last serve. Atomic array (not vector):
  // TryAnswer bumps these from several evaluation threads.
  std::unique_ptr<std::atomic<int64_t>[]> last_use_;
  mutable std::atomic<int64_t> use_tick_{0};
};

// The droppability condition behind AggregateCache::root_droppable: true
// when the root's weighted scope of `dim` covers every axis position
// exactly once with weight 1.0. Shared with the batched evaluator.
bool RootScopeIsUnitCover(const Cube& cube, int dim);

}  // namespace olap

#endif  // OLAP_AGG_AGGREGATE_CACHE_H_
