#ifndef OLAP_AGG_BATCH_EVAL_H_
#define OLAP_AGG_BATCH_EVAL_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "agg/aggregate_cache.h"
#include "agg/group_by.h"
#include "agg/lattice.h"
#include "cube/cube.h"
#include "storage/simulated_disk.h"

namespace olap {

// Batched cover-view evaluation of derived cells (the paper's Sec. 5
// strategy applied to result grids): instead of re-scanning overlapping
// leaf scopes once per grid cell, the evaluator
//
//  1. collects the needed-dimension mask of every derived CellRef the grid
//     will evaluate (PrepareGrid / PrepareRefs),
//  2. plans the set of GroupByMask subtotal views that cover those masks —
//     skipping masks a persistent AggregateCache already materializes,
//     over-budget masks, and the full-rank mask (whose view is the raw
//     cube) — and
//  3. materializes the planned views in one chunk-native ChunkAggregator
//     pass (a per-query *scratch* AggregateCache, which is how what-if
//     queries get aggregate reuse: the scratch views are built on the
//     transformed cube), then
//  4. serves each derived cell as a weighted sum over the smallest
//     covering view; cells no view covers fall back to the leaf roll-up.
//
// Evaluate(ref) returns exactly what EvaluateCell(data, ref) returns for
// every ref, up to floating-point summation order (the sums are
// re-associated; on integer-valued data, where double addition is exact,
// results are bit-identical — asserted by bench and the randomized
// equivalence suite). Evaluate is const and thread-safe: the scope cache
// and views are read-only after Prepare*.
struct BatchEvalOptions {
  // Parallelism of the view-materialization pass (never affects values).
  int threads = 1;
  // A mask whose dense view exceeds this many cells is not materialized;
  // its refs use the residual leaf roll-up instead.
  int64_t max_view_cells = int64_t{1} << 22;
  // At most this many scratch views per plan (kept by descending ref
  // count).
  int max_views = 32;
  // Masks needed by fewer refs than this are not worth a dedicated
  // materialization pass share; they fall to covering views or residual.
  int64_t min_refs_per_view = 2;
  // Out-of-core scratch materialization: when non-null, the disk must have
  // a backing file storing the evaluator's data cube, and the scratch
  // views are built by streaming chunks from it in coalesced ranged reads
  // (ChunkAggregator::ComputeOutOfCore at kReadWindow) instead of scanning
  // the in-memory chunk map. Falls back to the in-memory pass if streaming
  // fails.
  SimulatedDisk* out_of_core_disk = nullptr;
  // Cooperative cancellation, threaded into the materialization pass and
  // its chunk stream. A Prepare* that observes a stop request publishes NO
  // scratch views (the cache is never left partially materialized); the
  // evaluator itself stays usable on the per-cell path.
  CancellationToken cancel;
  // Memory-accountant hooks, wired by the engine to the query's governor
  // (all may be empty). try_reserve_cells(total_view_cells) is asked
  // before scratch materialization; a denial skips the whole scratch plan
  // — refs fall back to per-cell evaluation — and is reported through
  // on_degrade("batched_eval_off"). The reservation is returned via
  // release_cells when the evaluator dies.
  std::function<bool(int64_t)> try_reserve_cells;
  std::function<void(int64_t)> release_cells;
  std::function<void(const char*)> on_degrade;
};

class BatchCellEvaluator {
 public:
  // `persistent` (nullable) is a cache built from `data` — its views serve
  // cells directly and suppress redundant scratch materialization. Both
  // references must outlive the evaluator.
  BatchCellEvaluator(const Cube& data, const AggregateCache* persistent,
                     const BatchEvalOptions& options = BatchEvalOptions());
  // Returns any scratch-view budget reservation through
  // options.release_cells.
  ~BatchCellEvaluator();

  // Plans and materializes cover views for a result grid: every cell ref is
  // `base` with one row tuple's (dimension, coordinate) overrides applied,
  // then one column tuple's — the executor's construction order, so
  // conflicting dimensions resolve identically.
  void PrepareGrid(
      const CellRef& base,
      const std::vector<std::vector<std::pair<int, AxisRef>>>& row_overrides,
      const std::vector<std::vector<std::pair<int, AxisRef>>>& col_overrides);

  // Plans and materializes cover views for an explicit list of refs (the
  // MDX binder's FILTER/ORDER tuple evaluation).
  void PrepareRefs(const std::vector<CellRef>& refs);

  const Cube& data() const { return data_; }

  // The per-query scratch cache, or nullptr when the plan needed no scratch
  // views (everything leaf, covered by `persistent`, or over budget).
  const AggregateCache* scratch() const {
    return scratch_.has_value() ? &*scratch_ : nullptr;
  }

  // Scratch views materialized by Prepare*. Scenario comparison reports
  // this as the number of cover views shared across the compared scenarios.
  int num_scratch_views() const {
    return scratch_.has_value() ? scratch_->num_views() : 0;
  }

  // Thread-safe; value-equivalent to EvaluateCell(data(), ref).
  CellValue Evaluate(const CellRef& ref) const;

 private:
  struct ScopeEntry {
    std::vector<std::pair<int, double>> positions;
  };
  // A tuple's effect on the needed-dimension mask: bits it overrides and
  // the values it sets them to.
  struct MaskPatch {
    GroupByMask clear = 0;
    GroupByMask set = 0;
  };

  const ScopeEntry& ScopeOf(int dim, const AxisRef& ref);
  bool NeedsBit(int dim, const AxisRef& ref) const;
  MaskPatch PatchFor(const std::vector<std::pair<int, AxisRef>>& overrides);
  void PlanAndMaterialize(
      const std::unordered_map<GroupByMask, int64_t>& mask_counts);

  const Cube& data_;
  const AggregateCache* persistent_;
  BatchEvalOptions options_;
  std::vector<char> root_droppable_;  // Per dimension.
  // (member, instance) -> weighted scope, one map per dimension. Filled
  // during Prepare*, read-only afterwards.
  std::vector<std::unordered_map<uint64_t, ScopeEntry>> scopes_;
  std::optional<AggregateCache> scratch_;
  int64_t reserved_cells_ = 0;  // Outstanding governor reservation.
};

}  // namespace olap

#endif  // OLAP_AGG_BATCH_EVAL_H_
