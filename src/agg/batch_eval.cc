#include "agg/batch_eval.h"

#include <algorithm>

#include "agg/rollup.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace olap {

namespace {

// Batched-evaluation accounting. Every counter is a deterministic function
// of the query (never of the thread count); the stats contract suite
// asserts the closure refs == leaf + view_served + residual + null_scope.
struct BatchMetrics {
  Counter* plans;
  Counter* views_materialized;
  Counter* view_cells;
  Counter* refs;
  Counter* leaf;
  Counter* view_served;
  Counter* residual;
  Counter* null_scope;

  static const BatchMetrics& Get() {
    static BatchMetrics m = [] {
      MetricsRegistry& reg = MetricsRegistry::Global();
      return BatchMetrics{reg.counter("agg.batch.plans"),
                          reg.counter("agg.batch.views_materialized"),
                          reg.counter("agg.batch.view_cells"),
                          reg.counter("agg.batch.refs"),
                          reg.counter("agg.batch.leaf"),
                          reg.counter("agg.batch.view_served"),
                          reg.counter("agg.batch.residual"),
                          reg.counter("agg.batch.null_scope")};
    }();
    return m;
  }
};

// Shares the counter names (and the lookups == hits + misses closure) with
// AggregateCache::TryAnswer.
struct SharedCacheMetrics {
  Counter* lookups;
  Counter* hits;
  Counter* misses;

  static const SharedCacheMetrics& Get() {
    static SharedCacheMetrics m = [] {
      MetricsRegistry& reg = MetricsRegistry::Global();
      return SharedCacheMetrics{reg.counter("agg.cache.lookups"),
                                reg.counter("agg.cache.hits"),
                                reg.counter("agg.cache.misses")};
    }();
    return m;
  }
};

uint64_t ScopeKey(const AxisRef& ref) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(ref.member)) << 32) |
         static_cast<uint64_t>(static_cast<uint32_t>(ref.instance));
}

// Weighted sum of `view` over the cross product of per-kept-dimension
// scopes, via direct strided indexing. ⊥ view cells are skipped; the sum of
// only-⊥ cells is ⊥ — matching SumOverScopeWeighted on the leaves, because
// a view cell is ⊥ exactly when every leaf in its fiber is ⊥.
CellValue WeightedViewSum(
    const GroupByResult& view,
    const std::vector<const std::vector<std::pair<int, double>>*>& scopes) {
  const std::vector<int64_t>& strides = view.strides();
  const double* cells = view.raw_cells();  // Sentinel-encoded, no round-trip.
  const size_t k = scopes.size();
  CellValue sum;
  std::vector<int> idx(k, 0);
  while (true) {
    int64_t index = 0;
    double weight = 1.0;
    for (size_t i = 0; i < k; ++i) {
      const auto& [pos, w] = (*scopes[i])[idx[i]];
      index += pos * strides[i];
      weight *= w;
    }
    const double v = cells[index];
    if (!CellValue::IsStorageNull(v)) sum += CellValue(v * weight);
    size_t d = k;
    bool done = true;
    while (d-- > 0) {
      if (++idx[d] < static_cast<int>(scopes[d]->size())) {
        done = false;
        break;
      }
      idx[d] = 0;
    }
    if (k == 0 || done) break;
  }
  return sum;
}

}  // namespace

BatchCellEvaluator::BatchCellEvaluator(const Cube& data,
                                       const AggregateCache* persistent,
                                       const BatchEvalOptions& options)
    : data_(data), persistent_(persistent), options_(options) {
  root_droppable_.resize(data_.num_dims());
  for (int d = 0; d < data_.num_dims(); ++d) {
    root_droppable_[d] = persistent_ != nullptr
                             ? (persistent_->root_droppable(d) ? 1 : 0)
                             : (RootScopeIsUnitCover(data_, d) ? 1 : 0);
  }
  scopes_.resize(data_.num_dims());
}

BatchCellEvaluator::~BatchCellEvaluator() {
  if (reserved_cells_ > 0 && options_.release_cells) {
    options_.release_cells(reserved_cells_);
  }
}

const BatchCellEvaluator::ScopeEntry& BatchCellEvaluator::ScopeOf(
    int dim, const AxisRef& ref) {
  auto [it, inserted] = scopes_[dim].try_emplace(ScopeKey(ref));
  if (inserted) {
    // A ref from a wider (what-if augmented) schema — e.g. an introduced
    // member evaluated non-visually against the input cube — is unknown
    // here. Leave its scope empty: the perspective cube evaluates such
    // refs on its output cube and never serves them from this evaluator.
    const Dimension& d = data_.schema().dimension(dim);
    const bool in_schema =
        ref.member >= 0 && ref.member < d.num_members() &&
        (ref.instance == kInvalidInstance || ref.instance < d.num_instances());
    if (in_schema) {
      it->second.positions = data_.PositionsUnderWeighted(dim, ref);
    }
  }
  return it->second;
}

bool BatchCellEvaluator::NeedsBit(int dim, const AxisRef& ref) const {
  if (ref.instance != kInvalidInstance) return true;
  if (ref.member != data_.schema().dimension(dim).root()) return true;
  return root_droppable_[dim] == 0;
}

BatchCellEvaluator::MaskPatch BatchCellEvaluator::PatchFor(
    const std::vector<std::pair<int, AxisRef>>& overrides) {
  MaskPatch patch;
  for (const auto& [dim, ref] : overrides) {
    const GroupByMask bit = GroupByMask{1} << dim;
    patch.clear |= bit;
    if (NeedsBit(dim, ref)) {
      patch.set |= bit;
    } else {
      patch.set &= ~bit;  // A later override of the same dimension wins.
    }
    ScopeOf(dim, ref);  // Warm the scope cache for evaluation time.
  }
  return patch;
}

void BatchCellEvaluator::PrepareGrid(
    const CellRef& base,
    const std::vector<std::vector<std::pair<int, AxisRef>>>& row_overrides,
    const std::vector<std::vector<std::pair<int, AxisRef>>>& col_overrides) {
  GroupByMask base_mask = 0;
  for (int d = 0; d < data_.num_dims(); ++d) {
    if (NeedsBit(d, base[d])) base_mask |= GroupByMask{1} << d;
    ScopeOf(d, base[d]);
  }
  std::vector<MaskPatch> row_patches, col_patches;
  row_patches.reserve(row_overrides.size());
  for (const auto& o : row_overrides) row_patches.push_back(PatchFor(o));
  col_patches.reserve(col_overrides.size());
  for (const auto& o : col_overrides) col_patches.push_back(PatchFor(o));

  std::unordered_map<GroupByMask, int64_t> mask_counts;
  for (const MaskPatch& r : row_patches) {
    const GroupByMask row_mask = (base_mask & ~r.clear) | r.set;
    for (const MaskPatch& c : col_patches) {
      mask_counts[(row_mask & ~c.clear) | c.set] += 1;
    }
  }
  PlanAndMaterialize(mask_counts);
}

void BatchCellEvaluator::PrepareRefs(const std::vector<CellRef>& refs) {
  std::unordered_map<GroupByMask, int64_t> mask_counts;
  std::vector<int> leaf_coords;
  for (const CellRef& ref : refs) {
    // Refs from a wider (augmented) schema are not servable here; see
    // ScopeOf. Skipping them keeps IsLeafRef within bounds.
    bool in_schema = true;
    for (int d = 0; d < data_.num_dims() && in_schema; ++d) {
      const Dimension& dim = data_.schema().dimension(d);
      in_schema = ref[d].member >= 0 && ref[d].member < dim.num_members() &&
                  (ref[d].instance == kInvalidInstance ||
                   ref[d].instance < dim.num_instances());
    }
    if (!in_schema) continue;
    GroupByMask mask = 0;
    for (int d = 0; d < data_.num_dims(); ++d) {
      if (NeedsBit(d, ref[d])) mask |= GroupByMask{1} << d;
      ScopeOf(d, ref[d]);
    }
    if (data_.IsLeafRef(ref, &leaf_coords)) continue;  // Direct reads.
    mask_counts[mask] += 1;
  }
  PlanAndMaterialize(mask_counts);
}

void BatchCellEvaluator::PlanAndMaterialize(
    const std::unordered_map<GroupByMask, int64_t>& mask_counts) {
  TraceSpan span("agg.batch.plan");
  const GroupByMask full_mask =
      data_.num_dims() >= 32 ? ~GroupByMask{0}
                             : (GroupByMask{1} << data_.num_dims()) - 1;
  Lattice lattice(data_.layout());

  struct Candidate {
    GroupByMask mask;
    int64_t count;
    int64_t cells;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(mask_counts.size());
  for (const auto& [mask, count] : mask_counts) {
    if (mask == full_mask) continue;  // Its view is the raw cube.
    if (count < options_.min_refs_per_view) continue;
    if (persistent_ != nullptr &&
        persistent_->SmallestCovering(mask) != nullptr) {
      continue;  // Already materialized persistently.
    }
    const int64_t cells = lattice.OutputCells(mask);
    if (cells > options_.max_view_cells) continue;
    candidates.push_back({mask, count, cells});
  }
  // Superset absorption: every materialized mask costs one AccumulateAt per
  // scanned cube cell, while serving mask m from an already-planned
  // superset V only scales each ref's scope product by cells(V)/cells(m)
  // (= Π extents of V\m — those dimensions are droppable roots, so their
  // scope is the full leaf range). When the extra serving work is below the
  // accumulation pass it would save, drop m and let SmallestCovering route
  // its refs to V. Widest masks first, so absorbers are settled before the
  // masks they can absorb.
  if (candidates.size() > 1) {
    const double scan_cost = static_cast<double>(data_.CountNonNullCells());
    auto bits = [](GroupByMask m) {
      int n = 0;
      for (; m != 0; m &= m - 1) ++n;
      return n;
    };
    std::sort(candidates.begin(), candidates.end(),
              [&](const Candidate& a, const Candidate& b) {
                const int ba = bits(a.mask), bb = bits(b.mask);
                if (ba != bb) return ba > bb;
                if (a.count != b.count) return a.count > b.count;
                return a.mask < b.mask;
              });
    std::vector<Candidate> kept;
    kept.reserve(candidates.size());
    for (const Candidate& c : candidates) {
      bool absorbed = false;
      for (const Candidate& v : kept) {
        if ((v.mask & c.mask) != c.mask || v.mask == c.mask) continue;
        const double ratio =
            static_cast<double>(v.cells) / static_cast<double>(c.cells);
        if (static_cast<double>(c.count) * ratio <= scan_cost) {
          absorbed = true;
          break;
        }
      }
      if (!absorbed) kept.push_back(c);
    }
    candidates = std::move(kept);
  }
  // Most-referenced masks first; deterministic tie-breaks.
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.count != b.count) return a.count > b.count;
              if (a.cells != b.cells) return a.cells < b.cells;
              return a.mask < b.mask;
            });
  if (static_cast<int>(candidates.size()) > options_.max_views) {
    candidates.resize(options_.max_views);
  }

  const BatchMetrics& bm = BatchMetrics::Get();
  bm.plans->Increment();
  scratch_.reset();
  if (candidates.empty()) {
    span.SetDetail("views=0");
    return;
  }
  std::vector<GroupByMask> masks;
  masks.reserve(candidates.size());
  int64_t total_cells = 0;
  for (const Candidate& c : candidates) {
    masks.push_back(c.mask);
    total_cells += c.cells;
  }
  // Governor budget gate: scratch views are the evaluator's one large
  // optional allocation, so the whole plan is reserved up front. A denial
  // is the first degradation rung — every ref falls back to the per-cell
  // path, which needs no scratch memory at all.
  if (options_.try_reserve_cells && !options_.try_reserve_cells(total_cells)) {
    static Counter* denied =
        MetricsRegistry::Global().counter("agg.batch.budget_denied");
    denied->Increment();
    if (options_.on_degrade) options_.on_degrade("batched_eval_off");
    span.SetDetail("views=0 budget_denied");
    return;
  }
  reserved_cells_ = total_cells;

  // Deterministic view order regardless of ref-count ranking.
  std::sort(masks.begin(), masks.end());
  if (options_.out_of_core_disk != nullptr) {
    ChunkAggregator::OutOfCoreOptions ooc;
    ooc.cancel = options_.cancel;
    ooc.on_degrade = options_.on_degrade;
    scratch_.emplace(data_, masks, options_.out_of_core_disk, ooc,
                     options_.threads);
  } else {
    scratch_.emplace(data_, masks, options_.threads, options_.cancel);
  }
  // Never publish a partially-materialized cache: a pass interrupted by
  // cancellation is dropped whole, and the budget reservation returned —
  // the evaluator remains valid (per-cell path) for any caller that
  // chooses to keep going.
  if (options_.cancel.ShouldStop()) {
    scratch_.reset();
    if (options_.release_cells) options_.release_cells(reserved_cells_);
    reserved_cells_ = 0;
    span.SetDetail("views=0 cancelled");
    return;
  }
  bm.views_materialized->Increment(static_cast<int64_t>(masks.size()));
  bm.view_cells->Increment(total_cells);
  span.SetDetail("views=" + std::to_string(masks.size()) +
                 " cells=" + std::to_string(total_cells));
}

CellValue BatchCellEvaluator::Evaluate(const CellRef& ref) const {
  const BatchMetrics& bm = BatchMetrics::Get();
  bm.refs->Increment();
  std::vector<int> leaf_coords;
  if (data_.IsLeafRef(ref, &leaf_coords)) {
    bm.leaf->Increment();
    return data_.GetCell(leaf_coords);
  }

  // Gather per-dimension weighted scopes (read-only cache lookups; refs not
  // seen at Prepare time — e.g. rule operands — resolve locally).
  const int n = data_.num_dims();
  GroupByMask needed = 0;
  std::vector<const std::vector<std::pair<int, double>>*> scope_of(n, nullptr);
  std::vector<std::vector<std::pair<int, double>>> local;
  local.reserve(n);
  bool empty_scope = false;
  for (int d = 0; d < n; ++d) {
    auto it = scopes_[d].find(ScopeKey(ref[d]));
    if (it != scopes_[d].end()) {
      scope_of[d] = &it->second.positions;
    } else {
      local.push_back(data_.PositionsUnderWeighted(d, ref[d]));
      scope_of[d] = &local.back();
    }
    if (scope_of[d]->empty()) empty_scope = true;
    if (NeedsBit(d, ref[d])) needed |= GroupByMask{1} << d;
  }

  const AggregateCache* accounting =
      scratch_.has_value() ? &*scratch_ : persistent_;
  if (empty_scope) {
    // An empty scope along any dimension makes the cell ⊥ (matching
    // SumOverScopeWeighted); counted as a served answer like TryAnswer's
    // empty-positions path.
    bm.null_scope->Increment();
    if (accounting != nullptr) {
      SharedCacheMetrics::Get().lookups->Increment();
      SharedCacheMetrics::Get().hits->Increment();
      ++accounting->hits;
    }
    return CellValue::Null();
  }

  // Smallest covering view across the scratch and persistent caches.
  const AggregateCache* owner = nullptr;
  const GroupByResult* view = nullptr;
  for (const AggregateCache* cache :
       {static_cast<const AggregateCache*>(scratch_.has_value() ? &*scratch_
                                                                : nullptr),
        persistent_}) {
    if (cache == nullptr) continue;
    const GroupByResult* covering = cache->SmallestCovering(needed);
    if (covering == nullptr) continue;
    if (view == nullptr || covering->num_cells() < view->num_cells()) {
      view = covering;
      owner = cache;
    }
  }

  if (view != nullptr) {
    const std::vector<int>& kept = view->kept_dims();
    std::vector<const std::vector<std::pair<int, double>>*> scopes(kept.size());
    for (size_t i = 0; i < kept.size(); ++i) scopes[i] = scope_of[kept[i]];
    bm.view_served->Increment();
    SharedCacheMetrics::Get().lookups->Increment();
    SharedCacheMetrics::Get().hits->Increment();
    ++owner->hits;
    return WeightedViewSum(*view, scopes);
  }

  // Residual: no view covers the needed mask — leaf roll-up.
  bm.residual->Increment();
  if (accounting != nullptr) {
    SharedCacheMetrics::Get().lookups->Increment();
    SharedCacheMetrics::Get().misses->Increment();
    ++accounting->misses;
  }
  std::vector<std::vector<std::pair<int, double>>> positions(n);
  for (int d = 0; d < n; ++d) positions[d] = *scope_of[d];
  return SumOverScopeWeighted(data_, positions);
}

}  // namespace olap
