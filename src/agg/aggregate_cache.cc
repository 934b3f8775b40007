#include "agg/aggregate_cache.h"

#include <numeric>

#include "common/metrics.h"

namespace olap {

namespace {

// Cache accounting contract (asserted by the stats contract suite):
// lookups == hits + misses, always.
struct CacheMetrics {
  Counter* lookups;
  Counter* hits;
  Counter* misses;
  Counter* evictions;
  Counter* views_kept;
  Counter* views_dropped;

  static const CacheMetrics& Get() {
    static CacheMetrics m = [] {
      MetricsRegistry& reg = MetricsRegistry::Global();
      return CacheMetrics{reg.counter("agg.cache.lookups"),
                          reg.counter("agg.cache.hits"),
                          reg.counter("agg.cache.misses"),
                          reg.counter("cache.evictions"),
                          reg.counter("cache.invalidate.views_kept"),
                          reg.counter("cache.invalidate.views_dropped")};
    }();
    return m;
  }
};

// Restores ⊥ on every cell of `view` inside the projection box of chunk
// `id` whose contribution count is zero. The box (per kept dimension, the
// chunk's clipped coordinate range) is the only region a chunk swap can
// have zeroed.
void SweepZeroCounts(const ChunkLayout& layout, ChunkId id,
                     GroupByResult* view, const int32_t* counts) {
  const double null_storage = CellValue::ToStorage(CellValue::Null());
  const std::vector<int>& kept = view->kept_dims();
  double* cells = view->mutable_raw_cells();
  if (kept.empty()) {
    if (counts[0] == 0) cells[0] = null_storage;
    return;
  }
  const std::vector<int> base = layout.ChunkBase(id);
  const std::vector<int>& csize = layout.chunk_sizes();
  const size_t k = kept.size();
  std::vector<int> lo(k), hi(k), pos(k);
  int64_t idx = 0;
  for (size_t i = 0; i < k; ++i) {
    lo[i] = base[kept[i]];
    hi[i] = std::min(base[kept[i]] + csize[kept[i]], view->extents()[i]);
    if (lo[i] >= hi[i]) return;  // Fully padded projection: nothing stored.
    pos[i] = lo[i];
    idx += static_cast<int64_t>(lo[i]) * view->strides()[i];
  }
  const std::vector<int64_t>& strides = view->strides();
  while (true) {
    if (counts[idx] == 0) cells[idx] = null_storage;
    size_t d = k;
    bool done = true;
    while (d-- > 0) {
      ++pos[d];
      idx += strides[d];
      if (pos[d] < hi[d]) {
        done = false;
        break;
      }
      idx -= static_cast<int64_t>(pos[d] - lo[d]) * strides[d];
      pos[d] = lo[d];
    }
    if (done) break;
  }
}

}  // namespace

// True when the root's weighted scope of dimension `dim` covers every axis
// position exactly once with weight 1.0 — the condition under which a view
// that summed the dimension away (all positions, weight 1) agrees with the
// root roll-up.
bool RootScopeIsUnitCover(const Cube& cube, int dim) {
  const int extent = cube.layout().extents()[dim];
  const AxisRef root = AxisRef::OfMember(cube.schema().dimension(dim).root());
  std::vector<std::pair<int, double>> scope =
      cube.PositionsUnderWeighted(dim, root);
  if (static_cast<int>(scope.size()) != extent) return false;
  std::vector<char> seen(extent, 0);
  for (const auto& [pos, weight] : scope) {
    if (weight != 1.0 || pos < 0 || pos >= extent || seen[pos]) return false;
    seen[pos] = 1;
  }
  return true;
}

AggregateCache::AggregateCache(const Cube& cube,
                               const std::vector<GroupByMask>& masks,
                               int threads, const CancellationToken& cancel)
    : masks_(masks) {
  ChunkAggregator aggregator(cube);
  std::vector<int> order(cube.num_dims());
  std::iota(order.begin(), order.end(), 0);
  views_ = aggregator.Compute(masks_, order, /*disk=*/nullptr, threads, cancel);
  root_droppable_.resize(cube.num_dims());
  for (int d = 0; d < cube.num_dims(); ++d) {
    root_droppable_[d] = RootScopeIsUnitCover(cube, d) ? 1 : 0;
  }
  resident_.assign(views_.size(), 1);
  last_use_ = std::make_unique<std::atomic<int64_t>[]>(views_.size());
}

AggregateCache::AggregateCache(const Cube& cube,
                               const std::vector<GroupByMask>& masks,
                               SimulatedDisk* disk,
                               const ChunkAggregator::OutOfCoreOptions& options,
                               int threads)
    : masks_(masks) {
  ChunkAggregator aggregator(cube);
  std::vector<int> order(cube.num_dims());
  std::iota(order.begin(), order.end(), 0);
  Result<std::vector<GroupByResult>> streamed =
      disk != nullptr
          ? aggregator.ComputeOutOfCore(masks_, order, disk, options, threads)
          : Result<std::vector<GroupByResult>>(
                Status(StatusCode::kFailedPrecondition, "no disk"));
  if (streamed.ok()) {
    views_ = *std::move(streamed);
  } else if (streamed.status().code() == StatusCode::kCancelled ||
             streamed.status().code() == StatusCode::kDeadlineExceeded) {
    // The query is being torn down; a full in-memory scan now would be
    // wasted work. Leave the cache empty — the owner must discard it.
  } else {
    // The in-memory pass is always available and value-equivalent.
    views_ = aggregator.Compute(masks_, order, /*disk=*/nullptr, threads,
                                options.cancel);
  }
  root_droppable_.resize(cube.num_dims());
  for (int d = 0; d < cube.num_dims(); ++d) {
    root_droppable_[d] = RootScopeIsUnitCover(cube, d) ? 1 : 0;
  }
  resident_.assign(views_.size(), 1);
  last_use_ = std::make_unique<std::atomic<int64_t>[]>(views_.size());
}

AggregateCache AggregateCache::BuildGreedy(const Cube& cube, int max_views) {
  Lattice lattice(cube.layout());
  SelectedViews selected = SelectViewsGreedy(lattice, max_views);
  return AggregateCache(cube, selected.views);
}

int64_t AggregateCache::TotalCells() const {
  int64_t total = 0;
  for (int i = 0; i < num_views(); ++i) {
    if (resident_[i]) total += views_[i].num_cells();
  }
  return total;
}

void AggregateCache::TouchView(int g) const {
  last_use_[g].store(use_tick_.fetch_add(1, std::memory_order_relaxed) + 1,
                     std::memory_order_relaxed);
}

const GroupByResult* AggregateCache::SmallestCovering(GroupByMask needed) const {
  int best = -1;
  for (int i = 0; i < num_views(); ++i) {
    if (!resident_[i] || (needed & masks_[i]) != needed) continue;
    if (best < 0 || views_[i].num_cells() < views_[best].num_cells()) best = i;
  }
  if (best < 0) return nullptr;
  TouchView(best);
  return &views_[best];
}

void AggregateCache::EnableIncrementalMaintenance(const Cube& cube) {
  counts_.assign(views_.size(), {});
  for (size_t g = 0; g < views_.size(); ++g) {
    if (resident_[g]) {
      counts_[g].assign(static_cast<size_t>(views_[g].num_cells()), 0);
    }
  }
  const ChunkLayout& layout = cube.layout();
  cube.ForEachChunk([&](ChunkId id, const Chunk& chunk) {
    for (size_t g = 0; g < views_.size(); ++g) {
      if (!resident_[g]) continue;
      AccumulateChunkIntoGroupByWeighted(layout, id, chunk, 1.0, &views_[g],
                                         counts_[g].data(),
                                         /*update_values=*/false);
    }
  });
  incremental_ = true;
}

void AggregateCache::PatchChunkDelta(const ChunkLayout& layout, ChunkId id,
                                     const Chunk* before, const Chunk* after) {
  if (!incremental_) {
    DropResidentViews();
    return;
  }
  int64_t kept = 0;
  for (size_t g = 0; g < views_.size(); ++g) {
    if (!resident_[g]) continue;
    GroupByResult* view = &views_[g];
    int32_t* counts = counts_[g].data();
    if (before != nullptr) {
      AccumulateChunkIntoGroupByWeighted(layout, id, *before, -1.0, view,
                                         counts);
    }
    if (after != nullptr) {
      AccumulateChunkIntoGroupByWeighted(layout, id, *after, 1.0, view,
                                         counts);
    }
    SweepZeroCounts(layout, id, view, counts);
    ++kept;
  }
  CacheMetrics::Get().views_kept->Increment(kept);
}

void AggregateCache::PatchCellDelta(const std::vector<int>& coords,
                                    double old_storage, double new_storage) {
  if (!incremental_) {
    DropResidentViews();
    return;
  }
  const double null_storage = CellValue::ToStorage(CellValue::Null());
  const bool had_old = !CellValue::IsStorageNull(old_storage);
  const bool has_new = !CellValue::IsStorageNull(new_storage);
  int64_t kept = 0;
  for (size_t g = 0; g < views_.size(); ++g) {
    if (!resident_[g]) continue;
    GroupByResult& view = views_[g];
    const std::vector<int>& dims = view.kept_dims();
    int64_t idx = 0;
    for (size_t i = 0; i < dims.size(); ++i) {
      idx += static_cast<int64_t>(coords[dims[i]]) * view.strides()[i];
    }
    int32_t& count = counts_[g][idx];
    if (had_old) {
      view.AccumulateAt(idx, CellValue(-old_storage));
      --count;
    }
    if (has_new) {
      view.AccumulateAt(idx, CellValue(new_storage));
      ++count;
    }
    if (count == 0) view.mutable_raw_cells()[idx] = null_storage;
    ++kept;
  }
  CacheMetrics::Get().views_kept->Increment(kept);
}

void AggregateCache::DropResidentViews() {
  int64_t dropped = 0;
  for (size_t g = 0; g < views_.size(); ++g) {
    if (!resident_[g]) continue;
    views_[g] = GroupByResult();
    if (g < counts_.size()) {
      counts_[g].clear();
      counts_[g].shrink_to_fit();
    }
    resident_[g] = 0;
    ++dropped;
  }
  incremental_ = false;
  CacheMetrics::Get().views_dropped->Increment(dropped);
}

void AggregateCache::SetCapacity(int64_t max_cells) {
  capacity_cells_ = max_cells;
  EnforceCapacity();
}

void AggregateCache::EnforceCapacity() {
  if (capacity_cells_ < 0) return;
  int64_t total = TotalCells();
  while (total > capacity_cells_) {
    int victim = -1;
    int64_t victim_use = 0;
    for (int i = 0; i < num_views(); ++i) {
      if (!resident_[i]) continue;
      const int64_t use = last_use_[i].load(std::memory_order_relaxed);
      if (victim < 0 || use < victim_use ||
          (use == victim_use &&
           views_[i].num_cells() > views_[victim].num_cells())) {
        victim = i;
        victim_use = use;
      }
    }
    if (victim < 0) break;  // Nothing resident left to evict.
    total -= views_[victim].num_cells();
    views_[victim] = GroupByResult();
    if (static_cast<size_t>(victim) < counts_.size()) {
      counts_[victim].clear();
      counts_[victim].shrink_to_fit();
    }
    resident_[victim] = 0;
    CacheMetrics::Get().evictions->Increment();
  }
}

std::optional<CellValue> AggregateCache::TryAnswer(const Cube& cube,
                                                   const CellRef& ref) const {
  CacheMetrics::Get().lookups->Increment();
  // Dimensions a view must keep: anything the ref restricts (not the root),
  // plus root dimensions whose consolidation weights make the view's plain
  // dropped-dimension sum differ from the root roll-up.
  GroupByMask needed = 0;
  for (int d = 0; d < cube.num_dims(); ++d) {
    if (ref[d].instance != kInvalidInstance ||
        ref[d].member != cube.schema().dimension(d).root() ||
        !root_droppable(d)) {
      needed |= GroupByMask{1} << d;
    }
  }
  const GroupByResult* covering = SmallestCovering(needed);
  if (covering == nullptr) {
    ++misses;
    CacheMetrics::Get().misses->Increment();
    return std::nullopt;
  }
  const GroupByResult& view = *covering;

  // Sum the view over the cross product of the ref's weighted position
  // scopes along the view's kept dimensions (consolidation weights apply
  // at answer time; the views themselves are plain position sums).
  const std::vector<int>& kept = view.kept_dims();
  std::vector<std::vector<std::pair<int, double>>> positions(kept.size());
  for (size_t i = 0; i < kept.size(); ++i) {
    positions[i] = cube.PositionsUnderWeighted(kept[i], ref[kept[i]]);
    if (positions[i].empty()) {
      ++hits;
      CacheMetrics::Get().hits->Increment();
      return CellValue::Null();
    }
  }
  CellValue sum;
  const std::vector<int64_t>& strides = view.strides();
  const double* cells = view.raw_cells();  // Sentinel-encoded, no round-trip.
  std::vector<int> idx(kept.size(), 0);
  while (true) {
    double weight = 1.0;
    int64_t index = 0;
    for (size_t i = 0; i < kept.size(); ++i) {
      index += positions[i][idx[i]].first * strides[i];
      weight *= positions[i][idx[i]].second;
    }
    const double v = cells[index];
    if (!CellValue::IsStorageNull(v)) sum += CellValue(v * weight);
    size_t d = kept.size();
    bool done = true;
    while (d-- > 0) {
      if (++idx[d] < static_cast<int>(positions[d].size())) {
        done = false;
        break;
      }
      idx[d] = 0;
    }
    if (kept.empty() || done) break;
  }
  ++hits;
  CacheMetrics::Get().hits->Increment();
  return sum;
}

}  // namespace olap
