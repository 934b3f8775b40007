#include "agg/chunk_aggregator.h"

#include <algorithm>
#include <mutex>
#include <string>

#include "agg/kernels.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"

namespace olap {

void AccumulateChunkIntoGroupBys(const ChunkLayout& layout, ChunkId id,
                                 const Chunk& chunk,
                                 std::vector<GroupByResult>* out) {
  const int n = layout.num_dims();
  const std::vector<int>& extents = layout.extents();
  const std::vector<int>& csize = layout.chunk_sizes();
  const std::vector<int> base = layout.ChunkBase(id);
  const size_t num_gb = out->size();

  if (n == 0) {  // Zero-dimensional cube: one cell, every group-by is root.
    if (chunk.size() > 0 && !chunk.IsNull(0)) {
      for (size_t g = 0; g < num_gb; ++g) {
        (*out)[g].AccumulateAt(0, CellValue(chunk.ValueAt(0)));
      }
    }
    return;
  }

  // Per group-by, per cube dimension: the output-index stride of that
  // dimension (0 when the group-by drops it), plus the output index of the
  // projection of each row's first cell. The row loop maintains each output
  // index incrementally as the odometer advances — no per-cell coordinate
  // projection or allocation.
  std::vector<std::vector<int64_t>> stride(num_gb, std::vector<int64_t>(n, 0));
  std::vector<int64_t> gb_idx(num_gb, 0);
  for (size_t g = 0; g < num_gb; ++g) {
    const GroupByResult& r = (*out)[g];
    const std::vector<int>& kept = r.kept_dims();
    for (size_t i = 0; i < kept.size(); ++i) stride[g][kept[i]] = r.strides()[i];
    int64_t idx = 0;
    for (int d = 0; d < n; ++d) idx += static_cast<int64_t>(base[d]) * stride[g][d];
    gb_idx[g] = idx;
  }

  // Row-tiled walk: the outer odometer covers the leading dimensions
  // (still last-dimension-fastest, the visit order of
  // ChunkLayout::ForEachCellInChunk), and the whole last-dimension row —
  // the unit-stride direction of both the chunk and any group-by that
  // keeps the last dimension — is processed by one kernel call:
  //
  //   stride[last] == 0  (row collapses onto one output cell, the Lemma 5.1
  //                      varying-dimension-first shape): one MaskedRunSum,
  //                      then a single ⊥-aware accumulate of the row total.
  //                      This re-associates the in-row sum into the kernel's
  //                      fixed 4-lane shape — deterministic and
  //                      thread-count-invariant, exact on integer data.
  //   stride[last] == 1  (row maps 1:1 onto contiguous output cells): one
  //                      weighted-merge kernel at w == 1.0, which is
  //                      bit-identical to the per-cell CellValue addition.
  //   other strides      (not produced by GroupByResult's row-major layout,
  //                      kept for generality): scalar bit-walk.
  //
  // Rows whose leading coordinates exceed the extents are skipped, and the
  // in-extent row length clips padded trailing cells, so a malformed chunk
  // can never corrupt an aggregate (the old per-cell oob_dims defense).
  const int last = n - 1;
  const int row_cap = csize[last];
  const int row_len = std::min(row_cap, extents[last] - base[last]);
  const double* vals = chunk.ValuesSpan();
  const uint64_t* bits = chunk.NullBits().words();
  std::vector<int> coords = base;
  int oob_dims = 0;  // #leading dims whose coordinate exceeds the extent.
  const int64_t rows = layout.cells_per_chunk() / row_cap;
  int64_t off = 0;
  for (int64_t row = 0; row < rows; ++row, off += row_cap) {
    if (oob_dims == 0 && row_len > 0) {
      bool row_summed = false;
      kernels::RunSum row_sum;
      for (size_t g = 0; g < num_gb; ++g) {
        const int64_t s = stride[g][last];
        if (s == 0) {
          if (!row_summed) {
            row_sum = kernels::MaskedRunSum(vals + off, bits, off, row_len);
            row_summed = true;
          }
          if (row_sum.count > 0) {
            (*out)[g].AccumulateAt(gb_idx[g], CellValue(row_sum.sum));
          }
        } else if (s == 1) {
          kernels::MergeWeightedRunIntoSentinel(
              1.0, vals + off, bits, off,
              (*out)[g].mutable_raw_cells() + gb_idx[g], row_len);
        } else {
          for (int k = 0; k < row_len; ++k) {
            if (kernels::detail::TestBit(bits, off + k)) {
              (*out)[g].AccumulateAt(gb_idx[g] + k * s,
                                     CellValue(vals[off + k]));
            }
          }
        }
      }
    }
    int d = last - 1;
    while (d >= 0) {
      const bool was_oob = coords[d] >= extents[d];
      ++coords[d];
      for (size_t g = 0; g < num_gb; ++g) gb_idx[g] += stride[g][d];
      if (coords[d] < base[d] + csize[d]) {
        oob_dims += static_cast<int>(coords[d] >= extents[d]) -
                    static_cast<int>(was_oob);
        break;
      }
      coords[d] = base[d];  // Chunk bases are always inside the extents.
      for (size_t g = 0; g < num_gb; ++g) {
        gb_idx[g] -= static_cast<int64_t>(csize[d]) * stride[g][d];
      }
      oob_dims -= static_cast<int>(was_oob);
      --d;
    }
    if (d < 0) break;
  }
}

void AccumulateChunkIntoGroupByWeighted(const ChunkLayout& layout, ChunkId id,
                                        const Chunk& chunk, double weight,
                                        GroupByResult* view, int32_t* counts,
                                        bool update_values) {
  const int n = layout.num_dims();
  const int step = weight < 0 ? -1 : 1;

  if (n == 0) {
    if (chunk.size() > 0 && !chunk.IsNull(0)) {
      if (update_values) {
        view->AccumulateAt(0, CellValue(weight * chunk.ValueAt(0)));
      }
      if (counts != nullptr) counts[0] += step;
    }
    return;
  }

  const std::vector<int>& extents = layout.extents();
  const std::vector<int>& csize = layout.chunk_sizes();
  const std::vector<int> base = layout.ChunkBase(id);
  std::vector<int64_t> stride(n, 0);
  const std::vector<int>& kept = view->kept_dims();
  for (size_t i = 0; i < kept.size(); ++i) stride[kept[i]] = view->strides()[i];
  int64_t gb_idx = 0;
  for (int d = 0; d < n; ++d) {
    gb_idx += static_cast<int64_t>(base[d]) * stride[d];
  }

  // Same row-tiled walk and oob defense as AccumulateChunkIntoGroupBys,
  // specialized to one group-by with a weight and optional counters.
  const int last = n - 1;
  const int row_cap = csize[last];
  const int row_len = std::min(row_cap, extents[last] - base[last]);
  const double* vals = chunk.ValuesSpan();
  const uint64_t* bits = chunk.NullBits().words();
  std::vector<int> coords = base;
  int oob_dims = 0;
  const int64_t rows = layout.cells_per_chunk() / row_cap;
  const int64_t s = stride[last];
  int64_t off = 0;
  for (int64_t row = 0; row < rows; ++row, off += row_cap) {
    if (oob_dims == 0 && row_len > 0) {
      if (s == 0) {
        const kernels::RunSum row_sum =
            kernels::MaskedRunSum(vals + off, bits, off, row_len);
        if (row_sum.count > 0) {
          if (update_values) {
            view->AccumulateAt(gb_idx, CellValue(weight * row_sum.sum));
          }
          if (counts != nullptr) {
            counts[gb_idx] += step * static_cast<int32_t>(row_sum.count);
          }
        }
      } else if (s == 1) {
        if (update_values) {
          kernels::MergeWeightedRunIntoSentinel(
              weight, vals + off, bits, off,
              view->mutable_raw_cells() + gb_idx, row_len);
        }
        if (counts != nullptr) {
          for (int k = 0; k < row_len; ++k) {
            if (kernels::detail::TestBit(bits, off + k)) counts[gb_idx + k] += step;
          }
        }
      } else {
        for (int k = 0; k < row_len; ++k) {
          if (kernels::detail::TestBit(bits, off + k)) {
            if (update_values) {
              view->AccumulateAt(gb_idx + k * s,
                                 CellValue(weight * vals[off + k]));
            }
            if (counts != nullptr) counts[gb_idx + k * s] += step;
          }
        }
      }
    }
    int d = last - 1;
    while (d >= 0) {
      const bool was_oob = coords[d] >= extents[d];
      ++coords[d];
      gb_idx += stride[d];
      if (coords[d] < base[d] + csize[d]) {
        oob_dims += static_cast<int>(coords[d] >= extents[d]) -
                    static_cast<int>(was_oob);
        break;
      }
      coords[d] = base[d];
      gb_idx -= static_cast<int64_t>(csize[d]) * stride[d];
      oob_dims -= static_cast<int>(was_oob);
      --d;
    }
    if (d < 0) break;
  }
}

GroupByResult MakeGroupByShell(const Cube& cube, GroupByMask mask) {
  std::vector<int> kept, extents;
  for (int d = 0; d < cube.num_dims(); ++d) {
    if (mask & (GroupByMask{1} << d)) {
      kept.push_back(d);
      extents.push_back(cube.layout().extents()[d]);
    }
  }
  return GroupByResult(mask, std::move(kept), std::move(extents));
}

std::vector<GroupByResult> NaiveAggregator::Compute(
    const Cube& cube, const std::vector<GroupByMask>& masks) {
  std::vector<GroupByResult> out;
  out.reserve(masks.size());
  for (GroupByMask mask : masks) out.push_back(MakeGroupByShell(cube, mask));
  cube.ForEachChunkCell([&](const std::vector<int>& coords, CellValue v) {
    for (GroupByResult& g : out) g.AccumulateFull(coords, v);
  });
  return out;
}

namespace {

// Rollup-plan knobs. The plan must depend only on the workload — never on
// the thread count — so results stay bit-identical however its units are
// scheduled.
constexpr int64_t kMinChunksPerPartition = 4;
constexpr int64_t kMaxPartitions = 32;
// Cap on the total number of partial group-by cells alive at once
// (kMaxPartialCells * 8 bytes of transient memory).
constexpr int64_t kMaxPartialCells = int64_t{1} << 22;
// Below this much total work (cells × masks) the rollup stays on the
// single-unit serial path: fan-out and partial buffers aren't worth their
// setup. The serial pass and the slab plan are bitwise equal to the
// cell-order sum; the partial plan re-associates floating-point addition
// across partition boundaries (all three are bit-identical across thread
// counts).
constexpr int64_t kMinWorkForPartitioning = int64_t{1} << 16;

// Walks the chunk grid with an odometer where order[0] increments fastest,
// calling fn(id) for every grid chunk in traversal order.
template <typename Fn>
void ForEachChunkInOrder(const ChunkLayout& layout,
                         const std::vector<int>& order, Fn&& fn) {
  const int n = layout.num_dims();
  const std::vector<int>& grid = layout.chunks_per_dim();
  std::vector<int> chunk_coords(n, 0);
  while (true) {
    fn(layout.ChunkIdAt(chunk_coords));
    int pos = 0;
    while (pos < n) {
      const int dim = order[pos];
      if (++chunk_coords[dim] < grid[dim]) break;
      chunk_coords[dim] = 0;
      ++pos;
    }
    if (pos == n) return;
  }
}

// How one rollup pass accumulates its visit list (DESIGN.md §7). Work unit
// u consumes the visit entries at positions units[u] (ascending), in that
// order.
//   Partial plan: unit u is a contiguous range of the visit list and fills
//     private partial views, merged into the output in ascending unit
//     order.
//   Slab plan: every mask keeps `slab_dim`, and unit u owns a contiguous
//     range of chunk slabs along it. Chunks of different slabs write
//     disjoint output cells, so every unit accumulates straight into the
//     shared output views — no partial buffers, no merge — and each output
//     cell receives its inputs in exactly the serial visit order.
// A single unit (either plan) is the serial pass into the output views.
struct RollupPlan {
  std::vector<std::vector<int64_t>> units;
  bool partials = false;
  int slab_dim = -1;
};

// The one partition planner behind Compute and ComputeOutOfCore.
// `total_work` is the caller's cells × masks estimate. The plan depends
// only on the workload — never on the thread count — so each output cell's
// accumulation order, and therefore every floating-point sum, is the same
// at every thread count.
RollupPlan PlanRollup(const ChunkLayout& layout,
                      const std::vector<GroupByResult>& out,
                      const std::vector<ChunkId>& visit, int64_t total_work) {
  const int64_t num_visited = static_cast<int64_t>(visit.size());
  int64_t total_view_cells = 0;
  for (const GroupByResult& g : out) total_view_cells += g.num_cells();
  const int64_t by_mem =
      std::max<int64_t>(1, kMaxPartialCells / std::max<int64_t>(1, total_view_cells));
  const int64_t num_masks = static_cast<int64_t>(std::max<size_t>(1, out.size()));
  // Each partition pays ~total_view_cells of partial-buffer allocation and
  // merge on top of its share of the scan, so cap the partition count to
  // keep that overhead under ~25% of the scan work. Coarse views (the
  // common rollup case) leave this unconstrained; near-full-rank views
  // collapse toward the direct single-partition path.
  const int64_t scan_cells = num_visited * layout.cells_per_chunk();
  const int64_t by_merge_cost = std::max<int64_t>(
      1, scan_cells * num_masks / (4 * std::max<int64_t>(1, total_view_cells)));
  const int64_t num_partitions =
      total_work < kMinWorkForPartitioning
          ? 1
          : std::max<int64_t>(
                1, std::min<int64_t>({(num_visited + kMinChunksPerPartition - 1) /
                                          kMinChunksPerPartition,
                                      by_mem, by_merge_cost, kMaxPartitions}));

  // The slab plan's dimension: kept by every mask, most chunk slabs (ties:
  // the lowest dimension). It is taken when it offers at least the partial
  // plan's parallelism — a purely workload-side choice. (A single slab
  // would be the serial pass, which the partial plan reports as such.)
  const std::vector<int>& grid = layout.chunks_per_dim();
  GroupByMask common = ~GroupByMask{0};
  for (const GroupByResult& g : out) common &= g.mask();
  int slab_dim = -1;
  for (int d = 0; d < layout.num_dims() && !out.empty(); ++d) {
    if ((common & (GroupByMask{1} << d)) != 0 &&
        (slab_dim < 0 || grid[d] > grid[slab_dim])) {
      slab_dim = d;
    }
  }

  RollupPlan plan;
  if (slab_dim >= 0 && grid[slab_dim] > 1 &&
      total_work >= kMinWorkForPartitioning &&
      grid[slab_dim] >= num_partitions) {
    const int64_t slabs = grid[slab_dim];
    const int64_t groups = std::min<int64_t>(slabs, kMaxPartitions);
    int64_t slab_stride = 1;  // Chunk ids are row-major over the grid.
    for (int d = slab_dim + 1; d < layout.num_dims(); ++d) slab_stride *= grid[d];
    plan.units.resize(groups);
    for (int64_t i = 0; i < num_visited; ++i) {
      const int64_t slab = (visit[i] / slab_stride) % slabs;
      plan.units[slab * groups / slabs].push_back(i);
    }
    plan.units.erase(
        std::remove_if(plan.units.begin(), plan.units.end(),
                       [](const std::vector<int64_t>& u) { return u.empty(); }),
        plan.units.end());
    plan.slab_dim = slab_dim;
    return plan;
  }
  plan.partials = num_partitions > 1;
  plan.units.resize(num_partitions);
  for (int64_t p = 0; p < num_partitions; ++p) {
    const int64_t begin = p * num_visited / num_partitions;
    const int64_t end = (p + 1) * num_visited / num_partitions;
    for (int64_t i = begin; i < end; ++i) plan.units[p].push_back(i);
  }
  return plan;
}

// Runs fn(u) for every unit of `plan`: inline for a single unit, otherwise
// on the shared pool with at most `threads` executors.
void RunUnits(const RollupPlan& plan, int threads, int64_t work_units,
              const std::function<void(int64_t)>& fn,
              const CancellationToken& cancel = {}) {
  const int64_t n = static_cast<int64_t>(plan.units.size());
  if (n == 1) {
    fn(0);
  } else if (n > 1) {
    ThreadPool::Shared().ParallelFor(n, threads, work_units, fn, cancel);
  }
}

std::vector<GroupByResult> MakeShells(const Cube& cube,
                                      const std::vector<GroupByMask>& masks) {
  std::vector<GroupByResult> shells;
  shells.reserve(masks.size());
  for (GroupByMask mask : masks) shells.push_back(MakeGroupByShell(cube, mask));
  return shells;
}

std::string PlanDetail(const RollupPlan& plan) {
  return (plan.slab_dim >= 0 ? " plan=slab" + std::to_string(plan.slab_dim)
                             : std::string(" plan=partial")) +
         " units=" + std::to_string(plan.units.size());
}

void RecordRollupMetrics(const AggStats& stats) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  static Counter* rollups = reg.counter("agg.rollups");
  static Counter* chunks_read = reg.counter("agg.chunks_read");
  static Counter* cells_scanned = reg.counter("agg.cells_scanned");
  static Gauge* mmst = reg.gauge("agg.mmst_memory_cells");
  rollups->Increment();
  chunks_read->Increment(stats.chunks_read);
  cells_scanned->Increment(stats.cells_scanned);
  mmst->Set(stats.mmst_memory_cells);
}

}  // namespace

std::vector<GroupByResult> ChunkAggregator::Compute(
    const std::vector<GroupByMask>& masks, const std::vector<int>& order,
    SimulatedDisk* disk, int threads, const CancellationToken& cancel) {
  TraceSpan span("agg.rollup");
  stats_ = AggStats{};
  std::vector<GroupByResult> out = MakeShells(cube_, masks);

  const ChunkLayout& layout = cube_.layout();
  Lattice lattice(layout);
  for (GroupByMask mask : masks) {
    stats_.mmst_memory_cells += lattice.MemoryRequirementCells(mask, order);
  }

  // Serial traversal pre-pass, recording the stored chunks in visit order.
  // Stats and disk charging happen here, in traversal order, so they do
  // not depend on `threads`.
  std::vector<ChunkId> visit;
  std::vector<const Chunk*> chunks;
  ForEachChunkInOrder(layout, order, [&](ChunkId id) {
    ++stats_.chunks_visited;
    const Chunk* chunk = cube_.FindChunk(id);
    if (chunk == nullptr) return;
    ++stats_.chunks_read;
    if (disk != nullptr) disk->ReadChunk(id);
    stats_.cells_scanned += chunk->CountNonNull();
    visit.push_back(id);
    chunks.push_back(chunk);
  });

  // Accumulation: each unit projects its chunks' cells onto every group-by
  // in one traversal (incremental stride-table indices, no per-cell
  // coordinate vectors); `threads` only changes which worker runs which
  // unit.
  const int64_t total_work =
      stats_.cells_scanned * static_cast<int64_t>(std::max<size_t>(1, masks.size()));
  const RollupPlan plan = PlanRollup(layout, out, visit, total_work);
  stats_.slab_dim = plan.slab_dim;
  stats_.work_units = static_cast<int64_t>(plan.units.size());
  std::vector<std::vector<GroupByResult>> partials(
      plan.partials ? plan.units.size() : 0);
  RunUnits(plan, threads, total_work, [&](int64_t u) {
    std::vector<GroupByResult>* sink = &out;
    if (plan.partials) {
      partials[u] = MakeShells(cube_, masks);
      sink = &partials[u];
    }
    for (int64_t i : plan.units[u]) {
      if (cancel.ShouldStop()) return;  // Caller discards the partial result.
      AccumulateChunkIntoGroupBys(layout, visit[i], *chunks[i], sink);
    }
  }, cancel);
  for (const std::vector<GroupByResult>& partial : partials) {
    // A cancelled run may have skipped units outright, leaving their shell
    // vectors unbuilt — skip them; the result is discarded.
    if (partial.size() != out.size()) continue;
    for (size_t m = 0; m < out.size(); ++m) out[m].MergeFrom(partial[m]);
  }

  span.SetDetail("masks=" + std::to_string(masks.size()) +
                 " chunks=" + std::to_string(stats_.chunks_read) +
                 PlanDetail(plan));
  RecordRollupMetrics(stats_);
  return out;
}

Result<std::vector<GroupByResult>> ChunkAggregator::ComputeOutOfCore(
    const std::vector<GroupByMask>& masks, const std::vector<int>& order,
    SimulatedDisk* disk, const OutOfCoreOptions& options, int threads) {
  TraceSpan span("agg.rollup_outofcore");
  if (disk == nullptr || !disk->has_backing()) {
    Status status =
        Status::FailedPrecondition("out-of-core rollup needs a backing file");
    span.SetError(status);
    return status;
  }
  stats_ = AggStats{};
  std::vector<GroupByResult> out = MakeShells(cube_, masks);

  const ChunkLayout& layout = cube_.layout();
  Lattice lattice(layout);
  for (GroupByMask mask : masks) {
    stats_.mmst_memory_cells += lattice.MemoryRequirementCells(mask, order);
  }

  // Same traversal as Compute, but "stored" means present in the backing
  // file's chunk index — the data never has to be in memory.
  const CubeChunkIndex& index = disk->backing_index();
  std::vector<ChunkId> visit;
  ForEachChunkInOrder(layout, order, [&](ChunkId id) {
    ++stats_.chunks_visited;
    if (index.entries.count(id) == 0) return;
    ++stats_.chunks_read;
    visit.push_back(id);
  });

  // The shared plan, with the one out-of-core difference that
  // cells_scanned is unknown before the stream runs, so the work estimate
  // uses whole-chunk cell counts. Still workload-only: identical at every
  // window and thread count.
  const int64_t total_work =
      static_cast<int64_t>(visit.size()) * layout.cells_per_chunk() *
      static_cast<int64_t>(std::max<size_t>(1, masks.size()));
  const RollupPlan plan = PlanRollup(layout, out, visit, total_work);
  stats_.slab_dim = plan.slab_dim;
  stats_.work_units = static_cast<int64_t>(plan.units.size());
  std::vector<std::vector<ChunkId>> schedules(plan.units.size());
  for (size_t u = 0; u < plan.units.size(); ++u) {
    for (int64_t i : plan.units[u]) schedules[u].push_back(visit[i]);
  }
  const RunFetcher read = [disk](ChunkId begin, int count) {
    return disk->ReadBackingRun(begin, count);
  };

  // One pass at `window`. The query thread first charges the whole visit
  // schedule in the runs a serial stream would read (so the modeled I/O
  // and the disk's cache state never depend on the plan or the thread
  // count); then each unit streams its own sub-schedule through uncharged
  // reads, on the pool when there is more than one. A failed or cancelled
  // pass has therefore already charged its whole schedule. The first
  // unit to fail stops its siblings; its status is the pass's.
  std::vector<std::vector<GroupByResult>> partials;
  bool first_pass = true;
  auto run_pass = [&](int window) -> Status {
    ChargeSchedule(disk, visit, window);
    // A retry restarts accumulation from fresh shells, so the delivered
    // numbers are exactly one successful pass's.
    if (!first_pass) out = MakeShells(cube_, masks);
    first_pass = false;
    // Built on the query thread, as the serial stream did, so the large
    // partial buffers stay out of the pool threads' malloc arenas.
    partials.clear();
    for (size_t u = 0; plan.partials && u < plan.units.size(); ++u) {
      partials.push_back(MakeShells(cube_, masks));
    }
    std::vector<int64_t> cells(plan.units.size(), 0);
    CancellationSource pass(options.cancel);
    std::mutex mu;
    Status first_error;
    RunUnits(plan, threads, total_work, [&](int64_t u) {
      std::vector<GroupByResult>* sink = plan.partials ? &partials[u] : &out;
      int64_t scanned = 0;
      const Status status = StreamSchedule(
          read, schedules[u], window, pass.token(),
          [&](ChunkId id, const Chunk& chunk) {
            scanned += chunk.CountNonNull();
            AccumulateChunkIntoGroupBys(layout, id, chunk, sink);
          });
      cells[u] = scanned;
      if (status.ok()) return;
      std::lock_guard<std::mutex> lock(mu);
      if (first_error.ok()) {
        first_error = status;
        pass.RequestCancel();
      }
    });
    stats_.cells_scanned = 0;
    for (int64_t c : cells) stats_.cells_scanned += c;
    return first_error;
  };

  int window = std::max(1, options.window);
  Status stream_status = run_pass(window);
  // Degradation ladder (DESIGN.md §11): a kResourceExhausted coalesced
  // stream — the device out of quota for a ranged read — restarts the
  // whole pass as the per-chunk loop; only a per-chunk pass that still
  // fails surfaces it.
  if (stream_status.code() == StatusCode::kResourceExhausted && window > 1) {
    static Counter* sync_fallbacks =
        MetricsRegistry::Global().counter("agg.outofcore.sync_fallbacks");
    sync_fallbacks->Increment();
    if (options.on_degrade) options.on_degrade("sync_io");
    window = 1;
    stream_status = run_pass(window);
  }
  if (!stream_status.ok()) {
    span.SetError(stream_status);
    return stream_status;
  }
  for (const std::vector<GroupByResult>& partial : partials) {
    for (size_t m = 0; m < out.size(); ++m) out[m].MergeFrom(partial[m]);
  }

  span.SetDetail("masks=" + std::to_string(masks.size()) +
                 " chunks=" + std::to_string(stats_.chunks_read) +
                 " window=" + std::to_string(window) + PlanDetail(plan));
  RecordRollupMetrics(stats_);
  return out;
}

}  // namespace olap
