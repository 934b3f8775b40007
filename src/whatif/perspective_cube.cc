#include "whatif/perspective_cube.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <optional>

#include "common/metrics.h"
#include "common/trace.h"
#include "rules/evaluator.h"
#include "storage/chunk_pipeline.h"
#include "whatif/pebbling.h"

namespace olap {

namespace {

CubeOptions OptionsOf(const Cube& in) {
  CubeOptions opts;
  opts.chunk_sizes = in.layout().chunk_sizes();
  return opts;
}

// Members whose instances a spec touches: the explicit scope, else every
// member with at least one instance.
std::vector<MemberId> EffectiveScope(const Dimension& dim,
                                     const WhatIfSpec& spec) {
  if (!spec.scope_members.empty()) return spec.scope_members;
  std::vector<MemberId> all;
  std::vector<bool> seen(dim.num_members(), false);
  for (const MemberInstance& inst : dim.instances()) {
    if (!seen[inst.member]) {
      seen[inst.member] = true;
      all.push_back(inst.member);
    }
  }
  return all;
}

// Charges one scan over the chunks relevant to the computation.
Gauge* PeakMergeChunksGauge() {
  static Gauge* g = MetricsRegistry::Global().gauge("whatif.peak_merge_chunks");
  return g;
}

void ChargeScan(const Cube& cube, int varying_dim,
                const std::vector<MemberId>& scope, SimulatedDisk* disk,
                EvalStats* stats, int io_window) {
  TraceSpan span("whatif.scan");
  std::vector<ChunkId> chunks = RelevantChunks(cube, varying_dim, scope);
  span.SetDetail("chunks=" + std::to_string(chunks.size()));
  ++stats->passes;
  stats->chunk_reads += static_cast<int64_t>(chunks.size());
  if (disk != nullptr) ChargeSchedule(disk, chunks, io_window);
}

// Charges one relocation pass: only the chunks holding (a) instances that
// survive into the output (non-empty vs_out) and (b) the source instances
// their values are copied from need to be touched — this is why the
// paper's static query time grows with the number of perspectives (more
// surviving instances to retrieve and merge, Sec. 6.1).
void ChargeRelocationScan(const Cube& cube, int varying_dim,
                          const std::vector<DynamicBitset>& vs_out,
                          const std::vector<MemberId>& scope,
                          bool pebbling_read_order, SimulatedDisk* disk,
                          EvalStats* stats,
                          int io_window) {
  TraceSpan span("whatif.merge_scan");
  const Dimension& dim = cube.schema().dimension(varying_dim);
  std::unordered_set<MemberId> in_scope(scope.begin(), scope.end());
  std::vector<bool> needed(dim.num_positions(), false);
  std::vector<bool> member_seen(dim.num_members(), false);
  std::vector<MemberId> merge_members;
  for (const MemberInstance& inst : dim.instances()) {
    if (!in_scope.empty() && in_scope.count(inst.member) == 0) continue;
    const DynamicBitset& vs = vs_out[inst.id];
    if (vs.None()) continue;
    needed[inst.id] = true;
    for (int t = vs.FindFirst(); t >= 0; t = vs.FindNext(t + 1)) {
      InstanceId src = dim.InstanceValidAt(inst.member, t);
      if (src != kInvalidInstance) needed[src] = true;
    }
    if (!member_seen[inst.member]) {
      member_seen[inst.member] = true;
      merge_members.push_back(inst.member);
    }
  }
  const ChunkLayout& layout = cube.layout();
  const int width = layout.chunk_sizes()[varying_dim];
  std::vector<ChunkId> relevant;
  cube.ForEachChunk([&](ChunkId id, const Chunk&) {
    int base = layout.ChunkBase(id)[varying_dim];
    for (int pos = base; pos < base + width && pos < dim.num_positions(); ++pos) {
      if (needed[pos]) {
        relevant.push_back(id);
        return;
      }
    }
  });

  // How many chunks must be co-resident to merge related instances, under
  // the chosen read order (the Sec. 5.2 pebble count). With the heuristic,
  // the merge-graph chunks are read in the pebbling order (front of the
  // schedule); otherwise everything goes in ascending id order.
  TraceSpan pebble_span("whatif.plan.pebble");
  MergeGraph graph = BuildMergeGraph(cube, varying_dim, merge_members);
  std::vector<ChunkId> schedule;
  if (pebbling_read_order && graph.num_nodes() > 0) {
    PebbleResult pebbled = HeuristicPebble(graph);
    pebble_span.SetDetail("heuristic peak=" + std::to_string(pebbled.peak_pebbles));
    stats->peak_merge_chunks =
        std::max(stats->peak_merge_chunks, pebbled.peak_pebbles);
    PeakMergeChunksGauge()->Set(pebbled.peak_pebbles);
    // Merge-graph chunks (those actually stored) first, in pebbling order;
    // the remaining relevant chunks keep ascending order.
    std::unordered_set<ChunkId> stored(relevant.begin(), relevant.end());
    std::unordered_set<ChunkId> graph_chunks;
    schedule.reserve(relevant.size());
    for (int node : pebbled.order) {
      ChunkId id = graph.chunk(node);
      graph_chunks.insert(id);
      if (stored.count(id) > 0) schedule.push_back(id);
    }
    for (ChunkId id : relevant) {
      if (graph_chunks.count(id) == 0) schedule.push_back(id);
    }
  } else {
    schedule = relevant;  // ForEachChunk iterates ascending.
    if (graph.num_nodes() > 0) {
      std::vector<int> ascending(graph.num_nodes());
      std::iota(ascending.begin(), ascending.end(), 0);
      std::sort(ascending.begin(), ascending.end(), [&](int a, int b) {
        return graph.chunk(a) < graph.chunk(b);
      });
      const int peak = PeakPebblesForOrder(graph, ascending);
      pebble_span.SetDetail("ascending peak=" + std::to_string(peak));
      stats->peak_merge_chunks = std::max(stats->peak_merge_chunks, peak);
      PeakMergeChunksGauge()->Set(peak);
    }
  }
  ++stats->passes;
  stats->chunk_reads += static_cast<int64_t>(schedule.size());
  if (disk != nullptr) ChargeSchedule(disk, schedule, io_window);
}

// For MultipleMdx post-processing: the index of the single-perspective run
// whose output governs moment t under the full semantics.
int GoverningRun(const Perspectives& p, Semantics sem, int t) {
  const std::vector<int>& m = p.moments();
  switch (sem) {
    case Semantics::kStatic:
      return -1;  // Static merges by union; no per-moment governor.
    case Semantics::kForward:
    case Semantics::kExtendedForward: {
      int run = 0;
      for (int i = 0; i < p.size(); ++i) {
        if (m[i] <= t) run = i;
      }
      return run;  // Moments before Pmin ride with run 0.
    }
    case Semantics::kBackward:
    case Semantics::kExtendedBackward: {
      int run = p.size() - 1;
      for (int i = p.size() - 1; i >= 0; --i) {
        if (m[i] >= t) run = i;
      }
      return run;  // Moments after Pmax ride with the last run.
    }
  }
  return 0;
}

}  // namespace

CellValue PerspectiveCube::Evaluate(const CellRef& ref, const RuleSet* rules,
                                    const BatchCellEvaluator* batch) const {
  // A prepared batch evaluator only applies to the branch evaluating the
  // cube it was built over.
  auto batch_for = [batch](const Cube& cube) -> const BatchCellEvaluator* {
    return (batch != nullptr && &batch->data() == &cube) ? batch : nullptr;
  };
  std::vector<int> leaf_coords;
  if (output_.IsLeafRef(ref, &leaf_coords)) {
    if (varying_dim_ >= 0 && !scoped_members_.empty()) {
      MemberId m =
          output_.schema().dimension(varying_dim_).PositionMember(leaf_coords[varying_dim_]);
      if (!InScope(m)) return input_->GetCell(leaf_coords);
    }
    return output_.GetCell(leaf_coords);
  }
  if (mode_ == EvalMode::kVisual) {
    return CellEvaluator(output_, rules, nullptr, batch_for(output_))
        .Evaluate(ref);
  }
  // Non-visual: derived values are retained from the input cube. Refs that
  // pin instances created by a Split, or that name members introduced into
  // the output schema, do not exist in the input; evaluate those on the
  // output instead.
  if (varying_dim_ >= 0) {
    const Dimension& d_in = input_->schema().dimension(varying_dim_);
    const AxisRef& r = ref[varying_dim_];
    if ((r.instance != kInvalidInstance &&
         r.instance >= d_in.num_instances()) ||
        r.member >= d_in.num_members()) {
      return CellEvaluator(output_, rules).Evaluate(ref);
    }
  }
  return CellEvaluator(*input_, rules, nullptr, batch_for(*input_))
      .Evaluate(ref);
}

namespace {

// Mirrors one computation's EvalStats into the process-wide registry when
// the computation finishes (any return path, including errors).
struct EvalStatsFlush {
  const EvalStats* stats;
  ~EvalStatsFlush() {
    MetricsRegistry& reg = MetricsRegistry::Global();
    static Counter* passes = reg.counter("whatif.passes");
    static Counter* chunk_reads = reg.counter("whatif.chunk_reads");
    static Counter* cells_moved = reg.counter("whatif.cells_moved");
    static Counter* cells_seeded = reg.counter("whatif.cells_seeded");
    passes->Increment(stats->passes);
    chunk_reads->Increment(stats->chunk_reads);
    cells_moved->Increment(stats->cells_moved);
    cells_seeded->Increment(stats->cells_seeded);
  }
};

}  // namespace

Result<PerspectiveCube> ComputePerspectiveCube(const Cube& in,
                                               const WhatIfSpec& spec,
                                               EvalStrategy strategy,
                                               SimulatedDisk* disk,
                                               EvalStats* stats,
                                               int eval_threads,
                                               int io_window,
                                               const CancellationToken& cancel) {
  TraceSpan span("whatif.compute_perspective_cube");
  EvalStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = EvalStats{};
  EvalStatsFlush flush{stats};
  double io_before = disk != nullptr ? disk->stats().virtual_seconds : 0.0;

  auto fail = [&span](Status status) {
    span.SetError(status);
    return status;
  };
  // Pass-boundary poll: runs again after the Split and between Relocate
  // passes so a stop request never leaves this function mid-transformation.
  auto interrupted = [&cancel]() -> Status {
    return cancel.Poll("what-if compute");
  };
  if (Status s = interrupted(); !s.ok()) return fail(s);
  if (spec.varying_dim < 0 || spec.varying_dim >= in.num_dims()) {
    return fail(Status::InvalidArgument("what-if spec names no varying dimension"));
  }
  if (!in.schema().is_varying(spec.varying_dim)) {
    return fail(Status::FailedPrecondition(
        "dimension '" + in.schema().dimension(spec.varying_dim).name() +
        "' is not varying"));
  }

  // Positive scenarios first: hypothetical new members are introduced,
  // then hypothetical changes are imposed (which may reference the new
  // members), then any perspectives are applied to the changed cube.
  const Cube* base = &in;
  std::optional<Cube> intro_cube;
  if (!spec.introductions.empty()) {
    ChargeScan(in, spec.varying_dim, {}, disk, stats, io_window);
    Result<Cube> intro =
        IntroduceMembers(in, spec.varying_dim, spec.introductions,
                         eval_threads, cancel, &stats->cells_seeded);
    if (!intro.ok()) return fail(intro.status());
    if (Status s = interrupted(); !s.ok()) return fail(s);
    stats->cells_moved += intro->CountNonNullCells();
    intro_cube = *std::move(intro);
    base = &*intro_cube;
  }
  std::optional<Cube> split_cube;
  if (!spec.changes.empty()) {
    std::vector<MemberId> changed;
    for (const ChangeTuple& tuple : spec.changes) changed.push_back(tuple.member);
    ChargeScan(*base, spec.varying_dim, changed, disk, stats, io_window);
    Result<Cube> split =
        Split(*base, spec.varying_dim, spec.changes, eval_threads, cancel);
    if (!split.ok()) return fail(split.status());
    if (Status s = interrupted(); !s.ok()) return fail(s);
    stats->cells_moved += split->CountNonNullCells();
    split_cube = *std::move(split);
    base = &*split_cube;
  }

  if (spec.perspectives.empty()) {
    // Positive-only query (or the identity when there are no changes
    // either): Split's non-leaf evaluation defaults to non-visual unless
    // the query says otherwise.
    Cube out = split_cube.has_value()
                   ? *std::move(split_cube)
                   : intro_cube.has_value() ? *std::move(intro_cube) : in;
    if (disk != nullptr) {
      stats->virtual_io_seconds = disk->stats().virtual_seconds - io_before;
    }
    return PerspectiveCube(&in, std::move(out), spec.mode, spec.varying_dim);
  }

  const Dimension& dim = base->schema().dimension(spec.varying_dim);
  const int universe = dim.parameter_leaf_count();
  for (int p : spec.perspectives.moments()) {
    if (p < 0 || p >= universe) {
      return fail(Status::OutOfRange("perspective moment out of range"));
    }
  }
  // Scoped (partial) outputs are only sound when derived cells are not
  // recomputed from the output cube.
  const bool scoped =
      !spec.scope_members.empty() && spec.mode == EvalMode::kNonVisual;
  const std::vector<MemberId> scan_scope = EffectiveScope(dim, spec);
  const std::vector<MemberId> relocate_scope =
      scoped ? spec.scope_members : std::vector<MemberId>{};

  if (strategy == EvalStrategy::kDirect) {
    // One pass: transform every validity set, then move the data.
    std::vector<DynamicBitset> vs_out =
        TransformValiditySets(dim, spec.perspectives, spec.semantics);
    ChargeRelocationScan(*base, spec.varying_dim, vs_out, scan_scope,
                         spec.pebbling_read_order, disk, stats, io_window);
    Cube out = Relocate(*base, spec.varying_dim, vs_out, relocate_scope,
                        /*copy_out_of_scope=*/!scoped, &stats->cells_moved,
                        eval_threads, cancel);
    if (Status s = interrupted(); !s.ok()) return fail(s);
    if (disk != nullptr) {
      stats->virtual_io_seconds = disk->stats().virtual_seconds - io_before;
    }
    return PerspectiveCube(&in, std::move(out), spec.mode, spec.varying_dim,
                           scoped ? spec.scope_members : std::vector<MemberId>{});
  }

  // MultipleMdx simulation: k single-perspective queries, then post-process
  // the k result sets into one (the paper's upper-bound baseline).
  const int param_dim = base->schema().parameter_of(spec.varying_dim);
  std::vector<Cube> runs;
  std::vector<std::vector<DynamicBitset>> run_vs;
  runs.reserve(spec.perspectives.size());
  for (int p : spec.perspectives.moments()) {
    if (Status s = interrupted(); !s.ok()) return fail(s);
    Perspectives single({p});
    std::vector<DynamicBitset> vs =
        TransformValiditySets(dim, single, spec.semantics);
    ChargeRelocationScan(*base, spec.varying_dim, vs, scan_scope,
                         spec.pebbling_read_order, disk, stats, io_window);
    runs.push_back(Relocate(*base, spec.varying_dim, vs, relocate_scope,
                            /*copy_out_of_scope=*/!scoped, &stats->cells_moved,
                            eval_threads, cancel));
    run_vs.push_back(std::move(vs));
  }
  if (Status s = interrupted(); !s.ok()) return fail(s);

  // Post-processing pass: merge metadata and cells.
  std::vector<DynamicBitset> merged_vs(dim.num_instances(),
                                       DynamicBitset(universe));
  for (int t = 0; t < universe; ++t) {
    int run = GoverningRun(spec.perspectives, spec.semantics, t);
    for (InstanceId i = 0; i < dim.num_instances(); ++i) {
      if (run < 0) {  // Static: union across runs.
        for (const std::vector<DynamicBitset>& vs : run_vs) {
          if (vs[i].Test(t)) merged_vs[i].Set(t);
        }
      } else if (run_vs[run][i].Test(t)) {
        merged_vs[i].Set(t);
      }
    }
  }
  Schema merged_schema = base->schema();
  {
    Dimension* d_out = merged_schema.mutable_dimension(spec.varying_dim);
    std::unordered_set<MemberId> in_scope(relocate_scope.begin(),
                                          relocate_scope.end());
    for (InstanceId i = 0; i < dim.num_instances(); ++i) {
      if (in_scope.empty() || in_scope.count(dim.instance(i).member) > 0) {
        d_out->SetInstanceValidity(i, merged_vs[i]);
      }
    }
  }
  Cube merged(merged_schema, OptionsOf(*base));
  for (int r = 0; r < static_cast<int>(runs.size()); ++r) {
    if (Status s = interrupted(); !s.ok()) return fail(s);
    runs[r].ForEachChunkCell([&](const std::vector<int>& coords, CellValue v) {
      int governing = GoverningRun(spec.perspectives, spec.semantics,
                                   coords[param_dim]);
      if (governing >= 0 && governing != r) return;
      merged.SetCell(coords, v);
      ++stats->cells_moved;
    });
  }
  if (disk != nullptr) {
    stats->virtual_io_seconds = disk->stats().virtual_seconds - io_before;
  }
  return PerspectiveCube(&in, std::move(merged), spec.mode, spec.varying_dim,
                         scoped ? spec.scope_members : std::vector<MemberId>{});
}

std::vector<ChunkId> RelevantChunks(const Cube& in, int varying_dim,
                                    const std::vector<MemberId>& scope_members) {
  std::vector<ChunkId> out;
  if (scope_members.empty()) {
    in.ForEachChunk([&](ChunkId id, const Chunk&) { out.push_back(id); });
    return out;
  }
  const Dimension& dim = in.schema().dimension(varying_dim);
  std::vector<bool> wanted(dim.num_positions(), false);
  std::unordered_set<MemberId> scope(scope_members.begin(), scope_members.end());
  for (const MemberInstance& inst : dim.instances()) {
    if (scope.count(inst.member) > 0) wanted[inst.id] = true;
  }
  const ChunkLayout& layout = in.layout();
  const int width = layout.chunk_sizes()[varying_dim];
  in.ForEachChunk([&](ChunkId id, const Chunk&) {
    int base = layout.ChunkBase(id)[varying_dim];
    for (int pos = base; pos < base + width && pos < dim.num_positions(); ++pos) {
      if (wanted[pos]) {
        out.push_back(id);
        return;
      }
    }
  });
  return out;
}

std::vector<int> GraphOrderForTraversal(const MergeGraph& g,
                                        const ChunkLayout& layout,
                                        const std::vector<int>& dim_order) {
  assert(static_cast<int>(dim_order.size()) == layout.num_dims());
  // Rank of a chunk = its odometer index when dim_order[0] varies fastest.
  std::vector<int64_t> stride(layout.num_dims());
  int64_t acc = 1;
  for (size_t pos = 0; pos < dim_order.size(); ++pos) {
    stride[dim_order[pos]] = acc;
    acc *= layout.chunks_per_dim()[dim_order[pos]];
  }
  std::vector<int> order(g.num_nodes());
  for (int v = 0; v < g.num_nodes(); ++v) order[v] = v;
  std::vector<int64_t> rank(g.num_nodes());
  for (int v = 0; v < g.num_nodes(); ++v) {
    std::vector<int> cc = layout.ChunkCoords(g.chunk(v));
    int64_t r = 0;
    for (int d = 0; d < layout.num_dims(); ++d) r += stride[d] * cc[d];
    rank[v] = r;
  }
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return rank[a] < rank[b]; });
  return order;
}

int MergeMemoryChunksForOrder(const Cube& in, int varying_dim,
                              const std::vector<MemberId>& members,
                              const std::vector<int>& dim_order) {
  MergeGraph graph = BuildMergeGraph(in, varying_dim, members);
  if (graph.num_nodes() == 0) return 0;
  std::vector<int> order = GraphOrderForTraversal(graph, in.layout(), dim_order);
  return PeakPebblesForOrder(graph, order);
}

MergeResidency MergeResidencyForOrder(const Cube& in, int varying_dim,
                                      const std::vector<MemberId>& members,
                                      const std::vector<int>& dim_order) {
  MergeResidency out;
  MergeGraph graph = BuildMergeGraph(in, varying_dim, members);
  if (graph.num_nodes() == 0) return out;
  const ChunkLayout& layout = in.layout();

  // Traversal rank of each graph chunk when dim_order[0] varies fastest.
  std::vector<int64_t> stride(layout.num_dims());
  int64_t acc = 1;
  for (size_t pos = 0; pos < dim_order.size(); ++pos) {
    stride[dim_order[pos]] = acc;
    acc *= layout.chunks_per_dim()[dim_order[pos]];
  }
  std::vector<int64_t> rank(graph.num_nodes());
  for (int v = 0; v < graph.num_nodes(); ++v) {
    std::vector<int> cc = layout.ChunkCoords(graph.chunk(v));
    int64_t r = 0;
    for (int d = 0; d < layout.num_dims(); ++d) r += stride[d] * cc[d];
    rank[v] = r;
  }

  // A chunk is buffered from its own rank until the max rank among itself
  // and its merge partners.
  std::vector<std::pair<int64_t, int64_t>> intervals;
  intervals.reserve(graph.num_nodes());
  for (int v = 0; v < graph.num_nodes(); ++v) {
    int64_t release = rank[v];
    for (int w : graph.neighbors(v)) release = std::max(release, rank[w]);
    intervals.emplace_back(rank[v], release);
    out.buffer_steps += release - rank[v] + 1;
  }
  // Peak via an event sweep.
  std::vector<std::pair<int64_t, int>> events;
  events.reserve(intervals.size() * 2);
  for (const auto& [start, end] : intervals) {
    events.emplace_back(start, +1);
    events.emplace_back(end + 1, -1);
  }
  std::sort(events.begin(), events.end());
  int current = 0;
  for (const auto& [at, delta] : events) {
    (void)at;
    current += delta;
    out.peak_chunks = std::max(out.peak_chunks, current);
  }
  return out;
}

}  // namespace olap
