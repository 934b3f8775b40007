#include "whatif/scenario_algebra.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <utility>

#include "common/metrics.h"
#include "common/trace.h"

namespace olap {

ScenarioSpec ScenarioSpec::FromWhatIf(const WhatIfSpec& spec) {
  ScenarioSpec s;
  s.varying_dim = spec.varying_dim;
  s.mode = spec.mode;
  s.scope_members = spec.scope_members;
  s.pebbling_read_order = spec.pebbling_read_order;
  if (!spec.introductions.empty()) {
    s.ops.push_back(ScenarioOp::Introduce(spec.introductions));
  }
  if (!spec.changes.empty()) {
    s.ops.push_back(ScenarioOp::SplitOp(spec.changes));
  }
  if (!spec.perspectives.empty()) {
    s.ops.push_back(ScenarioOp::Perspective(spec.perspectives, spec.semantics));
  }
  return s;
}

bool ScenarioSpec::canonical() const {
  // Canonical order is [introduce?, split?, perspective?]: kinds strictly
  // ascending in the Kind enum's declaration order, each at most once.
  int last = -1;
  for (const ScenarioOp& op : ops) {
    const int k = static_cast<int>(op.kind);
    if (k <= last) return false;
    last = k;
  }
  return true;
}

WhatIfSpec ScenarioSpec::CanonicalWhatIf() const {
  WhatIfSpec spec;
  spec.varying_dim = varying_dim;
  spec.mode = mode;
  spec.scope_members = scope_members;
  spec.pebbling_read_order = pebbling_read_order;
  for (const ScenarioOp& op : ops) {
    switch (op.kind) {
      case ScenarioOp::Kind::kIntroduce:
        spec.introductions = op.introductions;
        break;
      case ScenarioOp::Kind::kSplit:
        spec.changes = op.changes;
        break;
      case ScenarioOp::Kind::kPerspective:
        spec.perspectives = op.perspectives;
        spec.semantics = op.semantics;
        break;
    }
  }
  return spec;
}

namespace {

void AccumulateStats(EvalStats* into, const EvalStats& stage) {
  into->passes += stage.passes;
  into->chunk_reads += stage.chunk_reads;
  into->cells_moved += stage.cells_moved;
  into->cells_seeded += stage.cells_seeded;
  into->virtual_io_seconds += stage.virtual_io_seconds;
  into->peak_merge_chunks =
      std::max(into->peak_merge_chunks, stage.peak_merge_chunks);
}

// A general op stack, applied stage by stage: every op becomes one
// single-purpose WhatIfSpec evaluated through ComputePerspectiveCube (which
// owns the read-pass charging, stats, and cancellation polling), and only
// the stage's output cube is carried forward. By construction this makes
// Compose(ops) bit-identical to sequentially applying each op.
Result<Cube> ApplyScenarioOps(const Cube& start, const ScenarioSpec& spec,
                              const ScenarioEvalOptions& opts,
                              EvalStats* stats) {
  const Cube* cur = &start;
  std::optional<Cube> held;
  for (const ScenarioOp& op : spec.ops) {
    WhatIfSpec ws;
    ws.varying_dim = spec.varying_dim;
    // Intermediate stages only contribute their output cube; the final
    // evaluation mode is applied by the caller's PerspectiveCube.
    ws.mode = EvalMode::kNonVisual;
    ws.pebbling_read_order = spec.pebbling_read_order;
    switch (op.kind) {
      case ScenarioOp::Kind::kIntroduce:
        ws.introductions = op.introductions;
        break;
      case ScenarioOp::Kind::kSplit:
        ws.changes = op.changes;
        break;
      case ScenarioOp::Kind::kPerspective:
        ws.perspectives = op.perspectives;
        ws.semantics = op.semantics;
        break;
    }
    EvalStats stage_stats;
    Result<PerspectiveCube> stage = ComputePerspectiveCube(
        *cur, ws, opts.strategy, opts.disk, &stage_stats, opts.eval_threads,
        opts.io_window, opts.cancel);
    if (!stage.ok()) return stage.status();
    AccumulateStats(stats, stage_stats);
    held = stage->output();
    cur = &*held;
  }
  if (!held.has_value()) return Cube(start);  // Empty stack: identity.
  return *std::move(held);
}

struct ComposeMetrics {
  Counter* runs;
  Counter* ops;
  Counter* introduced_members;
  static const ComposeMetrics& Get() {
    static ComposeMetrics m{
        MetricsRegistry::Global().counter("scenario.compose.runs"),
        MetricsRegistry::Global().counter("scenario.compose.ops"),
        MetricsRegistry::Global().counter("scenario.compose.introduced_members"),
    };
    return m;
  }
};

}  // namespace

Result<PerspectiveCube> ComputeScenario(const Cube& in,
                                        const ScenarioSpec& spec,
                                        const ScenarioEvalOptions& opts) {
  return ComposeScenarios(in, {spec}, opts);
}

Result<PerspectiveCube> ComposeScenarios(const Cube& in,
                                         const std::vector<ScenarioSpec>& specs,
                                         const ScenarioEvalOptions& opts) {
  TraceSpan span("scenario.compose");
  const ComposeMetrics& cm = ComposeMetrics::Get();
  cm.runs->Increment();
  int64_t total_ops = 0;
  int64_t introduced = 0;
  for (const ScenarioSpec& spec : specs) {
    total_ops += static_cast<int64_t>(spec.ops.size());
    for (const ScenarioOp& op : spec.ops) {
      if (op.kind == ScenarioOp::Kind::kIntroduce) {
        introduced += static_cast<int64_t>(op.introductions.size());
      }
    }
  }
  cm.ops->Increment(total_ops);
  cm.introduced_members->Increment(introduced);
  span.SetDetail("specs=" + std::to_string(specs.size()) +
                 " ops=" + std::to_string(total_ops));

  auto fail = [&span](Status status) {
    span.SetError(status);
    return status;
  };
  EvalStats local_stats;
  EvalStats* stats = opts.stats != nullptr ? opts.stats : &local_stats;

  if (specs.empty()) {
    // The identity scenario: the base cube itself, non-visual.
    *stats = EvalStats{};
    if (Status s = opts.cancel.Poll("scenario.compose"); !s.ok()) {
      return fail(s);
    }
    return PerspectiveCube(&in, Cube(in), EvalMode::kNonVisual);
  }

  if (specs.size() == 1 && specs[0].canonical()) {
    // The classic single-pass route, bit-identical to the pre-algebra
    // executor path (ComputePerspectiveCube resets and fills `stats`).
    Result<PerspectiveCube> pc = ComputePerspectiveCube(
        in, specs[0].CanonicalWhatIf(), opts.strategy, opts.disk, stats,
        opts.eval_threads, opts.io_window, opts.cancel);
    if (!pc.ok()) return fail(pc.status());
    return pc;
  }

  *stats = EvalStats{};
  // Combined evaluation mode across the stack: visual wins.
  EvalMode combined = EvalMode::kNonVisual;
  for (const ScenarioSpec& spec : specs) {
    if (spec.mode == EvalMode::kVisual) combined = EvalMode::kVisual;
  }
  Cube current = in;
  for (const ScenarioSpec& spec : specs) {
    if (spec.canonical()) {
      EvalStats stage_stats;
      Result<PerspectiveCube> stage = ComputePerspectiveCube(
          current, spec.CanonicalWhatIf(), opts.strategy, opts.disk,
          &stage_stats, opts.eval_threads, opts.io_window, opts.cancel);
      if (!stage.ok()) return fail(stage.status());
      AccumulateStats(stats, stage_stats);
      current = stage->output();
    } else {
      Result<Cube> next = ApplyScenarioOps(current, spec, opts, stats);
      if (!next.ok()) return fail(next.status());
      current = *std::move(next);
    }
  }
  // A single-spec stack keeps its varying dimension (so refs pinning
  // introduced or split instances route to the output cube); multi-spec
  // composition keeps the historical unattributed form.
  const int vd = specs.size() == 1 ? specs[0].varying_dim : -1;
  return PerspectiveCube(&in, std::move(current), combined, vd);
}

namespace {

struct CompareMetrics {
  Counter* runs;
  Counter* cells;
  Counter* shared_views;
  static const CompareMetrics& Get() {
    static CompareMetrics m{
        MetricsRegistry::Global().counter("scenario.compare.runs"),
        MetricsRegistry::Global().counter("scenario.compare.cells"),
        MetricsRegistry::Global().counter("scenario.compare.shared_views"),
    };
    return m;
  }
};

}  // namespace

Result<ScenarioComparison> CompareScenarios(
    const Cube& in, const std::vector<ScenarioSpec>& a,
    const std::vector<ScenarioSpec>& b, const std::vector<CellRef>& refs,
    const RuleSet* rules, const ScenarioCompareOptions& opts) {
  TraceSpan span("scenario.compare");
  const CompareMetrics& cm = CompareMetrics::Get();
  cm.runs->Increment();
  cm.cells->Increment(static_cast<int64_t>(refs.size()));
  span.SetDetail("cells=" + std::to_string(refs.size()));

  auto fail = [&span](Status status) {
    span.SetError(status);
    return status;
  };
  const CancellationToken& cancel = opts.eval.cancel;

  EvalStats stats_a, stats_b;
  ScenarioEvalOptions eval = opts.eval;
  eval.stats = &stats_a;
  Result<PerspectiveCube> pa = ComposeScenarios(in, a, eval);
  if (!pa.ok()) return fail(pa.status());
  if (Status s = cancel.Poll("scenario.compare"); !s.ok()) return fail(s);
  eval.stats = &stats_b;
  Result<PerspectiveCube> pb = ComposeScenarios(in, b, eval);
  if (!pb.ok()) return fail(pb.status());
  if (Status s = cancel.Poll("scenario.compare"); !s.ok()) return fail(s);
  if (opts.eval.stats != nullptr) {
    *opts.eval.stats = stats_a;
    AccumulateStats(opts.eval.stats, stats_b);
  }

  // Cross-scenario view sharing: when both scenarios retain derived values
  // from the same input cube (non-visual), one batched evaluator prepared
  // over the common ref set serves both sides — the shared cover views are
  // materialized once instead of per scenario.
  std::optional<BatchCellEvaluator> shared;
  const BatchCellEvaluator* batch = nullptr;
  if (opts.batched_eval && !refs.empty() &&
      pa->mode() == EvalMode::kNonVisual &&
      pb->mode() == EvalMode::kNonVisual) {
    BatchEvalOptions batch_options = opts.batch;
    batch_options.cancel = cancel;
    shared.emplace(in, nullptr, batch_options);
    shared->PrepareRefs(refs);
    if (Status s = cancel.Poll("scenario.compare"); !s.ok()) return fail(s);
    batch = &*shared;
    cm.shared_views->Increment(shared->num_scratch_views());
  }

  ScenarioComparison cmp;
  cmp.cells_compared = static_cast<int64_t>(refs.size());
  cmp.values_a.reserve(refs.size());
  cmp.values_b.reserve(refs.size());
  double l2_sq = 0.0;
  for (const CellRef& ref : refs) {
    if (Status s = cancel.Poll("scenario.compare"); !s.ok()) return fail(s);
    const CellValue va = pa->Evaluate(ref, rules, batch);
    const CellValue vb = pb->Evaluate(ref, rules, batch);
    cmp.values_a.push_back(va);
    cmp.values_b.push_back(vb);
    const bool act_a = va.has_value();
    const bool act_b = vb.has_value();
    if (act_a) ++cmp.active_a;
    if (act_b) ++cmp.active_b;
    if (act_a && act_b) ++cmp.overlap;
    if (act_b && !act_a) cmp.a_contains_b = false;
    if (act_a && !act_b) cmp.b_contains_a = false;
    const double da = va.value_or(0.0);
    const double db = vb.value_or(0.0);
    const double diff = std::fabs(da - db);
    cmp.l1 += diff;
    l2_sq += diff * diff;
    cmp.linf = std::max(cmp.linf, diff);
  }
  cmp.l2 = std::sqrt(l2_sq);
  const int64_t active_union = cmp.active_a + cmp.active_b - cmp.overlap;
  cmp.jaccard = active_union > 0
                    ? static_cast<double>(cmp.overlap) / active_union
                    : 1.0;
  return cmp;
}

}  // namespace olap
