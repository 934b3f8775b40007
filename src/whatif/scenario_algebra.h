#ifndef OLAP_WHATIF_SCENARIO_ALGEBRA_H_
#define OLAP_WHATIF_SCENARIO_ALGEBRA_H_

#include <cstdint>
#include <vector>

#include "agg/batch_eval.h"
#include "common/cancellation.h"
#include "common/status.h"
#include "cube/cube.h"
#include "rules/rule.h"
#include "whatif/perspective_cube.h"

namespace olap {

// ---------------------------------------------------------------------------
// Scenario algebra: composition and comparison of what-if scenarios
// ---------------------------------------------------------------------------
//
// WhatIfSpec describes ONE canonical scenario (introductions, then changes,
// then perspectives — the order the paper's extended MDX implies). The
// scenario algebra generalises that to *pipelines*: an ordered stack of
// positive (introduce, split) and negative (perspective) operations over
// one varying dimension, composed with scenarios over other dimensions,
// with a single evaluation-mode resolution rule (visual wins). It also
// closes the algebra under *comparison*: containment / overlap / distance
// between two scenarios' result cubes, evaluated cell-by-cell over a common
// ref set so shared cover views are computed once.

// One step of a scenario pipeline. Exactly one payload is meaningful,
// selected by `kind`.
struct ScenarioOp {
  enum class Kind { kIntroduce, kSplit, kPerspective };
  Kind kind = Kind::kSplit;

  std::vector<NewMemberSpec> introductions;   // kIntroduce
  ChangeRelation changes;                     // kSplit
  Perspectives perspectives;                  // kPerspective
  Semantics semantics = Semantics::kStatic;   // kPerspective

  static ScenarioOp Introduce(std::vector<NewMemberSpec> specs) {
    ScenarioOp op;
    op.kind = Kind::kIntroduce;
    op.introductions = std::move(specs);
    return op;
  }
  static ScenarioOp SplitOp(ChangeRelation changes) {
    ScenarioOp op;
    op.kind = Kind::kSplit;
    op.changes = std::move(changes);
    return op;
  }
  static ScenarioOp Perspective(Perspectives perspectives,
                                Semantics semantics) {
    ScenarioOp op;
    op.kind = Kind::kPerspective;
    op.perspectives = std::move(perspectives);
    op.semantics = semantics;
    return op;
  }
};

// A full scenario over one varying dimension: an ordered op stack plus the
// evaluation mode and the execution knobs WhatIfSpec carries.
struct ScenarioSpec {
  int varying_dim = -1;
  EvalMode mode = EvalMode::kNonVisual;
  std::vector<ScenarioOp> ops;
  // Sec. 6.3 merge scoping (non-visual only); applies to the canonical
  // single-pass pipeline, ignored by general op stacks.
  std::vector<MemberId> scope_members;
  bool pebbling_read_order = false;

  // Lossless embedding of the classic spec: [introduce?, split?,
  // perspective?] in canonical order.
  static ScenarioSpec FromWhatIf(const WhatIfSpec& spec);

  // True when `ops` matches the canonical order with each kind at most
  // once — the shape ComputePerspectiveCube evaluates in one pass.
  bool canonical() const;
  // The WhatIfSpec equivalent; valid only when canonical().
  WhatIfSpec CanonicalWhatIf() const;
};

// Execution knobs shared by composition and comparison, mirroring the
// ComputePerspectiveCube parameter list.
struct ScenarioEvalOptions {
  EvalStrategy strategy = EvalStrategy::kDirect;
  SimulatedDisk* disk = nullptr;
  EvalStats* stats = nullptr;  // Reset, then accumulated across stages.
  int eval_threads = 1;
  int io_window = 1;  // See ComputePerspectiveCube.
  CancellationToken cancel;
};

// Evaluates one scenario. A canonical spec takes the single-pass
// ComputePerspectiveCube path (bit-identical to the classic WhatIfSpec
// route, including scoping); a general op stack is applied stage by stage,
// each stage transforming the previous stage's output cube.
Result<PerspectiveCube> ComputeScenario(const Cube& in,
                                        const ScenarioSpec& spec,
                                        const ScenarioEvalOptions& opts = {});

// Composes several scenarios (typically one per varying dimension) into a
// single perspective cube: specs apply in order, each over the previous
// output; derived cells follow the combined mode (visual wins). An empty
// spec list yields the identity scenario (the base cube, non-visual).
// Increments the scenario.compose.* counters.
Result<PerspectiveCube> ComposeScenarios(const Cube& in,
                                         const std::vector<ScenarioSpec>& specs,
                                         const ScenarioEvalOptions& opts = {});

// ---------------------------------------------------------------------------
// Scenario comparison
// ---------------------------------------------------------------------------

// Containment / overlap / distance between two scenarios' result cubes,
// measured over an explicit ref set (a query grid). A cell is *active* in a
// scenario when it evaluates non-⊥; distances treat ⊥ as 0.
//
// Laws (asserted by the metamorphic suite):
//   * distance symmetry:      l1/l2/linf(A,B) == l1/l2/linf(B,A);
//   * containment reflexivity: Compare(A,A) has both containments and
//     zero distance;
//   * containment antisymmetry: both containments => identical active
//     sets (overlap == active_a == active_b);
//   * overlap bound:          overlap <= min(active_a, active_b).
struct ScenarioComparison {
  int64_t cells_compared = 0;
  int64_t active_a = 0;
  int64_t active_b = 0;
  int64_t overlap = 0;       // Cells active in both.
  bool a_contains_b = true;  // Every B-active cell is A-active.
  bool b_contains_a = true;
  double l1 = 0.0;
  double l2 = 0.0;
  double linf = 0.0;
  // overlap / |active union|; 1.0 when both scenarios are empty.
  double jaccard = 1.0;
  // Per-ref values, aligned with the input ref order (for rendering a
  // delta grid).
  std::vector<CellValue> values_a;
  std::vector<CellValue> values_b;
};

struct ScenarioCompareOptions {
  ScenarioEvalOptions eval;
  // Serve derived cells of non-visual scenarios through one shared batched
  // evaluator prepared over the common ref set (cover views computed once
  // for both sides). scenario.compare.shared_views counts the views shared.
  bool batched_eval = true;
  BatchEvalOptions batch;  // Governor hooks etc.; cancel comes from `eval`.
};

// Evaluates both scenario stacks over `in`, then compares them cell-by-cell
// across `refs`. Increments the scenario.compare.* counters. Cancellation
// (opts.eval.cancel) is polled between stages and per compared cell.
Result<ScenarioComparison> CompareScenarios(
    const Cube& in, const std::vector<ScenarioSpec>& a,
    const std::vector<ScenarioSpec>& b, const std::vector<CellRef>& refs,
    const RuleSet* rules, const ScenarioCompareOptions& opts = {});

}  // namespace olap

#endif  // OLAP_WHATIF_SCENARIO_ALGEBRA_H_
