#ifndef OLAP_WHATIF_PERSPECTIVE_CUBE_H_
#define OLAP_WHATIF_PERSPECTIVE_CUBE_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "agg/batch_eval.h"
#include "common/status.h"
#include "cube/cube.h"
#include "rules/rule.h"
#include "storage/simulated_disk.h"
#include "whatif/merge_graph.h"
#include "whatif/operators.h"
#include "whatif/perspective.h"

namespace olap {

// A complete what-if specification: the parsed form of the paper's extended
// MDX clauses
//
//   WITH PERSPECTIVE {p1,...,pk} FOR <dim> <semantics> <mode>    (negative)
//   WITH CHANGES R(m,o,n,t) <mode>                               (positive)
//   WITH INTRODUCE {(name, parent, ...)} FOR <dim> <mode>        (positive)
//
// A query may carry all three (introductions applied first, then positive
// changes, then perspectives).
struct WhatIfSpec {
  int varying_dim = -1;
  Perspectives perspectives;  // Empty => no negative scenario.
  Semantics semantics = Semantics::kStatic;
  EvalMode mode = EvalMode::kNonVisual;
  ChangeRelation changes;  // Empty => no positive scenario.
  // Hypothetical new members, applied before `changes` (a change may then
  // reference an introduced member). Empty => no introduction.
  std::vector<NewMemberSpec> introductions;
  // Optional Sec. 6.3 optimisation: restrict instance merging to these
  // members (the varying members actually in the query's scope). Empty =>
  // every member.
  std::vector<MemberId> scope_members;
  // Order the merge-relevant chunk reads by the Sec. 5.2 pebbling
  // heuristic instead of ascending chunk id: minimises the peak number of
  // chunks that must be co-resident for merging (EvalStats reports both).
  bool pebbling_read_order = false;
};

// How the perspective cube is computed (the paper's Fig. 11 comparison).
enum class EvalStrategy {
  // One pass: perspectives organised into ranges, structures imposed
  // directly (the paper's implementation).
  kDirect,
  // Upper-bound simulation: one single-perspective query per p_i plus
  // post-processing of the k result sets into one (the paper's
  // "Multiple MDX" series).
  kMultipleMdx,
};

// Work counters for one perspective-cube computation.
struct EvalStats {
  int64_t passes = 0;          // Scans over the relevant chunks.
  int64_t chunk_reads = 0;     // Chunks fetched (before cache).
  int64_t cells_moved = 0;     // Leaf cells written into the output.
  int64_t cells_seeded = 0;    // Cells written by introduction seeding rules.
  double virtual_io_seconds = 0.0;  // From the SimulatedDisk, if any.
  // Peak chunks that had to stay co-resident for instance merging, under
  // the read order actually used (Sec. 5.2's pebble count).
  int peak_merge_chunks = 0;
};

// The result of a what-if query: the transformed cube plus everything
// needed to evaluate derived cells under the requested mode.
//
// The input cube must outlive this object (non-visual evaluation and
// out-of-scope leaf reads go to it).
//
// When the computation was scoped to a member set (non-visual mode only),
// the output cube holds only the scoped members' relocated cells; leaf
// reads of other members transparently fall back to the input cube.
class PerspectiveCube {
 public:
  PerspectiveCube(const Cube* input, Cube output, EvalMode mode,
                  int varying_dim = -1,
                  std::vector<MemberId> scoped_members = {})
      : input_(input),
        output_(std::move(output)),
        mode_(mode),
        varying_dim_(varying_dim),
        scoped_members_(scoped_members.begin(), scoped_members.end()) {}

  const Cube& input() const { return *input_; }
  const Cube& output() const { return output_; }
  // For delta refresh: patch affected output chunks in place.
  Cube* mutable_output() { return &output_; }
  EvalMode mode() const { return mode_; }

  // Cell value under the query's evaluation mode:
  //  * leaf cells come from the transformed output cube (or the input cube
  //    for members outside a scoped computation);
  //  * derived cells are evaluated on the output cube (visual) or retained
  //    from the input cube (non-visual).
  // `rules` may be null (pure roll-up).
  // `batch` (nullable) is a prepared batched evaluator; it is used only for
  // the branch whose evaluation cube matches batch->data() (the output cube
  // in visual mode, the input cube otherwise) — other branches keep the
  // per-cell path.
  CellValue Evaluate(const CellRef& ref, const RuleSet* rules = nullptr,
                     const BatchCellEvaluator* batch = nullptr) const;

 private:
  bool InScope(MemberId m) const {
    return scoped_members_.empty() || scoped_members_.count(m) > 0;
  }

  const Cube* input_;
  Cube output_;
  EvalMode mode_;
  int varying_dim_;
  std::unordered_set<MemberId> scoped_members_;
};

// Computes the perspective cube for `spec` over `in`.
//
// `disk` (optional) charges every chunk fetched during the computation to
// the simulated device; `stats` (optional) receives work counters.
// `eval_threads` parallelises the Split/Relocate data movement over the
// shared thread pool; results are bit-identical at every thread count.
//
// `io_window` sets how the read passes are charged to `disk`: 1 (the
// default) charges one ReadChunk per scheduled chunk; a wider window walks
// the pebbling schedule with the out-of-core reader's window
// (ChargeSchedule, storage/chunk_pipeline.h) and charges each run of
// adjacent chunk ids as one ranged read. Charging only; the computed cube
// is identical.
//
// `cancel` is polled at pass boundaries and threaded into the Split /
// Relocate data movement (chunk granularity); a stop request returns
// kCancelled / kDeadlineExceeded with no partially-built cube escaping.
Result<PerspectiveCube> ComputePerspectiveCube(
    const Cube& in, const WhatIfSpec& spec,
    EvalStrategy strategy = EvalStrategy::kDirect,
    SimulatedDisk* disk = nullptr, EvalStats* stats = nullptr,
    int eval_threads = 1, int io_window = 1,
    const CancellationToken& cancel = {});

// --- Lemma 5.1 / Sec. 5.2 planning helpers --------------------------------

// Chunk ids that hold data of the scoped members' instances (the chunks a
// scoped perspective query must read), ascending.
std::vector<ChunkId> RelevantChunks(const Cube& in, int varying_dim,
                                    const std::vector<MemberId>& scope_members);

// Orders the merge graph's nodes by the position at which a full chunk-grid
// traversal in `dim_order` (dim_order[0] fastest) visits each node's chunk.
// Feeding the result to PeakPebblesForOrder measures the memory behaviour of
// that dimension order — the quantity compared by Lemma 5.1.
std::vector<int> GraphOrderForTraversal(const MergeGraph& g,
                                        const ChunkLayout& layout,
                                        const std::vector<int>& dim_order);

// Convenience: peak co-resident chunks when reading the grid in `dim_order`
// while honouring the merge dependencies of `members`.
int MergeMemoryChunksForOrder(const Cube& in, int varying_dim,
                              const std::vector<MemberId>& members,
                              const std::vector<int>& dim_order);

// The full memory picture behind Lemma 5.1. Each merge-graph chunk must
// stay buffered from the traversal step that reads it until the step that
// reads its last merge partner. Measured on the full chunk-grid timeline:
//  * peak_chunks      — max simultaneously buffered chunks;
//  * buffer_steps     — Σ over chunks of (release step - read step + 1),
//                       i.e. buffered-chunk × traversal-step area. This is
//                       the quantity a varying-dimension-first order
//                       shrinks dramatically ("we need to hold all those
//                       chunks in memory till the corresponding chunks ...
//                       are read in", Sec. 5.1).
struct MergeResidency {
  int peak_chunks = 0;
  int64_t buffer_steps = 0;
};
MergeResidency MergeResidencyForOrder(const Cube& in, int varying_dim,
                                      const std::vector<MemberId>& members,
                                      const std::vector<int>& dim_order);

}  // namespace olap

#endif  // OLAP_WHATIF_PERSPECTIVE_CUBE_H_
