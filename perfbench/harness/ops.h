#ifndef OLAP_PERFBENCH_HARNESS_OPS_H_
#define OLAP_PERFBENCH_HARNESS_OPS_H_

// Seeded operation generator for the repository benchmark. The generator
// sees the cube only through CubeShape (names and cell coordinates), so
// the program under test receives nothing but the cube file and the
// operation stream, and the same (workload, shape, seed) always yields the
// same stream.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"

namespace olap {
class Cube;
}  // namespace olap

namespace olap::perfbench {

enum class Workload { kWhatifMix, kRollupDashboard, kEditFeed, kOutofcoreScan };

// "whatif_mix" | "rollup_dashboard" | "edit_feed" | "outofcore_scan".
const char* WorkloadName(Workload w);
bool ParseWorkload(std::string_view name, Workload* out);

enum class OpClass { kQuery, kEdit, kRefresh };
inline constexpr int kNumOpClasses = 3;
// "query" | "edit" | "refresh".
const char* OpClassName(OpClass c);

// What the generator knows about the workforce cube: member names for MDX
// text and leaf coordinates (dimension order of BuildWorkforceCube) for
// cell writes.
struct CubeShape {
  int num_dims = 0;
  int dept_dim = 0;
  int period_dim = 1;
  int account_dim = 2;
  int scenario_dim = 3;
  std::vector<std::string> months;       // Period leaves, in order.
  std::vector<std::string> measures;     // Account leaves.
  std::vector<std::string> scenarios;    // Scenario leaves.
  std::vector<std::string> departments;  // Children of the Department root.

  struct Instance {
    int position = 0;         // Department-dim coordinate.
    int dept = 0;             // Index into `departments`.
    std::vector<int> months;  // Period ordinals where the instance is valid.
  };
  struct Employee {
    std::string name;
    int home_dept = 0;  // Department of the first instance.
    std::vector<Instance> instances;
  };
  std::vector<Employee> employees;
  std::vector<int> changing;  // Indices into `employees` (>1 instance).
  std::vector<int> stable;    // The rest.
};

// Extracts the shape of a cube built by BuildWorkforceCube (or loaded from
// its saved file).
CubeShape ShapeOf(const Cube& cube);

// One integer-valued cell write at leaf coordinates.
struct Write {
  std::vector<int> coords;
  int64_t value = 0;
};

struct Op {
  OpClass cls = OpClass::kQuery;
  std::string mdx;            // kQuery.
  std::vector<Write> writes;  // kEdit / kRefresh.
  // The operation's place in the repeating cycle: its pool index, or its
  // position in edit_feed's fixed cycle. Operations of one slot do the same
  // work every cycle.
  int slot = 0;
};

// The infinite operation stream of one workload.
//
// Pool workloads (whatif_mix, rollup_dashboard, outofcore_scan) draw
// queries from a fixed per-seed pool in shuffled cycles: every cycle is a
// permutation of the pool, and a reference answer per pool entry can be
// computed before timing. edit_feed's cycle is a fixed per-seed sequence
// of sixteen rounds, each three (ApplyCellEdits batch, read of the edited
// department) pairs and one live-scenario refresh batch; every cycle
// writes the same cells with new values.
class OpStream {
 public:
  OpStream(Workload workload, const CubeShape& shape, uint64_t seed);

  const std::vector<std::string>& pool() const { return pool_; }
  Op Next();
  // True when the next operation starts a new cycle (pool permutation or
  // edit_feed round). Runs stop only there, so every run sees whole cycles.
  bool at_cycle_start() const;

 private:
  Op MakeEditFeedOp(int64_t index, int batch_size);
  void Shuffle(std::vector<int>* v);
  Write RandomWrite(const CubeShape::Instance& inst);

  Workload workload_;
  const CubeShape* shape_;
  Rng rng_;
  std::vector<std::string> pool_;
  std::vector<int> cycle_;  // Current permutation of pool indices.
  size_t cycle_pos_ = 0;
  std::vector<Op> edit_cycle_;  // edit_feed's fixed cycle.
  int64_t emitted_ = 0;         // edit_feed operations so far.
  std::string pending_read_;    // Read following the last generated edit.
};

// Query pools, exposed for tests and for the report.
std::vector<std::string> WhatifMixPool(const CubeShape& shape, Rng* rng);
std::vector<std::string> RollupDashboardPool(const CubeShape& shape, Rng* rng);
std::vector<std::string> OutofcoreScanPool(const CubeShape& shape, Rng* rng);

}  // namespace olap::perfbench

#endif  // OLAP_PERFBENCH_HARNESS_OPS_H_
