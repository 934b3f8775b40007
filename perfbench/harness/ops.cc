#include "harness/ops.h"

#include <algorithm>

#include "cube/cube.h"

namespace olap::perfbench {

namespace {

constexpr const char* kSemantics[] = {"STATIC", "DYNAMIC FORWARD",
                                      "EXTENDED FORWARD", "DYNAMIC BACKWARD",
                                      "EXTENDED BACKWARD"};
constexpr const char* kCube = "[App].[Db]";
// edit_feed: a round is (edit, read) x 3 and one refresh; a cycle is
// kRoundsPerCycle rounds.
constexpr int64_t kRoundOps = 7;
constexpr int64_t kRoundsPerCycle = 16;
// Every changing employee (the three Fig. 10(a) sets together).
constexpr const char* kAllChanging =
    "{Union({Union({[EmployeesWithAtleastOneMove-Set1].Children}, "
    "{[EmployeesWithAtleastOneMove-Set2].Children})}, "
    "{[EmployeesWithAtleastOneMove-Set3].Children})}";
constexpr const char* kAllPeriods = "{Descendants([Period],1,self_and_after)}";
constexpr const char* kQuarters = "{Descendants([Period],1)}";
constexpr const char* kMeasures = "{[Account].Levels(0).Members}";
// Fig. 10's input-value column tuple.
constexpr const char* kMeasureColumns =
    "{CrossJoin({[Account].Levels(0).Members}, "
    "{([Current], [Local], [BU Version_1], [HSP_InputValue])})}";

template <typename T>
const T& Pick(const std::vector<T>& v, Rng* rng) {
  return v[rng->NextBelow(v.size())];
}

std::string Bracket(const std::string& name) { return "[" + name + "]"; }

// "{(Feb), (May), ...}": k distinct months in calendar order.
std::string PerspectiveSet(const CubeShape& shape, int k, Rng* rng) {
  std::vector<int> months(shape.months.size());
  for (size_t i = 0; i < months.size(); ++i) months[i] = static_cast<int>(i);
  for (int i = 0; i < k; ++i) {
    std::swap(months[i], months[i + rng->NextBelow(months.size() - i)]);
  }
  std::sort(months.begin(), months.begin() + k);
  std::string out = "{";
  for (int i = 0; i < k; ++i) {
    if (i) out += ", ";
    out += "(" + shape.months[months[i]] + ")";
  }
  return out + "}";
}

std::string Slicer(const CubeShape& shape, Rng* rng) {
  return " WHERE (" + Bracket(Pick(shape.measures, rng)) + ", " +
         Bracket(Pick(shape.scenarios, rng)) + ")";
}

std::string Select(const std::string& columns, const std::string& rows) {
  return "SELECT " + columns + " ON COLUMNS, " + rows + " ON ROWS FROM " +
         kCube;
}

// Non-visual measure x (first n changing employees x periods) grid under a
// k-month perspective (Fig. 10(c) / Fig. 13).
std::string HeadGrid(const CubeShape& shape, int n, int k, int semantics,
                     Rng* rng) {
  return "WITH PERSPECTIVE " + PerspectiveSet(shape, k, rng) +
         " FOR Department " + kSemantics[semantics] + " NONVISUAL " +
         Select(kMeasureColumns, "{CrossJoin({Head(" +
                                     std::string(kAllChanging) + ", " +
                                     std::to_string(n) + ")}, " + kAllPeriods +
                                     ")}");
}

// A stable employee hypothetically reparented mid-year (the Split
// operator); returns the WITH CHANGES clause.
std::string ChangesClause(const CubeShape& shape, Rng* rng) {
  const CubeShape::Employee& emp = shape.employees[Pick(shape.stable, rng)];
  const std::string& home = shape.departments[emp.home_dept];
  int target = static_cast<int>(rng->NextBelow(shape.departments.size() - 1));
  if (target >= emp.home_dept) ++target;
  const int moment =
      1 + static_cast<int>(rng->NextBelow(shape.months.size() - 1));
  return "WITH CHANGES {(" + Bracket(home) + "." + Bracket(emp.name) + ", " +
         Bracket(home) + ", " + Bracket(shape.departments[target]) + ", " +
         Bracket(shape.months[moment]) + ")}";
}

// Departments x {all periods | quarters | measures}, by `kind` % 3.
std::string DeptGrid(const CubeShape& shape, int kind, Rng* rng) {
  switch (kind % 3) {
    case 0:
      return Select(kAllPeriods, "{[Department].Children}") +
             Slicer(shape, rng);
    case 1:
      return Select(kQuarters, "{[Department].Children}") + Slicer(shape, rng);
    default:
      return Select(kMeasures, "{[Department].Children}") + " WHERE (" +
             Bracket(Pick(shape.scenarios, rng)) + ")";
  }
}

std::string DrillDown(const CubeShape& shape, Rng* rng) {
  std::string rows = "{";
  rows += Bracket(Pick(shape.departments, rng));
  rows += ".Children}";
  return Select(kAllPeriods, rows) + Slicer(shape, rng);
}

}  // namespace

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kWhatifMix:
      return "whatif_mix";
    case Workload::kRollupDashboard:
      return "rollup_dashboard";
    case Workload::kEditFeed:
      return "edit_feed";
    case Workload::kOutofcoreScan:
      return "outofcore_scan";
  }
  return "?";
}

bool ParseWorkload(std::string_view name, Workload* out) {
  for (Workload w : {Workload::kWhatifMix, Workload::kRollupDashboard,
                     Workload::kEditFeed, Workload::kOutofcoreScan}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* OpClassName(OpClass c) {
  switch (c) {
    case OpClass::kQuery:
      return "query";
    case OpClass::kEdit:
      return "edit";
    case OpClass::kRefresh:
      return "refresh";
  }
  return "?";
}

CubeShape ShapeOf(const Cube& cube) {
  CubeShape shape;
  shape.num_dims = cube.num_dims();
  const Schema& schema = cube.schema();
  auto leaf_names = [&](int dim) {
    std::vector<std::string> names;
    const Dimension& d = schema.dimension(dim);
    for (MemberId m : d.Leaves()) names.push_back(d.member(m).name);
    return names;
  };
  shape.months = leaf_names(shape.period_dim);
  shape.measures = leaf_names(shape.account_dim);
  shape.scenarios = leaf_names(shape.scenario_dim);

  const Dimension& dept = schema.dimension(shape.dept_dim);
  std::vector<int> dept_index(dept.num_members(), -1);
  for (MemberId d : dept.member(dept.root()).children) {
    dept_index[d] = static_cast<int>(shape.departments.size());
    shape.departments.push_back(dept.member(d).name);
  }
  for (MemberId m : dept.Leaves()) {
    if (dept_index[m] >= 0) continue;  // An empty department.
    CubeShape::Employee emp;
    emp.name = dept.member(m).name;
    for (InstanceId inst : dept.InstancesOf(m)) {
      CubeShape::Instance in;
      in.position = inst;
      in.dept = dept_index[dept.instance(inst).parent];
      const DynamicBitset& vs = dept.instance(inst).validity;
      for (int t = vs.FindFirst(); t >= 0; t = vs.FindNext(t + 1)) {
        in.months.push_back(t);
      }
      if (!in.months.empty()) emp.instances.push_back(std::move(in));
    }
    if (emp.instances.empty()) continue;
    emp.home_dept = emp.instances.front().dept;
    (emp.instances.size() > 1 ? shape.changing : shape.stable)
        .push_back(static_cast<int>(shape.employees.size()));
    shape.employees.push_back(std::move(emp));
  }
  return shape;
}

// Each pool slot fixes the query's shape (perspective count k, semantics,
// grid size); the seed picks months, measures, scenarios and employees, so
// the cost mix of a pool is nearly the same at every seed. Queries of one
// shape cost about the same, and the slot counts put the 50th and 90th
// percentile ranks inside such a group rather than on the cost step between
// two groups, where noise would flip them across the step. Pools are small
// enough that a run repeats every query several times.
std::vector<std::string> WhatifMixPool(const CubeShape& shape, Rng* rng) {
  std::vector<std::string> pool;
  // 13 non-visual Head(changing set, n) grids: the Fig. 13 axis n crossed
  // with the Fig. 11 axis k = 1..12, every semantics.
  const struct {
    int n;
    int slots;
  } kHeads[] = {{25, 3}, {50, 3}, {100, 5}, {250, 2}};
  int slot = 0;
  for (const auto& h : kHeads) {
    for (int i = 0; i < h.slots; ++i, ++slot) {
      pool.push_back(HeadGrid(shape, h.n, 1 + (slot * 5) % 12, slot % 5, rng));
    }
  }
  // 5 visual department x quarter grids: the roll-up itself is re-derived
  // on the transformed cube.
  for (int i = 0; i < 5; ++i) {
    pool.push_back("WITH PERSPECTIVE " +
                   PerspectiveSet(shape, 1 + i * 11 / 4, rng) +
                   " FOR Department " + kSemantics[i % 5] + " VISUAL " +
                   Select(kQuarters, "{[Department].Children}") +
                   Slicer(shape, rng));
  }
  // A visual split and a scenario comparison.
  pool.push_back(ChangesClause(shape, rng) + " VISUAL " +
                 Select(kQuarters, "{[Department].Children}") +
                 Slicer(shape, rng));
  std::string side = " ";
  side += Select("{[Period].Levels(0).Members}", "{[Department].Children}");
  pool.push_back("COMPARE " + ChangesClause(shape, rng) + side + " VERSUS" +
                 side);
  return pool;
}

// 10 drill-downs and 38 department grids (10 x measures, 16 x quarters,
// 12 x all periods, in rising cost).
std::vector<std::string> RollupDashboardPool(const CubeShape& shape,
                                             Rng* rng) {
  std::vector<std::string> pool;
  for (int i = 0; i < 10; ++i) pool.push_back(DrillDown(shape, rng));
  for (int i = 0; i < 10; ++i) pool.push_back(DeptGrid(shape, 2, rng));
  for (int i = 0; i < 16; ++i) pool.push_back(DeptGrid(shape, 1, rng));
  for (int i = 0; i < 12; ++i) pool.push_back(DeptGrid(shape, 0, rng));
  return pool;
}

// Every query here rolls up the whole stored cube, streamed from the
// backing file: plain department grids and drill-downs, and non-visual
// what-if department grids (non-visual derived cells come from the stored
// cube). The pool is small so that a run covers whole cycles of it.
std::vector<std::string> OutofcoreScanPool(const CubeShape& shape, Rng* rng) {
  std::vector<std::string> pool;
  for (int i = 0; i < 4; ++i) pool.push_back(DeptGrid(shape, i, rng));
  for (int i = 0; i < 2; ++i) pool.push_back(DrillDown(shape, rng));
  for (int i = 0; i < 6; ++i) {
    pool.push_back("WITH PERSPECTIVE " + PerspectiveSet(shape, 1 + 2 * i, rng) +
                   " FOR Department " + kSemantics[i % 5] + " NONVISUAL " +
                   DeptGrid(shape, i, rng));
  }
  return pool;
}

OpStream::OpStream(Workload workload, const CubeShape& shape, uint64_t seed)
    : workload_(workload), shape_(&shape), rng_(seed) {
  switch (workload) {
    case Workload::kWhatifMix:
      pool_ = WhatifMixPool(shape, &rng_);
      break;
    case Workload::kRollupDashboard:
      pool_ = RollupDashboardPool(shape, &rng_);
      break;
    case Workload::kOutofcoreScan:
      pool_ = OutofcoreScanPool(shape, &rng_);
      break;
    case Workload::kEditFeed: {
      // Batch sizes 1..16: each once per cycle for refreshes, three times
      // for edits, in seeded order, so every seed does the same volume.
      std::vector<int> refresh_sizes(kRoundsPerCycle);
      std::vector<int> edit_sizes(3 * kRoundsPerCycle);
      for (size_t i = 0; i < refresh_sizes.size(); ++i) {
        refresh_sizes[i] = 1 + static_cast<int>(i % 16);
      }
      for (size_t i = 0; i < edit_sizes.size(); ++i) {
        edit_sizes[i] = 1 + static_cast<int>(i % 16);
      }
      Shuffle(&refresh_sizes);
      Shuffle(&edit_sizes);
      for (int64_t i = 0; i < kRoundsPerCycle * kRoundOps; ++i) {
        const int64_t round = i / kRoundOps, pos = i % kRoundOps;
        const int size = pos == kRoundOps - 1 ? refresh_sizes[round]
                                              : edit_sizes[3 * round + pos / 2];
        edit_cycle_.push_back(MakeEditFeedOp(i, size));
      }
      break;
    }
  }
  cycle_.resize(pool_.size());
  cycle_pos_ = cycle_.size();
}

bool OpStream::at_cycle_start() const {
  return workload_ == Workload::kEditFeed
             ? emitted_ % static_cast<int64_t>(edit_cycle_.size()) == 0
             : cycle_pos_ == cycle_.size();
}

Op OpStream::Next() {
  if (workload_ == Workload::kEditFeed) {
    const int64_t n = static_cast<int64_t>(edit_cycle_.size());
    Op op = edit_cycle_[emitted_ % n];
    for (Write& w : op.writes) w.value += emitted_ / n;
    ++emitted_;
    return op;
  }
  if (cycle_pos_ == cycle_.size()) {
    for (size_t i = 0; i < cycle_.size(); ++i) cycle_[i] = static_cast<int>(i);
    Shuffle(&cycle_);
    cycle_pos_ = 0;
  }
  Op op;
  op.slot = cycle_[cycle_pos_++];
  op.mdx = pool_[op.slot];
  return op;
}

Write OpStream::RandomWrite(const CubeShape::Instance& inst) {
  Write w;
  w.coords.assign(shape_->num_dims, 0);
  w.coords[shape_->dept_dim] = inst.position;
  w.coords[shape_->period_dim] = Pick(inst.months, &rng_);
  w.coords[shape_->account_dim] =
      static_cast<int>(rng_.NextBelow(shape_->measures.size()));
  w.coords[shape_->scenario_dim] =
      static_cast<int>(rng_.NextBelow(shape_->scenarios.size()));
  w.value = 1 + static_cast<int64_t>(rng_.NextBelow(5000));
  return w;
}

void OpStream::Shuffle(std::vector<int>* v) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng_.NextBelow(i)]);
  }
}

Op OpStream::MakeEditFeedOp(int64_t index, int n) {
  const CubeShape& s = *shape_;
  const int64_t pos = index % kRoundOps;
  Op op;
  op.slot = static_cast<int>(index);
  if (pos == kRoundOps - 1) {
    // n writes anywhere in the stored cells of the live scenario's copy.
    op.cls = OpClass::kRefresh;
    for (int i = 0; i < n; ++i) {
      const CubeShape::Employee& emp =
          s.employees[rng_.NextBelow(s.employees.size())];
      op.writes.push_back(RandomWrite(Pick(emp.instances, &rng_)));
    }
    return op;
  }
  if (pos % 2 == 1) {
    op.cls = OpClass::kQuery;
    op.mdx = pending_read_;
    return op;
  }
  // An ApplyCellEdits batch of n writes: three in four are one employee's
  // months, the rest scattered across changing employees.
  op.cls = OpClass::kEdit;
  int dept = -1;  // Department of the first write's instance.
  const int64_t edit_ordinal = 3 * (index / kRoundOps) + pos / 2;
  if (edit_ordinal % 4 != 3) {
    const CubeShape::Employee& emp =
        s.employees[rng_.NextBelow(s.employees.size())];
    const CubeShape::Instance& inst = Pick(emp.instances, &rng_);
    dept = inst.dept;
    for (int i = 0; i < n; ++i) op.writes.push_back(RandomWrite(inst));
  } else {
    for (int i = 0; i < n; ++i) {
      const CubeShape::Employee& emp = s.employees[Pick(s.changing, &rng_)];
      const CubeShape::Instance& inst = Pick(emp.instances, &rng_);
      if (dept < 0) dept = inst.dept;
      op.writes.push_back(RandomWrite(inst));
    }
  }
  // Read the first write's department at its measure and scenario: the
  // department total and its employees over every period.
  const Write& first = op.writes.front();
  const std::string d = Bracket(s.departments[dept]);
  pending_read_ =
      Select(kAllPeriods, "{" + d + ", " + d + ".Children}") + " WHERE (" +
      Bracket(s.measures[first.coords[s.account_dim]]) + ", " +
      Bracket(s.scenarios[first.coords[s.scenario_dim]]) + ")";
  return op;
}

}  // namespace olap::perfbench
