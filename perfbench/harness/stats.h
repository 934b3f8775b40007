#ifndef OLAP_PERFBENCH_HARNESS_STATS_H_
#define OLAP_PERFBENCH_HARNESS_STATS_H_

// Sample summaries and span self-time accounting for the repository
// benchmark.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/trace.h"

namespace olap::perfbench {

// Nearest-rank percentile of `samples` (any order): the smallest sample
// with at least p% of the samples at or below it. `beyond` receives the
// number of samples strictly after that rank, the count a reader needs to
// judge the percentile (a percentile is reported only with >= 10 beyond
// it). Empty input -> 0 with 0 beyond.
double Percentile(std::vector<double> samples, double p,
                  int64_t* beyond = nullptr);

struct LatencySummary {
  int64_t count = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  int64_t beyond_p50 = 0;
  int64_t beyond_p90 = 0;
  int64_t beyond_p99 = 0;
};
LatencySummary Summarize(const std::vector<double>& samples);

// Self time of a span: its duration minus the part of its interval that
// its child spans cover. Spans recorded on pool threads have no parent in
// the trace (parentage is per thread); they are attached, by time window,
// to the innermost span of the client thread whose interval contains
// theirs, falling back to the client thread's root. With one client this
// attributes fan-out work to the call that issued it.
struct SelfTime {
  int64_t self_ns = 0;
  int64_t count = 0;
};
using SelfTimes = std::map<std::string, SelfTime>;

// Adds the self time of every closed span of one drained session to
// `out`. The client thread is the thread of the root span named
// `client_root`; when no such span exists, pool roots stay roots.
void AccumulateSelfTimes(const TraceData& trace, const std::string& client_root,
                         SelfTimes* out);

// Length of the union of [begin, end) intervals.
int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>> intervals);

}  // namespace olap::perfbench

#endif  // OLAP_PERFBENCH_HARNESS_STATS_H_
