#include "harness/stats.h"

#include <algorithm>
#include <cmath>

namespace olap::perfbench {

double Percentile(std::vector<double> samples, double p, int64_t* beyond) {
  if (beyond != nullptr) *beyond = 0;
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const int64_t n = static_cast<int64_t>(samples.size());
  int64_t rank = static_cast<int64_t>(std::ceil(p / 100.0 * n - 1e-9));
  rank = std::clamp<int64_t>(rank, 1, n);
  if (beyond != nullptr) *beyond = n - rank;
  return samples[rank - 1];
}

LatencySummary Summarize(const std::vector<double>& samples) {
  LatencySummary s;
  s.count = static_cast<int64_t>(samples.size());
  s.p50 = Percentile(samples, 50, &s.beyond_p50);
  s.p90 = Percentile(samples, 90, &s.beyond_p90);
  s.p99 = Percentile(samples, 99, &s.beyond_p99);
  return s;
}

int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  int64_t total = 0;
  int64_t cur_begin = 0, cur_end = 0;
  bool open = false;
  for (const auto& [b, e] : intervals) {
    if (e <= b) continue;
    if (open && b <= cur_end) {
      cur_end = std::max(cur_end, e);
      continue;
    }
    if (open) total += cur_end - cur_begin;
    cur_begin = b;
    cur_end = e;
    open = true;
  }
  if (open) total += cur_end - cur_begin;
  return total;
}

void AccumulateSelfTimes(const TraceData& trace, const std::string& client_root,
                         SelfTimes* out) {
  const std::vector<SpanRecord>& spans = trace.spans;
  const int n = static_cast<int>(spans.size());
  auto closed = [&](int i) { return spans[i].end_ns >= spans[i].start_ns &&
                                    spans[i].end_ns != 0; };

  int client_thread = -1, root = -1;
  for (int i = 0; i < n; ++i) {
    if (spans[i].parent < 0 && spans[i].name == client_root && closed(i)) {
      client_thread = spans[i].thread;
      root = i;
      break;
    }
  }

  // Effective parent: the recorded one, or for a pool-thread root the
  // innermost client span containing it, found by descending from the
  // client root through start-sorted children (same-thread siblings never
  // overlap).
  std::vector<int> parent(n, -1);
  for (int i = 0; i < n; ++i) parent[i] = spans[i].parent;
  if (client_thread >= 0) {
    std::vector<std::vector<int>> children(n);
    for (int i = 0; i < n; ++i) {
      if (spans[i].parent >= 0 && spans[i].thread == client_thread &&
          closed(i)) {
        children[spans[i].parent].push_back(i);
      }
    }
    for (std::vector<int>& c : children) {
      std::sort(c.begin(), c.end(), [&](int a, int b) {
        return spans[a].start_ns < spans[b].start_ns;
      });
    }
    for (int i = 0; i < n; ++i) {
      if (spans[i].parent >= 0 || spans[i].thread == client_thread ||
          !closed(i)) {
        continue;
      }
      int at = root;
      for (;;) {
        const std::vector<int>& c = children[at];
        auto it = std::upper_bound(
            c.begin(), c.end(), spans[i].start_ns,
            [&](int64_t t, int j) { return t < spans[j].start_ns; });
        if (it == c.begin()) break;
        const int j = *(it - 1);
        if (spans[i].end_ns > spans[j].end_ns) break;
        at = j;
      }
      parent[i] = at;
    }
  }

  std::vector<std::vector<std::pair<int64_t, int64_t>>> covered(n);
  for (int i = 0; i < n; ++i) {
    const int p = parent[i];
    if (p < 0 || !closed(i) || !closed(p)) continue;
    const int64_t b = std::max(spans[i].start_ns, spans[p].start_ns);
    const int64_t e = std::min(spans[i].end_ns, spans[p].end_ns);
    if (b < e) covered[p].emplace_back(b, e);
  }
  for (int i = 0; i < n; ++i) {
    if (!closed(i)) continue;
    SelfTime& row = (*out)[spans[i].name];
    row.self_ns += (spans[i].end_ns - spans[i].start_ns) -
                   UnionLength(std::move(covered[i]));
    ++row.count;
  }
}

}  // namespace olap::perfbench
