#include "storage/chunk_pipeline.h"

#include <algorithm>
#include <cassert>
#include <string>
#include <utility>

#include "common/metrics.h"
#include "common/trace.h"

namespace olap {

namespace {

// The planner behind PlanScheduleRuns: calls fn(run) for each run in issue
// order, reusing one ScheduleRun (so charging a long schedule allocates
// nothing per run), and stops at the first non-OK status fn returns.
template <typename Fn>
Status ForEachScheduleRun(const std::vector<ChunkId>& schedule, int window,
                          Fn&& fn) {
  window = std::max(1, window);
  const int64_t n = static_cast<int64_t>(schedule.size());
  std::vector<char> served(schedule.size(), 0);
  // The unserved (chunk id, schedule position) entries of the current
  // window. A window is small, so linear scans beat a hash set.
  std::vector<std::pair<ChunkId, int64_t>> visible;
  auto visible_has = [&visible](ChunkId id) {
    for (const auto& entry : visible) {
      if (entry.first == id) return true;
    }
    return false;
  };
  ScheduleRun run;
  for (int64_t head = 0; head < n; ++head) {
    if (served[head]) continue;
    visible.clear();
    const int64_t end = std::min(n, head + window);
    for (int64_t i = head; i < end; ++i) {
      if (!served[i]) visible.emplace_back(schedule[i], i);
    }
    ChunkId lo = schedule[head];
    ChunkId hi = lo;
    while (visible_has(lo - 1)) --lo;
    while (visible_has(hi + 1)) ++hi;
    run.begin = lo;
    run.count = static_cast<int>(hi - lo + 1);
    run.positions.clear();
    for (const auto& [id, position] : visible) {
      if (id < lo || id > hi) continue;
      run.positions.push_back(position);
      served[position] = 1;
    }
    OLAP_RETURN_IF_ERROR(fn(run));
  }
  return Status::Ok();
}

}  // namespace

std::vector<ScheduleRun> PlanScheduleRuns(const std::vector<ChunkId>& schedule,
                                          int window) {
  std::vector<ScheduleRun> runs;
  (void)ForEachScheduleRun(schedule, window, [&runs](const ScheduleRun& run) {
    runs.push_back(run);
    return Status::Ok();
  });
  return runs;
}

double ChargeSchedule(SimulatedDisk* disk, const std::vector<ChunkId>& schedule,
                      int window) {
  double total = 0.0;
  (void)ForEachScheduleRun(schedule, window, [&](const ScheduleRun& run) {
    total += disk->ReadRun(run.begin, run.count);
    return Status::Ok();
  });
  return total;
}

Status StreamSchedule(const RunFetcher& fetch,
                      const std::vector<ChunkId>& schedule, int window,
                      const CancellationToken& cancel,
                      const std::function<void(ChunkId, const Chunk&)>& fn,
                      StreamStats* stats) {
  static Counter* coalesced_reads =
      MetricsRegistry::Global().counter("pipeline.coalesced_reads");
  window = std::max(1, window);
  StreamStats local;
  if (stats == nullptr) stats = &local;
  *stats = StreamStats{};

  // Chunks fetched ahead of their turn. Every buffered entry lies within
  // `window` positions of the next one to deliver (the plan's window
  // bound), so position % window never collides.
  std::vector<Chunk> buffer(window);
  std::vector<char> ready(window, 0);
  int64_t buffered = 0;
  int64_t next = 0;
  const int64_t n = static_cast<int64_t>(schedule.size());
  std::vector<int> uses;
  return ForEachScheduleRun(schedule, window, [&](const ScheduleRun& run) {
    OLAP_RETURN_IF_ERROR(cancel.Poll("chunk stream"));
    Result<std::vector<Chunk>> data = Status::Internal("run never read");
    {
      TraceSpan span("pipeline.fetch_batch");
      if (span.active()) {
        span.SetDetail("begin=" + std::to_string(run.begin) +
                       " count=" + std::to_string(run.count));
      }
      data = fetch(run.begin, run.count);
      if (!data.ok()) span.SetError(data.status());
    }
    if (!data.ok()) return data.status();
    ++stats->reads;
    if (run.count > 1) {
      ++stats->coalesced_reads;
      coalesced_reads->Increment();
    }

    // A revisited id serves several entries: copy its chunk for all but
    // the last of them.
    uses.assign(run.count, 0);
    for (int64_t position : run.positions) ++uses[schedule[position] - run.begin];
    for (int64_t position : run.positions) {
      const int64_t offset = schedule[position] - run.begin;
      const size_t slot = static_cast<size_t>(position % window);
      assert(!ready[slot]);
      if (--uses[offset] > 0) {
        buffer[slot] = (*data)[offset];
      } else {
        buffer[slot] = std::move((*data)[offset]);
      }
      ready[slot] = 1;
      ++buffered;
    }
    stats->peak_buffered = std::max(stats->peak_buffered, buffered);

    while (next < n && ready[next % window]) {
      const size_t slot = static_cast<size_t>(next % window);
      fn(schedule[next], buffer[slot]);
      buffer[slot] = Chunk();
      ready[slot] = 0;
      --buffered;
      ++next;
    }
    return Status::Ok();
  });
}

Status StreamSchedule(SimulatedDisk* disk, const std::vector<ChunkId>& schedule,
                      int window, const CancellationToken& cancel,
                      const std::function<void(ChunkId, const Chunk&)>& fn,
                      StreamStats* stats) {
  return StreamSchedule(
      [disk](ChunkId begin, int count) { return disk->FetchRun(begin, count); },
      schedule, window, cancel, fn, stats);
}

}  // namespace olap
