// Shared plumbing of the benchmark's workloads: run configuration, the
// report each workload fills, registry deltas, closed-loop timing and
// the in-memory span store.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.h"
#include "timeline.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Set-ups per run; setup_s reports their median.
inline constexpr int kSetupRepeats = 5;

/// Unmeasured load between set-up and the measured window: on a shared
/// virtual machine the first 1-1.5 s of load after idling ran at a
/// third of full speed.
inline constexpr double kWarmupSeconds = 2.0;

/// A traced run alternates this many untraced and traced slices of
/// equal length, so drift over the run cancels out of obs.trace_overhead.
inline constexpr int kTraceRounds = 2;

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for stores and span dumps (inside the checkout).
  std::string work_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced. Untraced runs fill the end-to-end
/// metrics, traced runs the per-layer ones; main prints both sets with
/// units and the run's correctness tally.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void Add(const std::string& name, double value, const std::string& unit);
  void Note(const std::string& note) { notes.push_back(note); }
  /// Counts one checked operation; a false `ok` is a failure and marks
  /// the run incorrect.
  void Check(bool ok, uint64_t count = 1);
};

/// Peak resident set of this process so far, in MiB.
double PeakRssMb();

/// Reads PeakRssMb() when the measured window's `at_ops`-th operation
/// completes. A time-bounded window does more work on a faster host, and
/// the program's memory grows with the work (cache entries, WAL,
/// checkpoints), so the reading is taken at a fixed amount of work.
class RssProbe {
 public:
  explicit RssProbe(uint64_t at_ops) : at_ops_(at_ops) {}
  RssProbe(const RssProbe&) = delete;
  RssProbe& operator=(const RssProbe&) = delete;

  void Count() {
    if (ops_.fetch_add(1, std::memory_order_relaxed) + 1 == at_ops_) {
      mb_.store(PeakRssMb());
    }
  }
  /// Adds peak_rss_mb; when the window ended first, the peak at its end
  /// (and a note saying so).
  void AddTo(Report& report) const;

 private:
  const uint64_t at_ops_;
  std::atomic<uint64_t> ops_{0};
  std::atomic<double> mb_{0.0};
};

inline double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

inline double ToSeconds(Clock::time_point t) {
  return std::chrono::duration<double>(t.time_since_epoch()).count();
}

/// The successful operations of one kind: latency and completion time.
struct Latencies {
  std::vector<double> ms;
  std::vector<double> done_s;  ///< steady-clock seconds at completion

  void Add(Clock::time_point start, Clock::time_point done) {
    ms.push_back(std::chrono::duration<double, std::milli>(done - start).count());
    done_s.push_back(ToSeconds(done));
  }
  void Merge(const Latencies& other) {
    ms.insert(ms.end(), other.ms.begin(), other.ms.end());
    done_s.insert(done_s.end(), other.done_s.begin(), other.done_s.end());
  }
};

/// A measured closed-loop window.
struct WindowTime {
  Clock::time_point start;
  double wall_s = 0.0;
};

/// Splits `window` into `slices` equal parts and adds, as the median
/// over the parts, `rate_name` (operations per second) and
/// `<prefix>_p50_ms`, `_p90_ms`, `_p99_ms` for each percentile every part
/// supports, plus `<prefix>_tail_ms`, the highest of them. Medians over
/// parts keep one burst of interference from setting a run's figure.
/// Notes the sample counts.
void AddSlicedMetrics(Report& report, const std::string& rate_name,
                      const std::string& prefix, const Latencies& latencies,
                      WindowTime window, int slices);

/// Closed-loop window: `clients` threads each call `op(client, measured)`
/// for warmup_s + seconds; `measured` is false during the first warmup_s,
/// whose operations the caller checks but does not time. One set of
/// threads runs both parts, so which thread owns which allocator arena
/// is settled before measuring starts. Returns the measured part.
template <typename Op>
WindowTime RunClosedLoop(int clients, double warmup_s, double seconds, Op op);

/// Keeps every traced operation's attribution and the first few span
/// trees in memory; Dump() writes the trees out when the run ends.
class SpanStore {
 public:
  explicit SpanStore(size_t keep_trees = 256) : keep_trees_(keep_trees) {}

  /// Attributes `trace` to layers (wall measured by the caller) and
  /// keeps its tree while under the cap. Thread-safe.
  void Record(const std::string& op, const biorank::obs::Trace& trace,
              double wall_s);

  AttributionTotals Totals(const std::string& op) const;
  AttributionTotals AllTotals() const;

  /// Writes the kept trees as JSON lines to `path`.
  void Dump(const std::string& path) const;

 private:
  struct Tree {
    std::string op;
    double wall_s = 0.0;
    std::vector<biorank::obs::Span> spans;
  };
  const size_t keep_trees_;
  mutable std::mutex mu_;
  std::vector<Tree> trees_;
  std::map<std::string, AttributionTotals> totals_;
};

/// Creates `path` (and parents); removes everything under it first.
void FreshDirectory(const std::string& path);
void RemoveTree(const std::string& path);
/// Total bytes of regular files under `path`.
uint64_t TreeBytes(const std::string& path);

// ---- implementation of the template ----

template <typename Op>
WindowTime RunClosedLoop(int clients, double warmup_s, double seconds, Op op) {
  auto after = [](Clock::time_point t, double s) {
    return t + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(s));
  };
  std::atomic<bool> stop{false};
  const Clock::time_point measure = after(Clock::now(), warmup_s);
  const Clock::time_point end = after(measure, seconds);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      while (!stop.load(std::memory_order_relaxed)) {
        const Clock::time_point now = Clock::now();
        if (now >= end) {
          stop.store(true, std::memory_order_relaxed);
          break;
        }
        op(c, now >= measure);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return WindowTime{measure, SecondsSince(measure)};
}

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
