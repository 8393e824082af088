// Shared plumbing of the csqbench workloads: arguments, sample statistics,
// correctness checks, the in-memory span recorder of the traced mode and
// the one-line JSON result the runner relays.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace csqbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  // Directory for the run's artifacts and trace file (inside the checkout).
  std::string work_dir = ".";
  // Chrome trace-event file the traced mode writes its spans to.
  std::string trace_file;
};

// Median of the values (0 when empty).
double median(std::vector<double> values);

// Nearest-rank percentile, q in (0, 1] (0 when empty).
double percentile(std::vector<double> values, double q);

// Per-op samples of a timed section split into equal rounds. The reported
// figures are medians over the rounds, so interference from other tenants
// of the host that covers fewer than half of the rounds does not move them.
class Rounds {
 public:
  explicit Rounds(int count) : ms_(count), work_(count), busy_ms_(count) {}
  int count() const { return static_cast<int>(ms_.size()); }
  // One op of round `round` (clamped to the last round): its latency, the
  // work units it completed and the wall time it kept the loop busy.
  void add(int round, double latency_ms, double work, double busy_ms);
  // Median over rounds of the round's q-quantile op time.
  double quantile_ms(double q) const;
  // Median over rounds of work units per busy second.
  double throughput_per_s() const;

 private:
  std::vector<std::vector<double>> ms_;
  std::vector<double> work_;
  std::vector<double> busy_ms_;
};

// Peak resident set of this process (getrusage ru_maxrss), in MiB.
double peak_rss_mb();

// Correctness checks run outside the timed sections. A failed check is
// reported on stderr and turns the result's "correct" false; the run goes on
// so every failing check shows.
class Checks {
 public:
  void expect(bool ok, const std::string& what);
  bool ok() const { return failures_ == 0; }
  int count() const { return count_; }

 private:
  int count_ = 0;
  int failures_ = 0;
};

// Spans recorded around calls into one library layer. Storage is reserved
// up front, so recording a span is two clock reads and a store; spans stay
// in memory until the run ends.
class Tracer {
 public:
  struct Span {
    const char* name = nullptr;
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;  // index of the enclosing span, -1 at top level
  };

  explicit Tracer(bool enabled, std::size_t reserve = 1 << 16);

  // Opens a span and returns its index (-1 when disabled).
  int begin(const char* name, int parent = -1);
  void end(int index);

  // Records a top-level span whose interval was measured by the caller.
  void add(const char* name, Clock::time_point start, Clock::time_point end);

  // Durations (ms) of every span with this name.
  std::vector<double> durations(const std::string& name) const;
  double median_ms(const std::string& name) const {
    return median(durations(name));
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

// Writes the spans as Chrome trace events (chrome://tracing, Perfetto), one
// thread row per tracer.
bool write_chrome_trace(const std::string& path,
                        const std::vector<const Tracer*>& tracers);

// RAII span; a no-op when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, int parent = -1)
      : tracer_(tracer), index_(tracer.begin(name, parent)) {}
  ~ScopedSpan() { tracer_.end(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

// Metric name -> (value, unit), printed in insertion order.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  // Prints every metric as a readable line on stderr, then the result as
  // one JSON object on the last line of stdout.
  void print(bool correct, std::int64_t attempted, std::int64_t failed) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

// The per-layer metric names every traced run reports. A workload that never
// calls into a layer reports 0 for it (the layer is bypassed there).
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

// Fills every per-layer metric the workload did not measure with 0, then
// adds them all in the canonical order.
void add_per_layer(Report& report,
                   const std::vector<std::pair<std::string, double>>& measured);

// Workload entry points: each returns the process exit code and prints the
// result line itself.
int run_train_csq(const Args& args);
int run_infer_batch(const Args& args);

}  // namespace csqbench
