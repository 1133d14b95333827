// Shared pieces of the end-to-end benchmark: the wall clock, sample
// statistics, the span recorder of the traced run, telemetry counter deltas
// and the result record every workload fills in. See README.md for what
// each workload and metric means.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Command-line options (`--workload --seed --seconds --trace`).
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;  ///< Traced run: where to write the span dump.
};

/// A set of measurements with order statistics.
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  std::size_t count() const noexcept { return values_.size(); }
  bool empty() const noexcept { return values_.empty(); }
  double sum() const;
  /// Linear-interpolated q-quantile (q in [0, 1]); 0 when empty.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  /// Number of samples strictly greater than quantile(q).
  std::size_t count_above(double q) const;

 private:
  std::vector<double> values_;
};

/// One span of the traced run: a call into a layer, made by the benchmark.
struct Span {
  std::string name;   ///< "<layer>.<call>", e.g. "hmpi.timeof".
  double start_s = 0.0;  ///< Offset from the recorder's origin.
  double end_s = 0.0;
  int parent = -1;    ///< Index of the enclosing span; -1 at the root.
  long long op = -1;  ///< Op the span belongs to (-1: set-up or probes).

  std::string layer() const { return name.substr(0, name.find('.')); }
};

/// In-memory span recorder. Disabled, it records nothing and each guard
/// costs one branch. All spans of a run are opened from one logical thread
/// of control (the main thread or the simulated host process, never both
/// at once), so a single stack of open spans is enough.
class SpanRecorder {
 public:
  void set_enabled(bool on) noexcept { enabled_ = on; }
  bool enabled() const noexcept { return enabled_; }
  void set_op(long long op) noexcept { op_ = op; }

  int open(const std::string& name);
  void close(int index);
  /// Adds a closed child span of the innermost open span covering
  /// [end - seconds, end] of it. Used for work a layer reports about
  /// itself (the mapper's SearchStats::wall_seconds inside a Timeof).
  void add_derived_child(const std::string& name, double seconds);

  const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Wall seconds of span `i` minus the part its direct children cover.
  std::vector<double> self_seconds() const;
  /// Writes `{"seed": .., "workload": .., "spans": [...]}`.
  void write_json(const std::string& path, const std::string& workload,
                  std::uint64_t seed) const;

 private:
  bool enabled_ = false;
  long long op_ = -1;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// The process-wide recorder.
SpanRecorder& recorder();

/// RAII span: records `name` when the recorder is enabled; always measures
/// the wall time so callers can feed per-call samples either way.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : index_(recorder().enabled() ? recorder().open(name) : -1),
        start_(Clock::now()) {}
  ~ScopedSpan() { finish(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Closes the span; returns its wall seconds (idempotent).
  double finish();

 private:
  int index_;
  Clock::time_point start_;
  double elapsed_ = -1.0;
};

/// Deltas of process-wide telemetry counters (telemetry::metrics()).
class CounterDelta {
 public:
  CounterDelta();
  /// Counter growth since construction, summed over names starting with
  /// `prefix` and ending with `suffix`.
  double sum(const std::string& prefix, const std::string& suffix = "") const;
  /// Sum of histogram observations over names matching prefix/suffix.
  double histogram_sum(const std::string& prefix,
                       const std::string& suffix) const;

 private:
  std::map<std::string, double> counters_;
  std::map<std::string, double> histogram_sums_;
};

/// Peak resident set size of this process, in MiB.
double peak_rss_mib();

/// What a workload run produced.
struct Result {
  long long attempted = 0;
  long long failed = 0;
  bool checks_passed = true;  ///< End-of-run output checks.
  std::vector<std::string> check_failures;
  /// name -> (value, unit), printed in the final JSON line.
  std::map<std::string, std::pair<double, std::string>> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void fail_check(const std::string& what) {
    checks_passed = false;
    check_failures.push_back(what);
  }
};

/// Fills the metrics every workload reports the same way: throughput, op
/// latency quantiles, set-up time and peak RSS. `op_kinds` holds the op
/// latencies per kind of input; with several kinds the quantiles are the
/// geometric mean over kinds of each kind's quantile, so a fixed mix of
/// unlike inputs yields a steady figure.
void set_common_metrics(Result& result, const std::vector<Samples>& op_kinds,
                        const Samples& setup_seconds);

/// Per-layer self time from the spans recorded inside ops:
/// `span.<layer>.self_ms`, the layer's summed self time per traced op.
void set_span_self_metrics(Result& result);

/// Fraction traced/untraced - 1 over op rounds run alternately with the
/// recorder on and off.
double trace_overhead(const Samples& traced_s, const Samples& untraced_s);

/// Prints one "name value unit" table row to stdout.
void print_row(const std::vector<std::string>& cells);

/// Best-effort number formatting with all significant digits.
std::string num(double v);

// Workload entry points (one translation unit each).
Result run_paper_p9(const Options& options);
Result run_select_p1000(const Options& options);
Result run_sched_trace(const Options& options);

}  // namespace perfbench
