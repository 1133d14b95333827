#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"

namespace perfbench {

double Samples::sum() const {
  double s = 0.0;
  for (double v : values_) s += v;
  return s;
}

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

std::size_t Samples::count_above(double q) const {
  const double cut = quantile(q);
  return static_cast<std::size_t>(std::count_if(
      values_.begin(), values_.end(), [cut](double v) { return v > cut; }));
}

SpanRecorder& recorder() {
  static SpanRecorder instance;
  return instance;
}

int SpanRecorder::open(const std::string& name) {
  Span span;
  span.name = name;
  span.start_s = seconds_since(origin_);
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op_;
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void SpanRecorder::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_s = seconds_since(origin_);
  // Spans close in LIFO order; tolerate a stray close by unwinding to it.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == index) break;
  }
}

void SpanRecorder::add_derived_child(const std::string& name, double seconds) {
  if (!enabled_ || open_.empty()) return;
  const int parent = open_.back();
  Span span;
  span.name = name;
  span.end_s = seconds_since(origin_);
  span.start_s = std::max(spans_[static_cast<std::size_t>(parent)].start_s,
                          span.end_s - seconds);
  span.parent = parent;
  span.op = op_;
  spans_.push_back(std::move(span));
}

std::vector<double> SpanRecorder::self_seconds() const {
  std::vector<double> self(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_s - spans_[i].start_s;
  }
  // Children nest inside their parent and never overlap each other (one
  // logical thread of control), so subtracting durations is exact.
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      self[static_cast<std::size_t>(span.parent)] -= span.end_s - span.start_s;
    }
  }
  for (double& s : self) s = std::max(0.0, s);
  return self;
}

void SpanRecorder::write_json(const std::string& path,
                              const std::string& workload,
                              std::uint64_t seed) const {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "perfbench: cannot write spans to " << path << "\n";
    return;
  }
  using hmpi::telemetry::json_number;
  using hmpi::telemetry::json_quote;
  const std::vector<double> self = self_seconds();
  os << "{\"workload\": " << json_quote(workload) << ", \"seed\": " << seed
     << ", \"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i == 0 ? "\n" : ",\n") << "{\"id\": " << i
       << ", \"name\": " << json_quote(s.name)
       << ", \"start_s\": " << json_number(s.start_s)
       << ", \"end_s\": " << json_number(s.end_s)
       << ", \"self_s\": " << json_number(self[i])
       << ", \"parent\": " << s.parent << ", \"op\": " << s.op << "}";
  }
  os << "\n]}\n";
}

double ScopedSpan::finish() {
  if (elapsed_ < 0.0) {
    elapsed_ = seconds_since(start_);
    if (index_ >= 0) recorder().close(index_);
  }
  return elapsed_;
}

CounterDelta::CounterDelta() {
  const auto snap = hmpi::telemetry::metrics().snapshot();
  for (const auto& [name, value] : snap.counters) counters_[name] = value;
  for (const auto& [name, h] : snap.histograms) histogram_sums_[name] = h.sum;
}

namespace {

bool matches(const std::string& name, const std::string& prefix,
             const std::string& suffix) {
  return name.size() >= prefix.size() + suffix.size() &&
         name.compare(0, prefix.size(), prefix) == 0 &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

double CounterDelta::sum(const std::string& prefix,
                         const std::string& suffix) const {
  double total = 0.0;
  for (const auto& [name, value] :
       hmpi::telemetry::metrics().snapshot().counters) {
    if (!matches(name, prefix, suffix)) continue;
    const auto it = counters_.find(name);
    total += value - (it == counters_.end() ? 0.0 : it->second);
  }
  return total;
}

double CounterDelta::histogram_sum(const std::string& prefix,
                                   const std::string& suffix) const {
  double total = 0.0;
  for (const auto& [name, h] :
       hmpi::telemetry::metrics().snapshot().histograms) {
    if (!matches(name, prefix, suffix)) continue;
    const auto it = histogram_sums_.find(name);
    total += h.sum - (it == histogram_sums_.end() ? 0.0 : it->second);
  }
  return total;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void set_common_metrics(Result& result, const std::vector<Samples>& op_kinds,
                        const Samples& setup_seconds) {
  double ops = 0.0, busy_s = 0.0, log_p50 = 0.0, log_p90 = 0.0;
  std::size_t beyond_p90 = 0;
  for (const Samples& kind : op_kinds) {
    ops += static_cast<double>(kind.count());
    busy_s += kind.sum();
    log_p50 += std::log(kind.quantile(0.5));
    log_p90 += std::log(kind.quantile(0.9));
    beyond_p90 += kind.count_above(0.9);
  }
  const double kinds = static_cast<double>(op_kinds.size());
  result.set("setup_s", setup_seconds.median(), "s");
  result.set("ops_per_s", ops / busy_s, "1/s");
  result.set("op_p50_ms", std::exp(log_p50 / kinds) * 1e3, "ms");
  result.set("op_p90_ms", std::exp(log_p90 / kinds) * 1e3, "ms");
  result.set("peak_rss_mb", peak_rss_mib(), "MiB");
  std::printf("ops: %.0f of %zu kind(s) in %.3f s of op time; %zu ops lie "
              "beyond their kind's p90; set-up runs: %zu\n",
              ops, op_kinds.size(), busy_s, beyond_p90, setup_seconds.count());
}

void set_span_self_metrics(Result& result) {
  const auto& spans = recorder().spans();
  const std::vector<double> self = recorder().self_seconds();
  std::map<std::string, double> by_layer;
  double traced_ops = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].op < 0) continue;  // set-up and probes
    const std::string layer = spans[i].layer();
    if (layer == "op") traced_ops += 1.0;
    by_layer[layer] += self[i];
  }
  const double per = traced_ops > 0.0 ? 1e3 / traced_ops : 0.0;
  for (const char* layer :
       {"op", "mpsim", "hmpi", "mapper", "apps", "sched", "telemetry"}) {
    result.set(std::string("span.") + layer + ".self_ms", by_layer[layer] * per,
               "ms");
  }
}

double trace_overhead(const Samples& traced_s, const Samples& untraced_s) {
  if (traced_s.empty() || untraced_s.empty()) return 0.0;
  return traced_s.median() / untraced_s.median() - 1.0;
}

void print_row(const std::vector<std::string>& cells) {
  std::ostringstream line;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) line << "  ";
    line << cells[i];
  }
  std::printf("%s\n", line.str().c_str());
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace perfbench
