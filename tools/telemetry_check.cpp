// Validates telemetry JSON artifacts (CI smoke job; docs/observability.md).
//
// For each file argument the checker parses the document with the telemetry
// JSON parser and then applies shape checks by sniffing the document type:
//   * Chrome traces ({"traceEvents": [...]}): every event needs name/ph/ts,
//     ts must be non-decreasing per (pid, tid) track (metadata events
//     excluded), and at least one non-metadata event must be present.
//   * Metrics dumps ({"counters": ..., "histograms": ...}): sections must be
//     objects, histogram entries need count/sum/buckets, and every metric in
//     the reserved `coll.` namespace must follow the collective-subsystem
//     grammar: counters `coll.tuner.hits|misses` or `coll.<op>.<algo>`,
//     histograms `coll.<op>.seconds`, with <op>/<algo> names from the
//     coll policy tables (docs/collectives.md). Metrics in the reserved
//     `est.` namespace must follow the estimator grammar: counters
//     `est.compile.count|hits|misses|evaluations`,
//     `est.delta.evaluations|ops_replayed|ops_total`,
//     `est.cache.hits|misses`, or `est.batch.evaluations`, gauge
//     `est.delta.savings`, histogram `est.compile.seconds`
//     (docs/estimator.md). Metrics in the reserved `mapper.` namespace must
//     follow the batch-search grammar: counters
//     `mapper.batch.chunks|candidates` only (docs/mapper.md). Metrics in the
//     reserved `adapt.` namespace must
//     follow the adaptation grammar: counters
//     `adapt.checks|triggers|migrations|rollbacks|suppressed`, gauges
//     `adapt.divergence|drift`, histograms
//     `adapt.predicted_gain_seconds|realized_gain_seconds`
//     (docs/adaptation.md). Metrics in the reserved `sim.` namespace must
//     follow the simulator-engine grammar: counters
//     `sim.dispatches|stalls|runs.event`, gauges
//     `sim.fibers|workers|ready_peak|stack_bytes` (docs/simulator.md).
//   * Bench exports ({"benchmark": ..., "tables": [...]}): every table needs
//     title/columns/rows with rows matching the column count.
//   * Adaptation ledgers ({"adaptations": [...]}): every entry needs group
//     ids, a known signal/outcome, gate pricing, and member rosters.
//   * Scheduler dumps ({"scheduler": {...}}; docs/scheduler.md): a
//     fifo|priority policy, numeric accounting summary, and per-job records
//     with states from the JobState vocabulary. Metrics in the reserved
//     `sched.` namespace must follow the scheduler grammar: counters
//     `sched.submitted|dispatched|completed|preempted|backfilled|cancelled`,
//     gauges `sched.queue_depth|queue_depth_peak|running|utilization|
//     makespan_s|throughput_jobs_per_s`, histograms
//     `sched.wait_seconds|turnaround_seconds|service_seconds`.
// Exit status 0 when every file passes, 1 otherwise.
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>

#include "coll/policy.hpp"
#include "telemetry/json.hpp"

namespace {

using hmpi::telemetry::JsonValue;

int errors = 0;

void fail(const std::string& file, const std::string& message) {
  std::fprintf(stderr, "%s: FAIL: %s\n", file.c_str(), message.c_str());
  ++errors;
}

void check_chrome_trace(const std::string& file, const JsonValue& doc) {
  const JsonValue* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    fail(file, "traceEvents is not an array");
    return;
  }
  std::map<std::pair<double, double>, double> last_ts;  // (pid, tid) -> ts
  int real_events = 0;
  for (std::size_t i = 0; i < events->array.size(); ++i) {
    const JsonValue& e = events->array[i];
    const std::string at = "traceEvents[" + std::to_string(i) + "]";
    if (!e.is_object()) {
      fail(file, at + " is not an object");
      continue;
    }
    const JsonValue* name = e.find("name");
    const JsonValue* ph = e.find("ph");
    const JsonValue* ts = e.find("ts");
    if (name == nullptr || !name->is_string()) fail(file, at + " missing name");
    if (ph == nullptr || !ph->is_string()) fail(file, at + " missing ph");
    if (ts == nullptr || !ts->is_number()) fail(file, at + " missing ts");
    if (ph == nullptr || ts == nullptr || !ph->is_string() || !ts->is_number()) {
      continue;
    }
    if (ph->string == "M") continue;  // metadata carries no timeline position
    ++real_events;
    const JsonValue* pid = e.find("pid");
    const JsonValue* tid = e.find("tid");
    const std::pair<double, double> track{pid != nullptr ? pid->number : 0.0,
                                          tid != nullptr ? tid->number : 0.0};
    auto it = last_ts.find(track);
    if (it != last_ts.end() && ts->number < it->second) {
      fail(file, at + ": ts regressed on its (pid, tid) track");
    }
    last_ts[track] = std::max(ts->number,
                              it != last_ts.end() ? it->second : ts->number);
  }
  if (real_events == 0) fail(file, "trace contains no non-metadata events");
}

// Resolves a "<op>.<algo>" tail against the coll policy tables.
bool valid_coll_op_algo(const std::string& tail) {
  const std::size_t dot = tail.find('.');
  if (dot == std::string::npos || dot == 0 || dot + 1 >= tail.size()) {
    return false;
  }
  const std::string op_part = tail.substr(0, dot);
  const std::string algo_part = tail.substr(dot + 1);
  for (int i = 0; i < hmpi::coll::kNumCollOps; ++i) {
    const auto op = static_cast<hmpi::coll::CollOp>(i);
    if (op_part != hmpi::coll::op_name(op)) continue;
    return hmpi::coll::algo_from_name(op, algo_part) >= 1;
  }
  return false;
}

// Splits "coll.<op>.<suffix>" and resolves <op> against the policy tables;
// returns false when the name is outside the reserved grammar.
bool valid_coll_metric(const std::string& name, bool histogram) {
  const std::string rest = name.substr(5);  // past "coll."
  const std::size_t dot = rest.find('.');
  if (dot == std::string::npos || dot == 0 || dot + 1 >= rest.size()) {
    return false;
  }
  const std::string head = rest.substr(0, dot);
  const std::string tail = rest.substr(dot + 1);
  if (!histogram && head == "tuner") {
    return tail == "hits" || tail == "misses";
  }
  for (int i = 0; i < hmpi::coll::kNumCollOps; ++i) {
    const auto op = static_cast<hmpi::coll::CollOp>(i);
    if (head != hmpi::coll::op_name(op)) continue;
    if (histogram) return tail == "seconds";
    return hmpi::coll::algo_from_name(op, tail) >= 1;
  }
  return false;
}

// The measured-feedback gauge grammar: coll.feedback.<op>.<algo>
// (docs/observability.md).
bool valid_coll_gauge(const std::string& name) {
  const std::string rest = name.substr(5);  // past "coll."
  if (rest.rfind("feedback.", 0) != 0) return false;
  return valid_coll_op_algo(rest.substr(9));
}

// True when every character of `s` is a decimal digit (and s is non-empty).
bool all_digits(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

// The critical-path gauge grammar for the reserved "crit." namespace
// (docs/observability.md): fixed totals plus crit.machine.<p>.seconds,
// crit.link.<src>.<dst>.seconds, and crit.coll.<op>.<algo>.seconds. The
// crit.* namespace holds gauges only.
bool valid_crit_gauge(const std::string& name) {
  const std::string rest = name.substr(5);  // past "crit."
  if (rest == "path_seconds" || rest == "makespan_seconds" ||
      rest == "compute_seconds" || rest == "transfer_seconds" ||
      rest == "overhead_seconds" || rest == "gap_seconds" ||
      rest == "segments" || rest == "complete" || rest == "events_dropped") {
    return true;
  }
  if (rest.rfind("machine.", 0) == 0) {
    const std::string tail = rest.substr(8);
    const std::size_t dot = tail.find('.');
    return dot != std::string::npos && all_digits(tail.substr(0, dot)) &&
           tail.substr(dot + 1) == "seconds";
  }
  if (rest.rfind("link.", 0) == 0) {
    const std::string tail = rest.substr(5);
    const std::size_t d1 = tail.find('.');
    if (d1 == std::string::npos) return false;
    const std::size_t d2 = tail.find('.', d1 + 1);
    return d2 != std::string::npos && all_digits(tail.substr(0, d1)) &&
           all_digits(tail.substr(d1 + 1, d2 - d1 - 1)) &&
           tail.substr(d2 + 1) == "seconds";
  }
  if (rest.rfind("coll.", 0) == 0) {
    std::string tail = rest.substr(5);
    const std::size_t suffix = tail.rfind(".seconds");
    if (suffix == std::string::npos || suffix + 8 != tail.size()) return false;
    return valid_coll_op_algo(tail.substr(0, suffix));
  }
  return false;
}

// The estimator-subsystem grammar for the reserved "est." namespace
// (docs/estimator.md), by metric kind.
enum class MetricKind { kCounter, kGauge, kHistogram };

// The adaptation-subsystem grammar for the reserved "adapt." namespace
// (docs/adaptation.md), by metric kind.
bool valid_adapt_metric(const std::string& name, MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return name == "adapt.checks" || name == "adapt.triggers" ||
             name == "adapt.migrations" || name == "adapt.rollbacks" ||
             name == "adapt.suppressed";
    case MetricKind::kGauge:
      return name == "adapt.divergence" || name == "adapt.drift" ||
             name == "adapt.blame_share";
    case MetricKind::kHistogram:
      return name == "adapt.predicted_gain_seconds" ||
             name == "adapt.realized_gain_seconds";
  }
  return false;
}
// The simulator-engine grammar for the reserved "sim." namespace
// (docs/simulator.md), by metric kind. The event engine emits the dispatch
// counters and capacity gauges at the end of each run; World::run counts
// runs.
bool valid_sim_metric(const std::string& name, MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return name == "sim.dispatches" || name == "sim.stalls" ||
             name == "sim.runs.event";
    case MetricKind::kGauge:
      return name == "sim.fibers" || name == "sim.workers" ||
             name == "sim.ready_peak" || name == "sim.stack_bytes";
    case MetricKind::kHistogram:
      return false;
  }
  return false;
}
// The scheduler-service grammar for the reserved "sched." namespace
// (docs/scheduler.md): dispatch-loop counters, queue/throughput gauges, and
// the wait/turnaround/service latency histograms.
bool valid_sched_metric(const std::string& name, MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return name == "sched.submitted" || name == "sched.dispatched" ||
             name == "sched.completed" || name == "sched.preempted" ||
             name == "sched.backfilled" || name == "sched.cancelled";
    case MetricKind::kGauge:
      return name == "sched.queue_depth" ||
             name == "sched.queue_depth_peak" || name == "sched.running" ||
             name == "sched.utilization" || name == "sched.makespan_s" ||
             name == "sched.throughput_jobs_per_s";
    case MetricKind::kHistogram:
      return name == "sched.wait_seconds" ||
             name == "sched.turnaround_seconds" ||
             name == "sched.service_seconds";
  }
  return false;
}
bool valid_est_metric(const std::string& name, MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return name == "est.compile.count" || name == "est.compile.hits" ||
             name == "est.compile.misses" ||
             name == "est.compile.evaluations" ||
             name == "est.delta.evaluations" ||
             name == "est.delta.ops_replayed" ||
             name == "est.delta.ops_total" || name == "est.cache.hits" ||
             name == "est.cache.misses" || name == "est.batch.evaluations";
    case MetricKind::kGauge:
      return name == "est.delta.savings";
    case MetricKind::kHistogram:
      return name == "est.compile.seconds";
  }
  return false;
}
// The batch-search grammar for the reserved "mapper." namespace
// (docs/mapper.md): counters only, emitted by searches that took the batch
// scoring path. (The legacy underscore names mapper_searches etc. are not in
// this namespace and stay unconstrained.)
bool valid_mapper_metric(const std::string& name, MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return name == "mapper.batch.chunks" ||
             name == "mapper.batch.candidates";
    case MetricKind::kGauge:
    case MetricKind::kHistogram:
      return false;
  }
  return false;
}

void check_metrics(const std::string& file, const JsonValue& doc) {
  for (const char* section : {"counters", "gauges", "histograms"}) {
    const JsonValue* s = doc.find(section);
    if (s == nullptr || !s->is_object()) {
      fail(file, std::string(section) + " is not an object");
    }
  }
  const JsonValue* counters = doc.find("counters");
  if (counters != nullptr && counters->is_object()) {
    for (const auto& [name, c] : counters->object) {
      (void)c;
      if (name.rfind("coll.", 0) == 0 &&
          !valid_coll_metric(name, /*histogram=*/false)) {
        fail(file, "counter '" + name +
                       "' violates the coll.* grammar (expected "
                       "coll.tuner.hits|misses or coll.<op>.<algo>)");
      }
      if (name.rfind("crit.", 0) == 0) {
        fail(file, "counter '" + name +
                       "' violates the crit.* grammar (crit.* holds gauges "
                       "only)");
      }
      if (name.rfind("est.", 0) == 0 &&
          !valid_est_metric(name, MetricKind::kCounter)) {
        fail(file, "counter '" + name +
                       "' violates the est.* grammar (expected "
                       "est.compile.count|hits|misses|evaluations, "
                       "est.delta.evaluations|ops_replayed|ops_total, "
                       "est.cache.hits|misses, or est.batch.evaluations)");
      }
      if (name.rfind("mapper.", 0) == 0 &&
          !valid_mapper_metric(name, MetricKind::kCounter)) {
        fail(file, "counter '" + name +
                       "' violates the mapper.* grammar (expected "
                       "mapper.batch.chunks|candidates)");
      }
      if (name.rfind("adapt.", 0) == 0 &&
          !valid_adapt_metric(name, MetricKind::kCounter)) {
        fail(file, "counter '" + name +
                       "' violates the adapt.* grammar (expected "
                       "adapt.checks|triggers|migrations|rollbacks|"
                       "suppressed)");
      }
      if (name.rfind("sim.", 0) == 0 &&
          !valid_sim_metric(name, MetricKind::kCounter)) {
        fail(file, "counter '" + name +
                       "' violates the sim.* grammar (expected "
                       "sim.dispatches|stalls|runs.event)");
      }
      if (name.rfind("sched.", 0) == 0 &&
          !valid_sched_metric(name, MetricKind::kCounter)) {
        fail(file, "counter '" + name +
                       "' violates the sched.* grammar (expected "
                       "sched.submitted|dispatched|completed|preempted|"
                       "backfilled|cancelled)");
      }
    }
  }
  const JsonValue* gauges = doc.find("gauges");
  if (gauges != nullptr && gauges->is_object()) {
    for (const auto& [name, g] : gauges->object) {
      (void)g;
      if (name.rfind("coll.", 0) == 0 && !valid_coll_gauge(name)) {
        fail(file, "gauge '" + name +
                       "' violates the coll.* grammar (expected "
                       "coll.feedback.<op>.<algo>)");
      }
      if (name.rfind("crit.", 0) == 0 && !valid_crit_gauge(name)) {
        fail(file, "gauge '" + name +
                       "' violates the crit.* grammar (expected a path "
                       "total, crit.machine.<p>.seconds, "
                       "crit.link.<src>.<dst>.seconds, or "
                       "crit.coll.<op>.<algo>.seconds)");
      }
      if (name.rfind("est.", 0) == 0 &&
          !valid_est_metric(name, MetricKind::kGauge)) {
        fail(file, "gauge '" + name +
                       "' violates the est.* grammar (expected "
                       "est.delta.savings)");
      }
      if (name.rfind("mapper.", 0) == 0 &&
          !valid_mapper_metric(name, MetricKind::kGauge)) {
        fail(file, "gauge '" + name +
                       "' violates the mapper.* grammar (mapper.* holds "
                       "counters only)");
      }
      if (name.rfind("adapt.", 0) == 0 &&
          !valid_adapt_metric(name, MetricKind::kGauge)) {
        fail(file, "gauge '" + name +
                       "' violates the adapt.* grammar (expected "
                       "adapt.divergence|drift)");
      }
      if (name.rfind("sim.", 0) == 0 &&
          !valid_sim_metric(name, MetricKind::kGauge)) {
        fail(file, "gauge '" + name +
                       "' violates the sim.* grammar (expected "
                       "sim.fibers|workers|ready_peak|stack_bytes)");
      }
      if (name.rfind("sched.", 0) == 0 &&
          !valid_sched_metric(name, MetricKind::kGauge)) {
        fail(file, "gauge '" + name +
                       "' violates the sched.* grammar (expected "
                       "sched.queue_depth|queue_depth_peak|running|"
                       "utilization|makespan_s|throughput_jobs_per_s)");
      }
    }
  }
  const JsonValue* hists = doc.find("histograms");
  if (hists == nullptr || !hists->is_object()) return;
  for (const auto& [name, h] : hists->object) {
    if (!h.is_object() || h.find("count") == nullptr ||
        h.find("sum") == nullptr || h.find("buckets") == nullptr ||
        !h.find("buckets")->is_array()) {
      fail(file, "histogram " + name + " missing count/sum/buckets");
    }
    // Percentiles are part of the dump format; null only for empty
    // histograms (json_number renders NaN as null).
    for (const char* q : {"p50", "p95", "p99"}) {
      const JsonValue* v = h.is_object() ? h.find(q) : nullptr;
      if (v == nullptr || (!v->is_number() && !v->is_null())) {
        fail(file, "histogram " + name + " missing numeric-or-null " + q);
      }
    }
    if (name.rfind("coll.", 0) == 0 &&
        !valid_coll_metric(name, /*histogram=*/true)) {
      fail(file, "histogram '" + name +
                     "' violates the coll.* grammar (expected "
                     "coll.<op>.seconds)");
    }
    if (name.rfind("crit.", 0) == 0) {
      fail(file, "histogram '" + name +
                     "' violates the crit.* grammar (crit.* holds gauges "
                     "only)");
    }
    if (name.rfind("est.", 0) == 0 &&
        !valid_est_metric(name, MetricKind::kHistogram)) {
      fail(file, "histogram '" + name +
                     "' violates the est.* grammar (expected "
                     "est.compile.seconds)");
    }
    if (name.rfind("mapper.", 0) == 0 &&
        !valid_mapper_metric(name, MetricKind::kHistogram)) {
      fail(file, "histogram '" + name +
                     "' violates the mapper.* grammar (mapper.* holds "
                     "counters only)");
    }
    if (name.rfind("adapt.", 0) == 0 &&
        !valid_adapt_metric(name, MetricKind::kHistogram)) {
      fail(file, "histogram '" + name +
                     "' violates the adapt.* grammar (expected "
                     "adapt.predicted_gain_seconds|realized_gain_seconds)");
    }
    if (name.rfind("sim.", 0) == 0 &&
        !valid_sim_metric(name, MetricKind::kHistogram)) {
      fail(file, "histogram '" + name +
                     "' violates the sim.* grammar (sim.* has no histograms)");
    }
    if (name.rfind("sched.", 0) == 0 &&
        !valid_sched_metric(name, MetricKind::kHistogram)) {
      fail(file, "histogram '" + name +
                     "' violates the sched.* grammar (expected "
                     "sched.wait_seconds|turnaround_seconds|service_seconds)");
    }
  }
}

void check_bench(const std::string& file, const JsonValue& doc) {
  const JsonValue* tables = doc.find("tables");
  if (tables == nullptr || !tables->is_array()) {
    fail(file, "tables is not an array");
    return;
  }
  for (const JsonValue& t : tables->array) {
    const JsonValue* title = t.find("title");
    const JsonValue* columns = t.find("columns");
    const JsonValue* rows = t.find("rows");
    if (title == nullptr || !title->is_string() || columns == nullptr ||
        !columns->is_array() || rows == nullptr || !rows->is_array()) {
      fail(file, "table missing title/columns/rows");
      continue;
    }
    for (const JsonValue& row : rows->array) {
      if (!row.is_array() || row.array.size() != columns->array.size()) {
        fail(file, "table '" + title->string + "' row width != column count");
        break;
      }
    }
  }
}

// Adaptation-decision ledgers ({"adaptations": [...]}; docs/adaptation.md):
// every entry needs group ids, a signal/outcome from the closed vocabulary,
// the gate's pricing fields, and the member rosters.
void check_adapt_ledger(const std::string& file, const JsonValue& doc) {
  const JsonValue* entries = doc.find("adaptations");
  if (entries == nullptr || !entries->is_array()) {
    fail(file, "adaptations is not an array");
    return;
  }
  for (std::size_t i = 0; i < entries->array.size(); ++i) {
    const JsonValue& e = entries->array[i];
    const std::string at = "adaptations[" + std::to_string(i) + "]";
    if (!e.is_object()) {
      fail(file, at + " is not an object");
      continue;
    }
    for (const char* field : {"group_id", "time_s", "severity",
                              "predicted_old_s", "predicted_new_s", "cost_s"}) {
      const JsonValue* v = e.find(field);
      if (v == nullptr || !v->is_number()) {
        fail(file, at + " missing numeric " + field);
      }
    }
    const JsonValue* signal = e.find("signal");
    if (signal == nullptr || !signal->is_string() ||
        (signal->string != "none" && signal->string != "divergence" &&
         signal->string != "speed_drift" &&
         signal->string != "blame_machine" &&
         signal->string != "blame_link")) {
      fail(file, at + " signal outside none|divergence|speed_drift|"
                      "blame_machine|blame_link");
    }
    const JsonValue* outcome = e.find("outcome");
    if (outcome == nullptr || !outcome->is_string() ||
        (outcome->string != "migrated" && outcome->string != "rolled_back" &&
         outcome->string != "suppressed")) {
      fail(file, at + " outcome outside migrated|rolled_back|suppressed");
    }
    // realized_gain_s may be null (migration never measured) but must exist.
    if (e.find("realized_gain_s") == nullptr) {
      fail(file, at + " missing realized_gain_s");
    }
    for (const char* field : {"old_members", "new_members"}) {
      const JsonValue* v = e.find(field);
      if (v == nullptr || !v->is_array()) {
        fail(file, at + " missing " + field + " array");
      }
    }
  }
}

// Critical-path reports ({"critical_path": {...}}; docs/observability.md):
// numeric totals, a boolean completeness flag, and the machines / links /
// collectives / segments blame arrays with their identity fields.
void check_critpath(const std::string& file, const JsonValue& doc) {
  const JsonValue* cp = doc.find("critical_path");
  if (cp == nullptr || !cp->is_object()) {
    fail(file, "critical_path is not an object");
    return;
  }
  for (const char* field : {"makespan_s", "path_s", "compute_s", "transfer_s",
                            "overhead_s", "gap_s", "end_rank",
                            "events_dropped"}) {
    const JsonValue* v = cp->find(field);
    if (v == nullptr || !v->is_number()) {
      fail(file, std::string("critical_path missing numeric ") + field);
    }
  }
  const JsonValue* complete = cp->find("complete");
  if (complete == nullptr || complete->type != JsonValue::Type::kBool) {
    fail(file, "critical_path missing boolean complete");
  }
  for (const char* section : {"machines", "links", "collectives", "segments"}) {
    const JsonValue* s = cp->find(section);
    if (s == nullptr || !s->is_array()) {
      fail(file, std::string("critical_path missing ") + section + " array");
    }
  }
  if (const JsonValue* machines = cp->find("machines");
      machines != nullptr && machines->is_array()) {
    for (const JsonValue& m : machines->array) {
      if (m.find("processor") == nullptr || m.find("seconds") == nullptr) {
        fail(file, "critical_path machine entry missing processor/seconds");
        break;
      }
    }
  }
  if (const JsonValue* links = cp->find("links");
      links != nullptr && links->is_array()) {
    for (const JsonValue& l : links->array) {
      if (l.find("src") == nullptr || l.find("dst") == nullptr ||
          l.find("seconds") == nullptr) {
        fail(file, "critical_path link entry missing src/dst/seconds");
        break;
      }
    }
  }
  if (const JsonValue* segments = cp->find("segments");
      segments != nullptr && segments->is_array()) {
    double last_end = 0.0;
    for (std::size_t i = 0; i < segments->array.size(); ++i) {
      const JsonValue& s = segments->array[i];
      const std::string at = "segments[" + std::to_string(i) + "]";
      const JsonValue* kind = s.find("kind");
      const JsonValue* start = s.find("start_s");
      const JsonValue* end = s.find("end_s");
      if (kind == nullptr || !kind->is_string() || start == nullptr ||
          !start->is_number() || end == nullptr || !end->is_number()) {
        fail(file, at + " missing kind/start_s/end_s");
        continue;
      }
      if (kind->string != "compute" && kind->string != "elapse" &&
          kind->string != "send_overhead" && kind->string != "transfer" &&
          kind->string != "recv_overhead" && kind->string != "gap") {
        fail(file, at + " kind '" + kind->string + "' outside the vocabulary");
      }
      if (end->number < start->number) {
        fail(file, at + " ends before it starts");
      }
      if (i > 0 && start->number < last_end) {
        fail(file, at + " overlaps the previous segment");
      }
      last_end = end->number;
    }
  }
}

// Scheduler dumps ({"scheduler": {...}}; docs/scheduler.md): a policy name,
// numeric capacity/accounting summary, and per-job records whose states come
// from the closed JobState vocabulary.
void check_scheduler(const std::string& file, const JsonValue& doc) {
  const JsonValue* sched = doc.find("scheduler");
  if (sched == nullptr || !sched->is_object()) {
    fail(file, "scheduler is not an object");
    return;
  }
  const JsonValue* policy = sched->find("policy");
  if (policy == nullptr || !policy->is_string() ||
      (policy->string != "fifo" && policy->string != "priority")) {
    fail(file, "scheduler policy outside fifo|priority");
  }
  for (const char* field :
       {"machines", "slots_per_machine", "submitted", "dispatched",
        "completed", "preempted", "backfilled", "cancelled", "queue_depth",
        "running", "now_s", "makespan_s", "utilization", "mean_wait_s",
        "mean_turnaround_s", "throughput_jobs_per_s"}) {
    const JsonValue* v = sched->find(field);
    if (v == nullptr || !v->is_number()) {
      fail(file, std::string("scheduler missing numeric ") + field);
    }
  }
  const JsonValue* jobs = sched->find("jobs");
  if (jobs == nullptr || !jobs->is_array()) {
    fail(file, "scheduler missing jobs array");
    return;
  }
  for (std::size_t i = 0; i < jobs->array.size(); ++i) {
    const JsonValue& j = jobs->array[i];
    const std::string at = "jobs[" + std::to_string(i) + "]";
    if (!j.is_object()) {
      fail(file, at + " is not an object");
      continue;
    }
    for (const char* field : {"id", "priority", "arrival_s", "start_s",
                              "finish_s", "service_s", "preemptions",
                              "result"}) {
      const JsonValue* v = j.find(field);
      if (v == nullptr || !v->is_number()) {
        fail(file, at + " missing numeric " + field);
      }
    }
    const JsonValue* state = j.find("state");
    if (state == nullptr || !state->is_string() ||
        (state->string != "pending" && state->string != "running" &&
         state->string != "completed" && state->string != "cancelled")) {
      fail(file, at + " state outside pending|running|completed|cancelled");
    }
    const JsonValue* backfilled = j.find("backfilled");
    if (backfilled == nullptr ||
        backfilled->type != JsonValue::Type::kBool) {
      fail(file, at + " missing boolean backfilled");
    }
  }
}

void check_file(const std::string& file) {
  const int errors_before = errors;
  std::ifstream is(file);
  if (!is) {
    fail(file, "cannot open");
    return;
  }
  std::ostringstream buffer;
  buffer << is.rdbuf();
  std::string error;
  const auto doc = hmpi::telemetry::parse_json(buffer.str(), &error);
  if (!doc) {
    fail(file, "invalid JSON: " + error);
    return;
  }
  if (!doc->is_object()) {
    fail(file, "top-level value is not an object");
    return;
  }
  if (doc->find("traceEvents") != nullptr) {
    check_chrome_trace(file, *doc);
  } else if (doc->find("counters") != nullptr) {
    check_metrics(file, *doc);
  } else if (doc->find("benchmark") != nullptr) {
    check_bench(file, *doc);
  } else if (doc->find("samples") != nullptr && doc->find("models") != nullptr) {
    // Prediction-ledger dump: well-formed JSON with both sections suffices.
  } else if (doc->find("adaptations") != nullptr) {
    check_adapt_ledger(file, *doc);
  } else if (doc->find("critical_path") != nullptr) {
    check_critpath(file, *doc);
  } else if (doc->find("scheduler") != nullptr) {
    check_scheduler(file, *doc);
  } else {
    fail(file, "unrecognised telemetry document shape");
    return;
  }
  if (errors == errors_before) std::printf("%s: OK\n", file.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: telemetry_check FILE.json...\n");
    return 2;
  }
  for (int i = 1; i < argc; ++i) check_file(argv[i]);
  return errors == 0 ? 0 : 1;
}
