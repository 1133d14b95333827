#include "layers.hpp"

#include <algorithm>
#include <numeric>

#include "apps/em3d/app.hpp"
#include "apps/matmul/app.hpp"
#include "estimator/plan.hpp"
#include "support/rng.hpp"

namespace perfbench {

void LayerStats::note_search(const std::string& call, double call_wall_s,
                             const map::SearchStats& stats) {
  note_call(call, call_wall_s);
  note_selection(stats);
  hmpi_self_s.add(std::max(0.0, call_wall_s - stats.wall_seconds));
}

void LayerStats::note_selection(const map::SearchStats& stats) {
  ++searches;
  search_totals.add_counters(stats);
  search_wall_s.add(stats.wall_seconds);
}

void LayerStats::note_estimator(const hmpi::Runtime::EstimatorStats& before,
                                const hmpi::Runtime::EstimatorStats& after) {
  plans_compiled += after.plans_compiled - before.plans_compiled;
  plan_cache_hits += after.plan_cache_hits - before.plan_cache_hits;
  compiled_evaluations += after.compiled_evaluations - before.compiled_evaluations;
  delta_evaluations += after.delta_evaluations - before.delta_evaluations;
  delta_ops_replayed += after.delta_ops_replayed - before.delta_ops_replayed;
  delta_ops_total += after.delta_ops_total - before.delta_ops_total;
}

void LayerStats::note_world(const mp::World::RunResult& run, double wall_s) {
  world_run_s.add(wall_s);
  for (std::size_t r = 0; r < run.clocks.size(); ++r) {
    world_wait_s += run.stats[r].wait_time;
    world_clock_s += run.clocks[r];
  }
}

pmdl::ModelInstance LayerStats::instantiate(
    const pmdl::Model& model, std::span<const pmdl::ParamValue> params) {
  ScopedSpan span("pmdl.instantiate");
  pmdl::ModelInstance instance = model.instantiate(params);
  instantiate_s.add(span.finish());
  return instance;
}

void begin_probes() {
  recorder().set_enabled(true);
  recorder().set_op(-1);
}

void probe_plans(LayerStats& stats,
                 const std::vector<const pmdl::ModelInstance*>& instances,
                 const hnoc::NetworkModel& network, std::uint64_t seed) {
  constexpr int kCompiles = 10;
  // Scalar evaluation is O(P^2) at P=1000; stop after a time box.
  constexpr int kScalarEvals = 64;
  constexpr double kScalarBudgetS = 0.5;
  constexpr std::size_t kBatch = 256;
  hmpi::support::Rng rng(seed ^ 0x706c616eULL);
  const int machines = network.size();
  for (const pmdl::ModelInstance* instance : instances) {
    for (int i = 0; i < kCompiles; ++i) {
      ScopedSpan span("estimator.plan_compile");
      const est::Plan plan(*instance);
      stats.plan_compile_s.add(span.finish());
    }
    const est::Plan plan(*instance);
    const int slots = plan.size();
    // Random injective mappings, slot-major (the evaluate_batch layout).
    std::vector<int> soa(static_cast<std::size_t>(slots) * kBatch);
    std::vector<int> pool(static_cast<std::size_t>(machines));
    for (std::size_t m = 0; m < kBatch; ++m) {
      std::iota(pool.begin(), pool.end(), 0);
      for (int s = 0; s < slots; ++s) {
        const auto pick = static_cast<std::size_t>(s) +
                          rng.next_below(static_cast<std::uint64_t>(machines - s));
        std::swap(pool[static_cast<std::size_t>(s)], pool[pick]);
        soa[static_cast<std::size_t>(s) * kBatch + m] =
            pool[static_cast<std::size_t>(s)];
      }
    }
    std::vector<double> batch_out(kBatch);
    ScopedSpan batch_span("estimator.evaluate_batch");
    plan.evaluate_batch(soa, kBatch, network, est::EstimateOptions{}, batch_out);
    stats.plan_batch_eval_s.add(batch_span.finish() / static_cast<double>(kBatch));
    std::vector<int> mapping(static_cast<std::size_t>(slots));
    const Clock::time_point scalar_start = Clock::now();
    for (int i = 0; i < kScalarEvals &&
                    (i < 3 || seconds_since(scalar_start) < kScalarBudgetS);
         ++i) {
      const std::size_t m = static_cast<std::size_t>(i) % kBatch;
      for (int s = 0; s < slots; ++s) {
        mapping[static_cast<std::size_t>(s)] =
            soa[static_cast<std::size_t>(s) * kBatch + m];
      }
      ScopedSpan span("estimator.evaluate");
      const double t = plan.evaluate(mapping, network);
      stats.plan_evaluate_s.add(span.finish());
      if (t != batch_out[m]) {
        throw hmpi::Error("Plan::evaluate disagrees with evaluate_batch");
      }
    }
  }
}

void probe_parse(LayerStats& stats) {
  constexpr int kRepeats = 20;
  for (int i = 0; i < kRepeats; ++i) {
    {
      ScopedSpan span("pmdl.parse");
      (void)hmpi::apps::em3d::performance_model();
      stats.parse_s.add(span.finish());
    }
    ScopedSpan span("pmdl.parse");
    (void)hmpi::apps::matmul::performance_model();
    stats.parse_s.add(span.finish());
  }
}

namespace {

double median_ms(const LayerStats& stats, const std::string& call) {
  const auto it = stats.calls.find(call);
  return it == stats.calls.end() ? 0.0 : it->second.median() * 1e3;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void set_layer_metrics(Result& result, const LayerStats& stats,
                       const CounterDelta& counters) {
  // hmpi: median wall per runtime call, as seen by the calling process.
  for (const char* call : {"init", "recon", "timeof", "timeof_cold",
                           "group_create", "group_free", "finalize"}) {
    result.set(std::string("hmpi.") + call + "_ms",
               median_ms(stats, std::string("hmpi.") + call), "ms");
  }
  result.set("hmpi.self_ms", stats.hmpi_self_s.median() * 1e3, "ms");

  // mapper: per search.
  const double searches = static_cast<double>(stats.searches);
  const map::SearchStats& st = stats.search_totals;
  result.set("mapper.search_ms", stats.search_wall_s.median() * 1e3, "ms");
  result.set("mapper.evaluations", ratio(static_cast<double>(st.evaluations), searches),
             "count");
  result.set("mapper.batch_evaluated",
             ratio(static_cast<double>(st.batch_evaluated), searches), "count");
  result.set("mapper.batch_chunks",
             ratio(static_cast<double>(st.batch_chunks), searches), "count");

  // estimator: estimate cache and plan cache per search; kernel probes.
  const double lookups = static_cast<double>(st.cache_hits + st.cache_misses);
  result.set("estimator.cache_hit_rate",
             ratio(static_cast<double>(st.cache_hits), lookups), "fraction");
  result.set("estimator.cache_lookups", ratio(lookups, searches), "count");
  result.set("estimator.plans_compiled",
             ratio(static_cast<double>(stats.plans_compiled), searches), "count");
  result.set("estimator.plan_cache_hits",
             ratio(static_cast<double>(stats.plan_cache_hits), searches), "count");
  result.set("estimator.compiled_evaluations",
             ratio(static_cast<double>(stats.compiled_evaluations), searches),
             "count");
  result.set("estimator.delta_evaluations",
             ratio(static_cast<double>(stats.delta_evaluations), searches), "count");
  result.set("estimator.delta_ops_saved_frac",
             stats.delta_ops_total > 0
                 ? 1.0 - static_cast<double>(stats.delta_ops_replayed) /
                             static_cast<double>(stats.delta_ops_total)
                 : 0.0,
             "fraction");
  result.set("estimator.plan_compile_us", stats.plan_compile_s.median() * 1e6, "us");
  result.set("estimator.evaluate_us", stats.plan_evaluate_s.median() * 1e6, "us");
  result.set("estimator.batch_eval_us", stats.plan_batch_eval_s.median() * 1e6,
             "us");
  result.set("estimator.single_vs_batch_ratio",
             ratio(stats.plan_evaluate_s.median(), stats.plan_batch_eval_s.median()),
             "ratio");

  // pmdl.
  result.set("pmdl.parse_us", stats.parse_s.median() * 1e6, "us");
  result.set("pmdl.instantiate_us", stats.instantiate_s.median() * 1e6, "us");

  // mpsim: per simulated run (every World::run of the measured phase,
  // including the ones the scheduler starts for executed jobs).
  const double runs = counters.sum("sim.runs.");
  const double msgs = counters.sum("machine.", ".messages_sent");
  result.set("mpsim.world_run_ms", stats.world_run_s.median() * 1e3, "ms");
  result.set("mpsim.msgs", ratio(msgs, runs), "count");
  result.set("mpsim.bytes", ratio(counters.sum("machine.", ".sent_bytes"), runs),
             "B");
  result.set("mpsim.us_per_msg",
             ratio(stats.world_run_s.median() * 1e6, ratio(msgs, runs)), "us");
  result.set("mpsim.dispatches", ratio(counters.sum("sim.dispatches"), runs),
             "count");
  result.set("mpsim.stalls", ratio(counters.sum("sim.stalls"), runs), "count");
  result.set("mpsim.wait_frac", ratio(stats.world_wait_s, stats.world_clock_s),
             "fraction");

  // coll: per simulated run.
  const double tuner_hits = counters.sum("coll.tuner.hits");
  const double tuner_misses = counters.sum("coll.tuner.misses");
  const double calls = counters.sum("coll.") - tuner_hits - tuner_misses;
  result.set("coll.calls", ratio(calls, runs), "count");
  result.set("coll.tuner_hit_rate", ratio(tuner_hits, tuner_hits + tuner_misses),
             "fraction");
  result.set("coll.virtual_s", ratio(counters.histogram_sum("coll.", ".seconds"), runs),
             "s");

  // sched.
  result.set("sched.step_us_p50", stats.step_s.quantile(0.5) * 1e6, "us");
  result.set("sched.step_us_p99", stats.step_s.quantile(0.99) * 1e6, "us");
  result.set("sched.submit_us", stats.submit_s.median() * 1e6, "us");
  result.set("sched.job_exec_us", stats.job_exec_s.median() * 1e6, "us");
  result.set("sched.dispatched", static_cast<double>(stats.sched.dispatched), "count");
  result.set("sched.preempted", static_cast<double>(stats.sched.preempted), "count");
  result.set("sched.backfilled", static_cast<double>(stats.sched.backfilled), "count");
  result.set("sched.queue_depth_peak",
             static_cast<double>(stats.sched.queue_depth_peak), "count");

  // apps and telemetry.
  result.set("apps.run_ms", median_ms(stats, "apps.run"), "ms");
  result.set("telemetry.critpath_ms", median_ms(stats, "telemetry.critpath"), "ms");
  result.set("telemetry.trace_overhead_frac",
             trace_overhead(stats.traced_s, stats.untraced_s), "fraction");

  set_span_self_metrics(result);
}

}  // namespace perfbench
