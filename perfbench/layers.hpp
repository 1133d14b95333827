// Per-layer accounting of the traced run. Workloads feed it per-call wall
// times, the mapper's SearchStats, the runtime's estimator counters and
// telemetry counter deltas; set_layer_metrics() turns that into the
// `per_layer` metrics of BENCHMARK.json. A layer a workload does not cross
// reports 0 (README.md lists which layer runs where).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "hmpi/runtime.hpp"
#include "hnoc/network_model.hpp"
#include "mapper/mapper.hpp"
#include "mpsim/world.hpp"
#include "pmdl/model.hpp"
#include "sched/scheduler.hpp"

namespace perfbench {

namespace est = hmpi::est;
namespace hnoc = hmpi::hnoc;
namespace map = hmpi::map;
namespace mp = hmpi::mp;
namespace pmdl = hmpi::pmdl;
namespace sched = hmpi::sched;

struct LayerStats {
  /// Wall seconds per call, keyed by span name ("hmpi.timeof", ...).
  std::map<std::string, Samples> calls;

  // Selection searches (Timeof and the parent side of Group_create).
  long long searches = 0;
  map::SearchStats search_totals;
  Samples search_wall_s;  ///< SearchStats::wall_seconds per search.
  Samples hmpi_self_s;    ///< Call wall minus search wall.

  // Runtime::estimator_stats() growth over the searches above.
  long long plans_compiled = 0;
  long long plan_cache_hits = 0;
  long long compiled_evaluations = 0;
  long long delta_evaluations = 0;
  long long delta_ops_replayed = 0;
  long long delta_ops_total = 0;

  // Direct est::Plan and pmdl probes on the workload's own instances.
  Samples plan_compile_s;
  Samples plan_evaluate_s;    ///< One scalar Plan::evaluate.
  Samples plan_batch_eval_s;  ///< Per mapping, inside one evaluate_batch.
  Samples parse_s;
  Samples instantiate_s;

  // Simulator runs: wall per World::run and the virtual accounting of the
  // runs whose RunResult the benchmark sees.
  Samples world_run_s;
  double world_wait_s = 0.0;   ///< Sum of Stats::wait_time.
  double world_clock_s = 0.0;  ///< Sum of final clocks.

  // Scheduler loop (sched_trace).
  Samples step_s;
  Samples submit_s;
  Samples job_exec_s;
  sched::SchedStats sched;

  Samples traced_s;    ///< Op (or round) wall with the recorder on...
  Samples untraced_s;  ///< ...and off, alternating.

  void note_call(const std::string& name, double seconds) {
    calls[name].add(seconds);
  }
  /// Records one Timeof / Group_create: its search cost and self time.
  void note_search(const std::string& call, double call_wall_s,
                   const map::SearchStats& stats);
  /// Records the cost of one selection search.
  void note_selection(const map::SearchStats& stats);
  /// Adds the growth of the runtime's estimator counters.
  void note_estimator(const hmpi::Runtime::EstimatorStats& before,
                      const hmpi::Runtime::EstimatorStats& after);
  void note_world(const mp::World::RunResult& run, double wall_s);
  /// model.instantiate(params), timed as a pmdl call.
  pmdl::ModelInstance instantiate(const pmdl::Model& model,
                                  std::span<const pmdl::ParamValue> params);
};

/// Turns the recorder on for the probes that follow the measured phase.
void begin_probes();

/// Times Plan compile, scalar evaluate and batched evaluate of `instances`
/// over random injective mappings onto `network` (seeded).
void probe_plans(LayerStats& stats,
                 const std::vector<const pmdl::ModelInstance*>& instances,
                 const hnoc::NetworkModel& network, std::uint64_t seed);

/// Times parsing the paper's Figure-4 (EM3D) and Figure-7 (MM) model texts.
void probe_parse(LayerStats& stats);

/// Emits every per-layer metric. `counters` spans the measured phase.
void set_layer_metrics(Result& result, const LayerStats& stats,
                       const CounterDelta& counters);

}  // namespace perfbench
