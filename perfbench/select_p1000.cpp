// Workload select_p1000: group selection at scale.
//
// One World of 1000 processes on hnoc::testbeds::large_cluster(1000, seed),
// one process per machine, the host (world rank 0) on the fastest machine.
// The runtime uses the PortfolioMapper with one search thread and a
// virtual-only Recon benchmark. One op is one host Runtime::timeof of
// the EM3D model on a fresh parameter set (Figure-9 subbody sizes at scale
// 4, connectivity drawn from the op's own seed). The run ends with one
// Group_create for op 1's parameter set, EM3D on the selected group,
// group_free and finalize. The portfolio runs with effort caps; the
// library-default swap-refine mapper does not finish a Timeof at this scale
// in minutes.
//
// Set-up (World start, Runtime init, Recon and the first, cold Timeof) is
// done three times, twice in throwaway worlds.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <vector>

#include "apps/em3d/app.hpp"
#include "common.hpp"
#include "hmpi/runtime.hpp"
#include "hnoc/cluster.hpp"
#include "layers.hpp"
#include "programs.hpp"

namespace perfbench {
namespace {

namespace em3d = hmpi::apps::em3d;
using hmpi::Runtime;

constexpr int kMachines = 1000;
constexpr int kGroup = 9;
constexpr int kScale = 4;
constexpr long long kMinOps = 100;

em3d::GeneratorConfig op_config(std::uint64_t seed, long long op) {
  return em3d_config(kScale,
                     seed * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(op));
}

/// One process per machine; world rank 0 (the host, pinned to the EM3D
/// model's parent subbody) on the fastest machine, the rest in order.
std::vector<int> host_first_placement(const hnoc::Cluster& cluster) {
  int fastest = 0;
  for (int p = 1; p < cluster.size(); ++p) {
    if (cluster.processor(p).speed > cluster.processor(fastest).speed) fastest = p;
  }
  std::vector<int> placement{fastest};
  for (int p = 0; p < cluster.size(); ++p) {
    if (p != fastest) placement.push_back(p);
  }
  return placement;
}

hmpi::RuntimeConfig runtime_config() {
  hmpi::RuntimeConfig config;
  // Effort caps in the manner of the A10 ablation (bench/ablation_mapscale),
  // with a quarter of its annealing iterations so that 100 ops fit a run.
  map::PortfolioOptions portfolio;
  portfolio.swap_refine_rounds = 1;
  portfolio.annealing.iterations = 100;
  portfolio.work_stealing.annealing.iterations = 100;
  config.mapper = std::make_shared<map::PortfolioMapper>(portfolio);
  // One search thread: with four, the op time followed the load other
  // tenants put on the shared cores (median +40 % within ten runs); the
  // selections are the same for any thread count.
  config.search_threads = 1;
  return config;
}

void virtual_recon(mp::Proc& q) { q.compute(kEm3dK); }

struct Run {
  const pmdl::Model& model;
  const hmpi::RuntimeConfig& config;
  const Options& options;
  LayerStats* layers = nullptr;  ///< Null: throwaway set-up world.

  // Filled at the host.
  double setup_end_s = 0.0;  ///< Since `start`, when the cold Timeof returned.
  Clock::time_point start{};
  Samples op_s{};
  long long failed = 0;
  double first_op_timeof = 0.0;  ///< Timeof of op 1's parameters.
  GroupOutcome em3d{};
  std::optional<mp::World::RunResult> world{};
};

/// One EM3D input: the system and its model parameters.
struct Problem {
  em3d::System system;
  std::vector<pmdl::ParamValue> params;

  Problem(std::uint64_t seed, long long op)
      : system(em3d::generate(op_config(seed, op))),
        params(em3d::model_parameters(system, kEm3dK)) {}
};

/// `warmup` (input 0) is priced by the set-up's cold Timeof; `first` is op
/// 1's input, which the closing Group_create selects for.
void body(mp::Proc& proc, Run& run, const Problem& warmup, const Problem& first) {
  const bool host = proc.rank() == 0;
  LayerStats* layers = host ? run.layers : nullptr;
  std::optional<Runtime> rt;
  {
    HostCall call(host, layers, "hmpi.init");
    rt.emplace(proc, run.config);
  }
  {
    HostCall call(host, layers, "hmpi.recon");
    rt->recon(virtual_recon);
  }
  Runtime::EstimatorStats est_before;
  if (host) {
    const double cold = searched_call(*rt, nullptr, "hmpi.timeof", [&] {
      (void)rt->timeof(run.model, warmup.params);
    });
    if (layers != nullptr) layers->note_call("hmpi.timeof_cold", cold);
    run.setup_end_s = seconds_since(run.start);
    est_before = rt->estimator_stats();
  }
  if (run.layers == nullptr) {  // throwaway set-up world
    rt->finalize();
    return;
  }

  if (host) {
    const Clock::time_point measure_start = Clock::now();
    // At least kMinOps ops, so that ten or more lie beyond p90.
    for (long long op = 1; seconds_since(measure_start) < run.options.seconds ||
                           op <= kMinOps;
         ++op) {
      // Fresh parameters, generated outside the timed region.
      std::optional<Problem> fresh;
      if (op > 1) fresh.emplace(run.options.seed, op);
      const std::vector<pmdl::ParamValue>& params =
          fresh ? fresh->params : first.params;
      // Traced run: the recorder alternates on and off per op.
      const bool traced = run.options.trace && op % 2 == 0;
      recorder().set_enabled(traced);
      recorder().set_op(op);
      const Clock::time_point op_start = Clock::now();
      try {
        ScopedSpan span("op.timeof");
        double value = 0.0;
        searched_call(*rt, layers, "hmpi.timeof",
                      [&] { value = rt->timeof(run.model, params); });
        if (!std::isfinite(value) || value <= 0.0) ++run.failed;
        if (op == 1) run.first_op_timeof = value;
      } catch (const std::exception& e) {
        ++run.failed;
        std::fprintf(stderr, "op %lld failed: %s\n", op, e.what());
      }
      const double s = seconds_since(op_start);
      run.op_s.add(s);
      (traced ? layers->traced_s : layers->untraced_s).add(s);
    }
    recorder().set_enabled(run.options.trace);
    recorder().set_op(-1);
    layers->note_estimator(est_before, rt->estimator_stats());
  }

  em3d_group_phase(*rt, run.model, first.system, first.params, layers, run.em3d);
  if (host && run.options.trace) {
    HostCall call(host, layers, "telemetry.critpath");
    (void)rt->critical_path_report();
  }
  HostCall call(host, layers, "hmpi.finalize");
  rt->finalize();
}

/// Rank-order MPI EM3D on each consecutive 9-machine slice of the cluster;
/// geometric mean of the virtual times.
double rank_order_geomean(const hnoc::Cluster& cluster,
                          const em3d::GeneratorConfig& config) {
  double log_sum = 0.0;
  int slices = 0;
  for (int first = 0; first + kGroup <= cluster.size(); first += kGroup) {
    std::vector<hnoc::Processor> procs(
        cluster.processors().begin() + first,
        cluster.processors().begin() + first + kGroup);
    const hnoc::Cluster slice(std::move(procs), cluster.default_link(),
                              cluster.self_link());
    log_sum += std::log(em3d::run_mpi(slice, config, kEm3dIterations,
                                      em3d::WorkMode::kVirtualOnly)
                            .algorithm_time);
    ++slices;
  }
  return std::exp(log_sum / slices);
}

}  // namespace

Result run_select_p1000(const Options& options) {
  Result result;
  LayerStats layers;
  const hnoc::Cluster cluster =
      hnoc::testbeds::large_cluster(kMachines, options.seed);
  const std::vector<int> placement = host_first_placement(cluster);
  const pmdl::Model model = em3d::performance_model();
  const hmpi::RuntimeConfig config = runtime_config();
  const Problem warmup(options.seed, 0);
  const Problem first(options.seed, 1);

  Samples setup_s;
  for (int i = 0; i < 2; ++i) {
    Run warm{model, config, options};
    warm.start = Clock::now();
    mp::World::run(cluster, placement,
                   [&](mp::Proc& proc) { body(proc, warm, warmup, first); },
                   event_engine());
    setup_s.add(warm.setup_end_s);
  }

  const CounterDelta counters;
  Run run{model, config, options, &layers};
  // Traced run: set-up and the closing phase are always recorded; the ops
  // alternate.
  recorder().set_enabled(options.trace);
  run.start = Clock::now();
  {
    ScopedSpan span("mpsim.world_run");
    run.world = mp::World::run(
        cluster, placement,
        [&](mp::Proc& proc) { body(proc, run, warmup, first); },
        event_engine());
    layers.note_world(*run.world, span.finish());
  }
  recorder().set_enabled(false);
  setup_s.add(run.setup_end_s);
  result.attempted = static_cast<long long>(run.op_s.count());
  result.failed = run.failed;

  // Output checks: op 1's Timeof must price exactly what Group_create then
  // selects for the same parameters (else op 1 failed), and EM3D must run
  // on 9 distinct machines.
  if (run.em3d.predicted_s != run.first_op_timeof * kEm3dIterations) {
    ++result.failed;
    std::printf("op 1 failed: group_create estimate %s != timeof %s\n",
                num(run.em3d.predicted_s).c_str(),
                num(run.first_op_timeof * kEm3dIterations).c_str());
  }
  std::vector<int> sorted = run.em3d.placement;
  std::sort(sorted.begin(), sorted.end());
  if (static_cast<int>(sorted.size()) != kGroup ||
      std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end() ||
      !(run.em3d.app_s > 0.0)) {
    result.fail_check("EM3D did not run on 9 distinct machines");
  }

  if (options.trace) {
    begin_probes();
    probe_parse(layers);
    const pmdl::ModelInstance instance = layers.instantiate(model, first.params);
    probe_plans(layers, {&instance}, hnoc::NetworkModel(cluster), options.seed);
    set_layer_metrics(result, layers, counters);
    return result;
  }

  const double mpi = rank_order_geomean(cluster, op_config(options.seed, 1));
  const GroupOutcome& g = run.em3d;
  const double rel_err = std::fabs(g.predicted_s - g.app_s) / g.app_s;
  std::string machines;
  for (int p : g.placement) machines += std::to_string(p) + " ";
  std::printf("\npredicted vs simulated (virtual s)\n");
  print_row({"input", "predicted_s", "simulated_s", "rel_err",
             "rank_order_geomean_s", "speedup", "timeof_p50_ms", "group_machines"});
  print_row({"em3d-x4", num(g.predicted_s), num(g.app_s), num(rel_err), num(mpi),
             num(mpi / g.app_s), num(run.op_s.median() * 1e3), machines});

  set_common_metrics(result, {run.op_s}, setup_s);
  result.set("app_makespan_s", run.em3d.app_s, "s");
  result.set("timeof_rel_err", rel_err, "fraction");
  result.set("speedup_vs_mpi", mpi / run.em3d.app_s, "ratio");
  const mp::World::RunResult& world = *run.world;
  double wait = 0.0, compute = 0.0;
  for (const mp::Stats& s : world.stats) {
    wait += s.wait_time;
    compute += s.compute_time;
  }
  const double procs_n = static_cast<double>(world.stats.size());
  result.set("sched_makespan_s", world.makespan, "s");
  result.set("sched_mean_wait_s", wait / procs_n, "s");
  result.set("sched_utilization", compute / (procs_n * world.makespan), "fraction");
  return result;
}

}  // namespace perfbench
