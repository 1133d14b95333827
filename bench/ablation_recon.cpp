// Ablation A2 (DESIGN.md): the value of HMPI_Recon under external load.
//
// HNOCs are multi-user systems (paper §1): between installation-time
// benchmarking and the run, other users load some machines. The runtime's
// initial speed estimates (the machines' base speeds) are then stale. This
// bench loads the two fastest machines of the paper network to 25% and runs
// the HMPI EM3D application twice: once creating the group from the stale
// estimates, once after HMPI_Recon refreshed them.
//
// A second table measures what Recon itself costs at scale: the wall time
// of World start + HMPI_Init + one Recon on the campus-scale cluster at
// P = 250/500/1000 (median of three), with the run's exact collective
// work counters — schedules generated, and CollTuner memo misses — read
// from the coll.* counters the runtime flushes at finalize.
#include <algorithm>
#include <chrono>
#include <mutex>
#include <vector>

#include "apps/em3d/app.hpp"
#include "apps/em3d/parallel.hpp"
#include "bench_util.hpp"
#include "hmpi/runtime.hpp"
#include "hnoc/cluster.hpp"
#include "telemetry/metrics.hpp"

namespace {

using namespace hmpi;
using apps::em3d::GeneratorConfig;
using apps::em3d::System;
using apps::em3d::WorkMode;

/// The paper's EM3D network with machines 6 (speed 176) and 7 (speed 106)
/// externally loaded to a quarter of their speed.
hnoc::Cluster loaded_network() {
  hnoc::ClusterBuilder b;
  const double speeds[9] = {46, 46, 46, 46, 46, 46, 176, 106, 9};
  for (int i = 0; i < 9; ++i) {
    hnoc::LoadProfile load;
    if (i == 6 || i == 7) load = hnoc::LoadProfile::constant(0.25);
    b.add("ws" + std::to_string(i), speeds[i], load);
  }
  b.network(150e-6, 12.5e6);
  return b.build();
}

double run_em3d(const hnoc::Cluster& cluster, const System& system,
                int iterations, bool with_recon) {
  pmdl::Model model = apps::em3d::performance_model();
  const auto params = apps::em3d::model_parameters(system, /*k=*/1000);
  double time = 0.0;
  std::mutex mutex;

  mp::World::run_one_per_processor(cluster, [&](mp::Proc& proc) {
    Runtime rt(proc);
    if (with_recon) {
      rt.recon([&](mp::Proc& q) { apps::em3d::recon_benchmark(q, system, 1000); });
    }
    auto group = rt.group_create(model, params);
    if (group) {
      auto result = apps::em3d::run_parallel(group->comm(), system, iterations,
                                             WorkMode::kVirtualOnly);
      if (rt.is_host()) {
        std::lock_guard<std::mutex> lock(mutex);
        time = result.algorithm_time;
      }
      rt.group_free(*group);
    }
    rt.finalize();
  });
  return time;
}

struct ReconCost {
  double wall_s = 0.0;  ///< World start to the host's return from Recon.
  double builds = 0.0;  ///< coll.schedule.builds of the whole run.
  double misses = 0.0;  ///< coll.tuner.misses of the whole run.
};

ReconCost init_and_recon(const hnoc::Cluster& cluster) {
  telemetry::MetricsRegistry& metrics = telemetry::metrics();
  telemetry::Counter& builds = metrics.counter("coll.schedule.builds");
  telemetry::Counter& misses = metrics.counter("coll.tuner.misses");
  const double builds_before = builds.value();
  const double misses_before = misses.value();
  ReconCost cost;
  const auto start = std::chrono::steady_clock::now();
  mp::World::run_one_per_processor(cluster, [&](mp::Proc& proc) {
    Runtime rt(proc);
    rt.recon([](mp::Proc& q) { q.compute(1.0); });
    if (rt.is_host()) {
      cost.wall_s = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    }
    rt.finalize();
  });
  cost.builds = builds.value() - builds_before;
  cost.misses = misses.value() - misses_before;
  return cost;
}

}  // namespace

int main() {
  const hnoc::Cluster cluster = loaded_network();

  GeneratorConfig config;
  config.nodes_per_subbody = {4000, 5000, 7000, 5500, 6500, 6000, 8000, 1000, 2050};
  config.degree = 5;
  config.remote_fraction = 0.05;
  config.seed = 23;
  const System system = apps::em3d::generate(config);

  support::Table table(
      "Ablation A2: HMPI_Recon under external load (machines 6 and 7 loaded "
      "to 25%)",
      {"speed_estimates", "em3d_time_s"});

  const double stale = run_em3d(cluster, system, 8, /*with_recon=*/false);
  const double fresh = run_em3d(cluster, system, 8, /*with_recon=*/true);
  table.add_row({"stale (no recon)", support::Table::num(stale)});
  table.add_row({"fresh (recon)", support::Table::num(fresh)});
  table.add_row({"stale/fresh", support::Table::num(stale / fresh, 3)});

  bench::emit(table);

  support::Table scale(
      "Ablation A2b: HMPI_Init + HMPI_Recon cost at scale "
      "(large_cluster(P), median wall of 3)",
      {"P", "init_recon_wall_s", "schedule_builds", "tuner_misses"});
  for (int p : {250, 500, 1000}) {
    const hnoc::Cluster large = hnoc::testbeds::large_cluster(p);
    std::vector<ReconCost> runs;
    for (int i = 0; i < 3; ++i) runs.push_back(init_and_recon(large));
    std::sort(runs.begin(), runs.end(),
              [](const ReconCost& a, const ReconCost& b) {
                return a.wall_s < b.wall_s;
              });
    const ReconCost& median = runs[1];
    scale.add_row({std::to_string(p), support::Table::num(median.wall_s, 3),
                   support::Table::num(static_cast<long long>(median.builds)),
                   support::Table::num(static_cast<long long>(median.misses))});
  }
  bench::emit(scale);
  return 0;
}
