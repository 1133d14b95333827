#include "programs.hpp"

#include <algorithm>
#include <functional>

#include "apps/em3d/parallel.hpp"
#include "apps/matmul/algorithm.hpp"
#include "apps/matmul/app.hpp"
#include "apps/matmul/dense.hpp"

namespace perfbench {

namespace em3d = hmpi::apps::em3d;
namespace mm = hmpi::apps::matmul;

mp::WorldOptions event_engine() {
  mp::WorldOptions options;
  options.engine = mp::sim::SimEngine::kEvent;
  options.event_workers = 1;
  return options;
}

em3d::GeneratorConfig em3d_config(int scale, std::uint64_t seed) {
  em3d::GeneratorConfig config;
  for (int b : kFig9Base) config.nodes_per_subbody.push_back(b * scale);
  config.degree = 5;
  config.remote_fraction = 0.05;
  config.seed = seed;
  return config;
}

double HostCall::finish() {
  if (!span_) return 0.0;
  const double s = span_->finish();
  if (layers_ != nullptr) {
    layers_->note_call(name_, s);
    layers_ = nullptr;
  }
  return s;
}

namespace {

void record_placement(hmpi::Runtime& rt, const hmpi::Group& group,
                      GroupOutcome& out) {
  out.placement.clear();
  for (int member : group.members()) {
    out.placement.push_back(rt.proc().world().processor_of(member));
  }
}

}  // namespace

void em3d_group_phase(hmpi::Runtime& rt, const pmdl::Model& model,
                      const em3d::System& system,
                      const std::vector<pmdl::ParamValue>& params,
                      LayerStats* layers, GroupOutcome& out) {
  const bool host = rt.is_host();
  std::optional<hmpi::Group> group;
  if (host) {
    searched_call(rt, layers, "hmpi.group_create",
                  [&] { group = rt.group_create(model, params); });
  } else {
    group = rt.group_create(model, std::vector<pmdl::ParamValue>{});
  }
  if (!group) return;
  em3d::ParallelResult result;
  {
    HostCall call(host, layers, "apps.run");
    result = em3d::run_parallel(group->comm(), system, kEm3dIterations,
                                em3d::WorkMode::kVirtualOnly);
  }
  if (host) {
    out.app_s = result.algorithm_time;
    // The model describes one iteration.
    out.predicted_s = group->estimated_time() * kEm3dIterations;
    record_placement(rt, *group, out);
  }
  HostCall call(host, layers, "hmpi.group_free");
  rt.group_free(*group);
}

void mm_recon_benchmark(mp::Proc& proc) {
  std::vector<double> a(static_cast<std::size_t>(kMmR * kMmR), 1.0);
  std::vector<double> c(a.size(), 0.0);
  mm::block_multiply_add(c, a, a, kMmR);
  proc.compute(mm::block_update_units(kMmR));
}

std::vector<int> mm_l_candidates() {
  std::vector<int> ls;
  for (int l = kMmM; l <= kMmN; l = std::max(l + 1, l + (kMmN - kMmM) / 8)) {
    ls.push_back(l);
  }
  if (ls.back() != kMmN) ls.push_back(kMmN);
  return ls;
}

void mm_group_phase(hmpi::Runtime& rt, const pmdl::Model& model,
                    LayerStats* layers, GroupOutcome& out) {
  const bool host = rt.is_host();
  // Grid speeds: the host's machine at (0,0) (the model's parent), then the
  // m*m-1 fastest other machines, fastest first.
  std::vector<double> grid_speeds;
  std::vector<pmdl::ParamValue> params;
  long long chosen_l = 0;
  if (host) {
    std::vector<double> speeds = rt.processor_speeds();
    const int me = rt.proc().processor();
    grid_speeds.push_back(speeds.at(static_cast<std::size_t>(me)));
    speeds.erase(speeds.begin() + me);
    std::sort(speeds.begin(), speeds.end(), std::greater<double>());
    grid_speeds.insert(grid_speeds.end(), speeds.begin(),
                       speeds.begin() + (kMmM * kMmM - 1));
    double best = 0.0;
    for (int l : mm_l_candidates()) {
      const auto candidate =
          mm::model_parameters(kMmM, kMmR, kMmN, mm::Partition(kMmM, l, grid_speeds));
      double t = 0.0;
      searched_call(rt, layers, "hmpi.timeof",
                    [&] { t = rt.timeof(model, candidate); });
      if (chosen_l == 0 || t < best) {
        chosen_l = l;
        best = t;
      }
    }
    params = mm::model_parameters(
        kMmM, kMmR, kMmN,
        mm::Partition(kMmM, static_cast<int>(chosen_l), grid_speeds));
  }
  std::optional<hmpi::Group> group;
  if (host) {
    searched_call(rt, layers, "hmpi.group_create",
                  [&] { group = rt.group_create(model, params); });
  } else {
    group = rt.group_create(model, params);
  }
  if (!group) return;
  std::vector<long long> meta{chosen_l};
  group->comm().bcast_vector(meta, group->parent_rank());
  group->comm().bcast_vector(grid_speeds, group->parent_rank());
  mm::MmConfig config;
  config.m = kMmM;
  config.r = kMmR;
  config.n = kMmN;
  config.partition = mm::Partition(kMmM, static_cast<int>(meta[0]), grid_speeds);
  config.mode = mm::WorkMode::kVirtualOnly;
  mm::MmResult result;
  {
    HostCall call(host, layers, "apps.run");
    result = mm::run_distributed(group->comm(), config);
  }
  if (host) {
    out.app_s = result.algorithm_time;
    out.predicted_s = group->estimated_time();
    out.chosen_l = static_cast<int>(meta[0]);
    record_placement(rt, *group, out);
  }
  HostCall call(host, layers, "hmpi.group_free");
  rt.group_free(*group);
}

}  // namespace perfbench
