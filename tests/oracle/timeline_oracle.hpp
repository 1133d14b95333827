// The pmdl-interpreter estimator, kept as the test oracle of the compiled
// cost IR (estimator/plan.hpp).
//
// Given a ModelInstance, a mapping of abstract processors to physical
// processors, and a NetworkModel, TimelineMachine replays the model's scheme
// through the pmdl tree-walking evaluator and accumulates a virtual timeline
// with the cost formulas of estimator/estimator.hpp. It is the direct,
// unoptimised reading of those formulas: one std::map of busy links per
// physical pair, one full State copy per par block. est::Plan promises
// bit-identical estimates, and the tests and the A9 ablation hold it to that
// against this oracle. Nothing in the library calls it.
#pragma once

#include <map>
#include <span>
#include <utility>
#include <vector>

#include "estimator/estimator.hpp"
#include "hnoc/network_model.hpp"
#include "pmdl/model.hpp"

namespace hmpi::est::oracle {

/// ScheduleSink that accumulates a virtual timeline (see file comment).
class TimelineMachine : public pmdl::ScheduleSink {
 public:
  /// `mapping[a]` is the physical processor of abstract processor `a`.
  /// The instance, mapping, and network must outlive the machine.
  TimelineMachine(const pmdl::ModelInstance& instance,
                  std::span<const int> mapping,
                  const hnoc::NetworkModel& network, EstimateOptions options);

  void compute(std::span<const long long> coords, double percent) override;
  void transfer(std::span<const long long> src, std::span<const long long> dst,
                double percent) override;
  void par_begin() override;
  void par_iter_begin() override;
  void par_end() override;

  /// Latest per-abstract-processor time (the estimate).
  double makespan() const;

  /// Per-abstract-processor finish times (diagnostics).
  const std::vector<double>& times() const noexcept { return state_.time; }

 private:
  struct State {
    std::vector<double> time;                       // per abstract processor
    std::map<std::pair<int, int>, double> link_busy;  // per processor pair
  };
  static void merge_max(State& into, const State& from);

  const pmdl::ModelInstance* instance_;
  std::vector<int> mapping_;
  const hnoc::NetworkModel* network_;
  EstimateOptions options_;

  State state_;
  // par nesting: entry snapshots and running element-wise maxima.
  std::vector<State> snapshots_;
  std::vector<State> accumulators_;
};

/// Predicted execution time of `instance` under `mapping` on `network`.
/// Replays the scheme when present; otherwise falls back to a conservative
/// per-processor bound: max over processors of (computation + all incident
/// communication). Throws InvalidArgument on a mapping of the wrong size or
/// one naming a processor outside `network`.
double estimate_time(const pmdl::ModelInstance& instance,
                     std::span<const int> mapping,
                     const hnoc::NetworkModel& network,
                     EstimateOptions options = EstimateOptions());

}  // namespace hmpi::est::oracle
