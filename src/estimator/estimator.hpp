// Shared vocabulary of the predicted-makespan engine behind HMPI_Timeof and
// HMPI_Group_create (docs/estimator.md).
//
// Estimates are priced by the compiled cost IR (estimator/plan.hpp), which
// replays the model's scheme with the *same cost formulas* as the mpsim
// execution engine:
//   computation  : (percent/100) * volume / speed(processor)
//   communication: start at max(sender time, link busy);
//                  finish = start + latency + bytes/bandwidth;
//                  receiver time = max(receiver time, finish)
//   par blocks   : children start from the block-entry timeline; the block
//                  result is the element-wise max over children.
//
// This shared cost model is what makes HMPI_Timeof predictions track the
// simulated execution (ablation A3 quantifies the gap).
#pragma once

#include <cstddef>
#include <span>

#include "coll/policy.hpp"
#include "hnoc/network_model.hpp"

namespace hmpi::est {

/// Per-message overheads; defaults match mp::WorldOptions.
struct EstimateOptions {
  double send_overhead_s = 5e-6;
  double recv_overhead_s = 5e-6;
};

/// Predicted virtual duration of one collective operation over members
/// placed on `member_procs` (machine id per communicator rank), using the
/// same schedule replay the runtime's CollTuner ranks algorithms with
/// (coll::collective_cost). `algo` is the per-op algorithm value; 0 (kAuto)
/// prices the legacy default. `bytes` is the operation's total payload
/// (ignored for barrier). This is what lets HMPI_Timeof price collective
/// phases consistently with the tuner's selections.
double collective_time(coll::CollOp op, int algo,
                       std::span<const int> member_procs, std::size_t bytes,
                       const hnoc::NetworkModel& network,
                       EstimateOptions options = EstimateOptions());

}  // namespace hmpi::est
