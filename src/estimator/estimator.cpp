#include "estimator/estimator.hpp"

#include "coll/cost.hpp"

namespace hmpi::est {

double collective_time(coll::CollOp op, int algo,
                       std::span<const int> member_procs, std::size_t bytes,
                       const hnoc::NetworkModel& network,
                       EstimateOptions options) {
  if (algo == 0) algo = coll::legacy_default(op);
  coll::CostOptions cost;
  cost.send_overhead_s = options.send_overhead_s;
  cost.recv_overhead_s = options.recv_overhead_s;
  return coll::collective_cost(op, algo, member_procs, bytes, network, cost);
}

}  // namespace hmpi::est
