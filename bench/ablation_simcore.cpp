// Ablation A12: the simulator core — the event-driven fiber engine at scale
// (docs/simulator.md).
//
// A hand-rolled workload (a ring exchange, a dissemination barrier, and a
// second ring round, all plain p2p) on a 16-machine two-level cluster at
// P = 64 / 1000 / 10000. With many processes per machine the ranks contend
// for shared directed links; the engine arbitrates those reservations by
// virtual ready time (ties by world rank), so the virtual makespan is a pure
// function of the program. Each size runs three times: the bench reports the
// best wall time and exits non-zero unless the three makespans are
// bit-identical.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "hnoc/cluster.hpp"
#include "mpsim/comm.hpp"

namespace {

using namespace hmpi;

struct RunOutcome {
  double wall_s = 0.0;
  double makespan = 0.0;
};

RunOutcome run_workload(int P) {
  hnoc::Cluster cluster = hnoc::testbeds::two_level(4, 4, 100.0);
  const int machines = cluster.size();
  std::vector<int> placement(static_cast<std::size_t>(P));
  for (int r = 0; r < P; ++r) placement[static_cast<std::size_t>(r)] = r % machines;

  mp::World::Options options;
  options.fiber_stack_bytes = 256 * 1024;

  RunOutcome out;
  const auto start = std::chrono::steady_clock::now();
  auto result = mp::World::run(
      cluster, placement,
      [P](mp::Proc& p) {
        mp::Comm comm = p.world_comm();
        const int me = p.rank();
        auto ring_round = [&](int tag) {
          comm.send_placeholder(256, (me + 1) % P, tag);
          comm.recv_placeholder((me + P - 1) % P, tag);
        };
        ring_round(1);
        for (int k = 1, round = 0; k < P; k <<= 1, ++round) {
          comm.send_placeholder(1, (me + k) % P, 100 + round);
          comm.recv_placeholder((me + P - k) % P, 100 + round);
        }
        ring_round(2);
      },
      options);
  out.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  out.makespan = result.makespan;
  return out;
}

}  // namespace

int main() {
  constexpr int kRepeats = 3;
  support::Table table(
      "Ablation A12: simulator core scaling (ring + dissemination barrier, "
      "16 machines, best of 3 runs)",
      {"processes", "engine", "wall_s", "virtual_makespan_s",
       "makespan_bit_identical"});

  bool deterministic = true;
  for (int P : {64, 1000, 10000}) {
    RunOutcome best = run_workload(P);
    bool identical = true;
    for (int i = 1; i < kRepeats; ++i) {
      const RunOutcome again = run_workload(P);
      identical = identical && again.makespan == best.makespan;
      best.wall_s = std::min(best.wall_s, again.wall_s);
    }
    deterministic = deterministic && identical;
    table.add_row({std::to_string(P), "event", support::Table::num(best.wall_s),
                   support::Table::num(best.makespan),
                   identical ? "yes" : "NO"});
  }

  hmpi::bench::emit(table);
  hmpi::bench::write_bench_json("simcore", {table});
  if (!deterministic) {
    std::fprintf(stderr,
                 "A12: virtual makespan differs across repeated runs\n");
    return 1;
  }
  return 0;
}
