// Unit tests of the event engine's public contracts (docs/simulator.md):
// env-var resolution of the worker/stack knobs, the deterministic tie-break
// rule for simultaneous events (lowest world rank runs first), determinism
// under the default configuration, the structural deadlock diagnosis and its
// stall-victim order, and the rejection of nested simulations.
#include "mpsim/engine.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "hmpi/runtime.hpp"
#include "hnoc/cluster.hpp"
#include "mpsim/comm.hpp"
#include "pmdl/model.hpp"
#include "support/error.hpp"
#include "telemetry/metrics.hpp"

#include "differential.hpp"

namespace hmpi::mp {
namespace {

/// Scoped setenv/unsetenv (tests in this binary run single-threaded).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  bool had_old_ = false;
  std::string old_;
};

TEST(EngineResolve, WorkersAndStackDefaultsAndEnv) {
  {
    ScopedEnv w("HMPI_SIM_WORKERS", nullptr);
    ScopedEnv s("HMPI_SIM_STACK_KB", nullptr);
    EXPECT_EQ(sim::resolve_workers(0), 1);
    EXPECT_EQ(sim::resolve_workers(4), 4);
    EXPECT_EQ(sim::resolve_stack_bytes(0), 512u * 1024u);
    EXPECT_EQ(sim::resolve_stack_bytes(1 << 20), std::size_t{1} << 20);
  }
  {
    ScopedEnv w("HMPI_SIM_WORKERS", "8");
    ScopedEnv s("HMPI_SIM_STACK_KB", "256");
    EXPECT_EQ(sim::resolve_workers(0), 8);
    EXPECT_EQ(sim::resolve_stack_bytes(0), 256u * 1024u);
  }
}

TEST(EngineTieBreak, AnySourceReceivesLowerRankFirst) {
  // The pinned determinism contract: when several fibers are runnable at the
  // same virtual time, the event engine dispatches the lowest world rank
  // first. Ranks 1 and 2 send to rank 0 at identical virtual clocks over
  // identical links, so rank 1's message is always delivered first and a
  // kAnySource receiver matches it first. Repeated to catch accidental
  // dependence on heap insertion order.
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(3, 100.0);
  for (int repeat = 0; repeat < 10; ++repeat) {
    std::vector<int> order;
    World::run_one_per_processor(
        cluster,
        [&](Proc& p) {
          Comm comm = p.world_comm();
          if (p.rank() == 0) {
            for (int i = 0; i < 2; ++i) {
              Status status;
              comm.recv_value<int>(kAnySource, 5, &status);
              order.push_back(status.source);
            }
          } else {
            comm.send_value(p.rank() * 10, 0, 5);
          }
        });
    EXPECT_EQ(order, (std::vector<int>{1, 2})) << "repeat " << repeat;
  }
}

TEST(EngineTieBreak, SimultaneousComputeFinishIsRankOrdered) {
  // Same contract through the trace: equal-duration computes started at t=0
  // produce trace events sorted by (virtual time, world rank), byte-identical
  // to the golden fixture.
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(4, 100.0);
  testing::expect_golden_run(
      "EngineTieBreak.SimultaneousComputeFinish", cluster, {0, 1, 2, 3},
      [](Proc& p) {
        p.compute(2.0);
        p.world_comm().barrier();
      });
}

TEST(EngineTieBreak, SharedLinkContentionIsDeterministic) {
  // Several processes per machine all competing for the same directed links.
  // The engine arbitrates reservations by virtual ready time (ties by rank),
  // so repeated runs are bit-identical.
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(3, 100.0);
  std::vector<int> placement{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2};
  auto run_once = [&] {
    return testing::run_program(cluster, placement, [](Proc& p) {
      Comm comm = p.world_comm();
      const int n = p.nprocs();
      // Every rank floods rank (r+5)%n — many senders per link.
      comm.send_placeholder(4096, (p.rank() + 5) % n, 1);
      comm.recv_placeholder((p.rank() + n - 5) % n, 1);
      comm.send_placeholder(512, (p.rank() + 7) % n, 2);
      comm.recv_placeholder((p.rank() + n - 7) % n, 2);
    });
  };
  testing::SimRun first = run_once();
  testing::SimRun second = run_once();
  testing::expect_identical_runs(first, second);

  // The A12 shape (bench/ablation_simcore): a ring, a dissemination barrier
  // and a second ring, 64 processes on 16 machines, under the *default*
  // World::Options: one makespan, bit for bit, on every run.
  hnoc::Cluster two_level = hnoc::testbeds::two_level(4, 4, 100.0);
  constexpr int kP = 64;
  std::vector<int> a12_placement(kP);
  for (int r = 0; r < kP; ++r) {
    a12_placement[static_cast<std::size_t>(r)] = r % two_level.size();
  }
  const auto a12_body = [](Proc& p) {
    Comm comm = p.world_comm();
    const int me = p.rank();
    const int n = p.nprocs();
    auto ring_round = [&](int tag) {
      comm.send_placeholder(256, (me + 1) % n, tag);
      comm.recv_placeholder((me + n - 1) % n, tag);
    };
    ring_round(1);
    for (int k = 1, round = 0; k < n; k <<= 1, ++round) {
      comm.send_placeholder(1, (me + k) % n, 100 + round);
      comm.recv_placeholder((me + n - k) % n, 100 + round);
    }
    ring_round(2);
  };
  const double reference =
      World::run(two_level, a12_placement, a12_body).makespan;
  for (int repeat = 1; repeat < 10; ++repeat) {
    EXPECT_EQ(World::run(two_level, a12_placement, a12_body).makespan,
              reference)
        << "repeat " << repeat;
  }
}

TEST(EngineDeadlock, EventEngineDiagnosesStalledReceive) {
  // A receive nobody will ever satisfy: the engine detects it structurally
  // (no runnable fiber) and raises DeadlockError without any real-time wait.
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(2, 100.0);
  EXPECT_THROW(World::run_one_per_processor(
                   cluster,
                   [](Proc& p) {
                     if (p.rank() == 0) {
                       p.world_comm().recv_value<int>(1, 1);  // never sent
                     }
                   }),
               DeadlockError);
}

/// One abstract processor per process, 10 units each.
pmdl::Model flat_model() {
  return pmdl::Model::from_factory(
      "flat", 1, [](std::span<const pmdl::ParamValue> params) {
        const auto p = static_cast<long long>(
            std::get<std::vector<long long>>(params[0]).size());
        pmdl::InstanceBuilder b("flat");
        b.shape({p});
        for (long long a = 0; a < p; ++a) b.node_volume(a, 10.0);
        return b.build();
      });
}

TEST(EngineDeadlock, StallVictimIsAPureFunctionOfTheSimulation) {
  // The host blocks in a receive nobody sends while the free processes wait
  // in the group-create rendezvous for an announcement that never comes: a
  // mailbox waiter and rendezvous waiters stall together. The stall victim
  // is the parked process with the lowest world rank, so every run at every
  // worker count raises the host's DeadlockError, with the same text.
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(3, 100.0);
  const pmdl::Model model = flat_model();
  std::string reference;
  for (int workers : {1, 2, 8}) {
    for (int repeat = 0; repeat < 3; ++repeat) {
      World::Options options;
      options.event_workers = workers;
      std::string message;
      try {
        World::run_one_per_processor(
            cluster,
            [&](Proc& p) {
              hmpi::Runtime rt(p);
              if (rt.is_host()) {
                p.world_comm().recv_value<int>(1, 7);  // never sent
              } else {
                rt.group_create(model, {pmdl::array(std::vector<long long>(
                                           3, 10))});
              }
            },
            options);
      } catch (const DeadlockError& e) {
        message = e.what();
      }
      ASSERT_FALSE(message.empty())
          << "workers=" << workers << " repeat " << repeat;
      if (reference.empty()) reference = message;
      EXPECT_EQ(message, reference)
          << "workers=" << workers << " repeat " << repeat;
    }
  }
  EXPECT_NE(reference.find("world rank 0 "), std::string::npos) << reference;
}

TEST(EngineAbort, HostErrorWakesRendezvousWaitersWithoutAStall) {
  // The host throws while the free processes are parked in the group-create
  // rendezvous (each sends the host a message first, so the host knows they
  // got there). The abort must wake them (each leaves with "world aborted"),
  // so World::run rethrows the host's own error and the engine never has to
  // pick a structural-stall victim.
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(3, 100.0);
  const pmdl::Model model = flat_model();
  telemetry::Counter& stalls = telemetry::metrics().counter("sim.stalls");
  for (int workers : {1, 2, 8}) {
    World::Options options;
    options.event_workers = workers;
    const double stalls_before = stalls.value();
    std::string message;
    try {
      World::run_one_per_processor(
          cluster,
          [&](Proc& p) {
            hmpi::Runtime rt(p);
            if (rt.is_host()) {
              for (int r = 1; r < p.world_comm().size(); ++r) {
                p.world_comm().recv_value<int>(r, 7);
              }
              throw std::runtime_error("host failed");
            }
            p.world_comm().send_value(1, 0, 7);
            rt.group_create(model,
                            {pmdl::array(std::vector<long long>(3, 10))});
          },
          options);
    } catch (const std::exception& e) {
      message = e.what();
    }
    EXPECT_EQ(message, "host failed") << "workers=" << workers;
    EXPECT_EQ(stalls.value(), stalls_before) << "workers=" << workers;
  }
}

TEST(EngineNesting, NestedWorldRunIsRejected) {
  // A simulated process cannot host a second simulation: the engine that
  // dispatches it is not re-entrant. World::run says so instead of running.
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(2, 100.0);
  std::string message;
  World::run_one_per_processor(cluster, [&](Proc& p) {
    if (p.rank() != 0) return;
    try {
      World::run_one_per_processor(cluster, [](Proc&) {});
    } catch (const MpError& e) {
      message = e.what();
    }
  });
  EXPECT_NE(message.find("nested"), std::string::npos) << message;
}

TEST(EngineStacks, FiberStackSizeIsConfigurable) {
  // A deliberately deep (but bounded) recursion inside each fiber, with an
  // enlarged stack. Exercises the guard-paged stack allocation path.
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(2, 100.0);
  World::Options options;
  options.fiber_stack_bytes = 2 * 1024 * 1024;
  World::run_one_per_processor(
      cluster,
      [](Proc& p) {
        // ~100 frames x ~4 KiB of locals: comfortably inside 2 MiB, well
        // outside a tiny stack.
        struct Recur {
          static int deep(int depth) {
            volatile char pad[4096];
            pad[0] = static_cast<char>(depth);
            if (depth == 0) return pad[0];
            return deep(depth - 1) + 1;
          }
        };
        EXPECT_EQ(Recur::deep(100), 100);
        p.world_comm().barrier();
      },
      options);
}

}  // namespace
}  // namespace hmpi::mp
