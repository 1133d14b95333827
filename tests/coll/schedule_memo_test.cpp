// The World's collective schedule table (mp::World::collective_schedule):
// every memoised schedule equals coll::schedule_for bit for bit, and a
// world-sized collective generates its schedule once for all members — so
// Recon at scale costs O(1) schedule builds and tuner misses per call.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "coll/schedule.hpp"
#include "coll/tuner.hpp"
#include "hmpi/runtime.hpp"
#include "hnoc/cluster.hpp"
#include "mpsim/comm.hpp"
#include "telemetry/metrics.hpp"

namespace hmpi::coll {
namespace {

void expect_same_steps(const std::vector<Step>& got,
                       const std::vector<Step>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const Step& a = got[i];
    const Step& b = want[i];
    EXPECT_TRUE(a.round == b.round && a.src == b.src && a.dst == b.dst &&
                a.offset == b.offset && a.count == b.count &&
                a.action == b.action)
        << what << ": step " << i << " differs";
  }
}

// n processes over `cluster` (placement wraps round the machines); rank 0
// asks the World's table for every (op, algo) and compares against a
// fresh schedule_for with the same arguments. A repeated request must be
// served from the table (same object, no new build).
void check_table(const hnoc::Cluster& cluster, int n) {
  std::vector<int> placement(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    placement[static_cast<std::size_t>(r)] = r % cluster.size();
  }
  const int root = n - 1;
  const std::size_t count = 1000;
  const std::size_t segment = 96;
  mp::World::run(cluster, placement, [&](mp::Proc& proc) {
    if (proc.rank() != 0) return;
    mp::World& world = proc.world();
    const std::vector<int> groups = two_level_groups(cluster, placement);
    for (int o = 0; o < kNumCollOps; ++o) {
      const auto op = static_cast<CollOp>(o);
      for (int algo = 1; algo <= algo_count(op); ++algo) {
        const bool placed = op == CollOp::kBcast &&
                            algo == static_cast<int>(BcastAlgo::kTwoLevel);
        const std::span<const int> g =
            placed ? std::span<const int>(groups) : std::span<const int>();
        const std::string what = std::string(op_name(op)) + "." +
                                 algo_name(op, algo) +
                                 " n=" + std::to_string(n);
        const std::uint64_t builds = world.schedule_builds();
        const mp::World::Schedule memo =
            world.collective_schedule(op, algo, n, root, count, segment, g);
        ASSERT_NE(memo, nullptr) << what;
        EXPECT_EQ(world.schedule_builds(), builds + 1) << what;
        expect_same_steps(*memo,
                          schedule_for(op, algo, n, root, count, g, segment),
                          what);
        const std::uint64_t reuses = world.schedule_reuses();
        EXPECT_EQ(
            world.collective_schedule(op, algo, n, root, count, segment, g),
            memo)
            << what;
        EXPECT_EQ(world.schedule_reuses(), reuses + 1) << what;
        EXPECT_EQ(world.schedule_builds(), builds + 1) << what;
      }
    }
  });
}

TEST(ScheduleMemo, MatchesScheduleForOnFlatCluster) {
  for (int n : {2, 7, 64}) {
    SCOPED_TRACE(n);
    check_table(hnoc::testbeds::homogeneous(n), n);
  }
}

TEST(ScheduleMemo, MatchesScheduleForOnTwoLevelCluster) {
  // Two LANs of four machines: the two-level bcast's groups collapse the
  // placement to LAN ids, so the schedule elects one leader per LAN.
  const hnoc::Cluster cluster = hnoc::testbeds::two_level(2, 4);
  for (int n : {2, 7, 64}) {
    SCOPED_TRACE(n);
    check_table(cluster, n);
  }
}

TEST(ScheduleMemo, KeyDistinguishesEveryArgument) {
  const hnoc::Cluster cluster = hnoc::testbeds::two_level(2, 2);
  mp::World::run_one_per_processor(cluster, [&](mp::Proc& proc) {
    if (proc.rank() != 0) return;
    mp::World& world = proc.world();
    const auto bcast = [&](int algo, int root, std::size_t count,
                           std::size_t segment, std::span<const int> groups) {
      return world.collective_schedule(CollOp::kBcast, algo, 4, root, count,
                                       segment, groups);
    };
    const int chain = static_cast<int>(BcastAlgo::kChain);
    const int two_level = static_cast<int>(BcastAlgo::kTwoLevel);
    const std::vector<int> lans = {0, 0, 1, 1};
    const std::vector<int> mixed = {0, 1, 0, 1};
    const mp::World::Schedule base = bcast(chain, 0, 1000, 100, {});
    EXPECT_NE(bcast(chain, 1, 1000, 100, {}), base);
    EXPECT_NE(bcast(chain, 0, 999, 100, {}), base);
    EXPECT_NE(bcast(chain, 0, 1000, 50, {}), base);
    EXPECT_NE(world.collective_schedule(CollOp::kBcast, chain, 3, 0, 1000, 100,
                                        {}),
              base);
    EXPECT_NE(bcast(two_level, 0, 1000, 100, lans),
              bcast(two_level, 0, 1000, 100, mixed));
    EXPECT_EQ(bcast(chain, 0, 1000, 100, {}), base);
    // Only bcast reads the segment size: other ops share one entry for
    // every element type.
    const mp::World::Schedule reduce = world.collective_schedule(
        CollOp::kReduce, 1, 4, 0, 1000, 100, {});
    EXPECT_EQ(world.collective_schedule(CollOp::kReduce, 1, 4, 0, 1000, 7, {}),
              reduce);
  });
}

// Through the communicator: every member of a collective shares the one
// schedule the first member generated.
TEST(ScheduleMemo, CommCollectivesBuildOncePerWorld) {
  const int n = 13;
  const hnoc::Cluster cluster = hnoc::testbeds::homogeneous(n);
  std::uint64_t builds = 0;
  std::uint64_t reuses = 0;
  mp::World::run_one_per_processor(cluster, [&](mp::Proc& proc) {
    const mp::Comm world = proc.world_comm();
    std::vector<double> in(8, proc.rank());
    std::vector<double> out(8);
    std::vector<double> all(8 * n);
    for (int round = 0; round < 3; ++round) {
      world.barrier();
      world.bcast(std::span<double>(in), 0);
      world.allreduce(std::span<const double>(in), std::span<double>(out),
                      [](double a, double b) { return a + b; });
      world.allgather(std::span<const double>(in), std::span<double>(all));
    }
    world.barrier();
    if (proc.rank() == 0) {
      builds = proc.world().schedule_builds();
      reuses = proc.world().schedule_reuses();
    }
  });
  // Thirteen collective calls (three rounds of four distinct ones, then a
  // closing barrier) by 13 members each: 169 requests, of which only the
  // first request for each of the four distinct schedules builds.
  EXPECT_EQ(builds, 4u);
  EXPECT_EQ(reuses, 13u * 13u - 4u);
}

// P=250 on the campus-scale cluster, gated on exact counts rather than wall
// time. The counts are read from the coll.* counters the host flushes at
// finalize: sampling mid-run would race the processes that are already
// ahead in virtual time.
struct RunCounts {
  double builds = 0;
  double reuses = 0;
  double tuner_misses = 0;
};

RunCounts run_with_recons(int n, int recons) {
  const hnoc::Cluster cluster = hnoc::testbeds::large_cluster(n);
  telemetry::MetricsRegistry& metrics = telemetry::metrics();
  telemetry::Counter& builds = metrics.counter("coll.schedule.builds");
  telemetry::Counter& reuses = metrics.counter("coll.schedule.reuses");
  telemetry::Counter& misses = metrics.counter("coll.tuner.misses");
  const RunCounts before{builds.value(), reuses.value(), misses.value()};
  mp::World::run_one_per_processor(cluster, [&](mp::Proc& proc) {
    Runtime rt(proc);
    for (int i = 0; i < recons; ++i) {
      // A different benchmark every round: each Recon changes every
      // processor's speed.
      rt.recon([i](mp::Proc& q) { q.compute(1.0 + 0.01 * (q.rank() + i)); });
    }
    rt.finalize();
  });
  return {builds.value() - before.builds, reuses.value() - before.reuses,
          misses.value() - before.tuner_misses};
}

TEST(ScheduleMemo, ReconAtP250BuildsOnceAndKeepsTheTuner) {
  const int n = 250;
  // Init's barrier and the first Recon's allgather each build one schedule
  // and cost one tuner miss; every other member, the Recon's closing
  // barrier and finalize's barrier reuse them: 4 collectives x 250 calls.
  const RunCounts one = run_with_recons(n, 1);
  EXPECT_EQ(one.builds, 2.0);
  EXPECT_EQ(one.reuses, 4.0 * n - 2.0);
  EXPECT_EQ(one.tuner_misses, 2.0);
  // A second Recon, with new speeds everywhere, adds no build and no miss:
  // its allgather and barrier are 2 x 250 reuses.
  const RunCounts two = run_with_recons(n, 2);
  EXPECT_EQ(two.builds, one.builds);
  EXPECT_EQ(two.tuner_misses, one.tuner_misses);
  EXPECT_EQ(two.reuses, one.reuses + 2.0 * n);
}

}  // namespace
}  // namespace hmpi::coll
