#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "hnoc/cluster.hpp"
#include "mpsim/comm.hpp"

namespace hmpi::mp {
namespace {

hnoc::Cluster uniform(int n) { return hnoc::testbeds::homogeneous(n, 100.0); }

// Collective correctness is checked for several communicator sizes,
// including non-powers of two, via parameterized tests.
class CollectivesP : public ::testing::TestWithParam<int> {};

TEST_P(CollectivesP, BcastDeliversFromEveryRoot) {
  const int n = GetParam();
  World::run_one_per_processor(uniform(n), [n](Proc& p) {
    Comm comm = p.world_comm();
    for (int root = 0; root < n; ++root) {
      std::vector<int> data(4, p.rank() == root ? root * 100 + 7 : -1);
      comm.bcast(std::span<int>(data), root);
      for (int v : data) EXPECT_EQ(v, root * 100 + 7);
    }
  });
}

TEST_P(CollectivesP, ReduceSumsAtRoot) {
  const int n = GetParam();
  World::run_one_per_processor(uniform(n), [n](Proc& p) {
    Comm comm = p.world_comm();
    for (int root = 0; root < n; ++root) {
      std::vector<long> in{static_cast<long>(p.rank()), 1};
      std::vector<long> out(2, -1);
      comm.reduce(std::span<const long>(in), std::span<long>(out),
                  [](long a, long b) { return a + b; }, root);
      if (p.rank() == root) {
        EXPECT_EQ(out[0], static_cast<long>(n) * (n - 1) / 2);
        EXPECT_EQ(out[1], n);
      }
    }
  });
}

TEST_P(CollectivesP, AllreduceMax) {
  const int n = GetParam();
  World::run_one_per_processor(uniform(n), [n](Proc& p) {
    Comm comm = p.world_comm();
    double in = static_cast<double>(p.rank());
    double out = -1;
    comm.allreduce(std::span<const double>(&in, 1), std::span<double>(&out, 1),
                   [](double a, double b) { return a > b ? a : b; });
    EXPECT_DOUBLE_EQ(out, n - 1);
  });
}

TEST_P(CollectivesP, GatherCollectsInRankOrder) {
  const int n = GetParam();
  World::run_one_per_processor(uniform(n), [n](Proc& p) {
    Comm comm = p.world_comm();
    std::vector<int> mine{p.rank() * 2, p.rank() * 2 + 1};
    std::vector<int> all(static_cast<std::size_t>(2 * n), -1);
    comm.gather(std::span<const int>(mine), std::span<int>(all), 0);
    if (p.rank() == 0) {
      for (int i = 0; i < 2 * n; ++i) EXPECT_EQ(all[static_cast<std::size_t>(i)], i);
    }
  });
}

TEST_P(CollectivesP, AllgatherGivesEveryoneEverything) {
  const int n = GetParam();
  World::run_one_per_processor(uniform(n), [n](Proc& p) {
    Comm comm = p.world_comm();
    int mine = p.rank() + 1;
    std::vector<int> all(static_cast<std::size_t>(n), 0);
    comm.allgather(std::span<const int>(&mine, 1), std::span<int>(all));
    for (int i = 0; i < n; ++i) EXPECT_EQ(all[static_cast<std::size_t>(i)], i + 1);
  });
}

TEST_P(CollectivesP, ScatterDistributesPieces) {
  const int n = GetParam();
  World::run_one_per_processor(uniform(n), [n](Proc& p) {
    Comm comm = p.world_comm();
    std::vector<int> src;
    if (p.rank() == 0) {
      src.resize(static_cast<std::size_t>(3 * n));
      std::iota(src.begin(), src.end(), 0);
    }
    std::vector<int> mine(3, -1);
    comm.scatter(std::span<const int>(src), std::span<int>(mine), 0);
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(mine[static_cast<std::size_t>(i)], p.rank() * 3 + i);
    }
  });
}

TEST_P(CollectivesP, AlltoallTransposes) {
  const int n = GetParam();
  World::run_one_per_processor(uniform(n), [n](Proc& p) {
    Comm comm = p.world_comm();
    // send[j] = rank * n + j; after alltoall, recv[j] = j * n + rank.
    std::vector<int> send(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j) send[static_cast<std::size_t>(j)] = p.rank() * n + j;
    std::vector<int> recv(static_cast<std::size_t>(n), -1);
    comm.alltoall(std::span<const int>(send), std::span<int>(recv));
    for (int j = 0; j < n; ++j) {
      EXPECT_EQ(recv[static_cast<std::size_t>(j)], j * n + p.rank());
    }
  });
}

TEST_P(CollectivesP, ReduceScatterSumsOwnBlock) {
  const int n = GetParam();
  World::run_one_per_processor(uniform(n), [n](Proc& p) {
    Comm comm = p.world_comm();
    // Block b element e of rank r contributes r*1000 + b*10 + e; rank b ends
    // up with the sum over r for its own block.
    std::vector<long> in(static_cast<std::size_t>(2 * n));
    for (int b = 0; b < n; ++b) {
      for (int e = 0; e < 2; ++e) {
        in[static_cast<std::size_t>(2 * b + e)] = p.rank() * 1000 + b * 10 + e;
      }
    }
    std::vector<long> out(2, -1);
    comm.reduce_scatter(std::span<const long>(in), std::span<long>(out),
                        [](long a, long b) { return a + b; });
    const long rank_sum = static_cast<long>(n) * (n - 1) / 2;
    for (int e = 0; e < 2; ++e) {
      EXPECT_EQ(out[static_cast<std::size_t>(e)],
                rank_sum * 1000 + n * (p.rank() * 10 + e));
    }
  });
}

TEST_P(CollectivesP, BarrierSynchronisesClocks) {
  const int n = GetParam();
  auto result = World::run_one_per_processor(uniform(n), [](Proc& p) {
    // Skew the clocks, then barrier: no clock may end before the maximum
    // pre-barrier clock.
    p.elapse(static_cast<double>(p.rank()));
    p.world_comm().barrier();
  });
  const double max_skew = n - 1.0;
  for (double c : result.clocks) EXPECT_GE(c, max_skew);
}

TEST_P(CollectivesP, BackToBackCollectivesDoNotInterfere) {
  const int n = GetParam();
  World::run_one_per_processor(uniform(n), [n](Proc& p) {
    Comm comm = p.world_comm();
    for (int round = 0; round < 5; ++round) {
      int v = p.rank() == round % n ? round : -1;
      comm.bcast_value(v, round % n);
      EXPECT_EQ(v, round);
      int sum = 0;
      int mine = 1;
      comm.allreduce(std::span<const int>(&mine, 1), std::span<int>(&sum, 1),
                     [](int a, int b) { return a + b; });
      EXPECT_EQ(sum, n);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, CollectivesP, ::testing::Values(1, 2, 3, 5, 8, 9, 13));

TEST(Collectives, BcastVectorResizesReceivers) {
  World::run_one_per_processor(uniform(3), [](Proc& p) {
    Comm comm = p.world_comm();
    std::vector<double> v;
    if (p.rank() == 1) v = {1.0, 2.0, 3.0, 4.0};
    comm.bcast_vector(v, 1);
    ASSERT_EQ(v.size(), 4u);
    EXPECT_DOUBLE_EQ(v[3], 4.0);
  });
}

TEST(Collectives, BcastVectorEmpty) {
  World::run_one_per_processor(uniform(2), [](Proc& p) {
    Comm comm = p.world_comm();
    std::vector<int> v;
    if (p.rank() != 0) v = {1, 2};  // stale content must be cleared
    comm.bcast_vector(v, 0);
    EXPECT_TRUE(v.empty());
  });
}

TEST(Collectives, AlltoallNonPowerOfTwoOnRotatedSplit) {
  // Regression for the pairwise rounds with a non-power-of-two member count:
  // an even size (6, exercising the self-partner round s == n/2) carved out
  // of a larger world, with keys chosen so comm ranks differ from world
  // ranks, and multi-element pieces.
  World::run_one_per_processor(uniform(7), [](Proc& p) {
    Comm world = p.world_comm();
    const bool in_comm = p.rank() != 3;
    Comm comm = world.split(in_comm ? 0 : kUndefinedColor,
                            /*key=*/(p.rank() + 5) % 7);
    if (!in_comm) return;
    const int n = comm.size();
    ASSERT_EQ(n, 6);
    std::vector<int> send(static_cast<std::size_t>(3 * n));
    for (int j = 0; j < n; ++j) {
      for (int e = 0; e < 3; ++e) {
        send[static_cast<std::size_t>(3 * j + e)] =
            comm.rank() * 100 + j * 10 + e;
      }
    }
    std::vector<int> recv(send.size(), -1);
    comm.alltoall(std::span<const int>(send), std::span<int>(recv));
    for (int j = 0; j < n; ++j) {
      for (int e = 0; e < 3; ++e) {
        EXPECT_EQ(recv[static_cast<std::size_t>(3 * j + e)],
                  j * 100 + comm.rank() * 10 + e);
      }
    }
  });
}

TEST(Collectives, ReduceFloatDeterministicOrder) {
  // Two runs of the same reduction must produce bit-identical results.
  auto run_once = [] {
    double result = 0;
    World::run_one_per_processor(uniform(7), [&](Proc& p) {
      Comm comm = p.world_comm();
      double in = 0.1 * (p.rank() + 1);
      double out = 0;
      comm.reduce(std::span<const double>(&in, 1), std::span<double>(&out, 1),
                  [](double a, double b) { return a + b; }, 0);
      if (p.rank() == 0) result = out;
    });
    return result;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Collectives, RootValidation) {
  World::Options o;
  EXPECT_THROW(World::run_one_per_processor(
                   uniform(2),
                   [](Proc& p) {
                     int v = 0;
                     p.world_comm().bcast_value(v, 5);
                   },
                   o),
               hmpi::InvalidArgument);
}

}  // namespace
}  // namespace hmpi::mp
