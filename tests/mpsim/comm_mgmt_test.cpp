#include <gtest/gtest.h>

#include <vector>

#include "hnoc/cluster.hpp"
#include "mpsim/comm.hpp"

namespace hmpi::mp {
namespace {

hnoc::Cluster uniform(int n) { return hnoc::testbeds::homogeneous(n, 100.0); }

TEST(CommMgmt, WorldCommCoversAllRanks) {
  World::run_one_per_processor(uniform(4), [](Proc& p) {
    Comm comm = p.world_comm();
    EXPECT_TRUE(comm.valid());
    EXPECT_EQ(comm.size(), 4);
    EXPECT_EQ(comm.rank(), p.rank());
    EXPECT_EQ(comm.context(), 0);
    ASSERT_EQ(comm.group().size(), 4u);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(comm.world_rank_of(i), i);
      EXPECT_EQ(comm.rank_of_world(i), i);
    }
  });
}

TEST(CommMgmt, SplitByParity) {
  World::run_one_per_processor(uniform(6), [](Proc& p) {
    Comm world = p.world_comm();
    Comm sub = world.split(p.rank() % 2, p.rank());
    ASSERT_TRUE(sub.valid());
    EXPECT_EQ(sub.size(), 3);
    EXPECT_EQ(sub.rank(), p.rank() / 2);
    EXPECT_EQ(sub.world_rank_of(sub.rank()), p.rank());
    // The subcommunicator works: sum ranks within my parity class.
    int in = p.rank();
    int out = 0;
    sub.allreduce(std::span<const int>(&in, 1), std::span<int>(&out, 1),
                  [](int a, int b) { return a + b; });
    EXPECT_EQ(out, p.rank() % 2 == 0 ? 0 + 2 + 4 : 1 + 3 + 5);
  });
}

TEST(CommMgmt, SplitKeyOrdersRanks) {
  World::run_one_per_processor(uniform(4), [](Proc& p) {
    Comm world = p.world_comm();
    // Reverse the order via descending keys.
    Comm sub = world.split(0, -p.rank());
    ASSERT_TRUE(sub.valid());
    EXPECT_EQ(sub.rank(), 3 - p.rank());
  });
}

TEST(CommMgmt, SplitUndefinedColorYieldsInvalid) {
  World::run_one_per_processor(uniform(3), [](Proc& p) {
    Comm world = p.world_comm();
    Comm sub = world.split(p.rank() == 1 ? kUndefinedColor : 0, 0);
    if (p.rank() == 1) {
      EXPECT_FALSE(sub.valid());
    } else {
      ASSERT_TRUE(sub.valid());
      EXPECT_EQ(sub.size(), 2);
    }
  });
}

TEST(CommMgmt, SplitOfSplit) {
  World::run_one_per_processor(uniform(8), [](Proc& p) {
    Comm half = p.world_comm().split(p.rank() / 4, p.rank());
    ASSERT_EQ(half.size(), 4);
    Comm quarter = half.split(half.rank() / 2, half.rank());
    ASSERT_EQ(quarter.size(), 2);
    int in = 1, out = 0;
    quarter.allreduce(std::span<const int>(&in, 1), std::span<int>(&out, 1),
                      [](int a, int b) { return a + b; });
    EXPECT_EQ(out, 2);
  });
}

TEST(CommMgmt, DupIsIndependentContext) {
  World::run_one_per_processor(uniform(3), [](Proc& p) {
    Comm world = p.world_comm();
    Comm copy = world.dup();
    ASSERT_TRUE(copy.valid());
    EXPECT_EQ(copy.size(), world.size());
    EXPECT_EQ(copy.rank(), world.rank());
    EXPECT_NE(copy.context(), world.context());
    // Messages on the dup are invisible to the original context: receive on
    // the dup while an identically tagged message is pending on world.
    if (p.rank() == 0) {
      world.send_value(1, 1, 0);
      copy.send_value(2, 1, 0);
    } else if (p.rank() == 1) {
      EXPECT_EQ(copy.recv_value<int>(0, 0), 2);
      EXPECT_EQ(world.recv_value<int>(0, 0), 1);
    }
  });
}

TEST(CommMgmt, CreateSubcommOverSubset) {
  World::run_one_per_processor(uniform(5), [](Proc& p) {
    std::vector<int> members{1, 3, 4};
    const bool mine =
        std::find(members.begin(), members.end(), p.rank()) != members.end();
    if (!mine) return;  // non-members do not participate at all
    Comm sub = Comm::create_subcomm(p, members);
    ASSERT_TRUE(sub.valid());
    EXPECT_EQ(sub.size(), 3);
    const int expected_rank = p.rank() == 1 ? 0 : (p.rank() == 3 ? 1 : 2);
    EXPECT_EQ(sub.rank(), expected_rank);
    int in = p.rank(), out = 0;
    sub.allreduce(std::span<const int>(&in, 1), std::span<int>(&out, 1),
                  [](int a, int b) { return a + b; });
    EXPECT_EQ(out, 8);
  });
}

TEST(CommMgmt, CreateSubcommRequiresMembership) {
  World::Options o;
  EXPECT_THROW(World::run_one_per_processor(
                   uniform(3),
                   [](Proc& p) {
                     if (p.rank() == 0) {
                       Comm::create_subcomm(p, {1, 2});  // caller not listed
                     }
                   },
                   o),
               hmpi::InvalidArgument);
}

TEST(CommMgmt, CreateSubcommRejectsDuplicates) {
  World::Options o;
  EXPECT_THROW(World::run_one_per_processor(
                   uniform(3),
                   [](Proc& p) {
                     if (p.rank() == 0) Comm::create_subcomm(p, {0, 2, 0});
                   },
                   o),
               hmpi::InvalidArgument);
}

TEST(CommMgmt, CreateSubcommRespectsListOrder) {
  // The list order defines the new ranks (HMPI orders group members by
  // abstract processor, not by world rank).
  World::run_one_per_processor(uniform(4), [](Proc& p) {
    std::vector<int> members{3, 1, 2};
    if (p.rank() == 0) return;
    Comm sub = Comm::create_subcomm(p, members);
    const int expected = p.rank() == 3 ? 0 : (p.rank() == 1 ? 1 : 2);
    EXPECT_EQ(sub.rank(), expected);
    EXPECT_EQ(sub.world_rank_of(0), 3);
    // The reordered communicator must be fully functional.
    int in = p.rank(), out = 0;
    sub.allreduce(std::span<const int>(&in, 1), std::span<int>(&out, 1),
                  [](int a, int b) { return a + b; });
    EXPECT_EQ(out, 6);
  });
}

TEST(CommMgmt, ConcurrentDisjointSubcomms) {
  World::run_one_per_processor(uniform(6), [](Proc& p) {
    std::vector<int> members =
        p.rank() < 3 ? std::vector<int>{0, 1, 2} : std::vector<int>{3, 4, 5};
    Comm sub = Comm::create_subcomm(p, members);
    int in = 1, out = 0;
    sub.allreduce(std::span<const int>(&in, 1), std::span<int>(&out, 1),
                  [](int a, int b) { return a + b; });
    EXPECT_EQ(out, 3);
  });
}

TEST(CommMgmt, InvalidCommRejectsOperations) {
  World::run_one_per_processor(uniform(1), [](Proc&) {
    Comm invalid;
    EXPECT_FALSE(invalid.valid());
    EXPECT_THROW(invalid.barrier(), hmpi::InvalidArgument);
    int v = 0;
    EXPECT_THROW(invalid.bcast_value(v, 0), hmpi::InvalidArgument);
  });
}

TEST(CommMgmt, ContextsAreUniquePerCreation) {
  World::run_one_per_processor(uniform(2), [](Proc& p) {
    Comm a = p.world_comm().dup();
    Comm b = p.world_comm().dup();
    Comm c = p.world_comm().split(0, 0);
    EXPECT_NE(a.context(), b.context());
    EXPECT_NE(a.context(), c.context());
    EXPECT_NE(b.context(), c.context());
  });
}

}  // namespace
}  // namespace hmpi::mp
