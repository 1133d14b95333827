// Causal profiling under the simulator (docs/observability.md): the
// critical-path length telescopes to the makespan bit-identically (and the
// path matches its golden fixture), a deliberately slowed machine or link
// tops the blame tables, the always-on ring mode leaves every existing
// observable bit-identical to a profiling-off run, ring truncation degrades
// gracefully, and the Perfetto export (trace events + flow arrows) matches
// its fixture at every event worker count (the span-nesting contract).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "hnoc/cluster.hpp"
#include "mpsim/comm.hpp"
#include "mpsim/trace.hpp"
#include "mpsim/world.hpp"
#include "telemetry/causal.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/critpath.hpp"

#include "differential.hpp"

namespace hmpi::mp {
namespace {

using telemetry::CausalLog;
using telemetry::CriticalPathReport;
using telemetry::ProfMode;

/// Scoped setenv/unsetenv (tests in this binary run single-threaded).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = ::getenv(name);
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
  std::string old_;
  bool had_old_ = false;
};

/// An irregular but deterministic program: skewed compute, a ring exchange,
/// and a reduction-to-rank-0 chain, so the critical path crosses machines.
void mixed_program(Proc& p) {
  Comm comm = p.world_comm();
  const int me = p.rank();
  const int n = comm.size();
  p.compute(50.0 * (me % 3 + 1));
  comm.send_placeholder(4096, (me + 1) % n, 7);
  comm.recv_placeholder((me + n - 1) % n, 7);
  p.compute(25.0);
  if (me != 0) {
    comm.send_placeholder(1024, 0, 8);
  } else {
    for (int src = 1; src < n; ++src) comm.recv_placeholder(src, 8);
  }
}

testing::SimRun run_mixed(const hnoc::Cluster& cluster, ProfMode prof,
                          int event_workers = 1) {
  std::vector<int> placement(static_cast<std::size_t>(cluster.size()));
  for (int r = 0; r < cluster.size(); ++r)
    placement[static_cast<std::size_t>(r)] = r;
  World::Options options;
  options.prof = prof;
  return testing::run_program(cluster, placement, mixed_program, options,
                              event_workers);
}

/// Exact text of a critical-path report's walk, for the golden fixture.
std::string path_text(const CriticalPathReport& report) {
  std::ostringstream os;
  os << "end_rank " << report.end_rank << '\n';
  for (const auto& seg : report.segments) {
    os << static_cast<int>(seg.kind) << ' ' << seg.rank << ' '
       << testing::hex_double(seg.t0) << ' ' << testing::hex_double(seg.t1)
       << '\n';
  }
  for (const auto& [proc, sec] : report.machine_s) {
    os << "machine " << proc << ' ' << testing::hex_double(sec) << '\n';
  }
  for (const auto& [link, sec] : report.link_s) {
    os << "link " << link.first << ' ' << link.second << ' '
       << testing::hex_double(sec) << '\n';
  }
  return os.str();
}

TEST(CausalSim, PathEqualsMakespanBitIdenticallyUnderBothEngines) {
  const hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  const testing::SimRun run = run_mixed(cluster, ProfMode::kFull, 4);
  ASSERT_FALSE(run.threw) << run.error;
  ASSERT_NE(run.result.causal, nullptr);
  const CriticalPathReport report =
      telemetry::analyze_critical_path(*run.result.causal);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.events_dropped, 0u);
  // Bit-identical, not approximately equal: the virtual clock only moves
  // inside recorded events, so the backward walk telescopes exactly.
  EXPECT_EQ(report.makespan_s, run.result.makespan);
  EXPECT_EQ(report.path_s, run.result.makespan);

  // The run and the path itself, segment by segment, match the golden
  // fixture.
  const std::string path = path_text(report);
  testing::expect_golden(
      "CausalSim.PathEqualsMakespan", run,
      {{"path_segments", std::to_string(report.segments.size())},
       {"path_fnv1a64", testing::fnv1a_hex(path)}});
}

/// The label (machine or link identity) with the most on-path seconds —
/// exactly the top row of tools/hmpiprof's blame table.
std::string top_blamed(const CriticalPathReport& report) {
  std::string label;
  double best = -1.0;
  for (const auto& [proc, s] : report.machine_s) {
    if (s > best) {
      best = s;
      label = "machine " + std::to_string(proc);
    }
  }
  for (const auto& [link, s] : report.link_s) {
    if (s > best) {
      best = s;
      label = "link " + std::to_string(link.first) + " -> " +
              std::to_string(link.second);
    }
  }
  return label;
}

TEST(CausalSim, SlowMachineTopsTheBlameTable) {
  // Machine 2 is 20x slower; everyone computes the same volume, so its
  // compute interval dominates the path.
  hnoc::ClusterBuilder builder;
  builder.add("fast0", 100.0).add("fast1", 100.0).add("slow", 5.0);
  builder.network(1e-6, 1e9);  // make links negligible
  const hnoc::Cluster cluster = builder.build();

  World::Options options;
  options.prof = telemetry::ProfMode::kFull;
  const auto result = World::run(
      cluster, {0, 1, 2},
      [](Proc& p) {
        Comm comm = p.world_comm();
        p.compute(100.0);
        comm.barrier();
      },
      options);
  ASSERT_NE(result.causal, nullptr);
  const CriticalPathReport report =
      telemetry::analyze_critical_path(*result.causal);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(top_blamed(report), "machine 2");
  // And the slow machine's share is decisive, not marginal.
  EXPECT_GT(report.machine_s.at(2), 0.9 * (100.0 / 5.0));
}

TEST(CausalSim, SlowLinkTopsTheBlameTable) {
  // Identical machines, but the 0 -> 1 link has a 2-second latency; the
  // ping-pong's transfer time dwarfs every compute interval.
  hnoc::ClusterBuilder builder;
  builder.add("a", 100.0).add("b", 100.0);
  builder.network(1e-6, 1e9);
  builder.link_override(0, 1, /*latency_s=*/2.0, /*bandwidth_bps=*/1e9);
  const hnoc::Cluster cluster = builder.build();

  World::Options options;
  options.prof = telemetry::ProfMode::kFull;
  const auto result = World::run(
      cluster, {0, 1},
      [](Proc& p) {
        Comm comm = p.world_comm();
        p.compute(1.0);
        if (p.rank() == 0) {
          comm.send_placeholder(1024, 1, 3);
          comm.recv_placeholder(1, 4);
        } else {
          comm.recv_placeholder(0, 3);
          comm.send_placeholder(1024, 0, 4);
        }
      },
      options);
  ASSERT_NE(result.causal, nullptr);
  const CriticalPathReport report =
      telemetry::analyze_critical_path(*result.causal);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(top_blamed(report), "link 0 -> 1");
  EXPECT_GT(report.link_s.at({0, 1}), 2.0);
}

TEST(CausalSim, DefaultRingModeLeavesTraceBitIdentical) {
  // The always-on ring log must be a pure observer: with HMPI_PROF unset,
  // clocks, stats, and the trace CSV match a profiling-off run exactly.
  ScopedEnv env("HMPI_PROF", nullptr);
  const hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  std::vector<int> placement(static_cast<std::size_t>(cluster.size()));
  for (int r = 0; r < cluster.size(); ++r)
    placement[static_cast<std::size_t>(r)] = r;

  const testing::SimRun ring = run_mixed(cluster, ProfMode::kAuto);  // kRing
  const testing::SimRun off = run_mixed(cluster, ProfMode::kOff);
  ASSERT_NE(ring.result.causal, nullptr);
  EXPECT_EQ(ring.result.causal->mode(), ProfMode::kRing);
  EXPECT_EQ(off.result.causal->mode(), ProfMode::kOff);
  testing::expect_identical_runs(ring, off);
}

TEST(CausalSim, RingTruncationReportsIncompleteWithGap) {
  // More events per rank than the ring holds: the walk must stop at the
  // horizon and account the missing prefix as a gap, never mis-telescope.
  const hnoc::Cluster cluster = hnoc::testbeds::homogeneous(2);
  World::Options options;
  options.prof = telemetry::ProfMode::kRing;
  const auto result = World::run(
      cluster, {0, 1},
      [](Proc& p) {
        for (int i = 0; i < 2 * static_cast<int>(
                                CausalLog::kDefaultRingCapacity);
             ++i) {
          p.compute(1.0);
        }
      },
      options);
  ASSERT_NE(result.causal, nullptr);
  const CriticalPathReport report =
      telemetry::analyze_critical_path(*result.causal);
  EXPECT_FALSE(report.complete);
  EXPECT_GT(report.events_dropped, 0u);
  EXPECT_GT(report.gap_s, 0.0);
  EXPECT_EQ(report.makespan_s, result.makespan);
  EXPECT_DOUBLE_EQ(report.path_s + report.gap_s, report.makespan_s);
}

TEST(CausalSim, PerfettoExportIdenticalAcrossEnginesAndWorkers) {
  // The span-nesting contract: the full Perfetto document — tracer 'X'/'i'
  // events plus the causal flow arrows — is byte-identical under the thread
  // engine (the fixture) and the event engine at 1, 2, and 8 workers.
  // mixed_program uses only virtual-time kinds, so no wall-clock masking is
  // needed.
  const hnoc::Cluster cluster = hnoc::testbeds::two_level(2, 3, 80.0);
  for (int workers : {1, 2, 8}) {
    SCOPED_TRACE("event engine with " + std::to_string(workers) + " workers");
    const testing::SimRun run = run_mixed(cluster, ProfMode::kFull, workers);
    ASSERT_FALSE(run.threw) << run.error;
    auto events = to_chrome_events(run.events);
    auto flows = telemetry::causal_flow_events(*run.result.causal);
    events.insert(events.end(), flows.begin(), flows.end());
    std::ostringstream os;
    telemetry::write_chrome_trace(os, std::move(events));
    const std::string doc = os.str();
    EXPECT_FALSE(doc.empty());
    testing::expect_golden(
        "CausalSim.PerfettoExport", run,
        {{"perfetto_bytes", std::to_string(doc.size())},
         {"perfetto_fnv1a64", testing::fnv1a_hex(doc)}});
  }
}

TEST(CausalSim, CrashLeavesAMarkInTheLog) {
  // A rank killed by the fault plan records a kMark/kCrash event from its
  // own timeline, so post-mortems can place the death on the virtual clock.
  const hnoc::Cluster cluster = hnoc::testbeds::homogeneous(2);
  World::Options options;
  options.prof = telemetry::ProfMode::kFull;
  options.faults.crashes.push_back({.world_rank = 1, .time = 5.0});
  const auto result = World::run(
      cluster, {0, 1},
      [](Proc& p) {
        for (int i = 0; i < 100; ++i) p.compute(10.0);
      },
      options);
  ASSERT_NE(result.causal, nullptr);
  const auto events = result.causal->events_of(1);
  const auto mark = std::find_if(events.begin(), events.end(), [](const auto& e) {
    return e.kind == telemetry::CausalEvent::Kind::kMark &&
           (e.flags & telemetry::CausalEvent::kCrash) != 0;
  });
  ASSERT_NE(mark, events.end());
  EXPECT_GE(mark->t0, 5.0);
}

}  // namespace
}  // namespace hmpi::mp
