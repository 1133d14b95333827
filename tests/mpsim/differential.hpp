// Golden-run harness for the simulator (docs/simulator.md).
//
// A simulated run is a pure function of (cluster, placement, program,
// options). This header pins that function: run_program() executes a body
// and captures everything observable — final virtual clocks, per-process
// stats, failed ranks, makespan, and the trace CSV — and expect_golden()
// compares it bit for bit against a fixture under tests/mpsim/golden/.
//
// The fixtures were first captured from the thread-per-process engine, which
// the simulator used to ship next to the event engine, in runs asserted
// bit-identical to the event engine; they now pin the event engine against
// that history. Doubles are stored as `%a` hex floats (exact), the masked
// trace CSV as its line count and 64-bit FNV-1a digest. Set
// HMPI_GOLDEN_REGEN=1 to rewrite the fixtures from the current runs instead
// of comparing (and review the diff: a fixture change is a change of
// simulated behaviour).
//
// Trace masking: kMapperSearch and kEstCompile events pack *real* wall-clock
// durations into their CSV columns (see Tracer::write_csv), which legitimately
// differ between runs; those lines are dropped before comparison. Everything
// else on the trace timeline is virtual and must match exactly.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "hnoc/cluster.hpp"
#include "mpsim/trace.hpp"
#include "mpsim/world.hpp"

#ifndef HMPI_GOLDEN_DIR
#error "HMPI_GOLDEN_DIR must name the golden fixture directory"
#endif

namespace hmpi::mp::testing {

/// Everything observable from one run.
struct SimRun {
  World::RunResult result;
  std::vector<TraceEvent> events;  ///< The full trace, sorted.
  std::string trace_csv;  ///< write_csv output with wall-clock kinds masked.
  bool threw = false;
  std::string error;  ///< what() of the body/world exception, if any.
};

inline std::string mask_wall_clock_lines(const std::string& csv) {
  std::istringstream in(csv);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("mapper_search,", 0) == 0) continue;
    if (line.rfind("est_compile,", 0) == 0) continue;
    out << line << '\n';
  }
  return out.str();
}

inline SimRun run_program(const hnoc::Cluster& cluster,
                          std::vector<int> placement,
                          const std::function<void(Proc&)>& body,
                          World::Options options = {}, int event_workers = 1) {
  Tracer tracer;
  options.event_workers = event_workers;
  options.tracer = &tracer;
  SimRun run;
  try {
    run.result = World::run(cluster, std::move(placement), body, options);
  } catch (const std::exception& e) {
    run.threw = true;
    run.error = e.what();
  }
  run.events = tracer.events();
  std::ostringstream csv;
  tracer.write_csv(csv);
  run.trace_csv = mask_wall_clock_lines(csv.str());
  return run;
}

inline void expect_identical_runs(const SimRun& a_run, const SimRun& b_run) {
  ASSERT_EQ(a_run.threw, b_run.threw)
      << "first: " << a_run.error << "\nsecond: " << b_run.error;
  if (a_run.threw) {
    // Both runs aborted with a body exception; the partial state left by the
    // teardown is not part of the contract, agreeing that it fails is.
    return;
  }
  const World::RunResult& a = a_run.result;
  const World::RunResult& b = b_run.result;
  ASSERT_EQ(a.clocks.size(), b.clocks.size());
  for (std::size_t r = 0; r < a.clocks.size(); ++r) {
    // Bit-identical, not approximately equal.
    EXPECT_EQ(a.clocks[r], b.clocks[r]) << "clock of rank " << r;
  }
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.failed_ranks, b.failed_ranks);
  ASSERT_EQ(a.stats.size(), b.stats.size());
  for (std::size_t r = 0; r < a.stats.size(); ++r) {
    EXPECT_EQ(a.stats[r].msgs_sent, b.stats[r].msgs_sent) << "rank " << r;
    EXPECT_EQ(a.stats[r].bytes_sent, b.stats[r].bytes_sent) << "rank " << r;
    EXPECT_EQ(a.stats[r].msgs_received, b.stats[r].msgs_received)
        << "rank " << r;
    EXPECT_EQ(a.stats[r].bytes_received, b.stats[r].bytes_received)
        << "rank " << r;
    EXPECT_EQ(a.stats[r].compute_units, b.stats[r].compute_units)
        << "rank " << r;
    EXPECT_EQ(a.stats[r].compute_time, b.stats[r].compute_time)
        << "rank " << r;
    EXPECT_EQ(a.stats[r].wait_time, b.stats[r].wait_time) << "rank " << r;
  }
  EXPECT_EQ(a_run.trace_csv, b_run.trace_csv);
}

/// Exact text form of a double ("%a").
inline std::string hex_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// 64-bit FNV-1a digest as 16 hex digits.
inline std::string fnv1a_hex(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// Extra test-specific observables appended to a fixture as "key value".
using GoldenExtras = std::vector<std::pair<std::string, std::string>>;

/// The fixture text of a run: one self-describing line per observable.
inline std::string golden_text(const SimRun& run, const GoldenExtras& extras) {
  std::ostringstream out;
  out << "threw " << (run.threw ? 1 : 0) << '\n';
  if (!run.threw) {
    const World::RunResult& r = run.result;
    out << "makespan " << hex_double(r.makespan) << '\n';
    out << "failed_ranks";
    for (int f : r.failed_ranks) out << ' ' << f;
    out << '\n';
    for (std::size_t i = 0; i < r.clocks.size(); ++i) {
      out << "clock " << i << ' ' << hex_double(r.clocks[i]) << '\n';
    }
    for (std::size_t i = 0; i < r.stats.size(); ++i) {
      const Stats& s = r.stats[i];
      out << "stats " << i << " msgs_sent=" << s.msgs_sent
          << " bytes_sent=" << s.bytes_sent
          << " msgs_received=" << s.msgs_received
          << " bytes_received=" << s.bytes_received
          << " compute_units=" << hex_double(s.compute_units)
          << " compute_time=" << hex_double(s.compute_time)
          << " wait_time=" << hex_double(s.wait_time) << '\n';
    }
    std::size_t lines = 0;
    for (char c : run.trace_csv) lines += c == '\n' ? 1 : 0;
    out << "trace_lines " << lines << '\n';
    out << "trace_fnv1a64 " << fnv1a_hex(run.trace_csv) << '\n';
  }
  for (const auto& [key, value] : extras) out << key << ' ' << value << '\n';
  return out.str();
}

inline std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '#') lines.push_back(line);
  }
  return lines;
}

inline bool golden_regen() {
  const char* v = std::getenv("HMPI_GOLDEN_REGEN");
  return v != nullptr && *v != '\0' && std::string(v) != "0";
}

/// Compares `run` (plus `extras`) against tests/mpsim/golden/<name>.golden,
/// or rewrites that fixture when HMPI_GOLDEN_REGEN is set.
inline void expect_golden(const std::string& name, const SimRun& run,
                          const GoldenExtras& extras = {}) {
  const std::string path = std::string(HMPI_GOLDEN_DIR) + "/" + name + ".golden";
  const std::string actual = golden_text(run, extras);
  if (golden_regen()) {
    std::ofstream out(path);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << "# Golden simulated run " << name
        << " (tests/mpsim/differential.hpp).\n"
        << actual;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing fixture " << path
                  << " (run with HMPI_GOLDEN_REGEN=1 to create it)";
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::vector<std::string> want = split_lines(buffer.str());
  const std::vector<std::string> got = split_lines(actual);
  // A run that threw pins only that it throws (the teardown's partial state
  // is outside the contract); otherwise report the first differing
  // observable, not a wall of text.
  const std::size_t count =
      run.threw && !want.empty() && want[0] == "threw 1"
          ? 1
          : std::max(want.size(), got.size());
  for (std::size_t i = 0; i < count; ++i) {
    const std::string w = i < want.size() ? want[i] : "<end>";
    const std::string g = i < got.size() ? got[i] : "<end>";
    ASSERT_EQ(w, g) << "run differs from " << path << " at observable " << i
                    << (run.threw ? "\nerror: " + run.error : "");
  }
}

/// Runs `body` and compares it against the fixture `name`. Returns the run
/// for additional assertions.
inline SimRun expect_golden_run(const std::string& name,
                                const hnoc::Cluster& cluster,
                                std::vector<int> placement,
                                const std::function<void(Proc&)>& body,
                                World::Options options = {},
                                int event_workers = 1) {
  SimRun run = run_program(cluster, std::move(placement), body,
                           std::move(options), event_workers);
  expect_golden(name, run);
  return run;
}

}  // namespace hmpi::mp::testing
