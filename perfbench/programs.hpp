// The HMPI application phases the workloads run inside simulated worlds:
// host-side spans around runtime calls, and the EM3D (paper Figure 5) and
// MM (paper Figure 8) group phases, Group_create through group_free.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "apps/em3d/app.hpp"
#include "common.hpp"
#include "hmpi/runtime.hpp"
#include "layers.hpp"

namespace perfbench {

inline constexpr int kEm3dIterations = 8;  // as bench/fig09_em3d.cpp
inline constexpr int kEm3dK = 100;         // Recon benchmark nodes = model's k
inline constexpr int kFig9Base[9] = {400, 500, 700, 550, 650, 600, 800, 100, 205};
// The Figure-8 MM program at the Figure-10 block size: 3x3 grid, r = 8,
// n = 18 r-blocks, l chosen by a Timeof sweep.
inline constexpr int kMmM = 3;
inline constexpr int kMmR = 8;
inline constexpr int kMmN = 18;

/// Simulator options of every benchmark world: the event engine, one worker.
mp::WorldOptions event_engine();

/// EM3D problem with the Figure-9 subbody sizes times `scale`.
hmpi::apps::em3d::GeneratorConfig em3d_config(int scale, std::uint64_t seed);

/// A span plus a per-call sample, taken only when `host` is true (the
/// simulated process that represents the user's program).
class HostCall {
 public:
  HostCall(bool host, LayerStats* layers, const char* name)
      : layers_(host ? layers : nullptr), name_(name) {
    if (host) span_.emplace(name);
  }
  double finish();
  ~HostCall() { finish(); }
  HostCall(const HostCall&) = delete;
  HostCall& operator=(const HostCall&) = delete;

 private:
  LayerStats* layers_;
  const char* name_;
  std::optional<ScopedSpan> span_;
};

/// Host-side Timeof / Group_create: span, a derived `mapper.search` child
/// covering SearchStats::wall_seconds, and the search accounting. Returns
/// the call's wall seconds.
template <class F>
double searched_call(hmpi::Runtime& rt, LayerStats* layers, const char* name,
                     F&& call) {
  ScopedSpan span(name);
  call();
  const map::SearchStats& st = rt.last_search_stats();
  recorder().add_derived_child("mapper.search", st.wall_seconds);
  const double wall = span.finish();
  if (layers != nullptr) layers->note_search(name, wall, st);
  return wall;
}

/// Host-side view of one group phase.
struct GroupOutcome {
  double app_s = 0.0;        ///< Virtual seconds of the application.
  double predicted_s = 0.0;  ///< The runtime's prediction for it.
  int chosen_l = 0;          ///< MM only.
  std::vector<int> placement;  ///< Machine per group rank.
};

/// EM3D on a created group: Group_create (parent = host) -> run_parallel
/// -> group_free. Collective over the host and all free processes; `out`
/// is filled at the host.
void em3d_group_phase(hmpi::Runtime& rt, const pmdl::Model& model,
                      const hmpi::apps::em3d::System& system,
                      const std::vector<pmdl::ParamValue>& params,
                      LayerStats* layers, GroupOutcome& out);

/// The paper's rMxM Recon benchmark for MM.
void mm_recon_benchmark(mp::Proc& proc);

/// The Figure-8 MM phase: host Timeof sweep over l, Group_create with the
/// best l, run_distributed on the group, group_free. Collective like
/// em3d_group_phase; needs a preceding Recon with mm_recon_benchmark.
void mm_group_phase(hmpi::Runtime& rt, const pmdl::Model& model,
                    LayerStats* layers, GroupOutcome& out);

/// The MM l sweep: [m, n] in about eight steps (the Figure-8 program's).
std::vector<int> mm_l_candidates();

}  // namespace perfbench
