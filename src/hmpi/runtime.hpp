// The HMPI runtime: the paper's contribution (§2).
//
// Lifecycle of a typical HMPI application (paper Figure 5 / Figure 8):
//
//   hmpi::Runtime rt(proc);                         // HMPI_Init
//   rt.recon(bench);                                // HMPI_Recon
//   double t = rt.timeof(model, params);            // HMPI_Timeof
//   auto group = rt.group_create(model, params);    // HMPI_Group_create
//   if (group) {
//     mp::Comm comm = group->comm();                // HMPI_Get_comm
//     ... standard message-passing code ...
//     rt.group_free(*group);                        // HMPI_Group_free
//   }
//   rt.finalize(0);                                 // HMPI_Finalize
//
// Semantics reproduced from the paper:
//   * HMPI_COMM_WORLD is the world communicator; the host is world rank 0.
//   * A process is *free* iff it is not the host and not a member of any
//     live group. HMPI_Group_create is collective over the parent (a
//     non-free caller) and ALL currently free processes.
//   * The parent belongs to the created group, pinned to the model's
//     `parent` abstract processor; group rank a corresponds to abstract
//     processor a of the performance model.
//   * HMPI_Recon is collective over all world processes: each runs the
//     benchmark function, and the measured (virtual) time refreshes the
//     runtime's speed estimate of its processor, in units of "benchmark
//     executions per second" — the same unit the models' node volumes use.
//   * HMPI_Timeof is local: it predicts the execution time of the group
//     that *would* be created (it runs the same mapper internally).
//
// The runtime state shared across processes (speed estimates, free set,
// pending group creations) lives in a world-level blackboard — the moral
// equivalent of the HMPI daemon processes of the real implementation.
#pragma once

#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "estimator/estimator.hpp"
#include "estimator/plan.hpp"
#include "hmpi/adapt.hpp"
#include "hnoc/network_model.hpp"
#include "mapper/mapper.hpp"
#include "mpsim/comm.hpp"
#include "pmdl/model.hpp"
#include "sched/scheduler.hpp"
#include "telemetry/critpath.hpp"
#include "telemetry/sinks.hpp"

namespace hmpi {

/// Benchmark times below this are clamped before inverting into a speed so a
/// degenerate (or mis-written) benchmark cannot produce an infinite estimate
/// (docs/faults.md).
inline constexpr double kMinBenchTime = 1e-9;

/// Retry/timeout policy for Recon benchmarks (docs/faults.md). A benchmark
/// attempt whose *virtual* elapsed time exceeds the current budget is
/// considered hung; the budget grows by `backoff` per retry (a slow-but-alive
/// machine gets progressively more headroom). A processor that exhausts every
/// attempt is marked *suspect*: it keeps participating in collectives but is
/// excluded from group-member selection until a later recon succeeds on it.
struct RetryPolicy {
  /// Benchmark attempts before declaring the processor suspect (>= 1).
  int max_attempts = 1;
  /// Virtual-time budget of the first attempt; infinity disables the check
  /// (the default policy is zero-cost: identical traffic to no policy).
  double timeout_s = std::numeric_limits<double>::infinity();
  /// Budget multiplier applied on each retry (exponential backoff).
  double backoff = 2.0;

  /// True when a timeout can actually fire.
  bool enabled() const noexcept {
    return timeout_s != std::numeric_limits<double>::infinity();
  }
};

/// Health of a world rank as the runtime sees it.
enum class Health {
  kAlive,    ///< Participates normally.
  kSuspect,  ///< On a processor that timed out in recon; excluded from
             ///< member selection but still part of every collective.
  kDead,     ///< Killed by an injected fault; excluded from everything.
};

/// Collective-algorithm selection settings (docs/collectives.md).
struct CollConfig {
  /// Fixed per-op algorithm overrides; kAuto entries are resolved by the
  /// tuner's cost search. Each op is overridable via an environment
  /// variable HMPI_COLL_<OP>=<algo-name> (e.g. HMPI_COLL_BCAST=chain,
  /// HMPI_COLL_ALLGATHER=ring).
  coll::CollPolicy policy;
  /// Price every candidate algorithm per (op, roster, size bucket) with the
  /// schedule cost model and run the predicted-fastest. false pins the
  /// legacy defaults (the pre-subsystem behaviour). Env: HMPI_COLL_TUNER.
  bool tuner = true;
  /// Re-rank candidates by the EWMA of measured/predicted durations,
  /// promoted at Recon's quiescent point. Env: HMPI_COLL_FEEDBACK.
  bool feedback = false;
};

/// How Timeof / Group_create searches price candidate arrangements
/// (docs/estimator.md). Every mode returns bit-identical selections and
/// estimates — the estimator determinism contract — so the toggle is a pure
/// CPU trade, safe to A/B via the HMPI_EST_COMPILE environment variable.
enum class EstimatorMode {
  kInterpret,  ///< Walk the pmdl scheme AST per evaluation (pre-IR path).
  kCompiled,   ///< Compile each model once to the flat cost IR
               ///< (estimator/plan.hpp) and evaluate that.
  kDelta,      ///< Compiled, plus incremental suffix replay in the hill
               ///< climbers: a swap/substitution move re-runs only the IR
               ///< ops from the first op touching a changed processor.
};

/// Tunables of the runtime (identical at every process).
struct RuntimeConfig {
  /// Process-selection algorithm; null selects the library default
  /// (swap-refine).
  std::shared_ptr<const map::Mapper> mapper;
  /// Cost-model overheads used by Timeof / Group_create (defaults match the
  /// execution engine).
  est::EstimateOptions estimate;
  /// Default retry/timeout policy applied by recon() (the default never
  /// times out, matching pre-fault-layer behaviour exactly).
  RetryPolicy recon_retry;
  /// Worker threads driving the group-selection search (>= 1). The parallel
  /// mappers return bit-identical selections for every value
  /// (docs/mapper.md); raising this only buys wall-clock time. 1 runs the
  /// search inline with no pool.
  int search_threads = 1;
  /// Memoise estimator calls across Timeof / Group_create through a shared
  /// est::EstimateCache. Entries are keyed by the NetworkModel version
  /// counter, which every recon speed update bumps, so a stale makespan can
  /// never be served (docs/mapper.md).
  bool estimate_cache = true;
  /// Shard count of that cache (clamped to >= 1). Batch searches over large
  /// candidate sets probe thousands of keys per round; more shards cut mutex
  /// contention without changing any value (docs/estimator.md). Env override
  /// HMPI_EST_SHARDS.
  int est_shards = static_cast<int>(est::EstimateCache::kDefaultShards);
  /// Candidate-scoring backend of the selection searches (docs/estimator.md).
  /// Env override HMPI_EST_COMPILE: "0"/"off"/"interpret" -> kInterpret,
  /// "1"/"full"/"compile"/"compiled" -> kCompiled, "2"/"delta" -> kDelta.
  /// Selections are bit-identical across modes; this trades CPU only.
  EstimatorMode estimator = EstimatorMode::kDelta;
  /// Telemetry output files written by the host's finalize()
  /// (docs/observability.md). Environment variables HMPI_METRICS_JSON /
  /// HMPI_TRACE_JSON override these paths; empty = sink disabled.
  telemetry::Sinks telemetry;
  /// Collective algorithm selection (docs/collectives.md). The runtime
  /// installs a coll::CollTuner as the world's selector; these settings
  /// configure it.
  CollConfig coll;
  /// Closed-loop adaptation policy (docs/adaptation.md). Disabled by
  /// default: with adapt.enabled false (or HMPI_ADAPT=off) the runtime's
  /// selections and traces are bit-identical to a build without the
  /// subsystem. Env overrides: HMPI_ADAPT, HMPI_ADAPT_THRESHOLD,
  /// HMPI_ADAPT_COOLDOWN.
  adapt::AdaptConfig adapt;
  /// The hmpictld scheduler service (docs/scheduler.md), world-shared and
  /// lazily created by Runtime::scheduler() on first use. `execute` is
  /// forced off inside the runtime because World::run rejects a call from a
  /// simulated process with MpError (nested simulations are not supported),
  /// so jobs are serviced for the estimator's predicted makespan. Env
  /// overrides: HMPI_SCHED_POLICY, HMPI_SCHED_SLOTS, HMPI_SCHED_BACKFILL,
  /// HMPI_SCHED_BACKFILL_DEPTH, HMPI_SCHED_PREEMPT, HMPI_SCHED_PREEMPT_GAP,
  /// HMPI_SCHED_AGING.
  sched::SchedConfig sched;
};

class Runtime;

/// Handle to a group of processes created by Runtime::group_create.
/// Group rank a executes abstract processor a of the performance model.
class Group {
 public:
  Group() = default;

  bool valid() const noexcept { return comm_.valid(); }

  /// Communicator over the group, ordered by abstract processor
  /// (HMPI_Get_comm). Safe to use with all message-passing routines.
  const mp::Comm& comm() const noexcept { return comm_; }

  /// This process's rank in the group (HMPI_Group_rank).
  int rank() const noexcept { return comm_.rank(); }
  /// Number of processes in the group (HMPI_Group_size).
  int size() const noexcept { return comm_.size(); }

  /// Group rank of the parent process.
  int parent_rank() const noexcept { return parent_rank_; }

  /// The execution time the runtime predicted when selecting this group.
  double estimated_time() const noexcept { return estimated_time_; }

  /// True when the group was formed in degraded mode: dead ranks were
  /// excluded from the rendezvous or suspect processors were present, so the
  /// selection drew from fewer candidates than a healthy run would have.
  bool degraded() const noexcept { return degraded_; }

  /// Predicted slowdown of degraded mode: estimated_time() minus the time
  /// the runtime predicts for the group it would have built had every
  /// excluded process been healthy (clamped at 0; 0 when not degraded).
  double degraded_delta() const noexcept { return degraded_delta_; }

  /// World-unique identifier of this group (keys the prediction ledger).
  long long id() const noexcept { return id_; }

  /// Per-processor speed estimates captured when the group was selected —
  /// the baseline Runtime::adapt_recon measures drift against.
  const std::vector<double>& speed_snapshot() const noexcept {
    return speed_snapshot_;
  }

  /// World ranks of the members, by group rank.
  const std::vector<int>& members() const { return comm_.group(); }

  /// Extents of the performance model's coordinate system (e.g. {p} or
  /// {m, m}) — the group's topology (HeteroMPI's HMPI_Group_topology).
  const std::vector<long long>& shape() const noexcept { return shape_; }

  /// Coordinates of group rank `r` in the model's arrangement
  /// (HeteroMPI's HMPI_Group_coordof).
  std::vector<long long> coordinates_of(int r) const;

  /// Group rank at the given coordinates.
  int rank_at(std::span<const long long> coordinates) const;

 private:
  friend class Runtime;

  mp::Comm comm_;
  int parent_rank_ = -1;
  double estimated_time_ = 0.0;
  long long id_ = -1;
  std::vector<long long> shape_;
  bool degraded_ = false;
  double degraded_delta_ = 0.0;
  std::vector<double> speed_snapshot_;
};

/// Per-process handle to the HMPI runtime system (see file comment).
class Runtime {
 public:
  /// HMPI_Init. Collective: every world process must construct a Runtime
  /// before any other HMPI call. `config` must be identical everywhere.
  explicit Runtime(mp::Proc& proc, RuntimeConfig config = RuntimeConfig());

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// HMPI_Finalize. Collective barrier; no HMPI calls may follow.
  void finalize(int exit_code = 0);

  ~Runtime();

  /// HMPI_COMM_WORLD.
  mp::Comm world_comm() const { return proc_->world_comm(); }

  /// HMPI_Is_host: world rank 0.
  bool is_host() const noexcept { return proc_->rank() == 0; }

  /// HMPI_Is_free: not the host and not a member of any live group.
  bool is_free() const;

  /// HMPI_Is_member.
  bool is_member(const Group& group) const noexcept { return group.valid(); }

  /// HMPI_Recon: collective over all world processes. Runs `bench` (which
  /// should execute one benchmark unit of the application's core
  /// computation) and refreshes the speed estimate of this processor, under
  /// the config's default RetryPolicy.
  void recon(const std::function<void(mp::Proc&)>& bench);

  /// HMPI_Recon with an explicit retry/timeout policy: a processor whose
  /// benchmark exceeds the per-attempt budget on every attempt is marked
  /// suspect (excluded from member selection; a later successful recon
  /// recovers it). Collective over all world processes.
  void recon(const std::function<void(mp::Proc&)>& bench,
             const RetryPolicy& policy);

  /// Recon restricted to the members of `comm` (all of them must call it).
  /// This is the failure-aware variant: after a crash, survivors refresh
  /// their estimates over a communicator that excludes the dead, where the
  /// world-collective recon would raise PeerFailedError.
  void recon_on(const mp::Comm& comm, const std::function<void(mp::Proc&)>& bench,
                const RetryPolicy& policy = RetryPolicy());

  /// HMPI_Timeof: local. Predicted execution time (seconds) of the group
  /// that would be created for `model(params)` right now, with this process
  /// as the parent.
  double timeof(const pmdl::Model& model,
                std::span<const pmdl::ParamValue> params) const;
  double timeof(const pmdl::Model& model,
                std::initializer_list<pmdl::ParamValue> params) const {
    return timeof(model, std::span<const pmdl::ParamValue>(params.begin(),
                                                           params.size()));
  }

  /// HMPI_Timeof_batch: prices every parameter set in `param_sets` against
  /// `model` in one call, returning the predicted times in order. The model
  /// is compiled once per distinct instantiation and the network snapshot /
  /// candidate set are taken once, so pricing N problem sizes (the
  /// group_auto_create sweep, application-level autotuning) avoids N times
  /// the per-call setup. Each entry is bit-identical to the corresponding
  /// timeof() call made at the same instant. Local, like timeof.
  std::vector<double> timeof_batch(
      const pmdl::Model& model,
      std::span<const std::vector<pmdl::ParamValue>> param_sets) const;

  /// HMPI_Group_create: collective over the parent (a non-free caller;
  /// exactly one) and all free processes. `model`/`params` are read at the
  /// parent; free callers may pass empty params. Returns the group handle
  /// for selected members, std::nullopt for participants left free.
  std::optional<Group> group_create(const pmdl::Model& model,
                                    std::span<const pmdl::ParamValue> params);
  std::optional<Group> group_create(const pmdl::Model& model,
                                    std::initializer_list<pmdl::ParamValue> params) {
    return group_create(model, std::span<const pmdl::ParamValue>(params.begin(),
                                                                 params.size()));
  }

  /// Extension (HeteroMPI's HMPI_Group_auto_create): searches the number of
  /// processes p in [1, max_p] that minimises the predicted time, then
  /// creates that group. `params_for` builds the parameter pack for a given
  /// p. Collective like group_create; only the parent's arguments are used.
  std::optional<Group> group_auto_create(
      const pmdl::Model& model,
      const std::function<std::vector<pmdl::ParamValue>(int p)>& params_for,
      int max_p);

  /// HMPI_Group_free: collective over the group's members.
  void group_free(Group& group);

  /// Declares a group failed and abandons it without the group_free barrier
  /// (which would hang on dead members). Revokes the group's communicator
  /// context — members still blocked on alive peers of the group unwind with
  /// RevokedError — and releases this process's membership. Call from the
  /// handler of PeerFailedError / RevokedError; every survivor must call
  /// either this or group_respawn.
  void group_fail(Group& group);

  /// Rebuilds a group after member death. Collective over the survivors of
  /// `group` (every one must call it, typically from a PeerFailedError /
  /// RevokedError handler) and all currently free processes. Internally:
  /// revokes the old context, releases the survivors' membership, elects the
  /// parent (the original parent if alive, else the surviving member with
  /// the lowest group rank), and runs a fresh degraded-mode group_create —
  /// so replacement members can be drafted from the free pool. Returns the
  /// new group for selected processes, std::nullopt for the rest (they
  /// become free). `model`/`params` are read at the elected parent. Not
  /// concurrency-safe against unrelated simultaneous group_create calls.
  std::optional<Group> group_respawn(Group& group, const pmdl::Model& model,
                                     std::span<const pmdl::ParamValue> params);
  std::optional<Group> group_respawn(Group& group, const pmdl::Model& model,
                                     std::initializer_list<pmdl::ParamValue> params) {
    return group_respawn(group, model,
                         std::span<const pmdl::ParamValue>(params.begin(),
                                                           params.size()));
  }

  /// Voluntary live migration (HeteroMPI has no analogue; docs/adaptation.md):
  /// re-selects the group's roster from its current members plus the free
  /// pool at TODAY's speed estimates and moves the group there. Collective
  /// over the group's members (all alive — use group_respawn after a death)
  /// and all free processes. Returns the new group for selected processes,
  /// std::nullopt for members the re-selection released to the free pool.
  /// `on_handoff`, when set, is invoked on every OLD member once the new
  /// roster is known, before group_migrate returns — the state handoff
  /// hook (arguments: this process's old group rank, the new member world
  /// ranks); the application moves its data there before resuming.
  using HandoffHook =
      std::function<void(int old_rank, const std::vector<int>& new_members)>;
  std::optional<Group> group_migrate(Group& group, const pmdl::Model& model,
                                     std::span<const pmdl::ParamValue> params,
                                     const HandoffHook& on_handoff = nullptr);

  /// True when the closed-loop adaptation policy is active (config +
  /// HMPI_ADAPT environment override).
  bool adapt_enabled() const noexcept { return adapt_ != nullptr; }

  /// Feeds one measured round into the adaptation controller and returns
  /// the (parent-decided, broadcast) verdict. Collective over the group's
  /// members when adaptation is enabled; a zero-communication no-op
  /// returning a default decision when disabled — so an adaptation-aware
  /// application runs bit-identically with HMPI_ADAPT=off.
  adapt::AdaptDecision adapt_observe(const Group& group, double measured_s);

  /// Re-measures the members' speeds (recon_on over the group) and feeds
  /// the drift vs the group's creation-time snapshot into the controller.
  /// Collective over the group's members. With adaptation disabled the
  /// recon still runs (it is an ordinary recon_on) but no decision is made.
  adapt::AdaptDecision adapt_recon(const Group& group,
                                   const std::function<void(mp::Proc&)>& bench,
                                   const RetryPolicy& policy = RetryPolicy());

  /// Knobs of one adapt_migrate call.
  struct AdaptMigrateOptions {
    /// The decision that led here (the return of adapt_observe /
    /// adapt_recon); its signal and severity annotate the ledger entry and
    /// trace events. Optional — zeros record as a divergence-less entry.
    adapt::AdaptDecision trigger;
    /// Application state a migration must move to the new roster; priced at
    /// the cluster's default link bandwidth and charged to the gate.
    long long state_bytes = 0;
    /// Test hook: bypass the cost/benefit gate and pin the target roster
    /// (world ranks by abstract processor). The rollback guard still runs —
    /// this is how the forced-bad-migration tests exercise it.
    const std::vector<int>* force_roster = nullptr;
    /// State handoff hook, forwarded to group_migrate.
    HandoffHook on_handoff;
  };

  /// How an adapt_migrate call ended, on this process.
  struct AdaptOutcome {
    bool migrated = false;        ///< A new roster was adopted (and kept).
    bool rolled_back = false;     ///< The move was reverted to the old roster.
    bool member = false;          ///< This process is in the resulting group.
    double predicted_gain_s = 0.0;  ///< Gate-time predicted improvement.
  };

  /// The act side of the closed loop: re-prices the group's roster against
  /// the current network model, and when the predicted gain clears the
  /// respawn + state-transfer cost, migrates via group_migrate. A migration
  /// that lands on a WORSE prediction than the old roster is rolled back
  /// (the old roster is re-created) and the controller's backoff is armed.
  /// Collective over the group's members and all free processes whenever
  /// the gate opens; when the gate suppresses the move only the group's
  /// members communicate. On return `group` holds the surviving group for
  /// members (outcome.member), or is invalidated for released processes.
  AdaptOutcome adapt_migrate(Group& group, const pmdl::Model& model,
                             std::span<const pmdl::ParamValue> params,
                             const AdaptMigrateOptions& options);
  AdaptOutcome adapt_migrate(Group& group, const pmdl::Model& model,
                             std::span<const pmdl::ParamValue> params) {
    return adapt_migrate(group, model, params, AdaptMigrateOptions());
  }

  /// Releases every process waiting in the group-creation rendezvous:
  /// subsequent (and pending) group_create calls by free processes return
  /// std::nullopt instead of blocking. The serve-loop pattern
  /// `while (!rt.adapt_quiesced()) { auto g = rt.group_create(...); ... }`
  /// ends when a non-free process calls adapt_quiesce(). Idempotent.
  void adapt_quiesce();

  /// True after any process called adapt_quiesce().
  bool adapt_quiesced() const;

  /// The adaptation decision ledger of THIS process's controller (the
  /// parent's is the canonical record); empty when adaptation is disabled.
  const std::vector<adapt::AdaptRecord>& adapt_ledger() const;

  /// `{"adaptations": [...]}` dump of adapt_ledger() for telemetry_check.
  void adapt_write_ledger_json(std::ostream& os) const;

  /// Health of a world rank: dead (injected crash), suspect (recon timeout
  /// on its processor), or alive.
  Health rank_health(int world_rank) const;

  /// True when `processor` is currently marked suspect.
  bool processor_suspect(int processor) const;

  /// Processors currently marked suspect (diagnostics / tests).
  std::vector<int> suspect_processors() const;

  /// Current speed estimates (diagnostics; the paper's
  /// HMPI_Get_processors_info).
  std::vector<double> processor_speeds() const;

  /// Per-machine view of the executing network: name, current speed
  /// estimate, and the world ranks it hosts (HMPI_Get_processors_info).
  struct ProcessorInfo {
    std::string name;
    double speed_estimate = 0.0;
    std::vector<int> world_ranks;
  };
  std::vector<ProcessorInfo> processors_info() const;

  /// Speed estimates of the group's members, by group rank (HeteroMPI's
  /// HMPI_Group_performances). Local operation.
  std::vector<double> group_performances(const Group& group) const;

  /// Replaces the per-op collective overrides of the world's tuner
  /// (docs/collectives.md). Takes effect for subsequent collectives on
  /// every process (the tuner is world-shared); call it at a quiescent
  /// point — between collectives, e.g. right after recon — or members of an
  /// in-flight collective may disagree on the algorithm.
  void coll_set_policy(const coll::CollPolicy& policy);

  /// The tuner's current per-op overrides (all kAuto unless set).
  coll::CollPolicy coll_policy() const;

  /// What the world's selector would run for `op` over the whole world with
  /// `bytes` of payload right now (HMPI_Coll_get_selection). Local
  /// diagnostics; does not perturb tuner statistics-driven state beyond the
  /// memo.
  struct CollSelection {
    int algo = 0;               ///< Per-op algorithm value (never kAuto).
    double predicted_s = -1.0;  ///< Cost-model prediction; < 0 if not priced.
  };
  CollSelection coll_selection(coll::CollOp op, std::size_t bytes) const;

  /// Cost of the most recent selection search this process drove (timeof or
  /// the parent side of group_create): estimator evaluations, cache
  /// hits/misses, wall time, worker threads. Local diagnostics; zeros
  /// before the first search.
  const map::SearchStats& last_search_stats() const noexcept {
    return last_search_stats_;
  }

  /// Cumulative estimator-backend accounting for this process
  /// (HMPI_Get_estimator_stats; docs/estimator.md). Search counters
  /// accumulate over every search this process drove; the plan-cache
  /// counters are world-shared (every process's compiles land in the same
  /// cache). Local diagnostics.
  struct EstimatorStats {
    EstimatorMode mode = EstimatorMode::kDelta;  ///< Effective (post-env).
    long long plans_compiled = 0;       ///< Plan-cache misses (= compiles).
    long long plan_cache_hits = 0;      ///< Lookups served without compiling.
    long long compiled_evaluations = 0; ///< Arrangements priced on the IR.
    long long delta_evaluations = 0;    ///< ...answered by suffix replay.
    long long delta_ops_replayed = 0;   ///< IR ops the delta path ran.
    long long delta_ops_total = 0;      ///< Ops full evaluation would have run.
  };
  EstimatorStats estimator_stats() const;

  /// Reports the measured execution time of the algorithm a group was
  /// created for, closing that group's entry in the telemetry prediction
  /// ledger (telemetry::predictions()). `measured_s` covers `runs`
  /// repetitions of the modelled computation. Local; call before
  /// group_free, typically from the parent.
  void group_observed(const Group& group, double measured_s, int runs = 1) const;

  /// Writes the combined Chrome `trace_event` JSON: telemetry spans (wall
  /// timeline) merged with the world tracer's virtual-time events when a
  /// tracer is attached, plus send->recv flow arrows derived from the causal
  /// log (docs/observability.md).
  void trace_export_json(std::ostream& os) const;

  /// Critical-path analysis of the run so far, computed over the world's
  /// causal log (telemetry/critpath.hpp; docs/observability.md). Local —
  /// safe mid-run (the log snapshots per-rank under its shard locks), though
  /// the canonical report is the host's at finalize.
  telemetry::CriticalPathReport critical_path_report() const;

  /// Writes the `{"critical_path": {...}}` JSON document of
  /// critical_path_report() with collective names resolved
  /// (HMPI_Critical_path_json; read by tools/hmpiprof).
  void critical_path_json(std::ostream& os) const;

  /// One entry of blame_top: a machine (compute seconds on the critical
  /// path) or a directed machine-pair link (overhead + transfer seconds).
  struct BlameEntry {
    enum class Kind { kMachine, kLink };
    Kind kind = Kind::kMachine;
    int proc = -1;       ///< Machine, or link source machine.
    int peer_proc = -1;  ///< Link destination machine (kLink only).
    double seconds = 0.0;
    double share = 0.0;  ///< seconds / critical-path length.
  };

  /// The top `k` blamed machines and links, by on-path seconds descending
  /// (HMPI_Blame_top). Local, like critical_path_report.
  std::vector<BlameEntry> blame_top(int k) const;

  /// The world-shared hmpictld scheduler service (docs/scheduler.md; C API
  /// HMPI_Sched_*), created on first use from RuntimeConfig::sched with the
  /// HMPI_SCHED_* env overrides applied, its base speeds seeded from the
  /// current (recon-refreshed) network model and re-seeded by every later
  /// recon. Thread-safe: any process may submit/poll/cancel; advance the
  /// virtual queue with sched::Scheduler::step / run_until_idle.
  sched::Scheduler& scheduler();

  /// World ranks currently free (diagnostics / tests).
  std::vector<int> free_ranks() const;

  mp::Proc& proc() const noexcept { return *proc_; }

 private:
  struct Shared;  // world-level blackboard

  /// How a caller enters the group-creation rendezvous: kAuto derives the
  /// role from host/freeness (the normal paper semantics); group_respawn
  /// forces the elected parent to kParent and the other survivors to
  /// kFollower (they may be the host or locally non-free, yet must wait for
  /// the respawn announcement instead of starting their own creation).
  enum class CreateRole { kAuto, kParent, kFollower };

  /// Rollback guard of an adaptation migration, announced by the parent as
  /// part of the creation record. Every participant — members kept, members
  /// released, and freshly drafted free processes alike — compares the
  /// broadcast estimate against `old_pred` and, when the move priced no
  /// better, walks it back by rejoining a follow-up creation pinned to
  /// `restore` (the pre-migration roster). Keeping the verdict derivable
  /// from broadcast state is what makes the protocol symmetric: no
  /// participant needs to know it is inside an adaptation attempt.
  struct MigrationGuard {
    double old_pred = 0.0;      ///< Old roster re-priced at trigger time.
    std::vector<int> restore;   ///< Roster to re-create on rollback.
  };

  /// `forced_members` (world rank per abstract processor, read at the
  /// parent only) skips the mapper and prices the pinned roster as-is — the
  /// adaptation rollback path and the force_roster test hook. `out_members`
  /// receives the selected roster on every participant (state handoff needs
  /// it on processes the selection released). `guard` (parent only) arms
  /// the rollback guard above; `out_rolled_back` reports — on every
  /// participant of the guarded creation — that the guard fired.
  std::optional<Group> group_create_impl(const pmdl::Model& model,
                                         std::span<const pmdl::ParamValue> params,
                                         CreateRole role,
                                         const std::vector<int>* forced_members =
                                             nullptr,
                                         std::vector<int>* out_members = nullptr,
                                         const MigrationGuard* guard = nullptr,
                                         bool* out_rolled_back = nullptr);

  std::optional<Group> group_migrate_impl(Group& group, const pmdl::Model& model,
                                          std::span<const pmdl::ParamValue> params,
                                          const std::vector<int>* forced_members,
                                          const HandoffHook& on_handoff,
                                          const MigrationGuard* guard = nullptr,
                                          bool* out_rolled_back = nullptr);

  /// Emits an adaptation trace instant (kAdaptTrigger / kAdaptMigrate /
  /// kAdaptRollback) when a tracer is attached.
  void note_adapt_event(int trace_kind, long long group_id,
                        adapt::AdaptSignal signal, double severity,
                        double predicted_gain_s) const;

  void recon_impl(const mp::Comm& comm, const std::function<void(mp::Proc&)>& bench,
                  const RetryPolicy& policy);

  std::vector<map::Candidate> candidates_with(int parent_rank,
                                              std::vector<int>* ranks) const;

  /// Search machinery for this process's mapper runs: the lazily created
  /// pool (when search_threads > 1) and the world-shared estimate cache
  /// (when enabled). Const because timeof() is.
  map::SearchContext search_context() const;

  /// Records `stats` as the latest search, accumulates the cumulative
  /// estimator totals, updates the search metrics (estimator_evaluations,
  /// estimate_cache_hits/misses, cache_hit_rate, est.compile.evaluations,
  /// est.delta.*), and emits a kMapperSearch trace event with the named
  /// search payload.
  void note_search(const map::SearchStats& stats) const;

  /// Compiles (or fetches) the plan for `instance` from the world-shared
  /// plan cache ahead of a search, so the compile is attributed here — with
  /// est.compile.* metrics and a kEstCompile trace instant — rather than
  /// inside the first scorer that needs it. Returns the plan; null (and no
  /// lookup) under kInterpret.
  std::shared_ptr<const est::Plan> prefetch_plan(
      const pmdl::ModelInstance& instance) const;

  /// The runtime's own single-mapping estimates (forced rosters, adaptation
  /// verdicts): priced by `plan` when there is one, by the interpreter under
  /// kInterpret (`plan` null). Bit-identical either way.
  double estimate_mapping(const est::Plan* plan,
                          const pmdl::ModelInstance& instance,
                          std::span<const int> mapping,
                          const hnoc::NetworkModel& network) const;

  mp::Proc* proc_;
  RuntimeConfig config_;
  std::shared_ptr<Shared> shared_;
  /// Lazily constructed on the first search so the common case (a process
  /// that never parents a selection) spawns no threads.
  mutable std::unique_ptr<support::ThreadPool> search_pool_;
  mutable map::SearchStats last_search_stats_;
  /// Additive counters of every search this process drove (estimator_stats).
  mutable map::SearchStats search_totals_;
  /// The adaptation decision engine; null when the policy is disabled so
  /// the off path costs nothing (docs/adaptation.md).
  std::unique_ptr<adapt::AdaptationController> adapt_;
  /// Number of live groups THIS process belongs to (local view; see
  /// is_free() for why this is not read off the shared blackboard).
  int live_groups_ = 0;
  bool finalized_ = false;
};

}  // namespace hmpi
