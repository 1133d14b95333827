// Compiled cost IR: the estimator's fast path (docs/estimator.md).
//
// est::estimate_time replays the model's scheme through the pmdl
// tree-walking evaluator for EVERY candidate arrangement the mappers score —
// thousands of Env copies, Value boxes, and AST dispatches per selection.
// But a scheme's activation stream cannot depend on the mapping: ScheduleSink
// has no feedback channel, and native scheme functions see only model
// parameters. So the stream can be recorded ONCE and re-priced cheaply:
//
//   Plan          — the model instance lowered to a flat, topologically
//                   ordered op list (compute/transfer/par markers) with the
//                   volume and byte factors pre-resolved per op, plus the
//                   (src, dst, bytes) link terms and per-processor incidence
//                   lists of the no-scheme fallback.
//   BatchEvaluator — the one estimate kernel: structure-of-arrays pricing of
//                   a candidate set in one pass. The op list is walked once,
//                   each op's inner loop runs contiguously over all
//                   candidates (slot-major speed/time/busy arrays, no
//                   per-candidate allocation). Busy state is kept per
//                   *abstract* transfer pair — O(Q) slots, with
//                   per-candidate aliasing of pairs that land on the same
//                   physical link — so P=1000 costs the same per candidate
//                   as P=9. Every op performs the exact floating-point
//                   operations of TimelineMachine, so compiled and
//                   interpreted estimates are bit-identical by construction.
//                   Plan::evaluate is this kernel at count=1 (on a
//                   thread-local evaluator), as is Plan::evaluate_batch.
//   DeltaEvaluator — incremental re-estimation for the hill climbers: when a
//                   move changes the processors of a few abstract slots, only
//                   the op-stream suffix from the first op touching an
//                   affected slot is replayed (from a checkpointed prefix
//                   state), O(affected) instead of O(model). Exact: a
//                   checkpoint before that op is reachable only through ops
//                   whose endpoints kept their processors, so its state is
//                   identical under both mappings and the suffix replay
//                   performs the same float ops a full evaluation would.
//   PlanCache     — compile-once memo keyed like EstimateCache (instance
//                   fingerprint); plans are mapping- and network-independent,
//                   so recon never invalidates them.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "estimator/estimator.hpp"
#include "hnoc/network_model.hpp"
#include "pmdl/model.hpp"

namespace hmpi::est {

/// One lowered scheme activation. `value` is pre-multiplied by the
/// activation's percentage: computation units for kCompute, bytes for
/// kTransfer (self transfers are dropped at compile time, exactly as
/// TimelineMachine drops them at run time).
struct PlanOp {
  enum class Kind : std::uint8_t {
    kCompute,       ///< time[a] += value / speed(mapping[a])
    kTransfer,      ///< timeline transfer of `value` bytes a -> b
    kParBegin,      ///< snapshot the timeline (par block entry)
    kParIterBegin,  ///< fold the iteration into the max, rewind to snapshot
    kParEnd,        ///< fold and adopt the element-wise max
  };
  Kind kind = Kind::kCompute;
  int a = -1;        ///< Abstract processor (compute) / source (transfer).
  int b = -1;        ///< Transfer destination.
  double value = 0;  ///< Units (compute) or bytes (transfer), percent applied.
};

/// One directed link term of the no-scheme fallback cost.
struct PlanLink {
  int src = -1;
  int dst = -1;
  double bytes = 0.0;
};

/// A model instance lowered to the flat cost IR (see file comment).
/// Immutable after construction; safe to share across search threads.
class Plan {
 public:
  /// Lowers `instance`: replays the scheme once into the op list (or, for
  /// scheme-less instances, materialises the fallback link terms and
  /// incidence lists). The instance itself is not retained.
  explicit Plan(const pmdl::ModelInstance& instance);

  /// Abstract processors of the instance.
  int size() const noexcept { return num_procs_; }

  /// Whether the IR came from a scheme (vs the fallback aggregate bound).
  bool from_scheme() const noexcept { return from_scheme_; }

  /// Cost of one full evaluation, in IR operations (delta savings are
  /// reported against this).
  std::size_t op_count() const noexcept {
    return from_scheme_ ? ops_.size() : volumes_.size() + 2 * links_.size();
  }

  std::span<const PlanOp> ops() const noexcept { return ops_; }
  std::span<const PlanLink> links() const noexcept { return links_; }

  /// Index of the first op touching abstract processor `a`
  /// (Plan::kNeverTouched when no op does).
  std::size_t first_touch(int a) const {
    return first_touch_[static_cast<std::size_t>(a)];
  }
  static constexpr std::size_t kNeverTouched = static_cast<std::size_t>(-1);

  /// Predicted execution time of the plan under `mapping` — bit-identical to
  /// est::estimate_time on the instance this plan was compiled from. Prices
  /// through a thread-local BatchEvaluator at count=1, so concurrent calls on
  /// one shared plan are safe. Throws InvalidArgument on a mapping of the
  /// wrong size or one naming a processor outside `network`.
  double evaluate(std::span<const int> mapping,
                  const hnoc::NetworkModel& network,
                  EstimateOptions options = EstimateOptions()) const;

  /// Prices `count` candidate mappings in one structure-of-arrays pass.
  /// `procs_soa` is slot-major: procs_soa[a * count + i] is the physical
  /// processor of abstract slot `a` in candidate `i`. out[i] equals
  /// evaluate() on candidate i (see BatchEvaluator).
  /// Reuses a thread-local BatchEvaluator; callers in a hot loop should own
  /// one directly.
  void evaluate_batch(std::span<const int> procs_soa, std::size_t count,
                      const hnoc::NetworkModel& network,
                      EstimateOptions options, std::span<double> out) const;

  /// Distinct abstract (src, dst) transfer pairs, in first-appearance order.
  /// The batch evaluator keys its compact busy slots by these.
  std::span<const std::pair<int, int>> transfer_pairs() const noexcept {
    return pairs_;
  }

 private:
  friend class DeltaEvaluator;
  friend class BatchEvaluator;

  int num_procs_ = 0;
  bool from_scheme_ = false;

  // Scheme IR.
  std::vector<PlanOp> ops_;
  std::vector<std::size_t> first_touch_;  // per abstract processor
  std::size_t checkpoint_stride_ = 1;     // DeltaEvaluator checkpoint spacing
  std::vector<std::pair<int, int>> pairs_;  // distinct abstract transfer pairs
  std::vector<int> op_pair_;  // per op: index into pairs_ (-1 off transfers)

  // Fallback IR (also used for aggregate queries on scheme plans).
  std::vector<double> volumes_;            // per abstract processor
  std::vector<PlanLink> links_;            // link_bytes map order (sorted)
  std::vector<std::vector<int>> incident_; // per proc: link indices, sorted,
                                           // self links listed twice
};

/// Incremental re-estimation over a Plan (see file comment). Not
/// thread-safe; each search thread owns its own evaluator. The plan and the
/// network must outlive it. Usage:
///
///   DeltaEvaluator delta(plan, network, options);
///   double t = delta.reset(mapping);            // full evaluation
///   delta.stage({{slot_a, proc_x}, {slot_b, proc_y}});
///   double moved = delta.replay();              // O(affected suffix)
///   if (keep) delta.commit();                   // adopt the staged mapping
///
/// The exact-match invariant — replay() == Plan::evaluate(staged mapping)
/// bit for bit — is what lets the hill climbers take this path without
/// perturbing their search trajectory (tests/estimator/plan_test.cpp).
class DeltaEvaluator {
 public:
  DeltaEvaluator(const Plan& plan, const hnoc::NetworkModel& network,
                 EstimateOptions options);

  /// One staged slot change: abstract `slot` moves to physical `processor`.
  struct Move {
    int slot = -1;
    int processor = -1;
  };

  /// Full evaluation of `mapping`; rebuilds the checkpoints. Returns the
  /// makespan (the committed value until the next commit()).
  double reset(std::span<const int> mapping);

  /// Stages the committed mapping with `moves` applied (later moves win on
  /// the same slot) and returns the staged mapping. Does not evaluate.
  std::span<const int> stage(std::span<const Move> moves);

  /// Exact estimate of the staged mapping by suffix replay. May be skipped
  /// when the staged value is already known (set_staged_value).
  double replay();

  /// Records an externally known value (e.g. from an EstimateCache hit) for
  /// the staged mapping; commit() adopts it without replaying anything.
  void set_staged_value(double seconds);

  /// Adopts the staged mapping and value as the committed state. O(1) when
  /// the proposal was priced (replay() or set_staged_value()): the staged
  /// value is bit-exact by the invariant, and checkpoints past the first
  /// touched op — stale under the new mapping — are dropped lazily rather
  /// than re-recorded here. Later replays clamp to the surviving grid and
  /// amortise one full rebuild against the accumulated clamp cost, so
  /// accept-heavy searches (annealing) never pay a per-accept suffix re-run.
  void commit();

  double committed_time() const noexcept { return committed_time_; }
  std::span<const int> mapping() const noexcept { return mapping_; }
  const Plan& plan() const noexcept { return *plan_; }

  /// Cumulative accounting (SearchStats / est.delta.* metrics).
  long long replays() const noexcept { return replays_; }
  long long ops_replayed() const noexcept { return ops_replayed_; }

 private:
  struct Core {
    std::vector<double> time;  // per abstract processor
    std::vector<double> busy;  // dense per physical (src, dst) pair
  };
  /// Reusable stack of Cores (par nesting) that keeps capacity across
  /// evaluations instead of reallocating per par block.
  struct Stack {
    std::vector<Core> pool;
    std::size_t depth = 0;
    void clear() noexcept { depth = 0; }
    Core& push();
    Core& top() { return pool[depth - 1]; }
    void pop() noexcept { --depth; }
  };
  struct Checkpoint {
    std::size_t op_index = 0;
    Core core;
    std::vector<Core> snapshots;
    std::vector<Core> accumulators;
  };

  static void assign_core(Core& into, const Core& from);
  static void merge_max_core(Core& into, const Core& from);
  double makespan_of(const Core& core) const;

  /// Runs ops [from, to) on (core, stacks) under `mapping`; when `record` is
  /// non-null, appends a checkpoint at every stride-aligned index > from.
  void run_ops(std::size_t from, std::size_t to, std::span<const int> mapping,
               Core& core, Stack& snapshots, Stack& accumulators,
               std::vector<Checkpoint>* record);

  /// No-scheme fallback: recompute the per-processor costs of `affected`
  /// under `mapping` into `cost` (other entries must already hold the
  /// committed values).
  void recompute_costs(std::span<const int> affected,
                       std::span<const int> mapping, std::vector<double>& cost);

  double replay_scheme();
  double replay_fallback();

  /// Re-records the checkpoint grid over the stale suffix under the
  /// committed mapping (commit() truncates lazily; see stale_ops_).
  void rebuild_checkpoints();

  const Plan* plan_;
  const hnoc::NetworkModel* network_;
  EstimateOptions options_;
  int num_links_ = 0;  // physical pairs = network size squared

  // Committed state.
  std::vector<int> mapping_;
  double committed_time_ = 0.0;
  Core committed_;                       // scheme plans
  std::vector<double> committed_cost_;   // fallback plans
  std::vector<Checkpoint> checkpoints_;  // scheme plans; stride-aligned

  // Staged proposal.
  std::vector<int> staged_mapping_;
  std::vector<int> staged_slots_;        // slots whose processor changed
  std::size_t staged_first_ = Plan::kNeverTouched;
  double staged_value_ = 0.0;
  bool staged_ = false;
  bool staged_priced_ = false;  // replay()/set_staged_value() ran for it
  bool scratch_valid_ = false;

  // Scratch (reused across proposals).
  Core scratch_;
  Stack scratch_snapshots_;
  Stack scratch_accumulators_;
  std::vector<Checkpoint> scratch_tail_;
  std::vector<double> scratch_cost_;
  std::vector<int> affected_;
  std::vector<char> affected_mark_;

  long long replays_ = 0;
  long long ops_replayed_ = 0;
  // Extra ops replayed because commits truncated the checkpoint grid; once
  // this exceeds one full pass, rebuilding the grid is the cheaper steady
  // state (rebuild_checkpoints).
  long long stale_ops_ = 0;
};

/// Structure-of-arrays batch pricing of a candidate set (see file comment).
/// Holds all scratch across calls, so a search loop pays zero allocation
/// once the high-water batch size is reached. Not thread-safe; each search
/// thread owns its own evaluator (like DeltaEvaluator).
///
/// Exactness: per candidate, the op walk performs the identical sequence of
/// float operations as TimelineMachine — compute divides by the same speed,
/// a transfer's busy slot is shared between two ops iff they land on the
/// same physical (src, dst) pair (the per-candidate canonical-pair aliasing
/// reproduces the interpreter's physical keying), and the par-block merges
/// over the compact slots agree with the interpreter's map merge because a
/// pair absent on one side contributes 0.0 (max(x, 0) == x for timeline
/// values) and the makespan reads only the time vector. Pinned by
/// tests/estimator/batch_test.cpp.
class BatchEvaluator {
 public:
  BatchEvaluator() = default;

  /// Prices `count` candidates of `plan` laid out slot-major
  /// (procs_soa[a * count + i], see Plan::evaluate_batch) into out[0..count).
  void evaluate(const Plan& plan, std::span<const int> procs_soa,
                std::size_t count, const hnoc::NetworkModel& network,
                EstimateOptions options, std::span<double> out);

 private:
  /// Per-candidate canonical busy slot of every abstract pair: two pairs
  /// alias iff they map to the same physical (src, dst) under the candidate.
  void compute_canonical_pairs(const Plan& plan,
                               std::span<const int> procs_soa,
                               std::size_t count,
                               const hnoc::NetworkModel& network);

  // Slot-major scratch, all sized (rows x count).
  std::vector<double> speed_;      // per abstract slot: speed of its processor
  std::vector<double> time_;       // per abstract slot
  std::vector<double> busy_;       // per abstract transfer pair (canonical)
  std::vector<int> canon_;         // per pair: canonical pair index
  std::vector<double> latency_;    // per pair: physical link latency
  std::vector<double> bandwidth_;  // per pair: physical link bandwidth
  std::vector<double> cost_;       // fallback plans: per abstract slot

  // Par-block frames (snapshot + running max), pooled across calls.
  struct Frame {
    std::vector<double> snap_time, snap_busy;
    std::vector<double> acc_time, acc_busy;
  };
  std::vector<Frame> frames_;
  std::size_t frame_depth_ = 0;

  // Open-addressing scratch of compute_canonical_pairs (generation-stamped
  // so it never needs clearing between candidates).
  std::vector<std::uint64_t> probe_key_;
  std::vector<std::uint32_t> probe_gen_;
  std::vector<int> probe_pair_;
  std::uint32_t generation_ = 0;
};

/// Compile-once memo: instance fingerprint -> shared immutable Plan.
/// Thread-safe; shared by every process's searches like the EstimateCache.
/// Plans depend only on the instance (not on mapping, speeds, or overheads),
/// so entries never go stale — recon does not invalidate them.
class PlanCache {
 public:
  PlanCache() = default;
  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// The plan for `instance`, compiling it on first sight. Sets *compiled
  /// (when non-null) to whether this call did the compile, and
  /// *compile_seconds to how long it took (0 on a hit).
  std::shared_ptr<const Plan> get(const pmdl::ModelInstance& instance,
                                  bool* compiled = nullptr,
                                  double* compile_seconds = nullptr);

  std::size_t size() const;
  void clear();

  /// Cumulative lookup counters (hits + misses = lookups; a miss compiled).
  long long hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }
  long long misses() const noexcept {
    return misses_.load(std::memory_order_relaxed);
  }

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, std::shared_ptr<const Plan>> table_;
  std::atomic<long long> hits_{0};
  std::atomic<long long> misses_{0};
};

}  // namespace hmpi::est
