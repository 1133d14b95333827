// Compiled cost IR: the estimator's fast path (docs/estimator.md).
//
// Replaying the model's scheme through the pmdl tree-walking evaluator for
// EVERY candidate arrangement the mappers score would cost thousands of Env
// copies, Value boxes, and AST dispatches per selection. But a scheme's
// activation stream cannot depend on the mapping: ScheduleSink has no
// feedback channel, and native scheme functions see only model parameters.
// So the stream is recorded ONCE and re-priced cheaply:
//
//   Plan          — the model instance lowered to a flat, topologically
//                   ordered op list (compute/transfer/par markers) with the
//                   volume and byte factors pre-resolved per op, plus the
//                   (src, dst, bytes) link terms of the no-scheme fallback.
//   BatchEvaluator — the one estimate kernel: structure-of-arrays pricing of
//                   a candidate set in one pass. The op list is walked once,
//                   each op's inner loop runs contiguously over all
//                   candidates (slot-major speed/time/busy arrays, no
//                   per-candidate allocation). Busy state is kept per
//                   *abstract* transfer pair — O(Q) slots, with
//                   per-candidate aliasing of pairs that land on the same
//                   physical link — so P=1000 costs the same per candidate
//                   as P=9. Every op performs the exact floating-point
//                   operations of the interpreter-based timeline replay the
//                   tests keep as the oracle (tests/oracle/), so compiled
//                   and interpreted estimates are bit-identical by
//                   construction. Plan::evaluate is this kernel at count=1
//                   (on a thread-local evaluator), as is
//                   Plan::evaluate_batch. It is the only route by which the
//                   library prices an arrangement.
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
/// kTransfer (self transfers are dropped at compile time: they cost nothing
/// in the model).
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
  /// scheme-less instances, materialises the fallback link terms). The
  /// instance itself is not retained.
  explicit Plan(const pmdl::ModelInstance& instance);

  /// Abstract processors of the instance.
  int size() const noexcept { return num_procs_; }

  /// Whether the IR came from a scheme (vs the fallback aggregate bound).
  bool from_scheme() const noexcept { return from_scheme_; }

  /// Cost of one full evaluation, in IR operations.
  std::size_t op_count() const noexcept {
    return from_scheme_ ? ops_.size() : volumes_.size() + 2 * links_.size();
  }

  std::span<const PlanOp> ops() const noexcept { return ops_; }
  std::span<const PlanLink> links() const noexcept { return links_; }

  /// Predicted execution time of the plan under `mapping` — bit-identical to
  /// the interpreter replay of the instance this plan was compiled from.
  /// Prices
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
  friend class BatchEvaluator;

  int num_procs_ = 0;
  bool from_scheme_ = false;

  // Scheme IR.
  std::vector<PlanOp> ops_;
  std::vector<std::pair<int, int>> pairs_;  // distinct abstract transfer pairs
  std::vector<int> op_pair_;  // per op: index into pairs_ (-1 off transfers)

  // Fallback IR (also used for aggregate queries on scheme plans).
  std::vector<double> volumes_;            // per abstract processor
  std::vector<PlanLink> links_;            // link_bytes map order (sorted)
};

/// Structure-of-arrays batch pricing of a candidate set (see file comment).
/// Holds all scratch across calls, so a search loop pays zero allocation
/// once the high-water batch size is reached. Not thread-safe; each search
/// thread owns its own evaluator.
///
/// Exactness: per candidate, the op walk performs the identical sequence of
/// float operations as the interpreter oracle — compute divides by the same
/// speed,
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
