#include "estimator/plan.hpp"

#include <algorithm>
#include <chrono>

#include "estimator/fingerprint.hpp"
#include "support/error.hpp"

namespace hmpi::est {

namespace {

void check_mapping(int num_procs, std::span<const int> mapping,
                   const hnoc::NetworkModel& network) {
  support::require(static_cast<int>(mapping.size()) == num_procs,
                   "mapping size must equal the number of abstract processors");
  for (int p : mapping) {
    support::require(p >= 0 && p < network.size(),
                     "mapping references a processor outside the network");
  }
}

/// Records one scheme replay as the flat op list. Self transfers are
/// dropped and the percentage factors folded in here, so the evaluators
/// never look at the instance again.
class Recorder final : public pmdl::ScheduleSink {
 public:
  Recorder(const pmdl::ModelInstance& instance, std::vector<PlanOp>& ops)
      : instance_(&instance), ops_(&ops) {}

  void compute(std::span<const long long> coords, double percent) override {
    const auto a = static_cast<std::size_t>(instance_->flatten(coords));
    // The exact expression TimelineMachine::compute evaluates per replay.
    const double units = instance_->node_volumes()[a] * percent / 100.0;
    ops_->push_back({PlanOp::Kind::kCompute, static_cast<int>(a), -1, units});
  }

  void transfer(std::span<const long long> src, std::span<const long long> dst,
                double percent) override {
    const auto s = static_cast<std::size_t>(instance_->flatten(src));
    const auto d = static_cast<std::size_t>(instance_->flatten(dst));
    if (s == d) return;  // self transfer: no cost in the model
    double bytes = 0.0;
    auto it = instance_->link_bytes().find(
        {static_cast<int>(s), static_cast<int>(d)});
    if (it != instance_->link_bytes().end()) {
      bytes = it->second * percent / 100.0;
    }
    // A missing link entry still pays latency and overheads (bytes = 0),
    // exactly like the interpreter path.
    ops_->push_back({PlanOp::Kind::kTransfer, static_cast<int>(s),
                     static_cast<int>(d), bytes});
  }

  void par_begin() override {
    ops_->push_back({PlanOp::Kind::kParBegin, -1, -1, 0.0});
  }
  void par_iter_begin() override {
    ops_->push_back({PlanOp::Kind::kParIterBegin, -1, -1, 0.0});
  }
  void par_end() override {
    ops_->push_back({PlanOp::Kind::kParEnd, -1, -1, 0.0});
  }

 private:
  const pmdl::ModelInstance* instance_;
  std::vector<PlanOp>* ops_;
};

/// time[a] += units / speed — the TimelineMachine::compute float ops.
inline void op_compute(const PlanOp& op, std::span<const int> mapping,
                       const hnoc::NetworkModel& network,
                       std::vector<double>& time) {
  const auto a = static_cast<std::size_t>(op.a);
  time[a] += op.value / network.speed(mapping[a]);
}

/// The TimelineMachine::transfer float ops over a dense busy table
/// (busy[ps * P + pd]; absent map entries and zero slots agree at 0.0).
inline void op_transfer(const PlanOp& op, std::span<const int> mapping,
                        const hnoc::NetworkModel& network,
                        EstimateOptions options, int link_stride,
                        std::vector<double>& time, std::vector<double>& busy) {
  const auto s = static_cast<std::size_t>(op.a);
  const auto d = static_cast<std::size_t>(op.b);
  const int ps = mapping[s];
  const int pd = mapping[d];
  double& slot = busy[static_cast<std::size_t>(ps) *
                          static_cast<std::size_t>(link_stride) +
                      static_cast<std::size_t>(pd)];
  const double start = std::max(time[s], slot);
  const double finish = start + network.link(ps, pd).transfer_time(op.value);
  slot = finish;
  time[s] += options.send_overhead_s;
  time[d] = std::max(time[d], finish) + options.recv_overhead_s;
}

/// Element-wise max; exact (std::max of finite doubles picks one operand).
/// Dense busy tables make this identical to the interpreter's map merge:
/// a pair absent from `from` contributes 0.0, and max(x, 0.0) == x for the
/// non-negative timeline values.
inline void merge_max_into(std::vector<double>& into_time,
                           std::vector<double>& into_busy,
                           const std::vector<double>& from_time,
                           const std::vector<double>& from_busy) {
  for (std::size_t i = 0; i < into_time.size(); ++i) {
    into_time[i] = std::max(into_time[i], from_time[i]);
  }
  for (std::size_t i = 0; i < into_busy.size(); ++i) {
    into_busy[i] = std::max(into_busy[i], from_busy[i]);
  }
}

}  // namespace

// --- Plan ------------------------------------------------------------------

Plan::Plan(const pmdl::ModelInstance& instance)
    : num_procs_(instance.size()), from_scheme_(instance.has_scheme()) {
  volumes_ = instance.node_volumes();
  links_.reserve(instance.link_bytes().size());
  for (const auto& [pair, bytes] : instance.link_bytes()) {
    links_.push_back({pair.first, pair.second, bytes});
  }
  // Per-processor incidence, preserving the global (sorted) link order the
  // fallback evaluation accumulates in; a self link is listed twice because
  // the fallback adds its transfer time to both endpoint roles.
  incident_.assign(static_cast<std::size_t>(num_procs_), {});
  for (std::size_t li = 0; li < links_.size(); ++li) {
    incident_[static_cast<std::size_t>(links_[li].src)].push_back(
        static_cast<int>(li));
    incident_[static_cast<std::size_t>(links_[li].dst)].push_back(
        static_cast<int>(li));
  }

  if (from_scheme_) {
    Recorder recorder(instance, ops_);
    instance.run_scheme(recorder);
    first_touch_.assign(static_cast<std::size_t>(num_procs_), kNeverTouched);
    // Distinct abstract transfer pairs (first-appearance order) and each
    // transfer op's pair index — the batch evaluator's compact busy keying.
    std::unordered_map<std::uint64_t, int> pair_index;
    op_pair_.assign(ops_.size(), -1);
    for (std::size_t k = 0; k < ops_.size(); ++k) {
      const PlanOp& op = ops_[k];
      if (op.kind != PlanOp::Kind::kCompute &&
          op.kind != PlanOp::Kind::kTransfer) {
        continue;
      }
      auto touch = [&](int a) {
        auto& first = first_touch_[static_cast<std::size_t>(a)];
        if (first == kNeverTouched) first = k;
      };
      touch(op.a);
      if (op.kind == PlanOp::Kind::kTransfer) {
        touch(op.b);
        const std::uint64_t key =
            (static_cast<std::uint64_t>(static_cast<std::uint32_t>(op.a))
             << 32) |
            static_cast<std::uint32_t>(op.b);
        auto [it, inserted] =
            pair_index.emplace(key, static_cast<int>(pairs_.size()));
        if (inserted) pairs_.push_back({op.a, op.b});
        op_pair_[k] = it->second;
      }
    }
    // ~64 checkpoints bound the suffix-replay overshoot without copying the
    // timeline state too often.
    checkpoint_stride_ = std::max<std::size_t>(16, (ops_.size() + 63) / 64);
  }
}

double Plan::evaluate(std::span<const int> mapping,
                      const hnoc::NetworkModel& network,
                      EstimateOptions options) const {
  check_mapping(num_procs_, mapping, network);
  // One mapping is a slot-major batch of one: the mapping itself.
  double makespan = 0.0;
  evaluate_batch(mapping, 1, network, options, std::span<double>(&makespan, 1));
  return makespan;
}

// --- DeltaEvaluator ----------------------------------------------------------

DeltaEvaluator::Core& DeltaEvaluator::Stack::push() {
  if (depth == pool.size()) pool.emplace_back();
  return pool[depth++];
}

void DeltaEvaluator::assign_core(Core& into, const Core& from) {
  into.time.assign(from.time.begin(), from.time.end());
  into.busy.assign(from.busy.begin(), from.busy.end());
}

void DeltaEvaluator::merge_max_core(Core& into, const Core& from) {
  merge_max_into(into.time, into.busy, from.time, from.busy);
}

double DeltaEvaluator::makespan_of(const Core& core) const {
  return core.time.empty()
             ? 0.0
             : *std::max_element(core.time.begin(), core.time.end());
}

DeltaEvaluator::DeltaEvaluator(const Plan& plan,
                               const hnoc::NetworkModel& network,
                               EstimateOptions options)
    : plan_(&plan),
      network_(&network),
      options_(options),
      num_links_(network.size() * network.size()) {}

double DeltaEvaluator::reset(std::span<const int> mapping) {
  check_mapping(plan_->size(), mapping, *network_);
  mapping_.assign(mapping.begin(), mapping.end());
  staged_ = false;
  stale_ops_ = 0;

  if (!plan_->from_scheme_) {
    const auto& volumes = plan_->volumes_;
    committed_cost_.assign(volumes.size(), 0.0);
    for (std::size_t a = 0; a < volumes.size(); ++a) {
      committed_cost_[a] = volumes[a] / network_->speed(mapping_[a]);
    }
    for (const PlanLink& l : plan_->links_) {
      const int ps = mapping_[static_cast<std::size_t>(l.src)];
      const int pd = mapping_[static_cast<std::size_t>(l.dst)];
      const double t = network_->link(ps, pd).transfer_time(l.bytes);
      committed_cost_[static_cast<std::size_t>(l.src)] += t;
      committed_cost_[static_cast<std::size_t>(l.dst)] += t;
    }
    committed_time_ =
        committed_cost_.empty()
            ? 0.0
            : *std::max_element(committed_cost_.begin(), committed_cost_.end());
    return committed_time_;
  }

  committed_.time.assign(static_cast<std::size_t>(plan_->size()), 0.0);
  committed_.busy.assign(static_cast<std::size_t>(num_links_), 0.0);
  scratch_snapshots_.clear();
  scratch_accumulators_.clear();
  checkpoints_.clear();
  checkpoints_.emplace_back();
  checkpoints_.back().op_index = 0;
  assign_core(checkpoints_.back().core, committed_);
  run_ops(0, plan_->ops_.size(), mapping_, committed_, scratch_snapshots_,
          scratch_accumulators_, &checkpoints_);
  committed_time_ = makespan_of(committed_);
  return committed_time_;
}

std::span<const int> DeltaEvaluator::stage(std::span<const Move> moves) {
  support::require(!mapping_.empty() || plan_->size() == 0,
                   "DeltaEvaluator::stage before reset");
  staged_mapping_.assign(mapping_.begin(), mapping_.end());
  for (const Move& m : moves) {
    support::require(
        m.slot >= 0 && m.slot < plan_->size(),
        "DeltaEvaluator::stage: slot outside the abstract arrangement");
    support::require(m.processor >= 0 && m.processor < network_->size(),
                     "DeltaEvaluator::stage: processor outside the network");
    staged_mapping_[static_cast<std::size_t>(m.slot)] = m.processor;
  }
  staged_slots_.clear();
  staged_first_ = Plan::kNeverTouched;
  for (std::size_t a = 0; a < staged_mapping_.size(); ++a) {
    if (staged_mapping_[a] == mapping_[a]) continue;
    staged_slots_.push_back(static_cast<int>(a));
    if (plan_->from_scheme_) {
      staged_first_ = std::min(staged_first_, plan_->first_touch_[a]);
    }
  }
  staged_ = true;
  staged_priced_ = false;
  scratch_valid_ = false;
  staged_value_ = committed_time_;
  return staged_mapping_;
}

double DeltaEvaluator::replay() {
  support::require(staged_, "DeltaEvaluator::replay without a staged move");
  staged_priced_ = true;
  if (staged_slots_.empty() ||
      (plan_->from_scheme_ && staged_first_ == Plan::kNeverTouched)) {
    // No op touches a changed slot: the committed timeline is the answer.
    staged_value_ = committed_time_;
    return staged_value_;
  }
  staged_value_ =
      plan_->from_scheme_ ? replay_scheme() : replay_fallback();
  return staged_value_;
}

void DeltaEvaluator::set_staged_value(double seconds) {
  support::require(staged_,
                   "DeltaEvaluator::set_staged_value without a staged move");
  staged_value_ = seconds;
  staged_priced_ = true;
  scratch_valid_ = false;
}

double DeltaEvaluator::replay_scheme() {
  const std::size_t n = plan_->ops_.size();
  std::size_t j0 = staged_first_ / plan_->checkpoint_stride_;
  if (j0 >= checkpoints_.size()) {
    // Commits drop stale checkpoints lazily, so the grid can be shorter than
    // this proposal's first touch asks for. Replaying from the last survivor
    // stays bit-exact (no op before staged_first_ touches a changed slot);
    // charge the clamp and, once the accumulated cost exceeds one full pass,
    // re-record the grid so savings return.
    stale_ops_ += static_cast<long long>((j0 - (checkpoints_.size() - 1)) *
                                         plan_->checkpoint_stride_);
    if (stale_ops_ >= static_cast<long long>(n)) {
      rebuild_checkpoints();
      stale_ops_ = 0;
      j0 = staged_first_ / plan_->checkpoint_stride_;
    }
    j0 = std::min(j0, checkpoints_.size() - 1);
  }
  const Checkpoint& cp = checkpoints_[j0];

  assign_core(scratch_, cp.core);
  scratch_snapshots_.clear();
  for (const Core& c : cp.snapshots) assign_core(scratch_snapshots_.push(), c);
  scratch_accumulators_.clear();
  for (const Core& c : cp.accumulators) {
    assign_core(scratch_accumulators_.push(), c);
  }
  run_ops(cp.op_index, n, staged_mapping_, scratch_, scratch_snapshots_,
          scratch_accumulators_, nullptr);
  replays_ += 1;
  ops_replayed_ += static_cast<long long>(n - cp.op_index);
  scratch_valid_ = true;
  return makespan_of(scratch_);
}

double DeltaEvaluator::replay_fallback() {
  // Affected processors: the moved slots plus every endpoint sharing a link
  // term with one (their incident transfer times change too).
  affected_mark_.assign(static_cast<std::size_t>(plan_->size()), 0);
  affected_.clear();
  auto mark = [&](int a) {
    if (affected_mark_[static_cast<std::size_t>(a)] != 0) return;
    affected_mark_[static_cast<std::size_t>(a)] = 1;
    affected_.push_back(a);
  };
  for (int s : staged_slots_) {
    mark(s);
    for (int li : plan_->incident_[static_cast<std::size_t>(s)]) {
      mark(plan_->links_[static_cast<std::size_t>(li)].src);
      mark(plan_->links_[static_cast<std::size_t>(li)].dst);
    }
  }
  scratch_cost_.assign(committed_cost_.begin(), committed_cost_.end());
  recompute_costs(affected_, staged_mapping_, scratch_cost_);
  replays_ += 1;
  for (int a : affected_) {
    ops_replayed_ += 1 + static_cast<long long>(
                             plan_->incident_[static_cast<std::size_t>(a)].size());
  }
  scratch_valid_ = true;
  return scratch_cost_.empty()
             ? 0.0
             : *std::max_element(scratch_cost_.begin(), scratch_cost_.end());
}

void DeltaEvaluator::recompute_costs(std::span<const int> affected,
                                     std::span<const int> mapping,
                                     std::vector<double>& cost) {
  // Each processor's cost is its own sum, accumulated in the global link
  // order — the same addition sequence the full fallback evaluation performs
  // for it, so recomputed entries are bit-identical.
  for (int a : affected) {
    const auto ai = static_cast<std::size_t>(a);
    double c = plan_->volumes_[ai] / network_->speed(mapping[ai]);
    for (int li : plan_->incident_[ai]) {
      const PlanLink& l = plan_->links_[static_cast<std::size_t>(li)];
      const int ps = mapping[static_cast<std::size_t>(l.src)];
      const int pd = mapping[static_cast<std::size_t>(l.dst)];
      c += network_->link(ps, pd).transfer_time(l.bytes);
    }
    cost[ai] = c;
  }
}

void DeltaEvaluator::commit() {
  support::require(staged_, "DeltaEvaluator::commit without a staged move");
  staged_ = false;
  if (staged_slots_.empty()) return;  // mapping unchanged (e.g. same-machine swap)

  if (!plan_->from_scheme_) {
    if (scratch_valid_) {
      committed_cost_.swap(scratch_cost_);
    } else {
      // Value came from a memo; rebuild only the affected entries. This
      // repeats the affected-set walk of replay_fallback on purpose: the
      // staged slots are the source of truth, scratch_cost_ is not.
      const double memo = staged_value_;
      staged_value_ = replay_fallback();
      committed_cost_.swap(scratch_cost_);
      staged_value_ = memo;
    }
    mapping_.swap(staged_mapping_);
    committed_time_ =
        committed_cost_.empty()
            ? 0.0
            : *std::max_element(committed_cost_.begin(), committed_cost_.end());
    return;
  }

  mapping_.swap(staged_mapping_);
  if (staged_first_ == Plan::kNeverTouched) return;  // timeline unchanged

  if (staged_priced_) {
    // O(1) accept: the staged value is the new committed makespan (replay and
    // memo values are bit-exact by the invariant). Checkpoints past the first
    // touched op describe the old mapping's timeline; drop them instead of
    // re-running the suffix here — replay_scheme() clamps to the survivors
    // and amortises one grid rebuild against the accumulated clamp cost.
    committed_time_ = staged_value_;
    const std::size_t keep = staged_first_ / plan_->checkpoint_stride_ + 1;
    if (keep < checkpoints_.size()) checkpoints_.resize(keep);
    return;
  }

  // Unpriced commit (stage() straight into commit()): rebuild the suffix with
  // checkpoint recording to learn the value.
  const std::size_t n = plan_->ops_.size();
  const std::size_t j0 = std::min(staged_first_ / plan_->checkpoint_stride_,
                                  checkpoints_.size() - 1);
  const std::size_t start = checkpoints_[j0].op_index;
  checkpoints_.resize(j0 + 1);
  assign_core(scratch_, checkpoints_[j0].core);
  scratch_snapshots_.clear();
  for (const Core& c : checkpoints_[j0].snapshots) {
    assign_core(scratch_snapshots_.push(), c);
  }
  scratch_accumulators_.clear();
  for (const Core& c : checkpoints_[j0].accumulators) {
    assign_core(scratch_accumulators_.push(), c);
  }
  run_ops(start, n, mapping_, scratch_, scratch_snapshots_,
          scratch_accumulators_, &checkpoints_);
  ops_replayed_ += static_cast<long long>(n - start);
  std::swap(committed_, scratch_);
  committed_time_ = makespan_of(committed_);
}

void DeltaEvaluator::rebuild_checkpoints() {
  // Recorded re-run of [last surviving checkpoint, end) under the committed
  // mapping; the survivor is exact for it (see commit()), so the re-recorded
  // grid is too. Charged to ops_replayed_ — the savings metric stays honest.
  const std::size_t n = plan_->ops_.size();
  const std::size_t start = checkpoints_.back().op_index;
  assign_core(scratch_, checkpoints_.back().core);
  scratch_snapshots_.clear();
  for (const Core& c : checkpoints_.back().snapshots) {
    assign_core(scratch_snapshots_.push(), c);
  }
  scratch_accumulators_.clear();
  for (const Core& c : checkpoints_.back().accumulators) {
    assign_core(scratch_accumulators_.push(), c);
  }
  run_ops(start, n, mapping_, scratch_, scratch_snapshots_,
          scratch_accumulators_, &checkpoints_);
  ops_replayed_ += static_cast<long long>(n - start);
}

void DeltaEvaluator::run_ops(std::size_t from, std::size_t to,
                             std::span<const int> mapping, Core& core,
                             Stack& snapshots, Stack& accumulators,
                             std::vector<Checkpoint>* record) {
  const auto& ops = plan_->ops_;
  const std::size_t stride = plan_->checkpoint_stride_;
  const int P = network_->size();
  for (std::size_t k = from; k < to; ++k) {
    if (record != nullptr && k != from && k % stride == 0) {
      record->emplace_back();
      Checkpoint& cp = record->back();
      cp.op_index = k;
      assign_core(cp.core, core);
      cp.snapshots.resize(snapshots.depth);
      for (std::size_t i = 0; i < snapshots.depth; ++i) {
        assign_core(cp.snapshots[i], snapshots.pool[i]);
      }
      cp.accumulators.resize(accumulators.depth);
      for (std::size_t i = 0; i < accumulators.depth; ++i) {
        assign_core(cp.accumulators[i], accumulators.pool[i]);
      }
    }
    const PlanOp& op = ops[k];
    switch (op.kind) {
      case PlanOp::Kind::kCompute:
        op_compute(op, mapping, *network_, core.time);
        break;
      case PlanOp::Kind::kTransfer:
        op_transfer(op, mapping, *network_, options_, P, core.time, core.busy);
        break;
      case PlanOp::Kind::kParBegin:
        assign_core(snapshots.push(), core);
        assign_core(accumulators.push(), core);
        break;
      case PlanOp::Kind::kParIterBegin:
        merge_max_core(accumulators.top(), core);
        assign_core(core, snapshots.top());
        break;
      case PlanOp::Kind::kParEnd:
        merge_max_core(accumulators.top(), core);
        assign_core(core, accumulators.top());
        accumulators.pop();
        snapshots.pop();
        break;
    }
  }
}

// --- BatchEvaluator ----------------------------------------------------------

void BatchEvaluator::compute_canonical_pairs(const Plan& plan,
                                             std::span<const int> procs_soa,
                                             std::size_t count,
                                             const hnoc::NetworkModel& network) {
  const std::size_t q_count = plan.pairs_.size();
  canon_.resize(q_count * count);
  latency_.resize(q_count * count);
  bandwidth_.resize(q_count * count);

  // Open-addressing capacity: power of two >= 2 * Q, so probes stay short.
  std::size_t capacity = 8;
  while (capacity < 2 * q_count) capacity *= 2;
  if (probe_key_.size() != capacity) {
    probe_key_.assign(capacity, 0);
    probe_gen_.assign(capacity, 0);
    probe_pair_.assign(capacity, 0);
    generation_ = 0;
  }

  for (std::size_t i = 0; i < count; ++i) {
    ++generation_;
    if (generation_ == 0) {  // stamp wrapped: reset the table once
      std::fill(probe_gen_.begin(), probe_gen_.end(), 0u);
      generation_ = 1;
    }
    for (std::size_t q = 0; q < q_count; ++q) {
      const auto s = static_cast<std::size_t>(plan.pairs_[q].first);
      const auto d = static_cast<std::size_t>(plan.pairs_[q].second);
      const int ps = procs_soa[s * count + i];
      const int pd = procs_soa[d * count + i];
      const std::uint64_t key =
          (static_cast<std::uint64_t>(static_cast<std::uint32_t>(ps)) << 32) |
          static_cast<std::uint32_t>(pd);
      // SplitMix64 finaliser as the probe hash (same mixing as fp_mix).
      std::uint64_t h = key + 0x9e3779b97f4a7c15ULL;
      h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
      h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
      std::size_t slot = static_cast<std::size_t>(h) & (capacity - 1);
      int canonical = static_cast<int>(q);
      while (true) {
        if (probe_gen_[slot] != generation_) {
          probe_gen_[slot] = generation_;
          probe_key_[slot] = key;
          probe_pair_[slot] = static_cast<int>(q);
          break;
        }
        if (probe_key_[slot] == key) {
          canonical = probe_pair_[slot];
          break;
        }
        slot = (slot + 1) & (capacity - 1);
      }
      canon_[q * count + i] = canonical;
      const hnoc::LinkParams& link = network.link(ps, pd);
      latency_[q * count + i] = link.latency_s;
      bandwidth_[q * count + i] = link.bandwidth_bps;
    }
  }
}

void BatchEvaluator::evaluate(const Plan& plan, std::span<const int> procs_soa,
                              std::size_t count,
                              const hnoc::NetworkModel& network,
                              EstimateOptions options, std::span<double> out) {
  if (count == 0) return;
  const auto p = static_cast<std::size_t>(plan.num_procs_);
  support::require(procs_soa.size() == p * count,
                   "batch mapping block must be |slots| x count");
  support::require(out.size() >= count,
                   "batch output span smaller than the candidate count");
  for (int proc : procs_soa) {
    support::require(proc >= 0 && proc < network.size(),
                     "mapping references a processor outside the network");
  }

  // Speeds, gathered once per (slot, candidate).
  speed_.resize(p * count);
  for (std::size_t j = 0; j < p * count; ++j) {
    speed_[j] = network.speed(procs_soa[j]);
  }

  if (!plan.from_scheme_) {
    // The fallback bound of est::estimate_time, term for term per candidate.
    cost_.assign(p * count, 0.0);
    for (std::size_t a = 0; a < p; ++a) {
      for (std::size_t i = 0; i < count; ++i) {
        cost_[a * count + i] = plan.volumes_[a] / speed_[a * count + i];
      }
    }
    for (const PlanLink& l : plan.links_) {
      const auto s = static_cast<std::size_t>(l.src);
      const auto d = static_cast<std::size_t>(l.dst);
      for (std::size_t i = 0; i < count; ++i) {
        const int ps = procs_soa[s * count + i];
        const int pd = procs_soa[d * count + i];
        const double t = network.link(ps, pd).transfer_time(l.bytes);
        cost_[s * count + i] += t;
        cost_[d * count + i] += t;
      }
    }
    for (std::size_t i = 0; i < count; ++i) {
      double makespan = p == 0 ? 0.0 : cost_[i];
      for (std::size_t a = 1; a < p; ++a) {
        makespan = std::max(makespan, cost_[a * count + i]);
      }
      out[i] = makespan;
    }
    return;
  }

  compute_canonical_pairs(plan, procs_soa, count, network);
  const std::size_t q_count = plan.pairs_.size();
  time_.assign(p * count, 0.0);
  busy_.assign(q_count * count, 0.0);
  frame_depth_ = 0;

  const auto merge_rows = [](std::vector<double>& into,
                             const std::vector<double>& from) {
    for (std::size_t j = 0; j < into.size(); ++j) {
      into[j] = std::max(into[j], from[j]);
    }
  };

  for (std::size_t k = 0; k < plan.ops_.size(); ++k) {
    const PlanOp& op = plan.ops_[k];
    switch (op.kind) {
      case PlanOp::Kind::kCompute: {
        const std::size_t base = static_cast<std::size_t>(op.a) * count;
        for (std::size_t i = 0; i < count; ++i) {
          time_[base + i] += op.value / speed_[base + i];
        }
        break;
      }
      case PlanOp::Kind::kTransfer: {
        const std::size_t s = static_cast<std::size_t>(op.a) * count;
        const std::size_t d = static_cast<std::size_t>(op.b) * count;
        const std::size_t q = static_cast<std::size_t>(plan.op_pair_[k]) * count;
        for (std::size_t i = 0; i < count; ++i) {
          double& slot =
              busy_[static_cast<std::size_t>(canon_[q + i]) * count + i];
          const double start = std::max(time_[s + i], slot);
          const double finish =
              start + (latency_[q + i] + op.value / bandwidth_[q + i]);
          slot = finish;
          time_[s + i] += options.send_overhead_s;
          time_[d + i] = std::max(time_[d + i], finish) + options.recv_overhead_s;
        }
        break;
      }
      case PlanOp::Kind::kParBegin: {
        if (frame_depth_ == frames_.size()) frames_.emplace_back();
        Frame& f = frames_[frame_depth_++];
        f.snap_time.assign(time_.begin(), time_.end());
        f.snap_busy.assign(busy_.begin(), busy_.end());
        f.acc_time.assign(time_.begin(), time_.end());
        f.acc_busy.assign(busy_.begin(), busy_.end());
        break;
      }
      case PlanOp::Kind::kParIterBegin: {
        Frame& f = frames_[frame_depth_ - 1];
        merge_rows(f.acc_time, time_);
        merge_rows(f.acc_busy, busy_);
        time_.assign(f.snap_time.begin(), f.snap_time.end());
        busy_.assign(f.snap_busy.begin(), f.snap_busy.end());
        break;
      }
      case PlanOp::Kind::kParEnd: {
        Frame& f = frames_[frame_depth_ - 1];
        merge_rows(f.acc_time, time_);
        merge_rows(f.acc_busy, busy_);
        time_.swap(f.acc_time);
        busy_.swap(f.acc_busy);
        --frame_depth_;
        break;
      }
    }
  }

  for (std::size_t i = 0; i < count; ++i) {
    double makespan = p == 0 ? 0.0 : time_[i];
    for (std::size_t a = 1; a < p; ++a) {
      makespan = std::max(makespan, time_[a * count + i]);
    }
    out[i] = makespan;
  }
}

void Plan::evaluate_batch(std::span<const int> procs_soa, std::size_t count,
                          const hnoc::NetworkModel& network,
                          EstimateOptions options,
                          std::span<double> out) const {
  static thread_local BatchEvaluator evaluator;
  evaluator.evaluate(*this, procs_soa, count, network, options, out);
}

// --- PlanCache --------------------------------------------------------------

std::shared_ptr<const Plan> PlanCache::get(const pmdl::ModelInstance& instance,
                                           bool* compiled,
                                           double* compile_seconds) {
  const std::uint64_t fp = instance_fingerprint(instance);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = table_.find(fp);
    if (it != table_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      if (compiled != nullptr) *compiled = false;
      if (compile_seconds != nullptr) *compile_seconds = 0.0;
      return it->second;
    }
  }
  // Compile outside the lock: a scheme replay can be expensive and parallel
  // first sights of different models must not serialise. Concurrent misses
  // of the same instance both compile; the first insert wins and the loser's
  // plan is dropped (plans of one instance are interchangeable).
  const auto begin = std::chrono::steady_clock::now();
  auto plan = std::make_shared<const Plan>(instance);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
          .count();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = table_.emplace(fp, plan);
    if (!inserted) plan = it->second;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  if (compiled != nullptr) *compiled = true;
  if (compile_seconds != nullptr) *compile_seconds = seconds;
  return plan;
}

std::size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return table_.size();
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  table_.clear();
}

}  // namespace hmpi::est
