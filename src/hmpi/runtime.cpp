#include "hmpi/runtime.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <mutex>
#include <set>

#include "coll/tuner.hpp"
#include "estimator/estimate_cache.hpp"
#include "estimator/plan.hpp"
#include "mpsim/engine.hpp"
#include "mpsim/trace.hpp"
#include "support/error.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/prediction.hpp"
#include "telemetry/span.hpp"

namespace hmpi {

namespace {

/// telemetry::VirtualClockScope sampler: spans opened inside runtime entry
/// points stamp the owning simulated process's virtual clock.
double sample_proc_clock(const void* ctx) {
  return static_cast<const mp::Proc*>(ctx)->clock();
}

/// HMPI_COLL_* environment overrides (docs/collectives.md): one variable
/// per op naming the algorithm, plus HMPI_COLL_TUNER / HMPI_COLL_FEEDBACK
/// switches. Unknown algorithm names are ignored (the config value stands).
CollConfig coll_config_with_env(CollConfig config) {
  for (int o = 0; o < coll::kNumCollOps; ++o) {
    const auto op = static_cast<coll::CollOp>(o);
    std::string var = "HMPI_COLL_";
    for (const char* p = coll::op_name(op); *p != '\0'; ++p) {
      var.push_back(static_cast<char>(
          std::toupper(static_cast<unsigned char>(*p))));
    }
    if (const char* value = std::getenv(var.c_str())) {
      const int algo = coll::algo_from_name(op, value);
      if (algo >= 0) config.policy.set_choice(op, algo);
    }
  }
  if (const char* value = std::getenv("HMPI_COLL_TUNER")) {
    config.tuner = std::string(value) != "0";
  }
  if (const char* value = std::getenv("HMPI_COLL_FEEDBACK")) {
    config.feedback = std::string(value) == "1";
  }
  return config;
}

/// HMPI_EST_COMPILE override (docs/estimator.md): pick the estimator backend
/// without rebuilding, for A/B runs. Unknown values are ignored (the config
/// value stands) — every mode is bit-identical, so a typo is harmless.
EstimatorMode estimator_mode_with_env(EstimatorMode mode) {
  if (const char* value = std::getenv("HMPI_EST_COMPILE")) {
    const std::string v(value);
    if (v == "0" || v == "off" || v == "interpret") {
      return EstimatorMode::kInterpret;
    }
    if (v == "1" || v == "full" || v == "compile" || v == "compiled") {
      return EstimatorMode::kCompiled;
    }
    if (v == "2" || v == "delta") return EstimatorMode::kDelta;
  }
  return mode;
}

/// HMPI_EST_SHARDS override (docs/estimator.md): shard count of the shared
/// estimate cache. Values are purely a contention knob — every count returns
/// bit-identical results — so malformed or non-positive input is ignored.
int est_shards_with_env(int shards) {
  if (const char* value = std::getenv("HMPI_EST_SHARDS")) {
    char* end = nullptr;
    const long parsed = std::strtol(value, &end, 10);
    if (end != value && *end == '\0' && parsed > 0 &&
        parsed <= (1 << 20)) {
      return static_cast<int>(parsed);
    }
  }
  return shards;
}

/// Resolves (op, algo) pairs to the collective subsystem's stable names for
/// the critical-path report and `crit.coll.*` metrics.
telemetry::CollNamer coll_namer() {
  return [](int op, int algo) -> std::pair<std::string, std::string> {
    if (op < 0 || op >= coll::kNumCollOps) {
      return {"op" + std::to_string(op), "algo" + std::to_string(algo)};
    }
    const auto o = static_cast<coll::CollOp>(op);
    return {coll::op_name(o), coll::algo_name(o, algo)};
  };
}

}  // namespace

/// World-level blackboard shared by all Runtime instances of a run — the
/// moral equivalent of the HMPI daemon: speed estimates, the free set, and
/// the rendezvous queue for group creations.
struct Runtime::Shared {
  explicit Shared(std::size_t est_shards) : estimate_cache(est_shards) {}

  std::mutex mutex;
  /// Rendezvous wakeups (free processes park here for an announcement).
  mp::sim::WaitChannel cv;

  std::unique_ptr<hnoc::NetworkModel> network;

  /// Memoised estimator results, shared by every process's searches (the
  /// cache is internally thread-safe). Entries are keyed by the network
  /// model's version counter, so recon speed updates invalidate them
  /// implicitly; recon also clears the table to release the dead entries.
  est::EstimateCache estimate_cache;

  /// Compiled cost-IR plans, shared like the estimate cache. Plans depend
  /// only on the model instance — not on speeds or mapping — so recon does
  /// not invalidate them (estimator/plan.hpp).
  est::PlanCache plan_cache;

  /// Live-group membership count per world rank (a process can be in
  /// several groups when it parents a nested one).
  std::map<int, int> busy_count;

  /// Processors marked suspect by a recon timeout (their last known speed
  /// stays in `network`; suspicion only removes them from member selection).
  std::set<int> suspect_processors;

  /// Processors a migration just evacuated, barred from being re-drafted
  /// until the given virtual time — the ping-pong guard: a machine whose
  /// slowness (or suspect mark) triggered the move must not bounce straight
  /// back into the replacement roster, even if a later recon cleared its
  /// suspect mark in between (docs/adaptation.md).
  std::map<int, double> draft_cooldown;

  /// Whether `processor` is inside its post-migration draft cooldown at
  /// virtual time `now`; expired entries are reaped on the way.
  bool draft_blocked_locked(int processor, double now) {
    auto it = draft_cooldown.find(processor);
    if (it == draft_cooldown.end()) return false;
    if (it->second <= now) {
      draft_cooldown.erase(it);
      return false;
    }
    return true;
  }

  /// Set by adapt_quiesce: pending and future group_create rendezvous by
  /// free processes return std::nullopt instead of blocking (the serve-loop
  /// exit signal).
  bool quiesced = false;

  /// The world's collective-algorithm selector (installed into the World by
  /// the factory; also kept here for policy updates and diagnostics).
  /// Lock-ordering contract: CollTuner::select locks its own mutex and then
  /// the version callback locks `mutex` above — so the runtime must NEVER
  /// call a tuner method while holding `mutex`, or two threads deadlock.
  std::shared_ptr<coll::CollTuner> coll_tuner;

  /// The world-shared hmpictld scheduler service (docs/scheduler.md),
  /// lazily created by Runtime::scheduler(). Same lock-ordering contract as
  /// the tuner: the Scheduler has its own coarse mutex, so never call a
  /// scheduler method while holding `mutex` above.
  std::unique_ptr<sched::Scheduler> scheduler;

  struct Creation {
    std::vector<int> participants;  // sorted world ranks
    int parent_rank = -1;
    bool degraded = false;     // dead ranks excluded or suspects present
    std::vector<int> excluded;  // dead world ranks left out of the rendezvous
    /// Rollback guard of an adaptation migration (NaN = unguarded). Every
    /// participant compares the broadcast estimate against this bound and,
    /// when the move priced no better, rejoins a creation pinned to
    /// `guard_restore` — see Runtime::MigrationGuard.
    double guard_old_pred = std::numeric_limits<double>::quiet_NaN();
    std::vector<int> guard_restore;
  };
  long long creation_seq = 0;
  std::map<long long, Creation> creations;
  std::vector<long long> next_creation;  // per world rank

  long long group_counter = 0;

  bool is_free_locked(int rank) const {
    if (rank == 0) return false;
    auto it = busy_count.find(rank);
    return it == busy_count.end() || it->second == 0;
  }
};

std::vector<long long> Group::coordinates_of(int r) const {
  support::require(valid(), "coordinates_of on an invalid group");
  support::require(r >= 0 && r < size(), "group rank out of range");
  std::vector<long long> coords(shape_.size());
  long long index = r;
  for (std::size_t d = shape_.size(); d-- > 0;) {
    coords[d] = index % shape_[d];
    index /= shape_[d];
  }
  return coords;
}

int Group::rank_at(std::span<const long long> coordinates) const {
  support::require(valid(), "rank_at on an invalid group");
  support::require(coordinates.size() == shape_.size(),
                   "coordinate count does not match the group topology");
  long long index = 0;
  for (std::size_t d = 0; d < shape_.size(); ++d) {
    support::require(coordinates[d] >= 0 && coordinates[d] < shape_[d],
                     "coordinate out of range");
    index = index * shape_[d] + coordinates[d];
  }
  return static_cast<int>(index);
}

Runtime::Runtime(mp::Proc& proc, RuntimeConfig config)
    : proc_(&proc), config_(std::move(config)) {
  support::require(config_.search_threads >= 1,
                   "search_threads must be at least 1");
  config_.telemetry = config_.telemetry.with_env_overrides();
  config_.coll = coll_config_with_env(config_.coll);
  config_.estimator = estimator_mode_with_env(config_.estimator);
  config_.est_shards = std::max(1, est_shards_with_env(config_.est_shards));
  config_.adapt = config_.adapt.with_env();
  if (config_.adapt.enabled) {
    adapt_ = std::make_unique<adapt::AdaptationController>(config_.adapt);
  }
  if (!config_.mapper) {
    config_.mapper = std::shared_ptr<const map::Mapper>(map::make_default_mapper());
  }
  auto shared = proc.world().get_or_create_shared([&]() -> std::shared_ptr<void> {
    auto s = std::make_shared<Shared>(
        static_cast<std::size_t>(config_.est_shards));
    s->cv.debug_name = "rendezvous";
    s->network = std::make_unique<hnoc::NetworkModel>(proc.cluster());
    s->next_creation.assign(static_cast<std::size_t>(proc.nprocs()), 0);
    // The collective tuner: one per world, installed before the init
    // barrier below, so every process's first collective already resolves
    // through it. The config is required to be identical on every process,
    // so whichever process runs the factory builds the same tuner.
    coll::CollTuner::Options topts;
    topts.cost.send_overhead_s = config_.estimate.send_overhead_s;
    topts.cost.recv_overhead_s = config_.estimate.recv_overhead_s;
    topts.predict = config_.coll.tuner;
    topts.feedback = config_.coll.feedback;
    s->coll_tuner = std::make_shared<coll::CollTuner>(proc.cluster(), topts);
    s->coll_tuner->set_policy(config_.coll.policy);
    s->coll_tuner->set_version_source([raw = s.get()]() -> std::uint64_t {
      std::lock_guard<std::mutex> lock(raw->mutex);
      return raw->network->version();
    });
    proc.world().set_coll_selector(s->coll_tuner);
    // Wake rendezvous waiters on any death so they can fail fast instead of
    // staying parked until the engine diagnoses a stall. (The Shared outlives
    // every simulated process: the World holds it until the run ends.)
    proc.world().on_death([raw = s.get()](int, double) {
      { std::lock_guard<std::mutex> lock(raw->mutex); }
      raw->cv.notify_all();
    });
    return s;
  });
  shared_ = std::static_pointer_cast<Shared>(shared);
  // HMPI_Init is collective; synchronise so no process races ahead.
  proc.world_comm().barrier();
}

void Runtime::finalize(int exit_code) {
  support::require(exit_code == 0, "HMPI application finalised with an error code");
  if (finalized_) return;
  // The shutdown barrier is world-collective; with injected deaths it would
  // block on the dead ranks forever, so survivors simply leave.
  if (!proc_->world().any_failed()) proc_->world_comm().barrier();
  finalized_ = true;
  // Tuner cache statistics become metrics at shutdown (host only, once, so
  // the counters are not multiplied by the process count).
  if (is_host() && shared_->coll_tuner) {
    telemetry::metrics().counter("coll.tuner.hits").add(
        static_cast<double>(shared_->coll_tuner->cache_hits()));
    telemetry::metrics().counter("coll.tuner.misses").add(
        static_cast<double>(shared_->coll_tuner->cache_misses()));
    // Promoted measured-feedback ratios, one gauge per observed (op, algo)
    // (docs/observability.md). Nothing is emitted with feedback off.
    for (int o = 0; o < coll::kNumCollOps; ++o) {
      const auto op = static_cast<coll::CollOp>(o);
      for (int algo = 1; algo <= coll::algo_count(op); ++algo) {
        const double ratio = shared_->coll_tuner->feedback_ratio(op, algo);
        if (ratio > 0.0) {
          telemetry::metrics()
              .gauge(std::string("coll.feedback.") + coll::op_name(op) + "." +
                     coll::algo_name(op, algo))
              .set(ratio);
        }
      }
    }
  }
  // Drain the scheduler service (if the run used it) so its final sched.*
  // gauges land before the metrics dump (host only, once — the service is
  // world-shared, so any process's drain would double the counters).
  if (is_host()) {
    sched::Scheduler* scheduler = nullptr;
    {
      std::lock_guard<std::mutex> lock(shared_->mutex);
      scheduler = shared_->scheduler.get();
    }
    if (scheduler != nullptr) scheduler->run_until_idle();
  }
  // The host dumps the configured telemetry sinks after the barrier, when
  // every process's records are in (docs/observability.md).
  if (is_host() && config_.telemetry.any()) {
    // Analyze once; the crit.* gauges must land before the metrics dump.
    const telemetry::CriticalPathReport report = critical_path_report();
    telemetry::report_to_metrics(report, telemetry::metrics(), coll_namer());
    if (!config_.telemetry.critpath_json.empty()) {
      std::ofstream os(config_.telemetry.critpath_json);
      if (os) telemetry::write_critpath_json(os, report, coll_namer());
    }
    if (!config_.telemetry.metrics_json.empty()) {
      std::ofstream os(config_.telemetry.metrics_json);
      if (os) telemetry::metrics().write_json(os);
    }
    if (!config_.telemetry.trace_json.empty()) {
      std::ofstream os(config_.telemetry.trace_json);
      if (os) trace_export_json(os);
    }
  }
}

Runtime::~Runtime() = default;

bool Runtime::is_free() const {
  // Deliberately *local*: a process is free until it has itself completed a
  // group_create in which it was selected. The blackboard's busy set may run
  // ahead of this (the parent marks members busy as soon as it decides, and
  // buffered sends let it finish group_create before the members even enter
  // theirs); basing the paper's `HMPI_Is_host() || HMPI_Is_free()` calling
  // convention on the blackboard would make selected processes skip the
  // collective they are required to join.
  return proc_->rank() != 0 && live_groups_ == 0;
}

void Runtime::recon(const std::function<void(mp::Proc&)>& bench) {
  recon_impl(proc_->world_comm(), bench, config_.recon_retry);
}

void Runtime::recon(const std::function<void(mp::Proc&)>& bench,
                    const RetryPolicy& policy) {
  recon_impl(proc_->world_comm(), bench, policy);
}

void Runtime::recon_on(const mp::Comm& comm,
                       const std::function<void(mp::Proc&)>& bench,
                       const RetryPolicy& policy) {
  support::require(comm.valid(), "recon_on needs a valid communicator");
  recon_impl(comm, bench, policy);
}

void Runtime::recon_impl(const mp::Comm& comm,
                         const std::function<void(mp::Proc&)>& bench,
                         const RetryPolicy& policy) {
  support::require(static_cast<bool>(bench), "recon requires a benchmark function");
  support::require(policy.max_attempts >= 1, "recon retry needs max_attempts >= 1");
  support::require(policy.timeout_s > 0.0, "recon timeout must be positive");
  support::require(policy.backoff >= 1.0, "recon backoff must be >= 1");

  telemetry::VirtualClockScope vclock(sample_proc_clock, proc_);
  telemetry::Span span("recon", proc_->rank());
  telemetry::metrics().counter("recons").add();

  // Run the benchmark under the per-attempt virtual-time budget. A processor
  // that blows the budget on every attempt (each retry re-runs the benchmark
  // with `backoff` times more headroom) is reported with the speed-0
  // sentinel, which the update below turns into a suspect mark.
  double budget = policy.timeout_s;
  double elapsed = 0.0;
  bool responsive = false;
  for (int attempt = 0; attempt < policy.max_attempts; ++attempt) {
    if (attempt > 0) budget *= policy.backoff;
    const double start = proc_->clock();
    bench(*proc_);
    elapsed = proc_->clock() - start;
    support::require(elapsed > 0.0,
                     "the recon benchmark consumed no virtual time; it must call "
                     "Proc::compute");
    // Guard against a degenerate benchmark producing an (almost) infinite
    // speed estimate that would dominate every later mapping decision.
    elapsed = std::max(elapsed, kMinBenchTime);
    if (elapsed <= budget) {
      responsive = true;
      break;
    }
  }
  telemetry::metrics().histogram("recon_seconds").observe(elapsed);

  struct Entry {
    int processor;
    double speed;  // benchmark executions per second; 0 flags a timeout
  };
  Entry mine{proc_->processor(), responsive ? 1.0 / elapsed : 0.0};
  std::vector<Entry> all(static_cast<std::size_t>(comm.size()));
  comm.allgather(std::span<const Entry>(&mine, 1), std::span<Entry>(all));

  // Every process applies the identical update (idempotent): per processor,
  // the best speed any of its processes demonstrated. A processor whose
  // every process timed out keeps its previous estimate but becomes suspect;
  // any demonstrated speed clears the mark.
  bool speeds_changed = false;
  {
    std::lock_guard<std::mutex> lock(shared_->mutex);
    std::map<int, double> best;
    for (const Entry& e : all) {
      double& slot = best[e.processor];
      slot = std::max(slot, e.speed);
    }
    for (const auto& [processor, speed] : best) {
      if (speed > 0.0) {
        shared_->network->set_speed(processor, speed);
        speeds_changed = true;
        if (shared_->suspect_processors.erase(processor) > 0) {
          telemetry::metrics().counter("processors_recovered").add();
          if (mp::Tracer* tracer = proc_->world().options().tracer) {
            mp::TraceEvent event;
            event.kind = mp::TraceEvent::Kind::kRecover;
            event.world_rank = proc_->rank();
            event.processor = processor;
            event.start_time = proc_->clock();
            event.end_time = proc_->clock();
            tracer->record(event);
          }
        }
      } else if (shared_->suspect_processors.insert(processor).second) {
        telemetry::metrics().counter("processors_suspected").add();
        if (mp::Tracer* tracer = proc_->world().options().tracer) {
          mp::TraceEvent event;
          event.kind = mp::TraceEvent::Kind::kSuspect;
          event.world_rank = proc_->rank();
          event.processor = processor;
          event.start_time = proc_->clock();
          event.end_time = proc_->clock();
          tracer->record(event);
        }
      }
    }
  }
  // Version keying already makes the old entries unreachable; drop them so
  // repeated recons do not accumulate dead memory. (Collective call: every
  // process clears, which is an idempotent no-op after the first.)
  if (speeds_changed) shared_->estimate_cache.clear();

  // Re-seed the scheduler service's base speeds from the refreshed network
  // model so residual-capacity pricing tracks recon (idempotent across the
  // collective). Copy the speed vector under the Shared lock, then call out
  // with no lock held (see Shared::scheduler's lock-ordering note).
  if (speeds_changed) {
    sched::Scheduler* scheduler = nullptr;
    std::vector<double> speeds;
    {
      std::lock_guard<std::mutex> lock(shared_->mutex);
      scheduler = shared_->scheduler.get();
      if (scheduler != nullptr) speeds = shared_->network->speeds();
    }
    if (scheduler != nullptr) scheduler->refresh_speeds(speeds);
  }

  // Feedback mode: promote the staged measured/predicted ratios into the
  // tuner's active ranking, bracketed by two pinned-algorithm barriers.
  // The first barrier quiesces (no member is inside a tuner-selected
  // collective once any member is past it), the second holds every member
  // back until all promotions of this round are done — so tuner-driven
  // selections before and after the bracket each see one consistent
  // ranking on every member. Pinning the bracket's own barrier algorithm
  // keeps it independent of the very ranking being swapped. Note the
  // promotion runs with no Shared lock held (see Shared::coll_tuner).
  if (config_.coll.feedback && shared_->coll_tuner) {
    mp::Comm sync = comm;
    coll::CollPolicy pinned;
    pinned.barrier = coll::BarrierAlgo::kDissemination;
    sync.set_coll_policy(pinned);
    sync.barrier();
    shared_->coll_tuner->promote_feedback();
    sync.barrier();
  }
  comm.barrier();
}

void Runtime::coll_set_policy(const coll::CollPolicy& policy) {
  support::require(static_cast<bool>(shared_->coll_tuner),
                   "coll_set_policy requires the runtime's tuner");
  shared_->coll_tuner->set_policy(policy);
}

coll::CollPolicy Runtime::coll_policy() const {
  return shared_->coll_tuner ? shared_->coll_tuner->policy()
                             : coll::CollPolicy();
}

Runtime::CollSelection Runtime::coll_selection(coll::CollOp op,
                                               std::size_t bytes) const {
  CollSelection out;
  coll::Selector* selector = proc_->world().coll_selector();
  if (selector != nullptr) {
    std::vector<int> procs;
    procs.reserve(static_cast<std::size_t>(proc_->nprocs()));
    for (int r = 0; r < proc_->nprocs(); ++r) {
      procs.push_back(proc_->world().processor_of(r));
    }
    out.algo = selector->select(op, procs, bytes, &out.predicted_s);
  }
  if (out.algo == 0) out.algo = coll::legacy_default(op);
  return out;
}

std::vector<map::Candidate> Runtime::candidates_with(
    int parent_rank, std::vector<int>* ranks) const {
  mp::World& world = proc_->world();
  std::vector<int> participants{parent_rank};
  {
    std::lock_guard<std::mutex> lock(shared_->mutex);
    for (int r = 0; r < proc_->nprocs(); ++r) {
      if (r != parent_rank && shared_->is_free_locked(r) && world.alive(r) &&
          shared_->suspect_processors.count(world.processor_of(r)) == 0 &&
          !shared_->draft_blocked_locked(world.processor_of(r),
                                         proc_->clock())) {
        participants.push_back(r);
      }
    }
  }
  std::sort(participants.begin(), participants.end());
  std::vector<map::Candidate> candidates;
  candidates.reserve(participants.size());
  for (int r : participants) {
    candidates.push_back({r, world.processor_of(r)});
  }
  if (ranks != nullptr) *ranks = std::move(participants);
  return candidates;
}

map::SearchContext Runtime::search_context() const {
  map::SearchContext context;
  if (config_.search_threads > 1 && !search_pool_) {
    search_pool_ =
        std::make_unique<support::ThreadPool>(config_.search_threads);
  }
  context.pool = search_pool_.get();
  context.cache = config_.estimate_cache ? &shared_->estimate_cache : nullptr;
  context.plans = config_.estimator != EstimatorMode::kInterpret
                      ? &shared_->plan_cache
                      : nullptr;
  context.delta = config_.estimator == EstimatorMode::kDelta;
  return context;
}

std::shared_ptr<const est::Plan> Runtime::prefetch_plan(
    const pmdl::ModelInstance& instance) const {
  if (config_.estimator == EstimatorMode::kInterpret) return nullptr;
  bool compiled = false;
  double seconds = 0.0;
  std::shared_ptr<const est::Plan> plan =
      shared_->plan_cache.get(instance, &compiled, &seconds);
  telemetry::MetricsRegistry& reg = telemetry::metrics();
  if (!compiled) {
    reg.counter("est.compile.hits").add();
    return plan;
  }
  reg.counter("est.compile.count").add();
  reg.counter("est.compile.misses").add();
  reg.histogram("est.compile.seconds").observe(seconds);
  if (mp::Tracer* tracer = proc_->world().options().tracer) {
    mp::TraceEvent event;
    event.kind = mp::TraceEvent::Kind::kEstCompile;
    event.world_rank = proc_->rank();
    event.processor = proc_->processor();
    event.compile.ops = static_cast<long long>(plan->op_count());
    event.compile.seconds = seconds;
    event.start_time = proc_->clock();
    event.end_time = proc_->clock();
    tracer->record(event);
  }
  return plan;
}

double Runtime::estimate_mapping(const est::Plan* plan,
                                 const pmdl::ModelInstance& instance,
                                 std::span<const int> mapping,
                                 const hnoc::NetworkModel& network) const {
  return plan != nullptr
             ? plan->evaluate(mapping, network, config_.estimate)
             : est::estimate_time(instance, mapping, network, config_.estimate);
}

void Runtime::note_search(const map::SearchStats& stats) const {
  last_search_stats_ = stats;
  search_totals_.add_counters(stats);
  telemetry::MetricsRegistry& reg = telemetry::metrics();
  reg.counter("mapper_searches").add();
  reg.counter("estimator_evaluations").add(static_cast<double>(stats.evaluations));
  reg.counter("estimate_cache_hits").add(static_cast<double>(stats.cache_hits));
  reg.counter("estimate_cache_misses").add(static_cast<double>(stats.cache_misses));
  reg.gauge("cache_hit_rate").set(stats.hit_rate());
  reg.histogram("search_wall_seconds").observe(stats.wall_seconds);
  if (stats.compiled_evaluations > 0) {
    reg.counter("est.compile.evaluations")
        .add(static_cast<double>(stats.compiled_evaluations));
  }
  if (stats.delta_evaluations > 0) {
    reg.counter("est.delta.evaluations")
        .add(static_cast<double>(stats.delta_evaluations));
  }
  if (stats.delta_ops_total > 0) {
    reg.counter("est.delta.ops_replayed")
        .add(static_cast<double>(stats.delta_ops_replayed));
    reg.counter("est.delta.ops_total")
        .add(static_cast<double>(stats.delta_ops_total));
    reg.gauge("est.delta.savings")
        .set(1.0 - static_cast<double>(stats.delta_ops_replayed) /
                       static_cast<double>(stats.delta_ops_total));
  }
  // Namespaced twins of the legacy cache counters (docs/observability.md):
  // est.cache.* keeps the estimator's counters in one namespace alongside
  // est.compile.* / est.delta.* / est.batch.*.
  if (stats.cache_hits > 0 || stats.cache_misses > 0) {
    reg.counter("est.cache.hits").add(static_cast<double>(stats.cache_hits));
    reg.counter("est.cache.misses")
        .add(static_cast<double>(stats.cache_misses));
  }
  if (stats.batch_chunks > 0) {
    reg.counter("mapper.batch.chunks")
        .add(static_cast<double>(stats.batch_chunks));
    reg.counter("mapper.batch.candidates")
        .add(static_cast<double>(stats.batch_candidates));
    reg.counter("est.batch.evaluations")
        .add(static_cast<double>(stats.batch_evaluated));
  }
  if (mp::Tracer* tracer = proc_->world().options().tracer) {
    mp::TraceEvent event;
    event.kind = mp::TraceEvent::Kind::kMapperSearch;
    event.world_rank = proc_->rank();
    event.processor = proc_->processor();
    event.search.evaluations = stats.evaluations;
    event.search.hit_rate = stats.hit_rate();
    event.search.threads = stats.threads;
    event.search.wall_seconds = stats.wall_seconds;
    event.start_time = proc_->clock();
    event.end_time = proc_->clock();
    tracer->record(event);
    if (stats.batch_chunks > 0) {
      mp::TraceEvent batch;
      batch.kind = mp::TraceEvent::Kind::kMapperBatch;
      batch.world_rank = proc_->rank();
      batch.processor = proc_->processor();
      batch.batch.chunks = stats.batch_chunks;
      batch.batch.candidates = stats.batch_candidates;
      batch.batch.evaluated = stats.batch_evaluated;
      batch.start_time = proc_->clock();
      batch.end_time = proc_->clock();
      tracer->record(batch);
    }
  }
}

double Runtime::timeof(const pmdl::Model& model,
                       std::span<const pmdl::ParamValue> params) const {
  telemetry::VirtualClockScope vclock(sample_proc_clock, proc_);
  telemetry::Span span("timeof", proc_->rank());
  span.arg("model", model.name());
  telemetry::metrics().counter("timeof_calls").add();
  const pmdl::ModelInstance instance = model.instantiate(params);
  prefetch_plan(instance);
  std::vector<int> ranks;
  const auto candidates = candidates_with(proc_->rank(), &ranks);
  const auto parent_it = std::find(ranks.begin(), ranks.end(), proc_->rank());
  const int parent_candidate = static_cast<int>(parent_it - ranks.begin());

  hnoc::NetworkModel snapshot = [&] {
    std::lock_guard<std::mutex> lock(shared_->mutex);
    return *shared_->network;
  }();
  const map::MappingResult result =
      config_.mapper->select(instance, candidates, parent_candidate, snapshot,
                             config_.estimate, search_context());
  note_search(result.stats);
  return result.estimated_time;
}

std::vector<double> Runtime::timeof_batch(
    const pmdl::Model& model,
    std::span<const std::vector<pmdl::ParamValue>> param_sets) const {
  telemetry::VirtualClockScope vclock(sample_proc_clock, proc_);
  telemetry::Span span("timeof_batch", proc_->rank());
  span.arg("model", model.name());
  span.arg("sets", static_cast<double>(param_sets.size()));
  telemetry::metrics().counter("timeof_batch_calls").add();
  telemetry::metrics().counter("timeof_calls").add(
      static_cast<double>(param_sets.size()));

  // One snapshot of candidates and network for the whole batch: every set
  // is priced against the same world, exactly as N timeof() calls made at
  // this instant would be (and bit-identical to them). One aggregate stats
  // record covers the batch.
  std::vector<int> ranks;
  const auto candidates = candidates_with(proc_->rank(), &ranks);
  const auto parent_it = std::find(ranks.begin(), ranks.end(), proc_->rank());
  const int parent_candidate = static_cast<int>(parent_it - ranks.begin());
  hnoc::NetworkModel snapshot = [&] {
    std::lock_guard<std::mutex> lock(shared_->mutex);
    return *shared_->network;
  }();
  const map::SearchContext search = search_context();

  std::vector<double> times;
  times.reserve(param_sets.size());
  map::SearchStats batch_stats;
  batch_stats.threads = search.pool != nullptr
                            ? static_cast<int>(search.pool->size())
                            : 1;
  for (const std::vector<pmdl::ParamValue>& params : param_sets) {
    const pmdl::ModelInstance instance = model.instantiate(params);
    prefetch_plan(instance);
    const map::MappingResult result =
        config_.mapper->select(instance, candidates, parent_candidate,
                               snapshot, config_.estimate, search);
    batch_stats.add_counters(result.stats);
    batch_stats.wall_seconds += result.stats.wall_seconds;
    times.push_back(result.estimated_time);
  }
  note_search(batch_stats);
  return times;
}

Runtime::EstimatorStats Runtime::estimator_stats() const {
  EstimatorStats stats;
  stats.mode = config_.estimator;
  stats.plans_compiled = shared_->plan_cache.misses();
  stats.plan_cache_hits = shared_->plan_cache.hits();
  stats.compiled_evaluations = search_totals_.compiled_evaluations;
  stats.delta_evaluations = search_totals_.delta_evaluations;
  stats.delta_ops_replayed = search_totals_.delta_ops_replayed;
  stats.delta_ops_total = search_totals_.delta_ops_total;
  return stats;
}

std::optional<Group> Runtime::group_create(
    const pmdl::Model& model, std::span<const pmdl::ParamValue> params) {
  return group_create_impl(model, params, CreateRole::kAuto);
}

std::optional<Group> Runtime::group_create_impl(
    const pmdl::Model& model, std::span<const pmdl::ParamValue> params,
    CreateRole role, const std::vector<int>* forced_members,
    std::vector<int>* out_members, const MigrationGuard* guard,
    bool* out_rolled_back) {
  support::require(!finalized_, "group_create after finalize");
  const int me = proc_->rank();
  mp::World& world = proc_->world();

  telemetry::VirtualClockScope vclock(sample_proc_clock, proc_);
  telemetry::Span span("group_create", me);
  const auto wall_begin = std::chrono::steady_clock::now();

  // --- rendezvous: agree on the participant set ----------------------------
  // A caller first drains the creation queue from its consumption pointer:
  // if a pending creation lists it as a participant, it joins that creation
  // (this also covers a process that the parent already selected and marked
  // busy before it even entered group_create — its role is decided by the
  // queue, not by its current busy state). Only a non-free caller with no
  // pending creation addressed to it becomes the parent of a new creation.
  // Dead ranks are excluded from the announcement; doing so flags the
  // creation degraded, as does the presence of any suspect processor.
  std::vector<int> participants;
  int parent_world = -1;
  bool degraded = false;
  std::vector<int> excluded;
  double guard_old_pred = std::numeric_limits<double>::quiet_NaN();
  std::vector<int> guard_restore;
  {
    std::unique_lock<std::mutex> lock(shared_->mutex);
    for (;;) {
      const long long id = shared_->next_creation[static_cast<std::size_t>(me)];
      auto it = shared_->creations.find(id);
      if (it != shared_->creations.end()) {
        const Shared::Creation& c = it->second;
        if (std::find(c.participants.begin(), c.participants.end(), me) ==
            c.participants.end()) {
          // Announced while this process was busy; not ours to join.
          shared_->next_creation[static_cast<std::size_t>(me)] = id + 1;
          continue;
        }
        participants = c.participants;
        parent_world = c.parent_rank;
        degraded = c.degraded;
        excluded = c.excluded;
        guard_old_pred = c.guard_old_pred;
        guard_restore = c.guard_restore;
        shared_->next_creation[static_cast<std::size_t>(me)] = id + 1;
        break;
      }
      if (role == CreateRole::kParent ||
          (role == CreateRole::kAuto && (me == 0 || live_groups_ > 0))) {
        // Non-free caller with no pending creation addressed to it: it is
        // the parent; announce the creation. (Freeness here is the caller's
        // local view — see is_free().)
        support::require(!shared_->quiesced,
                         "group_create after adapt_quiesce (the rendezvous "
                         "is shut down)");
        parent_world = me;
        participants.push_back(me);
        for (int r = 0; r < world.nprocs(); ++r) {
          if (r == me) continue;
          if (!world.alive(r)) {
            // Dead ranks count as excluded whatever their (possibly stale)
            // busy state says: a crashed group member never releases its
            // membership, yet its loss is exactly what degrades this
            // creation.
            excluded.push_back(r);
          } else if (shared_->is_free_locked(r)) {
            participants.push_back(r);
          }
        }
        std::sort(participants.begin(), participants.end());
        for (int r : participants) {
          if (shared_->suspect_processors.count(world.processor_of(r)) > 0) {
            degraded = true;
          }
        }
        if (!excluded.empty()) degraded = true;
        Shared::Creation creation;
        creation.participants = participants;
        creation.parent_rank = me;
        creation.degraded = degraded;
        creation.excluded = excluded;
        if (guard != nullptr) {
          creation.guard_old_pred = guard->old_pred;
          creation.guard_restore = guard->restore;
          guard_old_pred = guard->old_pred;
          guard_restore = guard->restore;
        }
        shared_->creations[id] = std::move(creation);
        shared_->creation_seq = id + 1;
        shared_->next_creation[static_cast<std::size_t>(me)] = id + 1;
        shared_->cv.notify_all();
        break;
      }
      // Free process (or forced follower) with nothing announced yet: wait.
      if (role == CreateRole::kAuto && shared_->quiesced) {
        // adapt_quiesce shut the rendezvous down: the serve loop is over.
        // (Forced followers keep waiting — their respawn/migration parent
        // WILL announce.)
        return std::nullopt;
      }
      if (world.aborted()) {
        throw MpError("world aborted while waiting for a group creation");
      }
      if (world.any_failed()) {
        // Fail fast when nobody left alive can ever announce a creation.
        bool parent_possible = world.alive(0);
        for (const auto& [r, count] : shared_->busy_count) {
          if (count > 0 && world.alive(r)) parent_possible = true;
        }
        if (!parent_possible) {
          throw PeerFailedError(
              "every process that could parent a group creation has crashed",
              mp::kAnySource, std::numeric_limits<double>::infinity());
        }
      }
      if (!shared_->cv.wait(lock) &&
          shared_->creations.find(id) == shared_->creations.end()) {
        throw DeadlockError(
            "deadlock: free process " + std::to_string(me) +
            " waited for a group creation that was never announced (did the "
            "parent call HMPI_Group_create?)");
      }
    }
  }

  // --- coordination communicator over the participants ----------------------
  mp::Comm coord = mp::Comm::create_subcomm(*proc_, participants);
  const int parent_coord =
      static_cast<int>(std::find(participants.begin(), participants.end(),
                                 parent_world) -
                       participants.begin());

  // --- the parent solves the selection problem ------------------------------
  std::vector<int> members;  // world rank per abstract processor
  std::vector<long long> shape;
  double estimated = 0.0;
  double ideal = 0.0;  // degraded mode: prediction with everyone healthy
  long long group_id = -1;
  if (me == parent_world) {
    const pmdl::ModelInstance instance = model.instantiate(params);
    shape = instance.shape();
    const std::shared_ptr<const est::Plan> plan = prefetch_plan(instance);
    hnoc::NetworkModel snapshot = [&] {
      std::lock_guard<std::mutex> lock(shared_->mutex);
      return *shared_->network;
    }();

    // All mapper runs of this creation (preferred set, fallback, degraded
    // hypothetical) share the search machinery and aggregate into one stats
    // record — what this group_create actually cost.
    const map::SearchContext search = search_context();
    map::SearchStats search_stats;
    search_stats.threads = search.pool != nullptr ? search.pool->size() : 1;
    const auto run_mapper = [&](const std::vector<int>& candidate_ranks) {
      std::vector<map::Candidate> candidates;
      candidates.reserve(candidate_ranks.size());
      for (int r : candidate_ranks) {
        candidates.push_back({r, world.processor_of(r)});
      }
      const int pidx = static_cast<int>(
          std::find(candidate_ranks.begin(), candidate_ranks.end(),
                    parent_world) -
          candidate_ranks.begin());
      map::MappingResult mapped = config_.mapper->select(
          instance, candidates, pidx, snapshot, config_.estimate, search);
      search_stats.add_counters(mapped.stats);
      search_stats.wall_seconds += mapped.stats.wall_seconds;
      return mapped;
    };

    if (forced_members != nullptr) {
      // Pinned roster (adaptation rollback / force_roster test hook): skip
      // the mapper and price the given members as-is.
      members = *forced_members;
      support::require(static_cast<int>(members.size()) == instance.size(),
                       "forced roster size does not match the model");
      std::vector<int> mapping(members.size());
      for (std::size_t a = 0; a < members.size(); ++a) {
        support::require(std::find(participants.begin(), participants.end(),
                                   members[a]) != participants.end(),
                         "forced roster names a non-participant process");
        mapping[a] = world.processor_of(members[a]);
      }
      support::require(
          members[static_cast<std::size_t>(instance.parent_index())] ==
              parent_world,
          "forced roster must keep the parent on the model's parent slot");
      estimated = estimate_mapping(plan.get(), instance, mapping, snapshot);
      ideal = estimated;
    } else {
    // Suspect processors stay in the rendezvous (they are alive and must
    // join the collective) but are not drafted as members — and neither are
    // processors inside a post-migration draft cooldown — unless that
    // leaves the model infeasible, in which case they are re-admitted (a
    // slow group beats no group). The parent itself is always a candidate.
    std::vector<int> preferred;
    {
      std::lock_guard<std::mutex> lock(shared_->mutex);
      for (int r : participants) {
        if (r == parent_world ||
            (shared_->suspect_processors.count(world.processor_of(r)) == 0 &&
             !shared_->draft_blocked_locked(world.processor_of(r),
                                            proc_->clock()))) {
          preferred.push_back(r);
        }
      }
    }
    std::vector<int> chosen_from = preferred;
    map::MappingResult result;
    if (preferred.size() == participants.size()) {
      result = run_mapper(participants);
      chosen_from = participants;
    } else {
      try {
        result = run_mapper(preferred);
      } catch (const InvalidArgument&) {
        result = run_mapper(participants);
        chosen_from = participants;
      }
    }
    members.resize(static_cast<std::size_t>(instance.size()));
    for (int a = 0; a < instance.size(); ++a) {
      members[static_cast<std::size_t>(a)] =
          chosen_from[static_cast<std::size_t>(
              result.candidate_for_abstract[static_cast<std::size_t>(a)])];
    }
    estimated = result.estimated_time;
    if (degraded) {
      // What would this creation have looked like with the excluded dead
      // ranks healthy and the suspects trusted? Their last known speeds are
      // still in the snapshot, so the same mapper answers the hypothetical.
      std::vector<int> healthy = participants;
      healthy.insert(healthy.end(), excluded.begin(), excluded.end());
      std::sort(healthy.begin(), healthy.end());
      try {
        ideal = run_mapper(healthy).estimated_time;
      } catch (const Error&) {
        ideal = estimated;  // hypothetical infeasible: report no delta
      }
    }
    note_search(search_stats);
    }
    {
      std::lock_guard<std::mutex> lock(shared_->mutex);
      group_id = shared_->group_counter++;
      for (int r : members) {
        shared_->busy_count[r] += 1;
      }
    }
    telemetry::metrics().counter("groups_created").add();
    telemetry::metrics().histogram("group_create_seconds")
        .observe(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                               wall_begin)
                     .count());
    telemetry::predictions().record_predicted(model.name(),
                                              static_cast<int>(group_id),
                                              estimated);
    span.arg("model", model.name());
    span.arg("group_id", static_cast<double>(group_id));
    span.arg("estimated_s", estimated);
  }

  coord.bcast_vector(members, parent_coord);
  coord.bcast_vector(shape, parent_coord);
  coord.bcast_value(estimated, parent_coord);
  coord.bcast_value(group_id, parent_coord);
  // Only degraded creations pay for the extra round: every participant knows
  // the flag from the blackboard entry, so the healthy path stays
  // byte-identical to a run without the fault layer.
  if (degraded) coord.bcast_value(ideal, parent_coord);
  if (out_members != nullptr) *out_members = members;

  const bool selected =
      std::find(members.begin(), members.end(), me) != members.end();

  // --- guarded migration: every participant judges the move locally ---------
  // The guard rides in the creation record and the estimate was broadcast,
  // so kept members, released members, and freshly drafted free processes
  // all reach the same verdict with no extra communication — a drafted
  // process never needs to know it walked into an adaptation attempt.
  if (!std::isnan(guard_old_pred) && estimated >= guard_old_pred) {
    if (out_rolled_back != nullptr) *out_rolled_back = true;
    if (selected) {
      // Walk the move back: release the just-formed membership (it was
      // never returned to the application) and rejoin the restore creation.
      {
        std::lock_guard<std::mutex> lock(shared_->mutex);
        auto it = shared_->busy_count.find(me);
        support::require(it != shared_->busy_count.end() && it->second > 0,
                         "guarded-migration rollback without a membership");
        it->second -= 1;
        shared_->next_creation[static_cast<std::size_t>(me)] =
            shared_->creation_seq;
      }
      // Order every release before the parent announces the restoration —
      // the same fence group_migrate enforces with its members barrier.
      mp::Comm members_comm = mp::Comm::create_subcomm(*proc_, members);
      members_comm.barrier();
    }
    const CreateRole restore_role =
        me == parent_world ? CreateRole::kParent : CreateRole::kFollower;
    return group_create_impl(model, params, restore_role,
                             me == parent_world ? &guard_restore : nullptr,
                             out_members);
  }

  // --- selected members form the group (ordered by abstract processor) ------
  if (!selected) return std::nullopt;

  live_groups_ += 1;
  Group group;
  group.comm_ = mp::Comm::create_subcomm(*proc_, members);
  group.parent_rank_ =
      static_cast<int>(std::find(members.begin(), members.end(), parent_world) -
                       members.begin());
  group.estimated_time_ = estimated;
  group.id_ = group_id;
  group.shape_ = std::move(shape);
  group.degraded_ = degraded;
  group.degraded_delta_ = degraded ? std::max(0.0, estimated - ideal) : 0.0;
  {
    // Baseline for the adaptation loop's drift signal: the speed estimates
    // the selection was made from. Speeds change only inside the collective
    // recon, so every member snapshots the same vector here.
    std::lock_guard<std::mutex> lock(shared_->mutex);
    group.speed_snapshot_ = shared_->network->speeds();
  }
  return group;
}

std::optional<Group> Runtime::group_auto_create(
    const pmdl::Model& model,
    const std::function<std::vector<pmdl::ParamValue>(int p)>& params_for,
    int max_p) {
  support::require(max_p >= 1, "group_auto_create needs max_p >= 1");
  if (is_free()) {
    // Free processes only follow the parent's decision.
    return group_create(model, std::span<const pmdl::ParamValue>());
  }
  support::require(static_cast<bool>(params_for),
                   "group_auto_create requires a parameter builder");

  // Parent: search the p that minimises the prediction. Only live free
  // processes (plus the parent) can become members.
  const int available = static_cast<int>(free_ranks().size()) + 1;
  double best_time = 0.0;
  int best_p = -1;
  std::vector<pmdl::ParamValue> best_params;
  for (int p = 1; p <= std::min(max_p, available); ++p) {
    std::vector<pmdl::ParamValue> params = params_for(p);
    double t;
    try {
      t = timeof(model, params);
    } catch (const Error&) {
      continue;  // this p is infeasible for the model
    }
    if (best_p < 0 || t < best_time) {
      best_time = t;
      best_p = p;
      best_params = std::move(params);
    }
  }
  support::require(best_p > 0, "no feasible group size found");
  return group_create(model, best_params);
}

void Runtime::group_free(Group& group) {
  support::require(group.valid(), "group_free on an invalid group");
  support::require(live_groups_ > 0, "group_free by a process with no group membership");
  // Collective: synchronise members before releasing them to the free pool.
  group.comm_.barrier();
  live_groups_ -= 1;
  {
    std::lock_guard<std::mutex> lock(shared_->mutex);
    const int me = proc_->rank();
    auto it = shared_->busy_count.find(me);
    support::require(it != shared_->busy_count.end() && it->second > 0,
                     "group_free by a process with no group membership");
    it->second -= 1;
    // Rejoin the creation queue at the current head.
    shared_->next_creation[static_cast<std::size_t>(me)] = shared_->creation_seq;
  }
  group = Group();
}

std::vector<double> Runtime::processor_speeds() const {
  std::lock_guard<std::mutex> lock(shared_->mutex);
  return shared_->network->speeds();
}

std::vector<Runtime::ProcessorInfo> Runtime::processors_info() const {
  const hnoc::Cluster& cluster = proc_->cluster();
  std::vector<ProcessorInfo> info(static_cast<std::size_t>(cluster.size()));
  {
    std::lock_guard<std::mutex> lock(shared_->mutex);
    for (int p = 0; p < cluster.size(); ++p) {
      info[static_cast<std::size_t>(p)].name = cluster.processor(p).name;
      info[static_cast<std::size_t>(p)].speed_estimate = shared_->network->speed(p);
    }
  }
  for (int r = 0; r < proc_->nprocs(); ++r) {
    info[static_cast<std::size_t>(proc_->world().processor_of(r))]
        .world_ranks.push_back(r);
  }
  return info;
}

std::vector<double> Runtime::group_performances(const Group& group) const {
  support::require(group.valid(), "group_performances on an invalid group");
  std::lock_guard<std::mutex> lock(shared_->mutex);
  std::vector<double> speeds;
  speeds.reserve(group.members().size());
  for (int member : group.members()) {
    speeds.push_back(
        shared_->network->speed(proc_->world().processor_of(member)));
  }
  return speeds;
}

std::vector<int> Runtime::free_ranks() const {
  std::lock_guard<std::mutex> lock(shared_->mutex);
  std::vector<int> out;
  for (int r = 0; r < proc_->nprocs(); ++r) {
    if (shared_->is_free_locked(r) && proc_->world().alive(r)) out.push_back(r);
  }
  return out;
}

sched::Scheduler& Runtime::scheduler() {
  {
    std::lock_guard<std::mutex> lock(shared_->mutex);
    if (shared_->scheduler) return *shared_->scheduler;
  }
  // Build outside the lock (the ctor prices nothing, but it allocates and
  // reads env vars), then install first-wins — the config is required to be
  // identical on every process, so any process's build is the right one.
  sched::SchedConfig config = sched::sched_config_with_env(config_.sched);
  // A nested World::run cannot start from inside a simulated process, so the
  // runtime's scheduler always services jobs for their predicted makespan.
  config.execute = false;
  config.tracer = proc_->world().options().tracer;
  auto built = std::make_unique<sched::Scheduler>(proc_->cluster(), config);
  std::vector<double> speeds;
  sched::Scheduler* scheduler = nullptr;
  {
    std::lock_guard<std::mutex> lock(shared_->mutex);
    if (!shared_->scheduler) shared_->scheduler = std::move(built);
    scheduler = shared_->scheduler.get();
    speeds = shared_->network->speeds();
  }
  // Seed base speeds from the current (possibly recon-refreshed) estimates;
  // lock released first per Shared::scheduler's ordering note.
  scheduler->refresh_speeds(speeds);
  return *scheduler;
}

Health Runtime::rank_health(int world_rank) const {
  if (!proc_->world().alive(world_rank)) return Health::kDead;
  std::lock_guard<std::mutex> lock(shared_->mutex);
  const int processor = proc_->world().processor_of(world_rank);
  return shared_->suspect_processors.count(processor) > 0 ? Health::kSuspect
                                                          : Health::kAlive;
}

bool Runtime::processor_suspect(int processor) const {
  support::require(processor >= 0 && processor < proc_->cluster().size(),
                   "processor index out of range");
  std::lock_guard<std::mutex> lock(shared_->mutex);
  return shared_->suspect_processors.count(processor) > 0;
}

std::vector<int> Runtime::suspect_processors() const {
  std::lock_guard<std::mutex> lock(shared_->mutex);
  return {shared_->suspect_processors.begin(),
          shared_->suspect_processors.end()};
}

void Runtime::group_fail(Group& group) {
  support::require(group.valid(), "group_fail on an invalid group");
  support::require(live_groups_ > 0,
                   "group_fail by a process with no group membership");
  mp::World& world = proc_->world();
  // Propagate: members of this group still blocked on alive peers unwind
  // with RevokedError instead of staying blocked until a stall diagnosis.
  world.revoke_context(group.comm().context());
  live_groups_ -= 1;
  {
    std::lock_guard<std::mutex> lock(shared_->mutex);
    const int me = proc_->rank();
    auto it = shared_->busy_count.find(me);
    support::require(it != shared_->busy_count.end() && it->second > 0,
                     "group_fail by a process with no group membership");
    it->second -= 1;
    // Rejoin the creation queue at the current head.
    shared_->next_creation[static_cast<std::size_t>(proc_->rank())] =
        shared_->creation_seq;
  }
  group = Group();
}

std::optional<Group> Runtime::group_respawn(
    Group& group, const pmdl::Model& model,
    std::span<const pmdl::ParamValue> params) {
  support::require(group.valid(), "group_respawn on an invalid group");
  mp::World& world = proc_->world();

  telemetry::VirtualClockScope vclock(sample_proc_clock, proc_);
  telemetry::Span span("group_respawn", proc_->rank());
  telemetry::metrics().counter("group_respawns").add();

  // Survivors (in group-rank order) and the elected parent: the original
  // parent if it lives, else the surviving member with the lowest group
  // rank. Every survivor computes this identically from the old member list
  // and the liveness map; liveness cannot regress, and survivors that
  // observe a death *later* still agree because the member they see dead
  // here is dead for everyone by the time any respawn communication happens.
  std::vector<int> survivors;
  for (int member : group.members()) {
    if (world.alive(member)) survivors.push_back(member);
  }
  support::require(static_cast<int>(survivors.size()) < group.size(),
                   "group_respawn needs at least one dead member (use "
                   "group_free on a healthy group)");
  support::require(!survivors.empty(), "group_respawn with no survivors");
  const int old_parent = group.members()[static_cast<std::size_t>(
      group.parent_rank())];
  const int new_parent = world.alive(old_parent) ? old_parent : survivors.front();

  // Release this process's membership (revoking first so survivors blocked
  // inside the dead group unwind and reach their own group_respawn call).
  group_fail(group);

  // All survivors must have released membership before the parent announces
  // the replacement creation, or the announcement would miss the laggards
  // (they would look busy). A barrier over the survivor subgroup enforces
  // exactly that ordering.
  mp::Comm survivors_comm = mp::Comm::create_subcomm(*proc_, survivors);
  survivors_comm.barrier();

  const CreateRole role = proc_->rank() == new_parent ? CreateRole::kParent
                                                      : CreateRole::kFollower;
  return group_create_impl(model, params, role);
}

std::optional<Group> Runtime::group_migrate(
    Group& group, const pmdl::Model& model,
    std::span<const pmdl::ParamValue> params, const HandoffHook& on_handoff) {
  return group_migrate_impl(group, model, params, nullptr, on_handoff);
}

std::optional<Group> Runtime::group_migrate_impl(
    Group& group, const pmdl::Model& model,
    std::span<const pmdl::ParamValue> params,
    const std::vector<int>* forced_members, const HandoffHook& on_handoff,
    const MigrationGuard* guard, bool* out_rolled_back) {
  support::require(group.valid(), "group_migrate on an invalid group");
  support::require(live_groups_ > 0,
                   "group_migrate by a process with no group membership");
  mp::World& world = proc_->world();
  const std::vector<int> members = group.members();
  for (int member : members) {
    support::require(world.alive(member),
                     "group_migrate with a dead member (use group_respawn)");
  }
  const int parent_world =
      members[static_cast<std::size_t>(group.parent_rank())];
  const int old_rank = group.rank();

  telemetry::VirtualClockScope vclock(sample_proc_clock, proc_);
  telemetry::Span span("group_migrate", proc_->rank());
  telemetry::metrics().counter("group_migrations").add();

  // Voluntary respawn: release this membership, then synchronise over the
  // old roster so every member has released before the parent announces the
  // replacement creation (a laggard would look busy and be left out of the
  // rendezvous — the same ordering group_respawn's survivor barrier
  // enforces).
  live_groups_ -= 1;
  {
    std::lock_guard<std::mutex> lock(shared_->mutex);
    const int me = proc_->rank();
    auto it = shared_->busy_count.find(me);
    support::require(it != shared_->busy_count.end() && it->second > 0,
                     "group_migrate by a process with no group membership");
    it->second -= 1;
    // A non-parent member holding further memberships (it parents a nested
    // group) would not be free after the release, so the replacement
    // rendezvous could not list it — refuse rather than deadlock. The
    // parent is exempt: it announces the creation instead of being drafted.
    support::require(it->second == 0 || me == parent_world,
                     "group_migrate with nested group memberships is not "
                     "supported");
    shared_->next_creation[static_cast<std::size_t>(me)] =
        shared_->creation_seq;
  }
  group = Group();
  mp::Comm members_comm = mp::Comm::create_subcomm(*proc_, members);
  members_comm.barrier();

  const CreateRole role = proc_->rank() == parent_world ? CreateRole::kParent
                                                        : CreateRole::kFollower;
  std::vector<int> new_members;
  std::optional<Group> moved = group_create_impl(
      model, params, role, forced_members, &new_members, guard,
      out_rolled_back);
  // State handoff: every old member learns the destination roster, whether
  // or not it was re-selected, so it can ship its partition before the
  // computation resumes. After a guarded rollback `new_members` holds the
  // restored roster — the roster state actually ends up on.
  if (on_handoff) on_handoff(old_rank, new_members);
  return moved;
}

adapt::AdaptDecision Runtime::adapt_observe(const Group& group,
                                            double measured_s) {
  support::require(group.valid(), "adapt_observe on an invalid group");
  support::require(measured_s >= 0.0,
                   "adapt_observe needs a non-negative measurement");
  if (!adapt_) return {};  // disabled: zero communication, zero state
  const int parent_world =
      group.members()[static_cast<std::size_t>(group.parent_rank())];
  adapt::AdaptDecision decision;
  if (proc_->rank() == parent_world) {
    decision = adapt_->note_progress(group.id(), group.estimated_time(),
                                     measured_s);
    telemetry::MetricsRegistry& reg = telemetry::metrics();
    reg.counter("adapt.checks").add();
    reg.gauge("adapt.divergence").set(decision.severity);
    if (decision.closed_migration) {
      reg.histogram("adapt.realized_gain_seconds")
          .observe(decision.realized_gain_s);
    }
    // Blame-informed trigger (default off, docs/observability.md): when the
    // critical path concentrates on one machine or one link, feed that as a
    // distinct signal so the ledger records *why* — slow machine vs slow
    // link — not just "diverged".
    if (!decision.migrate && adapt_->config().blame) {
      const telemetry::CriticalPathReport report = critical_path_report();
      if (report.path_s > 0.0) {
        double machine_best = 0.0;
        for (const auto& [p, s] : report.machine_s) {
          machine_best = std::max(machine_best, s);
        }
        double link_best = 0.0;
        for (const auto& [l, s] : report.link_s) {
          link_best = std::max(link_best, s);
        }
        const bool machine = machine_best >= link_best;
        const double share =
            (machine ? machine_best : link_best) / report.path_s;
        reg.gauge("adapt.blame_share").set(share);
        const adapt::AdaptDecision blame = adapt_->note_blame(
            group.id(),
            machine ? adapt::AdaptSignal::kBlameMachine
                    : adapt::AdaptSignal::kBlameLink,
            share);
        if (blame.signal != adapt::AdaptSignal::kNone &&
            decision.signal == adapt::AdaptSignal::kNone) {
          decision.signal = blame.signal;
          decision.severity = blame.severity;
        }
        if (blame.migrate) decision.migrate = true;
      }
    }
    if (decision.migrate) {
      reg.counter("adapt.triggers").add();
      note_adapt_event(static_cast<int>(mp::TraceEvent::Kind::kAdaptTrigger),
                       group.id(), decision.signal, decision.severity, 0.0);
    }
  }
  // The parent decides; members follow. Broadcasting the verdict (rather
  // than replicating controller state everywhere) keeps re-drafted members
  // — whose controllers missed rounds while they were free — in lockstep.
  group.comm().bcast_value(decision, group.parent_rank());
  return decision;
}

adapt::AdaptDecision Runtime::adapt_recon(
    const Group& group, const std::function<void(mp::Proc&)>& bench,
    const RetryPolicy& policy) {
  support::require(group.valid(), "adapt_recon on an invalid group");
  recon_on(group.comm(), bench, policy);
  if (!adapt_) return {};
  const int parent_world =
      group.members()[static_cast<std::size_t>(group.parent_rank())];
  adapt::AdaptDecision decision;
  if (proc_->rank() == parent_world) {
    // Largest relative speed change across the members' machines since the
    // group was selected (hnoc::NetworkModel::relative_drift).
    const std::vector<double>& baseline = group.speed_snapshot();
    double drift = 0.0;
    {
      std::lock_guard<std::mutex> lock(shared_->mutex);
      for (int member : group.members()) {
        const int p = proc_->world().processor_of(member);
        const double base =
            static_cast<std::size_t>(p) < baseline.size()
                ? baseline[static_cast<std::size_t>(p)]
                : 0.0;
        drift = std::max(drift, shared_->network->relative_drift(p, base));
      }
    }
    decision = adapt_->note_drift(group.id(), drift);
    telemetry::MetricsRegistry& reg = telemetry::metrics();
    reg.counter("adapt.checks").add();
    reg.gauge("adapt.drift").set(drift);
    if (decision.migrate) {
      reg.counter("adapt.triggers").add();
      note_adapt_event(static_cast<int>(mp::TraceEvent::Kind::kAdaptTrigger),
                       group.id(), decision.signal, decision.severity, 0.0);
    }
  }
  group.comm().bcast_value(decision, group.parent_rank());
  return decision;
}

Runtime::AdaptOutcome Runtime::adapt_migrate(
    Group& group, const pmdl::Model& model,
    std::span<const pmdl::ParamValue> params,
    const AdaptMigrateOptions& options) {
  support::require(group.valid(), "adapt_migrate on an invalid group");
  support::require(adapt_ != nullptr,
                   "adapt_migrate requires the adaptation policy "
                   "(RuntimeConfig::adapt.enabled or HMPI_ADAPT=on)");
  support::require(options.state_bytes >= 0, "state_bytes must be >= 0");
  mp::World& world = proc_->world();
  const std::vector<int> old_members = group.members();
  const long long old_group_id = group.id();
  const int parent_world =
      old_members[static_cast<std::size_t>(group.parent_rank())];
  const bool is_parent = proc_->rank() == parent_world;

  telemetry::VirtualClockScope vclock(sample_proc_clock, proc_);
  telemetry::Span span("adapt_migrate", proc_->rank());

  // --- the parent prices the move -----------------------------------------
  struct Verdict {
    std::int32_t migrate = 0;
    double old_pred = 0.0;  ///< Old roster re-priced at today's speeds.
    double new_pred = 0.0;  ///< Best roster the re-selection found.
    double cost_s = 0.0;    ///< Respawn overhead + state transfer.
  };
  Verdict verdict;
  std::vector<int> proposed;  // world rank per abstract processor (parent)
  if (is_parent) {
    const pmdl::ModelInstance instance = model.instantiate(params);
    const std::shared_ptr<const est::Plan> plan = prefetch_plan(instance);
    hnoc::NetworkModel snapshot = [&] {
      std::lock_guard<std::mutex> lock(shared_->mutex);
      return *shared_->network;
    }();
    // The creation-time estimate is stale by hypothesis (that staleness is
    // the trigger); the gate compares the old roster re-priced against
    // TODAY's speeds with the best roster a fresh selection can find.
    std::vector<int> old_mapping(old_members.size());
    for (std::size_t a = 0; a < old_members.size(); ++a) {
      old_mapping[a] = world.processor_of(old_members[a]);
    }
    verdict.old_pred =
        estimate_mapping(plan.get(), instance, old_mapping, snapshot);
    if (options.force_roster != nullptr) {
      // Test hook: pin the target and skip the gate — the rollback guard
      // downstream still judges the result.
      proposed = *options.force_roster;
      support::require(static_cast<int>(proposed.size()) == instance.size(),
                       "force_roster size does not match the model");
      std::vector<int> mapping(proposed.size());
      for (std::size_t a = 0; a < proposed.size(); ++a) {
        mapping[a] = world.processor_of(proposed[a]);
      }
      verdict.new_pred =
          estimate_mapping(plan.get(), instance, mapping, snapshot);
      verdict.migrate = 1;
    } else {
      // Candidates: the current members plus every live, unsuspected,
      // non-cooled free process.
      std::vector<int> ranks = old_members;
      {
        std::lock_guard<std::mutex> lock(shared_->mutex);
        for (int r = 0; r < proc_->nprocs(); ++r) {
          if (std::find(old_members.begin(), old_members.end(), r) !=
              old_members.end()) {
            continue;
          }
          if (shared_->is_free_locked(r) && world.alive(r) &&
              shared_->suspect_processors.count(world.processor_of(r)) == 0 &&
              !shared_->draft_blocked_locked(world.processor_of(r),
                                             proc_->clock())) {
            ranks.push_back(r);
          }
        }
      }
      // A suspect member is an evacuation target, not a candidate: drop it
      // as long as the roster stays feasible (the parent always stays — it
      // anchors the selection and announced the rendezvous).
      {
        std::lock_guard<std::mutex> lock(shared_->mutex);
        std::vector<int> trusted;
        for (int r : ranks) {
          if (r == parent_world ||
              shared_->suspect_processors.count(world.processor_of(r)) == 0) {
            trusted.push_back(r);
          }
        }
        if (static_cast<int>(trusted.size()) >= instance.size()) {
          ranks = std::move(trusted);
        }
      }
      std::sort(ranks.begin(), ranks.end());
      std::vector<map::Candidate> candidates;
      candidates.reserve(ranks.size());
      for (int r : ranks) candidates.push_back({r, world.processor_of(r)});
      const int pidx = static_cast<int>(
          std::find(ranks.begin(), ranks.end(), parent_world) - ranks.begin());
      const map::MappingResult result =
          config_.mapper->select(instance, candidates, pidx, snapshot,
                                 config_.estimate, search_context());
      note_search(result.stats);
      proposed.resize(static_cast<std::size_t>(instance.size()));
      for (int a = 0; a < instance.size(); ++a) {
        proposed[static_cast<std::size_t>(a)] = ranks[static_cast<std::size_t>(
            result.candidate_for_abstract[static_cast<std::size_t>(a)])];
      }
      verdict.new_pred = result.estimated_time;
      verdict.cost_s =
          config_.adapt.migration_cost_s +
          proc_->cluster().default_link().transfer_time(
              static_cast<double>(options.state_bytes));
      verdict.migrate =
          proposed != old_members &&
          verdict.old_pred - verdict.new_pred >
              verdict.cost_s + config_.adapt.min_gain_s;
    }
  }
  group.comm().bcast_value(verdict, group.parent_rank());

  AdaptOutcome outcome;
  outcome.predicted_gain_s = verdict.old_pred - verdict.new_pred;
  if (verdict.migrate == 0) {
    // Gate closed: keep the group; the controller logs the suppression and
    // re-seeds its streaks so the gate is not hammered every round.
    if (is_parent) {
      adapt::AdaptRecord record;
      record.group_id = old_group_id;
      record.signal = options.trigger.signal;
      record.severity = options.trigger.severity;
      record.predicted_old_s = verdict.old_pred;
      record.predicted_new_s = verdict.new_pred;
      record.cost_s = verdict.cost_s;
      record.old_members = old_members;
      adapt_->note_suppressed(std::move(record));
      telemetry::metrics().counter("adapt.suppressed").add();
    }
    outcome.member = true;
    return outcome;
  }

  // --- commit: evacuate offenders' machines, then migrate ------------------
  if (is_parent && config_.adapt.cooldown_s > 0.0) {
    // Ping-pong guard: machines this migration walks away from because they
    // are suspect or measurably slower than at selection time must not be
    // re-drafted into the replacement roster (or the next respawn) until
    // the cooldown lapses — even if a recon clears their suspect mark first.
    const std::vector<double>& baseline = group.speed_snapshot();
    std::lock_guard<std::mutex> lock(shared_->mutex);
    for (int member : old_members) {
      if (std::find(proposed.begin(), proposed.end(), member) !=
          proposed.end()) {
        continue;
      }
      const int p = world.processor_of(member);
      const double base = static_cast<std::size_t>(p) < baseline.size()
                              ? baseline[static_cast<std::size_t>(p)]
                              : 0.0;
      const bool offender =
          shared_->suspect_processors.count(p) > 0 ||
          (base > 0.0 && shared_->network->speed(p) <
                             base * (1.0 - config_.adapt.threshold));
      if (offender) {
        double& until = shared_->draft_cooldown[p];
        until = std::max(until, proc_->clock() + config_.adapt.cooldown_s);
      }
    }
  }

  // The rollback guard travels with the creation itself (MigrationGuard):
  // every participant of the guarded creation — kept members, released
  // members, and drafted free processes — re-judges the move against the
  // broadcast estimate and walks it back symmetrically when it priced no
  // better than the roster it left.
  MigrationGuard guard;
  const MigrationGuard* guard_ptr = nullptr;
  if (is_parent) {
    guard.old_pred = verdict.old_pred;
    guard.restore = old_members;
    guard_ptr = &guard;
  }
  bool rolled_back = false;
  std::optional<Group> moved =
      group_migrate_impl(group, model, params, is_parent ? &proposed : nullptr,
                         options.on_handoff, guard_ptr, &rolled_back);

  if (rolled_back) {
    // The move priced no better than the roster it left: the guard restored
    // the old roster and the controller arms its exponential backoff
    // instead of thrashing.
    if (is_parent) {
      adapt::AdaptRecord record;
      record.group_id = old_group_id;
      record.signal = options.trigger.signal;
      record.severity = options.trigger.severity;
      record.predicted_old_s = verdict.old_pred;
      record.predicted_new_s = verdict.new_pred;
      record.cost_s = verdict.cost_s;
      record.old_members = old_members;
      record.new_members = moved ? moved->members() : std::vector<int>();
      adapt_->note_rollback(std::move(record));
      telemetry::metrics().counter("adapt.rollbacks").add();
      note_adapt_event(static_cast<int>(mp::TraceEvent::Kind::kAdaptRollback),
                       old_group_id, options.trigger.signal,
                       options.trigger.severity,
                       verdict.old_pred - verdict.new_pred);
    }
    outcome.rolled_back = true;
    outcome.member = moved.has_value();
    if (moved.has_value()) group = std::move(*moved);
    return outcome;
  }

  outcome.migrated = true;
  if (!moved.has_value()) {
    // Released by the re-selection; this process serves group_create again.
    // The parent owns the ledger.
    outcome.member = false;
    return outcome;
  }
  if (is_parent) {
    adapt::AdaptRecord record;
    record.group_id = old_group_id;
    record.new_group_id = moved->id();
    record.signal = options.trigger.signal;
    record.severity = options.trigger.severity;
    record.predicted_old_s = verdict.old_pred;
    record.predicted_new_s = moved->estimated_time();
    record.cost_s = verdict.cost_s;
    record.old_members = old_members;
    record.new_members = moved->members();
    adapt_->note_migration(std::move(record));
    telemetry::MetricsRegistry& reg = telemetry::metrics();
    reg.counter("adapt.migrations").add();
    reg.histogram("adapt.predicted_gain_seconds")
        .observe(verdict.old_pred - moved->estimated_time());
    note_adapt_event(static_cast<int>(mp::TraceEvent::Kind::kAdaptMigrate),
                     moved->id(), options.trigger.signal,
                     options.trigger.severity,
                     verdict.old_pred - moved->estimated_time());
  }
  group = std::move(*moved);
  outcome.member = true;
  return outcome;
}

void Runtime::adapt_quiesce() {
  {
    std::lock_guard<std::mutex> lock(shared_->mutex);
    shared_->quiesced = true;
  }
  shared_->cv.notify_all();
}

bool Runtime::adapt_quiesced() const {
  std::lock_guard<std::mutex> lock(shared_->mutex);
  return shared_->quiesced;
}

const std::vector<adapt::AdaptRecord>& Runtime::adapt_ledger() const {
  static const std::vector<adapt::AdaptRecord> kEmpty;
  return adapt_ ? adapt_->ledger() : kEmpty;
}

void Runtime::adapt_write_ledger_json(std::ostream& os) const {
  if (adapt_) {
    adapt_->write_json(os);
  } else {
    os << "{\n  \"adaptations\": []\n}\n";
  }
}

void Runtime::note_adapt_event(int trace_kind, long long group_id,
                               adapt::AdaptSignal signal, double severity,
                               double predicted_gain_s) const {
  mp::Tracer* tracer = proc_->world().options().tracer;
  if (tracer == nullptr) return;
  mp::TraceEvent event;
  event.kind = static_cast<mp::TraceEvent::Kind>(trace_kind);
  event.world_rank = proc_->rank();
  event.processor = proc_->processor();
  event.adapt.group_id = group_id;
  event.adapt.signal = static_cast<int>(signal);
  event.adapt.severity = severity;
  event.adapt.predicted_gain_s = predicted_gain_s;
  event.start_time = proc_->clock();
  event.end_time = proc_->clock();
  tracer->record(event);
}

void Runtime::group_observed(const Group& group, double measured_s,
                             int runs) const {
  support::require(group.valid(), "group_observed on an invalid group");
  support::require(runs >= 1, "group_observed needs runs >= 1");
  telemetry::predictions().record_measured(static_cast<int>(group.id()),
                                           measured_s, runs);
}

void Runtime::trace_export_json(std::ostream& os) const {
  std::vector<telemetry::ChromeEvent> events =
      telemetry::spans_to_chrome(telemetry::spans().records());
  if (const mp::Tracer* tracer = proc_->world().options().tracer) {
    std::vector<telemetry::ChromeEvent> virt =
        mp::to_chrome_events(tracer->events());
    events.insert(events.end(), std::make_move_iterator(virt.begin()),
                  std::make_move_iterator(virt.end()));
  }
  std::vector<telemetry::ChromeEvent> flows =
      telemetry::causal_flow_events(proc_->world().causal_log());
  events.insert(events.end(), std::make_move_iterator(flows.begin()),
                std::make_move_iterator(flows.end()));
  telemetry::write_chrome_trace(os, std::move(events));
}

telemetry::CriticalPathReport Runtime::critical_path_report() const {
  return telemetry::analyze_critical_path(proc_->world().causal_log());
}

void Runtime::critical_path_json(std::ostream& os) const {
  telemetry::write_critpath_json(os, critical_path_report(), coll_namer());
}

std::vector<Runtime::BlameEntry> Runtime::blame_top(int k) const {
  support::require(k >= 1, "blame_top needs k >= 1");
  const telemetry::CriticalPathReport report = critical_path_report();
  std::vector<BlameEntry> entries;
  entries.reserve(report.machine_s.size() + report.link_s.size());
  for (const auto& [proc, seconds] : report.machine_s) {
    BlameEntry e;
    e.kind = BlameEntry::Kind::kMachine;
    e.proc = proc;
    e.seconds = seconds;
    entries.push_back(e);
  }
  for (const auto& [link, seconds] : report.link_s) {
    BlameEntry e;
    e.kind = BlameEntry::Kind::kLink;
    e.proc = link.first;
    e.peer_proc = link.second;
    e.seconds = seconds;
    entries.push_back(e);
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const BlameEntry& a, const BlameEntry& b) {
                     return a.seconds > b.seconds;
                   });
  if (entries.size() > static_cast<std::size_t>(k)) {
    entries.resize(static_cast<std::size_t>(k));
  }
  for (BlameEntry& e : entries) {
    e.share = report.path_s > 0.0 ? e.seconds / report.path_s : 0.0;
  }
  return entries;
}

}  // namespace hmpi
