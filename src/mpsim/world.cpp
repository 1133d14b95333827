#include "mpsim/world.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "mpsim/trace.hpp"
#include "telemetry/metrics.hpp"

namespace hmpi::mp {

int Proc::nprocs() const noexcept { return world_->nprocs(); }

void Proc::note_compute_seconds(double seconds) {
  if (compute_seconds_counter_ == nullptr) {
    compute_seconds_counter_ = &telemetry::metrics().counter(
        "machine." + std::to_string(processor_) + ".compute_seconds");
  }
  compute_seconds_counter_->add(seconds);
}

void Proc::note_message_sent(std::size_t bytes) {
  if (messages_sent_counter_ == nullptr) {
    const std::string prefix = "machine." + std::to_string(processor_) + ".";
    messages_sent_counter_ =
        &telemetry::metrics().counter(prefix + "messages_sent");
    sent_bytes_counter_ = &telemetry::metrics().counter(prefix + "sent_bytes");
  }
  messages_sent_counter_->add(1.0);
  sent_bytes_counter_->add(static_cast<double>(bytes));
}

const hnoc::Cluster& Proc::cluster() const noexcept { return world_->cluster(); }

telemetry::CausalEvent Proc::causal_event() const {
  telemetry::CausalEvent e;
  e.rank = rank_;
  e.proc = processor_;
  if (!coll_notes_.empty()) {
    e.coll_op = coll_notes_.back().first;
    e.coll_algo = coll_notes_.back().second;
  }
  return e;
}

void Proc::check_crash() {
  if (crash_time_ <= clock_) die(std::max(clock_, crash_time_));
}

void Proc::die(double t) {
  clock_ = std::max(clock_, t);
  world_->mark_dead(rank_, clock_);
  throw ProcessKilledError("process " + std::to_string(rank_) +
                           " killed by injected fault at virtual t=" +
                           std::to_string(clock_) + "s");
}

void Proc::compute(double units) {
  support::require(units >= 0.0, "compute volume must be non-negative");
  check_crash();
  const double finish = world_->cluster().compute_finish(processor_, clock_, units);
  if (crash_time_ <= finish) die(crash_time_);  // dies mid-computation
  stats_.compute_units += units;
  stats_.compute_time += finish - clock_;
  note_compute_seconds(finish - clock_);
  if (Tracer* tracer = world_->options().tracer) {
    TraceEvent event;
    event.kind = TraceEvent::Kind::kCompute;
    event.world_rank = rank_;
    event.processor = processor_;
    event.units = units;
    event.start_time = clock_;
    event.end_time = finish;
    tracer->record(event);
  }
  if (world_->causal_log().enabled()) {
    telemetry::CausalEvent e = causal_event();
    e.kind = telemetry::CausalEvent::Kind::kCompute;
    e.t0 = clock_;
    e.t1 = finish;
    world_->causal_log().record(rank_, e);
  }
  clock_ = finish;
}

void Proc::elapse(double seconds) {
  support::require(seconds >= 0.0, "elapse duration must be non-negative");
  check_crash();
  if (crash_time_ <= clock_ + seconds) die(crash_time_);
  if (world_->causal_log().enabled() && seconds > 0.0) {
    telemetry::CausalEvent e = causal_event();
    e.kind = telemetry::CausalEvent::Kind::kElapse;
    e.t0 = clock_;
    e.t1 = clock_ + seconds;
    world_->causal_log().record(rank_, e);
  }
  clock_ += seconds;
}

World::World(const hnoc::Cluster& cluster, std::vector<int> placement,
             Options options)
    : cluster_(&cluster), placement_(std::move(placement)), options_(std::move(options)) {
  support::require(!placement_.empty(), "World needs at least one process");
  for (int p : placement_) {
    support::require(p >= 0 && p < cluster.size(),
                     "placement references processor outside the cluster");
  }
  mailboxes_.reserve(placement_.size());
  for (std::size_t i = 0; i < placement_.size(); ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
  auto members = std::make_shared<std::vector<int>>(placement_.size());
  std::iota(members->begin(), members->end(), 0);
  world_members_ = std::move(members);

  alive_ = std::make_unique<std::atomic<bool>[]>(placement_.size());
  for (std::size_t i = 0; i < placement_.size(); ++i) alive_[i].store(true);

  // Merge the cluster's availability calendars into the fault plan.
  bool any_calendar = false;
  for (int p = 0; p < cluster.size(); ++p) {
    if (!cluster.processor(p).availability.always_up()) any_calendar = true;
  }
  if (any_calendar) {
    FaultPlan derived = FaultPlan::from_cluster(cluster, placement_);
    options_.faults.crashes.insert(options_.faults.crashes.end(),
                                   derived.crashes.begin(), derived.crashes.end());
    options_.faults.outages.insert(options_.faults.outages.end(),
                                   derived.outages.begin(), derived.outages.end());
  }
  for (const FaultPlan::Crash& c : options_.faults.crashes) {
    support::require(c.world_rank >= 0 && c.world_rank < nprocs(),
                     "fault plan crashes a world rank outside the run");
    support::require(c.time >= 0.0, "fault plan crash time must be >= 0");
  }

  causal_ = std::make_shared<telemetry::CausalLog>(
      nprocs(), telemetry::resolve_prof_mode(options_.prof));
}

World::LinkReservation World::reserve_link(int src_proc, int dst_proc,
                                           double ready_time,
                                           std::size_t bytes) {
  const hnoc::LinkParams& link = cluster_->link(src_proc, dst_proc);
  LinkReservation r;
  std::lock_guard<std::mutex> lock(link_mutex_);
  double& busy = link_busy_[{src_proc, dst_proc}];
  double start = std::max(ready_time, busy);
  if (!options_.faults.outages.empty()) {
    const double clear = options_.faults.link_ready_after(src_proc, dst_proc, start);
    r.outage_deferred = clear > start;
    start = clear;
  }
  r.start = start;
  r.finish = start + link.transfer_time(static_cast<double>(bytes));
  busy = r.finish;
  return r;
}

double World::death_time(int world_rank) const {
  std::lock_guard<std::mutex> lock(fault_mutex_);
  auto it = death_times_.find(world_rank);
  return it == death_times_.end() ? std::numeric_limits<double>::infinity()
                                  : it->second;
}

void World::mark_dead(int world_rank, double t) {
  support::require(world_rank >= 0 && world_rank < nprocs(),
                   "world rank out of range");
  if (!alive_[static_cast<std::size_t>(world_rank)].exchange(false)) return;
  failed_count_.fetch_add(1);
  std::vector<std::function<void(int, double)>> callbacks;
  {
    std::lock_guard<std::mutex> lock(fault_mutex_);
    death_times_.emplace(world_rank, t);
    callbacks = death_callbacks_;
  }
  if (Tracer* tracer = options_.tracer) {
    TraceEvent event;
    event.kind = TraceEvent::Kind::kCrash;
    event.world_rank = world_rank;
    event.processor = processor_of(world_rank);
    event.start_time = t;
    event.end_time = t;
    tracer->record(event);
  }
  if (causal_->enabled()) {
    // Recorded from the dying rank's own thread (die() runs on it), so the
    // per-rank sharding invariant holds.
    telemetry::CausalEvent e;
    e.kind = telemetry::CausalEvent::Kind::kMark;
    e.flags = telemetry::CausalEvent::kCrash;
    e.rank = world_rank;
    e.proc = processor_of(world_rank);
    e.t0 = t;
    e.t1 = t;
    causal_->record(world_rank, e);
  }
  // Wake every blocked receiver so hopeless-predicates re-evaluate, then the
  // registered higher-layer watchers (e.g. the HMPI rendezvous queue).
  for (auto& mb : mailboxes_) mb->poke();
  for (const auto& cb : callbacks) cb(world_rank, t);
}

void World::on_death(std::function<void(int, double)> callback) {
  std::lock_guard<std::mutex> lock(fault_mutex_);
  death_callbacks_.push_back(std::move(callback));
}

void World::revoke_context(int context) {
  {
    std::lock_guard<std::mutex> lock(fault_mutex_);
    if (!revoked_contexts_.insert(context).second) return;
  }
  for (auto& mb : mailboxes_) mb->poke();
}

bool World::context_revoked(int context) const {
  std::lock_guard<std::mutex> lock(fault_mutex_);
  return revoked_contexts_.count(context) != 0;
}

void World::note_recv_begin(int world_rank, int src, int tag, int context,
                            double clock) {
  std::lock_guard<std::mutex> lock(pending_mutex_);
  pending_recvs_[world_rank] = {src, tag, context, clock};
}

void World::note_recv_end(int world_rank) {
  std::lock_guard<std::mutex> lock(pending_mutex_);
  pending_recvs_.erase(world_rank);
}

std::string World::describe_stuck_state() const {
  constexpr std::size_t kMaxShown = 4;
  std::ostringstream os;
  os << "pending state per rank:";
  for (int r = 0; r < nprocs(); ++r) {
    os << "\n  rank " << r << ": ";
    if (!alive(r)) {
      os << "dead (crashed at t=" << death_time(r) << "s)";
    } else {
      std::lock_guard<std::mutex> lock(pending_mutex_);
      auto it = pending_recvs_.find(r);
      if (it == pending_recvs_.end()) {
        os << "not blocked in a receive";
      } else {
        os << "blocked recv(src=" << it->second.src << ", tag=" << it->second.tag
           << ", context=" << it->second.context << ") since virtual t="
           << it->second.clock << "s";
      }
    }
    const auto queued = mailboxes_[static_cast<std::size_t>(r)]->snapshot();
    if (queued.empty()) {
      os << "; no unmatched incoming sends";
    } else {
      os << "; " << queued.size() << " unmatched incoming send(s):";
      for (std::size_t i = 0; i < queued.size() && i < kMaxShown; ++i) {
        const auto& e = queued[i];
        os << " [from=" << e.src_world << " tag=" << e.tag << " context="
           << e.context << " bytes=" << e.logical_bytes << "]";
      }
      if (queued.size() > kMaxShown) {
        os << " ... (" << queued.size() - kMaxShown << " more)";
      }
    }
  }
  return os.str();
}

std::shared_ptr<void> World::get_or_create_shared(
    const std::function<std::shared_ptr<void>()>& factory) {
  std::lock_guard<std::mutex> lock(shared_mutex_);
  if (!shared_) shared_ = factory();
  return shared_;
}

void World::abort_all() {
  aborted_.store(true);
  for (auto& mb : mailboxes_) mb->shutdown();
}

World::RunResult World::run(const hnoc::Cluster& cluster,
                            std::vector<int> placement,
                            const std::function<void(Proc&)>& body,
                            Options options) {
  // A fiber must not host a second engine: its dispatch loop would run
  // inside the outer engine's dispatch of this one fiber.
  if (sim::on_fiber()) {
    throw MpError(
        "World::run called from a simulated process: nested simulations are "
        "not supported (the event engine is not re-entrant)");
  }
  World world(cluster, std::move(placement), std::move(options));
  const int n = world.nprocs();

  std::vector<Proc> procs;
  procs.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    procs.push_back(Proc(&world, r, world.processor_of(r)));
    if (auto crash = world.options().faults.crash_time(r)) {
      procs.back().crash_time_ = *crash;
    }
  }

  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(n));
  std::atomic<int> first_error{-1};
  const auto guarded_body = [&](int r) {
    try {
      body(procs[static_cast<std::size_t>(r)]);
    } catch (const ProcessKilledError&) {
      // Injected crash: an expected event of the fault model, not a run
      // failure. The process is already marked dead; survivors continue.
    } catch (...) {
      errors[static_cast<std::size_t>(r)] = std::current_exception();
      int expected = -1;
      first_error.compare_exchange_strong(expected, r);
      world.abort_all();
    }
  };

  telemetry::metrics().counter("sim.runs.event").add();
  sim::EventEngine::Config config;
  config.workers = sim::resolve_workers(world.options().event_workers);
  config.stack_bytes =
      sim::resolve_stack_bytes(world.options().fiber_stack_bytes);
  config.clock_of = [&procs](int r) {
    return procs[static_cast<std::size_t>(r)].clock();
  };
  sim::EventEngine(std::move(config)).run(n, guarded_body);

  if (int fe = first_error.load(); fe >= 0) {
    std::rethrow_exception(errors[static_cast<std::size_t>(fe)]);
  }

  RunResult result;
  result.clocks.reserve(static_cast<std::size_t>(n));
  result.stats.reserve(static_cast<std::size_t>(n));
  for (const Proc& p : procs) {
    result.clocks.push_back(p.clock());
    result.stats.push_back(p.stats());
  }
  result.makespan = *std::max_element(result.clocks.begin(), result.clocks.end());
  for (int r = 0; r < n; ++r) {
    if (!world.alive(r)) result.failed_ranks.push_back(r);
  }
  result.causal = world.causal_;  // outlives the World (destroyed on return)
  return result;
}

World::RunResult World::run_one_per_processor(
    const hnoc::Cluster& cluster, const std::function<void(Proc&)>& body,
    Options options) {
  std::vector<int> placement(static_cast<std::size_t>(cluster.size()));
  std::iota(placement.begin(), placement.end(), 0);
  return run(cluster, std::move(placement), body, options);
}

}  // namespace hmpi::mp
