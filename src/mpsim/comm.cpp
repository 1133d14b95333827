#include "mpsim/comm.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>

#include "mpsim/trace.hpp"
#include "telemetry/metrics.hpp"

namespace hmpi::mp {

namespace {

telemetry::Counter& dropped_counter() {
  static telemetry::Counter& c = telemetry::metrics().counter("messages_dropped");
  return c;
}

telemetry::Counter& delayed_counter() {
  static telemetry::Counter& c = telemetry::metrics().counter("messages_delayed");
  return c;
}

}  // namespace

namespace {

std::string describe_recv(const Proc& proc, int src, int tag, int context) {
  std::ostringstream os;
  os << "world rank " << proc.rank() << " (virtual t=" << proc.clock()
     << "s) blocked receiving from src=" << src << " tag=" << tag
     << " context=" << context;
  return os.str();
}

}  // namespace

Comm Proc::world_comm() {
  return Comm(this, /*context=*/0, world_->world_members_, rank_);
}

void Comm::check_member_rank(int r, const char* what) const {
  support::require(valid(), "operation on an invalid communicator");
  support::require(r >= 0 && r < size(),
                   std::string(what) + ": rank " + std::to_string(r) +
                       " out of range for communicator of size " +
                       std::to_string(size()));
}

int Comm::world_rank_of(int r) const {
  check_member_rank(r, "world_rank_of");
  return (*members_)[static_cast<std::size_t>(r)];
}

int Comm::rank_of_world(int wr) const noexcept {
  if (!members_) return -1;
  for (std::size_t i = 0; i < members_->size(); ++i) {
    if ((*members_)[i] == wr) return static_cast<int>(i);
  }
  return -1;
}

void Comm::send_bytes(std::span<const std::byte> data, int dst, int tag) const {
  send_impl(data, data.size(), dst, tag);
}

void Comm::send_placeholder(std::size_t bytes, int dst, int tag) const {
  send_impl({}, bytes, dst, tag);
}

void Comm::send_impl(std::span<const std::byte> data, std::size_t logical_bytes,
                     int dst, int tag) const {
  check_member_rank(dst, "send destination");
  support::require(tag >= 0, "send tag must be non-negative");
  const int dst_world = world_rank_of(dst);
  World& world = proc_->world();
  const FaultPlan& faults = world.options().faults;

  proc_->check_crash();  // a process whose crash time has passed cannot send

  const int src_proc = proc_->processor();
  const int dst_proc = world.processor_of(dst_world);
  const World::LinkReservation link =
      world.reserve_link(src_proc, dst_proc, proc_->clock(), logical_bytes);
  double finish = link.finish;

  // Per-message faults apply to application traffic only (user tags), so the
  // decision stream is insensitive to library-internal collective rounds.
  bool dropped = false;
  bool delayed = false;
  if (faults.message_faults() && tag <= kMaxUserTag) {
    const std::uint64_t seq = proc_->next_fault_sequence(dst_world);
    dropped = faults.drops_message(proc_->rank(), dst_world, seq);
    delayed = !dropped && faults.delays_message(proc_->rank(), dst_world, seq);
    if (delayed) finish += faults.delay_s;
    if (dropped) dropped_counter().add();
    if (delayed) delayed_counter().add();
  }

  Envelope e;
  e.src_world = proc_->rank();
  e.context = context_;
  e.tag = tag;
  e.payload.assign(data.begin(), data.end());
  e.logical_bytes = logical_bytes;
  e.arrival_time = finish;
  e.causal_seq = proc_->next_causal_sequence(dst_world);

  if (Tracer* tracer = world.options().tracer) {
    TraceEvent event;
    event.kind = dropped ? TraceEvent::Kind::kDrop
                         : (delayed ? TraceEvent::Kind::kDelay
                                    : TraceEvent::Kind::kSend);
    event.world_rank = proc_->rank();
    event.processor = src_proc;
    event.peer = dst_world;
    event.tag = tag;
    event.context = context_;
    event.bytes = logical_bytes;
    event.start_time = proc_->clock();
    event.end_time = finish;
    tracer->record(event);
    if (link.outage_deferred) {
      TraceEvent blocked = event;
      blocked.kind = TraceEvent::Kind::kLinkBlocked;
      blocked.end_time = link.start;
      tracer->record(blocked);
    }
  }

  if (world.causal_log().enabled()) {
    telemetry::CausalEvent c = proc_->causal_event();
    c.kind = telemetry::CausalEvent::Kind::kSend;
    c.peer = dst_world;
    c.peer_proc = dst_proc;
    c.seq = e.causal_seq;
    c.bytes = logical_bytes;
    c.t0 = proc_->clock();
    c.t1 = proc_->clock() + world.options().send_overhead_s;
    c.arrival = finish;
    if (dropped) c.flags |= telemetry::CausalEvent::kDropped;
    if (delayed) c.flags |= telemetry::CausalEvent::kDelayed;
    world.causal_log().record(proc_->rank(), c);
  }

  proc_->set_clock(proc_->clock() + world.options().send_overhead_s);
  proc_->stats().msgs_sent += 1;
  proc_->stats().bytes_sent += logical_bytes;
  proc_->note_message_sent(logical_bytes);

  if (!dropped) world.mailbox(dst_world).deliver(std::move(e));
}

Status Comm::recv_bytes(std::span<std::byte> buffer, int src, int tag) const {
  return recv_impl(&buffer, src, tag);
}

Status Comm::recv_placeholder(int src, int tag) const {
  return recv_impl(nullptr, src, tag);
}

Status Comm::recv_impl(std::span<std::byte>* buffer, int src, int tag) const {
  support::require(valid(), "receive on an invalid communicator");
  support::require(src == kAnySource || (src >= 0 && src < size()),
                   "receive source rank out of range");
  support::require(tag == kAnyTag || tag >= 0, "receive tag must be >= 0 or kAnyTag");
  World& world = proc_->world();
  const int src_world = src == kAnySource ? kAnySource : world_rank_of(src);

  proc_->check_crash();  // a process whose crash time has passed cannot receive

  // A blocked receive is hopeless (no message can ever match) when the
  // communicator's context was revoked, when the named source is dead, or —
  // for kAnySource — when every other member is dead.
  const auto hopeless = [&]() -> bool {
    if (world.context_revoked(context_)) return true;
    if (src_world != kAnySource) return !world.alive(src_world);
    for (int member : *members_) {
      if (member != proc_->rank() && world.alive(member)) return false;
    }
    return true;
  };

  world.note_recv_begin(proc_->rank(), src_world, tag, context_, proc_->clock());
  auto envelope = world.mailbox(proc_->rank())
                      .take_matching(src_world, tag, context_, hopeless);
  if (!envelope) {
    if (world.aborted()) {
      world.note_recv_end(proc_->rank());
      throw MpError("world aborted while " +
                    describe_recv(*proc_, src, tag, context_));
    }
    if (src_world != kAnySource && !world.alive(src_world)) {
      world.note_recv_end(proc_->rank());
      throw PeerFailedError(
          "peer failed: world rank " + std::to_string(src_world) +
              " crashed at virtual t=" +
              std::to_string(world.death_time(src_world)) + "s while " +
              describe_recv(*proc_, src, tag, context_),
          src_world, world.death_time(src_world));
    }
    if (src_world == kAnySource && hopeless() &&
        !world.context_revoked(context_)) {
      world.note_recv_end(proc_->rank());
      throw PeerFailedError("all potential senders have crashed while " +
                                describe_recv(*proc_, src, tag, context_),
                            kAnySource,
                            std::numeric_limits<double>::infinity());
    }
    if (world.context_revoked(context_)) {
      world.note_recv_end(proc_->rank());
      throw RevokedError("communicator context " + std::to_string(context_) +
                         " revoked while " +
                         describe_recv(*proc_, src, tag, context_));
    }
    // Capture the state dump before clearing this rank's own pending entry
    // so the diagnosis includes the stalled receive.
    const std::string stuck = world.describe_stuck_state();
    world.note_recv_end(proc_->rank());
    throw DeadlockError("deadlock: every process is blocked; " +
                        describe_recv(*proc_, src, tag, context_) + "\n" +
                        stuck);
  }
  world.note_recv_end(proc_->rank());
  if (buffer != nullptr) {
    support::require(buffer->size() >= envelope->payload.size(),
                     "receive buffer smaller than the incoming message");
    std::copy(envelope->payload.begin(), envelope->payload.end(),
              buffer->begin());
  }

  const double before = proc_->clock();
  const double matched =
      std::max(before, envelope->arrival_time) + world.options().recv_overhead_s;
  proc_->stats().wait_time += std::max(0.0, envelope->arrival_time - before);
  if (Tracer* tracer = world.options().tracer) {
    TraceEvent event;
    event.kind = TraceEvent::Kind::kRecv;
    event.world_rank = proc_->rank();
    event.processor = proc_->processor();
    event.peer = envelope->src_world;
    event.tag = envelope->tag;
    event.context = context_;
    event.bytes = envelope->logical_bytes;
    event.start_time = before;
    event.end_time = matched;
    tracer->record(event);
  }
  if (world.causal_log().enabled()) {
    telemetry::CausalEvent c = proc_->causal_event();
    c.kind = telemetry::CausalEvent::Kind::kRecv;
    c.peer = envelope->src_world;
    c.peer_proc = world.processor_of(envelope->src_world);
    c.seq = envelope->causal_seq;
    c.bytes = envelope->logical_bytes;
    c.t0 = before;
    c.t1 = matched;
    c.arrival = envelope->arrival_time;
    world.causal_log().record(proc_->rank(), c);
  }
  proc_->set_clock(matched);
  proc_->check_crash();  // waiting may have carried the clock past a crash
  proc_->stats().msgs_received += 1;
  proc_->stats().bytes_received += envelope->logical_bytes;

  Status status;
  status.source = rank_of_world(envelope->src_world);
  status.tag = envelope->tag;
  status.bytes = envelope->logical_bytes;
  status.arrival_time = envelope->arrival_time;
  return status;
}

bool Comm::iprobe(int src, int tag) const {
  support::require(valid(), "probe on an invalid communicator");
  const int src_world = src == kAnySource ? kAnySource : world_rank_of(src);
  return proc_->world().mailbox(proc_->rank()).probe(src_world, tag, context_);
}

Request Comm::isend_bytes(std::span<const std::byte> data, int dst,
                          int tag) const {
  send_bytes(data, dst, tag);  // buffered: completes immediately
  return Request::completed_send();
}

Request Comm::irecv_bytes(std::span<std::byte> buffer, int src, int tag) const {
  support::require(valid(), "irecv on an invalid communicator");
  return Request::pending_recv(*this, buffer, src, tag);
}

Status Request::wait() {
  if (done_) return status_;
  status_ = comm_.recv_bytes(buffer_, src_, tag_);
  done_ = true;
  return status_;
}

bool Request::test(Status* status) {
  if (!done_) {
    if (!comm_.iprobe(src_, tag_)) return false;
    status_ = comm_.recv_bytes(buffer_, src_, tag_);
    done_ = true;
  }
  if (status != nullptr) *status = status_;
  return true;
}

void Request::wait_all(std::span<Request> requests) {
  for (Request& r : requests) r.wait();
}

int Request::wait_any(std::span<Request> requests, Status* status) {
  bool any_pending = false;
  for (const Request& r : requests) {
    if (!r.done()) {
      any_pending = true;
      break;
    }
  }
  if (!any_pending) return -1;

  // Round-robin test; when nothing is ready, block on the first pending one
  // (its completion keeps virtual time consistent with a plain wait).
  for (;;) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (requests[i].done()) continue;
      if (requests[i].test(status)) return static_cast<int>(i);
    }
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (!requests[i].done()) {
        Status s = requests[i].wait();
        if (status != nullptr) *status = s;
        return static_cast<int>(i);
      }
    }
  }
}

Comm::CollChoice Comm::coll_select(coll::CollOp op, std::size_t bytes) const {
  World& world = proc_->world();
  CollChoice choice;
  choice.algo = coll_policy_.choice(op);
  if (choice.algo == 0) choice.algo = world.options().coll.choice(op);
  if (choice.algo == 0) {
    if (coll::Selector* selector = world.coll_selector()) {
      const std::vector<int> procs = member_procs();
      choice.algo = selector->select(op, procs, bytes, &choice.predicted_s);
    }
  }
  if (choice.algo == 0) choice.algo = coll::legacy_default(op);

  telemetry::metrics()
      .counter(std::string("coll.") + coll::op_name(op) + "." +
               coll::algo_name(op, choice.algo))
      .add();

  // One selection event per collective call, recorded by the communicator's
  // rank 0 (every member resolves the same algorithm by construction).
  Tracer* tracer = world.options().tracer;
  if (tracer != nullptr && rank_ == 0) {
    TraceEvent event;
    event.kind = TraceEvent::Kind::kCollSelect;
    event.world_rank = proc_->rank();
    event.processor = proc_->processor();
    event.context = context_;
    event.bytes = bytes;
    event.start_time = proc_->clock();
    event.end_time = proc_->clock();
    event.coll.op = static_cast<int>(op);
    event.coll.algo = choice.algo;
    event.coll.predicted_s = choice.predicted_s;
    tracer->record(event);
  }
  // Annotate every causal event until the matching coll_finish with the
  // (op, algo) pair, so the critical path can attribute collective time.
  proc_->push_coll_note(static_cast<std::int16_t>(op),
                        static_cast<std::int16_t>(choice.algo));
  return choice;
}

std::vector<coll::Step> Comm::coll_schedule(coll::CollOp op, int algo,
                                            int root, std::size_t count,
                                            std::size_t elem_size) const {
  // Only the two-level bcast reads placement; skip the lookup otherwise.
  // On a two-level cluster the placement is collapsed to LAN ids, so the
  // leader election spans whole LANs rather than single machines (flat
  // clusters pass machine ids through unchanged).
  std::vector<int> procs;
  std::span<const int> procs_span;
  if (op == coll::CollOp::kBcast &&
      static_cast<coll::BcastAlgo>(algo) == coll::BcastAlgo::kTwoLevel) {
    procs = coll::two_level_groups(proc_->world().cluster(), member_procs());
    procs_span = procs;
  }
  const std::size_t segment_elems = std::max<std::size_t>(
      1, coll::kChainSegmentBytes / std::max<std::size_t>(1, elem_size));
  return coll::schedule_for(op, algo, size(), root, count, procs_span,
                            segment_elems);
}

void Comm::coll_finish(coll::CollOp op, int algo, std::size_t bytes,
                       double start_clock, double predicted_s) const {
  proc_->pop_coll_note();
  const double elapsed = proc_->clock() - start_clock;
  telemetry::metrics()
      .histogram(std::string("coll.") + coll::op_name(op) + ".seconds")
      .observe(elapsed);
  if (coll::Selector* selector = proc_->world().coll_selector()) {
    selector->observe(op, algo, bytes, elapsed, predicted_s);
  }
}

std::vector<int> Comm::member_procs() const {
  World& world = proc_->world();
  std::vector<int> procs;
  procs.reserve(members_->size());
  for (int wr : *members_) procs.push_back(world.processor_of(wr));
  return procs;
}

void Comm::barrier() const {
  support::require(valid(), "barrier on an invalid communicator");
  if (size() <= 1) return;
  const CollChoice choice = coll_select(coll::CollOp::kBarrier, 0);
  const double start = proc_->clock();
  const std::vector<coll::Step> steps =
      coll_schedule(coll::CollOp::kBarrier, choice.algo, 0, 0, 1);
  coll::run_schedule(*this, std::span<const coll::Step>(steps),
                     std::span<std::byte>(),
                     [](std::byte a, std::byte) { return a; },
                     internal_tag::kBarrierBase);
  coll_finish(coll::CollOp::kBarrier, choice.algo, 0, start,
              choice.predicted_s);
}

void Comm::bcast_bytes(std::span<std::byte> data, int root) const {
  check_member_rank(root, "bcast root");
  if (size() <= 1) return;
  const CollChoice choice = coll_select(coll::CollOp::kBcast, data.size());
  const double start = proc_->clock();
  const std::vector<coll::Step> steps =
      coll_schedule(coll::CollOp::kBcast, choice.algo, root, data.size(), 1);
  coll::run_schedule(*this, std::span<const coll::Step>(steps), data,
                     [](std::byte a, std::byte) { return a; },
                     internal_tag::kBcastBase);
  coll_finish(coll::CollOp::kBcast, choice.algo, data.size(), start,
              choice.predicted_s);
}

Comm Comm::dup() const {
  support::require(valid(), "dup of an invalid communicator");
  int context = 0;
  if (rank() == 0) context = proc_->world().alloc_context();
  bcast_value(context, 0);
  return Comm(proc_, context, members_, rank_);
}

Comm Comm::split(int color, int key) const {
  support::require(valid(), "split of an invalid communicator");
  support::require(color >= 0 || color == kUndefinedColor,
                   "split color must be >= 0 or kUndefinedColor");
  const int n = size();

  // Gather (color, key) pairs at rank 0.
  struct Entry {
    std::int32_t color;
    std::int32_t key;
  };
  Entry mine{color, key};
  std::vector<Entry> all(static_cast<std::size_t>(n));
  gather(std::span<const Entry>(&mine, 1), std::span<Entry>(all), 0);

  // Rank 0 forms the groups and tells each member its new communicator:
  // payload is [context, new_rank, group_size, world ranks...].
  std::vector<std::int32_t> my_info;
  if (rank() == 0) {
    std::vector<int> colors;
    for (const Entry& e : all) {
      if (e.color != kUndefinedColor) colors.push_back(e.color);
    }
    std::sort(colors.begin(), colors.end());
    colors.erase(std::unique(colors.begin(), colors.end()), colors.end());

    for (int c : colors) {
      std::vector<int> ranks;  // old communicator ranks in this color
      for (int r = 0; r < n; ++r) {
        if (all[static_cast<std::size_t>(r)].color == c) ranks.push_back(r);
      }
      std::stable_sort(ranks.begin(), ranks.end(), [&](int a, int b) {
        return all[static_cast<std::size_t>(a)].key <
               all[static_cast<std::size_t>(b)].key;
      });
      const int context = proc_->world().alloc_context();
      std::vector<std::int32_t> info;
      info.push_back(context);
      info.push_back(0);  // patched per member below
      info.push_back(static_cast<std::int32_t>(ranks.size()));
      for (int r : ranks) info.push_back(world_rank_of(r));
      for (std::size_t i = 0; i < ranks.size(); ++i) {
        info[1] = static_cast<std::int32_t>(i);
        if (ranks[i] == 0) {
          my_info = info;
        } else {
          send(std::span<const std::int32_t>(info), ranks[i],
               internal_tag::kSplit);
        }
      }
    }
    // Excluded members still need an answer.
    for (int r = 0; r < n; ++r) {
      if (all[static_cast<std::size_t>(r)].color == kUndefinedColor) {
        std::int32_t none[3] = {-1, -1, 0};
        if (r == 0) {
          my_info.assign(none, none + 3);
        } else {
          send(std::span<const std::int32_t>(none, 3), r, internal_tag::kSplit);
        }
      }
    }
  } else {
    // Header is fixed-size; the trailing rank list length is bounded by n.
    std::vector<std::int32_t> buffer(static_cast<std::size_t>(3 + n));
    Status s = recv(std::span<std::int32_t>(buffer), 0, internal_tag::kSplit);
    buffer.resize(s.bytes / sizeof(std::int32_t));
    my_info = std::move(buffer);
  }

  if (my_info[0] < 0) return Comm();  // kUndefinedColor
  const int context = my_info[0];
  const int new_rank = my_info[1];
  const int group_size = my_info[2];
  auto members = std::make_shared<std::vector<int>>();
  members->reserve(static_cast<std::size_t>(group_size));
  for (int i = 0; i < group_size; ++i) {
    members->push_back(my_info[static_cast<std::size_t>(3 + i)]);
  }
  return Comm(proc_, context, std::move(members), new_rank);
}

Comm Comm::create_subcomm(Proc& proc, std::vector<int> world_ranks) {
  support::require(!world_ranks.empty(), "create_subcomm needs members");
  {
    std::vector<int> sorted = world_ranks;
    std::sort(sorted.begin(), sorted.end());
    support::require(std::adjacent_find(sorted.begin(), sorted.end()) ==
                         sorted.end(),
                     "create_subcomm members must be unique");
  }
  const auto it =
      std::find(world_ranks.begin(), world_ranks.end(), proc.rank());
  support::require(it != world_ranks.end(),
                   "create_subcomm must be called by a listed member");
  const int my_rank = static_cast<int>(it - world_ranks.begin());

  // The leader (first member) allocates the context and distributes it over
  // the world communicator on a reserved tag.
  Comm world = proc.world_comm();
  int context = 0;
  if (my_rank == 0) {
    context = proc.world().alloc_context();
    for (std::size_t i = 1; i < world_ranks.size(); ++i) {
      world.send_value(context, world_ranks[i], internal_tag::kSubcommCtx);
    }
  } else {
    context = world.recv_value<int>(world_ranks[0], internal_tag::kSubcommCtx);
  }
  auto members = std::make_shared<std::vector<int>>(std::move(world_ranks));
  return Comm(&proc, context, std::move(members), my_rank);
}

}  // namespace hmpi::mp
