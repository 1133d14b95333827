// Per-process message queue with MPI-style matching.
//
// Every simulated process owns one Mailbox. Senders deliver envelopes from
// their own fiber; the receiver blocks until an envelope matching
// (source, tag, context) is present. Matching scans the queue in delivery
// order, which preserves MPI's non-overtaking guarantee for messages of one
// sender on one communicator (a sender delivers in program order).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <vector>

#include "mpsim/engine.hpp"
#include "mpsim/types.hpp"

namespace hmpi::mp {

/// One in-flight message.
struct Envelope {
  int src_world = 0;               ///< World rank of the sender.
  int context = 0;                 ///< Communicator context id.
  int tag = 0;
  std::vector<std::byte> payload;
  /// Size the transfer was costed at. Equals payload.size() for ordinary
  /// messages; placeholder messages carry no payload but a logical size
  /// (used by workload drivers running in virtual-only mode).
  std::size_t logical_bytes = 0;
  double arrival_time = 0.0;       ///< Virtual time the transfer completes.
  /// Per-(sender, destination) message index, stamped at the send so the
  /// causal log can pair the receive with its send (docs/observability.md).
  std::uint64_t causal_seq = 0;
};

/// Thread-safe matching queue for one process.
class Mailbox {
 public:
  Mailbox() { channel_.debug_name = "mailbox"; }

  /// Enqueues an envelope and wakes any blocked receiver.
  void deliver(Envelope e);

  /// Blocks until an envelope matching (src_world, tag, context) is present,
  /// removes and returns it. Wildcards: src_world == kAnySource,
  /// tag == kAnyTag. Returns std::nullopt when the engine picks this wait
  /// as the structural-stall victim (every process blocked), which the
  /// caller turns into a deadlock diagnosis.
  ///
  /// `hopeless`, when provided, is evaluated under the mailbox lock after
  /// every failed match: returning true unblocks the wait immediately with
  /// std::nullopt (the caller re-derives *why* — dead peer, revoked context).
  /// Wake-ups for it are driven by poke().
  std::optional<Envelope> take_matching(
      int src_world, int tag, int context,
      const std::function<bool()>& hopeless = nullptr);

  /// Non-blocking: removes and returns a matching envelope if present.
  std::optional<Envelope> try_take_matching(int src_world, int tag, int context);

  /// Non-destructive test for a matching envelope.
  bool probe(int src_world, int tag, int context) const;

  /// Number of queued envelopes (diagnostics only).
  std::size_t pending() const;

  /// Metadata of one queued envelope (diagnostics only).
  struct EnvelopeInfo {
    int src_world = 0;
    int context = 0;
    int tag = 0;
    std::size_t logical_bytes = 0;
    double arrival_time = 0.0;
  };

  /// Metadata of every queued (delivered but unreceived) envelope, in
  /// delivery order. Used by the deadlock diagnosis.
  std::vector<EnvelopeInfo> snapshot() const;

  /// Wakes any blocked receiver so it re-evaluates its `hopeless` predicate
  /// (e.g. after a peer died or a context was revoked).
  void poke();

  /// Unblocks any waiting receiver permanently (world abort). Subsequent
  /// take_matching calls return std::nullopt immediately when no matching
  /// envelope is queued.
  void shutdown();

  bool is_shutdown() const noexcept { return shutdown_.load(); }

 private:
  static bool matches(const Envelope& e, int src_world, int tag, int context);
  std::optional<Envelope> extract_locked(int src_world, int tag, int context);

  mutable std::mutex mutex_;
  /// Blocking receivers park here.
  sim::WaitChannel channel_;
  std::deque<Envelope> queue_;
  std::atomic<bool> shutdown_{false};
};

}  // namespace hmpi::mp
