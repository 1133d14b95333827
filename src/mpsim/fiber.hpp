// Stackful fiber for the event-driven simulation engine (docs/simulator.md).
//
// A Fiber is one resumable simulated-process task: a private mmap'd stack
// (with a PROT_NONE guard page below it) plus a ucontext. Execution is
// cooperative — the fiber runs on a host thread until it parks on a
// sim::WaitChannel or its entry returns; resume()/yield() switch between the
// host thread's context and the fiber's. All scheduling state (state,
// timed_out, parked_on) is owned by the EventEngine, which dispatches at
// most one fiber at a time.
#pragma once

#include <cstddef>
#include <functional>
#include <ucontext.h>

#include "support/process_local.hpp"

namespace hmpi::mp::sim {

class EventEngine;
class WaitChannel;

class Fiber {
 public:
  enum class State { kReady, kRunning, kParked, kFinished };

  /// `stack_bytes` is rounded up to whole pages; the entry must not throw
  /// (the engine wraps process bodies in a catch-all).
  Fiber(EventEngine* engine, int rank, std::size_t stack_bytes,
        std::function<void()> entry);
  ~Fiber();
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Switches the calling host thread into the fiber; returns at the fiber's
  /// next yield() (park or finish). Only the engine calls this.
  void resume();

  /// Switches from inside the fiber back to the host thread that resumed it.
  void yield();

  int rank() const noexcept { return rank_; }
  EventEngine* engine() const noexcept { return engine_; }
  std::size_t stack_bytes() const noexcept { return stack_bytes_; }

  State state = State::kReady;
  /// Set when the engine wakes the fiber as a structural-stall victim rather
  /// than through a notify; WaitChannel::wait returns false in that case.
  bool timed_out = false;
  /// Channel the fiber is parked on (so a stall can deregister it).
  WaitChannel* parked_on = nullptr;
  /// This simulated process's thread_local-replacement slots (the engine
  /// installs the table around every resume; see support/process_local.hpp).
  support::ProcessLocals locals;

 private:
  static void trampoline(unsigned hi, unsigned lo);
  void entry_point();

  EventEngine* engine_;
  int rank_;
  std::function<void()> entry_;

  void* map_base_ = nullptr;  ///< mmap base: guard page + stack.
  std::size_t map_bytes_ = 0;
  void* stack_base_ = nullptr;  ///< Usable stack low address.
  std::size_t stack_bytes_ = 0;

  ucontext_t ctx_;
  ucontext_t host_;

  // Sanitizer bookkeeping (no-ops outside TSan/ASan builds).
  void* tsan_fiber_ = nullptr;
  void* tsan_host_ = nullptr;
  void* asan_fake_stack_ = nullptr;
  const void* asan_host_stack_base_ = nullptr;
  std::size_t asan_host_stack_size_ = 0;
};

}  // namespace hmpi::mp::sim
