// The event-driven virtual-time engine of mpsim (docs/simulator.md).
//
// The engine runs each process body as a stackful fiber and dispatches
// fibers one at a time from a central ready queue ordered by (virtual clock,
// world rank). That ordering is the engine's determinism contract: of all
// runnable processes the one with the smallest virtual clock runs next, and
// simultaneous events break the tie by ascending world rank. Blocking sites
// (the mailbox, the runtime rendezvous) park the fiber on a WaitChannel;
// when no fiber is runnable the engine declares a structural stall and wakes
// the parked fiber with the lowest world rank as "timed out", which its
// blocking site turns into a DeadlockError. No real-time clock is involved,
// so a run is a pure function of its inputs.
//
// Worker threads host the fiber stacks (fiber r is pinned to worker
// r % workers); dispatch remains globally sequential, so results are
// identical for every worker count by construction.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace hmpi::mp::sim {

class EventEngine;
class Fiber;

/// The execution engine (WorldOptions::engine). The event engine is the
/// only one; the single-valued enum remains because the benchmark harness
/// still names it, and goes when that harness is next revised.
enum class SimEngine {
  kEvent,  ///< Fibers over a virtual-time event queue.
};

/// Resolves the event-engine worker count: a positive configured value wins,
/// else HMPI_SIM_WORKERS, else 1.
int resolve_workers(int configured);

/// Resolves the fiber stack size: a positive configured value wins, else
/// HMPI_SIM_STACK_KB, else 512 KiB.
std::size_t resolve_stack_bytes(std::size_t configured);

/// True when the calling thread is currently executing a simulation fiber.
bool on_fiber() noexcept;

/// Blocking primitive of simulated processes: wait() parks the calling fiber
/// and notify_all() moves every parked fiber back to the ready queue.
/// Callers use it like a condition variable with an external mutex.
class WaitChannel {
 public:
  /// Releases `lock`, parks until notified (true) or picked as the
  /// structural-stall victim (false), reacquires `lock` before returning.
  /// Must be called from a simulation fiber.
  bool wait(std::unique_lock<std::mutex>& lock);

  /// Wakes every parked fiber.
  void notify_all();

  const char* debug_name = "channel";  ///< HMPI_SIM_DEBUG stall dumps only.

 private:
  friend class EventEngine;
  std::mutex fiber_mutex_;
  std::vector<Fiber*> fibers_;
};

/// Dispatches N process-body fibers to completion in virtual-time order.
class EventEngine {
 public:
  struct Config {
    int workers = 1;
    std::size_t stack_bytes = 512 * 1024;
    /// Current virtual clock of rank r; sampled when a fiber becomes ready
    /// (its clock cannot advance while it is parked).
    std::function<double(int)> clock_of;
  };

  struct Metrics {
    std::uint64_t dispatches = 0;  ///< Fiber resumes.
    std::uint64_t stalls = 0;      ///< Structural-stall victim wakeups.
    std::size_t ready_peak = 0;    ///< High-water mark of the ready queue.
  };

  explicit EventEngine(Config config);
  ~EventEngine();
  EventEngine(const EventEngine&) = delete;
  EventEngine& operator=(const EventEngine&) = delete;

  /// Runs fibers 0..nprocs-1, each executing body(rank), until all finish.
  /// `body` must not throw (wrap process bodies in a catch-all first).
  void run(int nprocs, const std::function<void(int)>& body);

  const Metrics& metrics() const noexcept { return metrics_; }

 private:
  friend class WaitChannel;

  /// Parks the current fiber on `channel` (WaitChannel::wait).
  bool park(WaitChannel& channel, std::unique_lock<std::mutex>& lock);

  /// Moves a parked fiber to the ready queue (notify or stall wakeup).
  void make_ready(Fiber* fiber);

  Fiber* pop_ready();
  void dispatch(Fiber* fiber);
  void run_fiber(Fiber* fiber);
  void wake_stall_victim();
  void start_workers();
  void stop_workers();

  Config config_;
  std::vector<std::unique_ptr<Fiber>> fibers_;
  int finished_ = 0;

  // Ready queue: min-heap on (virtual clock at wake, world rank).
  std::mutex mutex_;
  std::priority_queue<std::pair<double, int>,
                      std::vector<std::pair<double, int>>,
                      std::greater<std::pair<double, int>>>
      ready_;

  // Worker pool (baton handoff: the scheduler hands one fiber to its pinned
  // worker and waits for the yield, so dispatch stays sequential).
  struct Worker {
    std::thread thread;
    std::mutex mutex;
    std::condition_variable cv;
    Fiber* assigned = nullptr;
    bool done = false;
    bool stop = false;
  };
  std::vector<std::unique_ptr<Worker>> workers_;

  Metrics metrics_;
};

}  // namespace hmpi::mp::sim
