// Discrete-event scheduler with a virtual clock.
//
// Everything in a Horus process -- timer expirations, message deliveries,
// deferred upcalls -- is an event on this queue. Running the queue to
// quiescence with a fixed RNG seed makes entire multi-process executions
// (including crashes, partitions and message loss) bit-for-bit reproducible,
// which is what the integration tests and the Figure 2 scenario rely on.
//
// Time is in microseconds.
//
// Tie-break guarantee: events with equal deadlines fire strictly in
// scheduling order. Every schedule() call is stamped, under the queue
// lock, with a monotonically increasing sequence number, and the priority
// queue orders by (deadline, sequence). Two runs that issue the same
// schedule() calls in the same order therefore fire events in exactly the
// same order -- which is what makes recorded executions (horus-check's
// trace record/replay) bit-identical, independent of hash-map iteration
// order or timer-id values. The sequence is assigned at post time, so the
// guarantee holds across any shard count *provided posting order is
// deterministic*: with the default single-threaded GroupExecutor it always
// is; with a ShardedExecutor, posting order (and hence equal-deadline
// order) depends on kernel-thread interleaving, which is why horus-check
// scenarios always run with shards = 0.
//
// Thread safety: schedule/cancel/now/next_due may be called from any thread
// (layer code runs on ShardedExecutor workers while the driver thread runs
// the queue). The run methods themselves must stay on one driver thread;
// event closures execute outside the internal lock, so they may freely
// re-enter schedule/cancel. The lock adds no ordering of its own, so
// single-threaded runs are bit-identical to the unlocked implementation.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "horus/analysis/race.hpp"
#include "horus/util/thread_annotations.hpp"

namespace horus::sim {

/// Virtual time in microseconds since simulation start.
using Time = std::uint64_t;
/// Duration in microseconds.
using Duration = std::uint64_t;

constexpr Duration kMicrosecond = 1;
constexpr Duration kMillisecond = 1000;
constexpr Duration kSecond = 1000 * 1000;

/// Handle for cancelling a scheduled event. 0 is never a valid id.
using TimerId = std::uint64_t;

class Scheduler {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  [[nodiscard]] Time now() const {
    return now_.load(std::memory_order_relaxed);
  }

  /// Schedule `fn` to run at now() + delay. Returns a cancellable id.
  TimerId schedule(Duration delay, std::function<void()> fn);

  /// Cancel a previously scheduled event. Cancelling an event that already
  /// fired, was already cancelled, or was never scheduled (id 0) is a no-op.
  void cancel(TimerId id);

  /// Run events until the queue is empty. Returns number of events run.
  std::size_t run();

  /// Run events with time <= deadline; advances now() to deadline.
  std::size_t run_until(Time deadline);

  /// Run for a relative duration from current now().
  std::size_t run_for(Duration d) { return run_until(now() + d); }

  /// Run at most one event; returns false if the queue is empty.
  bool step();

  /// Timestamp of the earliest pending (non-cancelled) event, if any. Lets
  /// real-time drivers sleep precisely until work is due instead of
  /// busy-polling.
  [[nodiscard]] std::optional<Time> next_due() const;

  /// Live (queued, not cancelled) events. Both scan the queue: they are
  /// for tests and diagnostics, not for hot loops.
  [[nodiscard]] bool empty() const { return pending() == 0; }
  [[nodiscard]] std::size_t pending() const;

 private:
  struct Event {
    Time at = 0;
    std::uint64_t seq = 0;  // tiebreak: FIFO among equal-time events
    TimerId id = 0;
    std::function<void()> fn;
#ifdef HORUS_CHECK_RACES
    // The scheduling thread's clock at schedule() time: the driver thread
    // acquires it before firing, so schedule -> fire is a happens-before
    // edge (state the arming task initialized is legal for the fire path).
    race::ClockSnapshot snap;
#endif
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  /// The heap, with read access to its events for the scans above.
  struct EventQueue : std::priority_queue<Event, std::vector<Event>, Later> {
    [[nodiscard]] const std::vector<Event>& events() const { return c; }
  };

  /// Drop cancelled events sitting at the head of the queue (so top() is
  /// always a live event). Caller holds mu_.
  void prune_cancelled_locked() const REQUIRES(mu_);
  /// Forget cancellations of events no longer queued. Caller holds mu_.
  void drop_stale_cancellations_locked() REQUIRES(mu_);
  /// Pop the earliest live event into `out`. Caller holds mu_.
  bool pop_one_locked(Event& out) REQUIRES(mu_);

  mutable util::Mutex mu_;
  std::atomic<Time> now_{0};
  std::uint64_t next_seq_ GUARDED_BY(mu_) = 0;
  TimerId next_id_ GUARDED_BY(mu_) = 1;
  mutable EventQueue queue_ GUARDED_BY(mu_);
  /// Ids cancelled while queued, dropped when they reach the head. It may
  /// also hold ids cancelled after they fired; those are never matched and
  /// are swept once the set outgrows the queue.
  mutable std::unordered_set<TimerId> cancelled_ GUARDED_BY(mu_);
};

}  // namespace horus::sim
