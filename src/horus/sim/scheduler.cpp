#include "horus/sim/scheduler.hpp"

#include <utility>

namespace horus::sim {

TimerId Scheduler::schedule(Duration delay, std::function<void()> fn) {
  util::MutexLock lock(mu_);
  TimerId id = next_id_++;
  Event ev;
  ev.at = now() + delay;
  ev.seq = next_seq_++;
  ev.id = id;
  ev.fn = std::move(fn);
#ifdef HORUS_CHECK_RACES
  ev.snap = race::capture();
#endif
  queue_.push(std::move(ev));
  return id;
}

void Scheduler::cancel(TimerId id) {
  util::MutexLock lock(mu_);
  if (id == 0 || id >= next_id_) return;  // never issued
  cancelled_.insert(id);
  // Only queued ids can match: a larger set holds ids that already fired.
  if (cancelled_.size() > queue_.size()) drop_stale_cancellations_locked();
}

void Scheduler::drop_stale_cancellations_locked() {
  std::unordered_set<TimerId> queued;
  for (const Event& ev : queue_.events()) {
    if (cancelled_.count(ev.id) != 0) queued.insert(ev.id);
  }
  cancelled_.swap(queued);
}

std::size_t Scheduler::pending() const {
  util::MutexLock lock(mu_);
  std::size_t n = 0;
  for (const Event& ev : queue_.events()) n += cancelled_.count(ev.id) == 0;
  return n;
}

void Scheduler::prune_cancelled_locked() const {
  while (!queue_.empty()) {
    auto it = cancelled_.find(queue_.top().id);
    if (it == cancelled_.end()) return;
    cancelled_.erase(it);
    queue_.pop();
  }
}

bool Scheduler::pop_one_locked(Event& out) {
  prune_cancelled_locked();
  if (queue_.empty()) return false;
  // priority_queue::top returns const&; we need to move the closure out.
  out = std::move(const_cast<Event&>(queue_.top()));
  queue_.pop();
  return true;
}

std::optional<Time> Scheduler::next_due() const {
  util::MutexLock lock(mu_);
  prune_cancelled_locked();
  if (queue_.empty()) return std::nullopt;
  return queue_.top().at;
}

std::size_t Scheduler::run() {
  std::size_t n = 0;
  Event ev;
  for (;;) {
    {
      util::MutexLock lock(mu_);
      if (!pop_one_locked(ev)) break;
      now_.store(ev.at, std::memory_order_relaxed);
    }
    // Outside the lock: the closure may re-enter schedule/cancel.
#ifdef HORUS_CHECK_RACES
    race::acquire(ev.snap);
#endif
    ev.fn();
    ev.fn = nullptr;
    ++n;
  }
  return n;
}

std::size_t Scheduler::run_until(Time deadline) {
  std::size_t n = 0;
  Event ev;
  for (;;) {
    {
      util::MutexLock lock(mu_);
      prune_cancelled_locked();
      if (queue_.empty() || queue_.top().at > deadline) break;
      ev = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      now_.store(ev.at, std::memory_order_relaxed);
    }
#ifdef HORUS_CHECK_RACES
    race::acquire(ev.snap);
#endif
    ev.fn();
    ev.fn = nullptr;
    ++n;
  }
  if (now() < deadline) now_.store(deadline, std::memory_order_relaxed);
  return n;
}

bool Scheduler::step() {
  Event ev;
  {
    util::MutexLock lock(mu_);
    if (!pop_one_locked(ev)) return false;
    now_.store(ev.at, std::memory_order_relaxed);
  }
#ifdef HORUS_CHECK_RACES
  race::acquire(ev.snap);
#endif
  ev.fn();
  return true;
}

}  // namespace horus::sim
