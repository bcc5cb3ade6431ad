// Virtual-time synchronization primitives for actors and handler contexts.
//
// SimMutex is the object behind the paper's Section 5.3.3: on one node the
// main application thread, the header-handler thread and the completion-
// handler thread can all contend for the mutex protecting an accumulate
// region. Actor contexts block (FIFO); handler/event contexts either
// try_lock (header handlers — the paper warns against descheduling the LAPI
// dispatcher thread) or queue a continuation (lock_async).
#pragma once

#include <deque>
#include <functional>
#include <variant>

#include "base/status.hpp"
#include "sim/engine.hpp"

namespace splap::sim {

class SimMutex {
 public:
  explicit SimMutex(Engine& engine) : engine_(engine) {}
  SimMutex(const SimMutex&) = delete;
  SimMutex& operator=(const SimMutex&) = delete;

  bool locked() const { return locked_; }

  /// Blocking acquire; actor context only.
  void lock() {
    Actor* a = Actor::current();
    SPLAP_REQUIRE(a != nullptr, "SimMutex::lock requires an actor context");
    if (!locked_) {
      locked_ = true;
      return;
    }
    bool granted = false;
    waiters_.push_back(ActorWaiter{a, &granted});
    a->wait([&] { return granted; }, "sim-mutex");
  }

  /// Non-blocking acquire; any context (this is what a header handler may
  /// use — it must never block the dispatcher).
  bool try_lock() {
    if (locked_) return false;
    locked_ = true;
    return true;
  }

  /// Acquire from an event/handler context: runs `cont` immediately if the
  /// mutex is free, otherwise queues it to run (still in event context) when
  /// ownership becomes available. `cont` runs with the mutex held.
  void lock_async(std::function<void()> cont) {
    if (!locked_) {
      locked_ = true;
      cont();
      return;
    }
    waiters_.push_back(std::move(cont));
  }

  /// Release; ownership passes FIFO to the next waiter if any.
  void unlock() {
    SPLAP_REQUIRE(locked_, "unlock of an unlocked SimMutex");
    if (waiters_.empty()) {
      locked_ = false;
      return;
    }
    auto next = std::move(waiters_.front());
    waiters_.pop_front();
    // Mutex stays locked: ownership transfers.
    if (auto* aw = std::get_if<ActorWaiter>(&next)) {
      *aw->granted = true;
      engine_.wake(*aw->actor);
    } else {
      auto cont = std::move(std::get<std::function<void()>>(next));
      engine_.schedule_at(engine_.now(), std::move(cont));
    }
  }

 private:
  struct ActorWaiter {
    Actor* actor;
    bool* granted;
  };

  Engine& engine_;
  bool locked_ = false;
  std::deque<std::variant<ActorWaiter, std::function<void()>>> waiters_;
};

/// Reusable barrier for a fixed set of actors (used by the collective layer
/// and by tests; the communication libraries implement their *own* barriers
/// with real messages — this one is a zero-cost test utility).
class SimBarrier {
 public:
  SimBarrier(Engine& engine, int parties)
      : engine_(engine), parties_(parties) {
    SPLAP_REQUIRE(parties > 0, "barrier needs at least one party");
  }

  void arrive_and_wait() {
    Actor* a = Actor::current();
    SPLAP_REQUIRE(a != nullptr, "SimBarrier requires an actor context");
    const std::int64_t my_gen = generation_;
    if (++arrived_ == parties_) {
      arrived_ = 0;
      ++generation_;
      for (Actor* w : waiting_) engine_.wake(*w);
      waiting_.clear();
      return;
    }
    waiting_.push_back(a);
    a->wait([&] { return generation_ != my_gen; }, "sim-barrier");
  }

 private:
  Engine& engine_;
  const int parties_;
  int arrived_ = 0;
  std::int64_t generation_ = 0;
  std::vector<Actor*> waiting_;
};

/// A set of actors blocked on some condition; the state owner wakes them all
/// after mutating the state (waiters re-check their predicates).
class WaitSet {
 public:
  void add(Actor& a) { waiters_.push_back(&a); }

  /// Block actor `a` (the caller) until `ready()` holds. `ready` is a gate
  /// predicate (see Actor::wait): the wake event tests it in handler
  /// context, and a false result re-registers `a` here without resuming it.
  template <class Pred>
  void park(Actor& a, Pred ready, const char* why) {
    a.wait([&] {
      if (ready()) return true;
      add(a);  // re-arm: the next wake_all tests ready() again
      return false;
    }, why);
  }

  void wake_all(Engine& engine) {
    for (Actor* a : waiters_) engine.wake(*a);
    waiters_.clear();
  }

  bool empty() const { return waiters_.empty(); }

 private:
  std::vector<Actor*> waiters_;
};

}  // namespace splap::sim
