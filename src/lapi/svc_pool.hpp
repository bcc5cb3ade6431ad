// Completion-handler service threads.
//
// Completion handlers run in their own execution context so they can block
// (e.g. on the GA accumulate mutex, Section 5.3.3) without stalling the
// dispatcher. The 1998 implementation ran one such thread; "providing
// multiple completion handler threads" is the paper's future-work item 2 and
// is available here via Config::completion_threads (ablation bench A2).
//
// The threads are spawned when the first job arrives, so a context that never
// runs a completion handler (put/get/fence-only programs, the 1024-node smoke
// test) costs no OS thread beyond its task's own. The spawns schedule the
// threads' start events exactly where a wake of idle threads would go, so
// when a pool spawns moves no virtual-time result.
#pragma once

#include <deque>
#include <functional>
#include <string>
#include <utility>

#include "sim/engine.hpp"
#include "sim/sync.hpp"

namespace splap::lapi {

class SvcPool {
 public:
  using Job = std::function<void(sim::Actor&)>;

  /// `threads` service actors pinned to node shard `shard`, named
  /// `<tag>.svc<i>`; none exists until the first submit().
  SvcPool(sim::Engine& engine, std::string tag, int threads, int shard)
      : engine_(engine), tag_(std::move(tag)), threads_(threads),
        shard_(shard) {
    SPLAP_REQUIRE(threads >= 1, "need at least one completion thread");
  }

  /// Enqueue a completion job. Any context (dispatcher events included).
  /// The first job spawns the service threads, which throws sim::SpawnError
  /// when the OS refuses one.
  void submit(Job job) {
    SPLAP_REQUIRE(!stopping_, "submit after SvcPool::stop");
    queue_.push_back(std::move(job));
    if (spawned_) {
      waiters_.wake_all(engine_);
      return;
    }
    spawned_ = true;
    for (int i = 0; i < threads_; ++i) {
      engine_.spawn_on(shard_, tag_ + ".svc" + std::to_string(i),
                       [this](sim::Actor& self) { service_loop(self); });
      ++alive_;
    }
  }

  /// Drain the queue and terminate the service threads. Must be called from
  /// an actor context (LAPI_Term); returns when every thread has exited, at
  /// once when none was ever spawned.
  void stop(sim::Actor& self) {
    stopping_ = true;
    waiters_.wake_all(engine_);
    done_waiters_.park(self, [this] { return alive_ == 0; },
                       "lapi-term-svc-drain");
  }

 private:
  void service_loop(sim::Actor& self) {
    for (;;) {
      waiters_.park(self, [this] { return !queue_.empty() || stopping_; },
                    "lapi-svc-idle");
      if (queue_.empty() && stopping_) break;
      Job job = std::move(queue_.front());
      queue_.pop_front();
      job(self);
      done_waiters_.wake_all(engine_);
    }
    --alive_;
    done_waiters_.wake_all(engine_);
  }

  sim::Engine& engine_;
  const std::string tag_;
  const int threads_;
  const int shard_;
  std::deque<Job> queue_;
  sim::WaitSet waiters_;       // idle service threads
  sim::WaitSet done_waiters_;  // stop() observers
  bool spawned_ = false;
  int alive_ = 0;
  bool stopping_ = false;
};

}  // namespace splap::lapi
