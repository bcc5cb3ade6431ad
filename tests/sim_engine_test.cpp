#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "base/time.hpp"

namespace splap::sim {
namespace {

/// Sets `flag` when the actor stack holding it unwinds.
struct OnUnwind {
  bool& flag;
  ~OnUnwind() { flag = true; }
};

TEST(EngineTest, EventsRunInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_at(microseconds(30), [&] { order.push_back(3); });
  eng.schedule_at(microseconds(10), [&] { order.push_back(1); });
  eng.schedule_at(microseconds(20), [&] { order.push_back(2); });
  EXPECT_EQ(eng.run(), Status::kOk);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), microseconds(30));
}

TEST(EngineTest, TiesBreakByInsertionOrder) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    eng.schedule_at(microseconds(5), [&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(eng.run(), Status::kOk);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EngineTest, EventsCanScheduleMoreEvents) {
  Engine eng;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) eng.schedule_after(microseconds(1), chain);
  };
  eng.schedule_at(0, chain);
  EXPECT_EQ(eng.run(), Status::kOk);
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(eng.now(), microseconds(4));
}

TEST(EngineTest, SchedulingInThePastAborts) {
  Engine eng;
  eng.schedule_at(microseconds(10), [&] {
    EXPECT_DEATH(eng.schedule_at(microseconds(5), [] {}), "virtual past");
  });
  EXPECT_EQ(eng.run(), Status::kOk);
}

TEST(EngineTest, ActorRunsAndFinishes) {
  Engine eng;
  bool ran = false;
  eng.spawn("t0", [&](Actor& self) {
    EXPECT_EQ(self.now(), 0);
    EXPECT_EQ(Actor::current(), &self);
    ran = true;
  });
  EXPECT_EQ(eng.run(), Status::kOk);
  EXPECT_TRUE(ran);
  EXPECT_TRUE(eng.actors()[0]->finished());
}

TEST(EngineTest, ComputeAdvancesVirtualTime) {
  Engine eng;
  Time end = kNoTime;
  eng.spawn("t0", [&](Actor& self) {
    self.compute(microseconds(100));
    self.compute(microseconds(50));
    end = self.now();
  });
  EXPECT_EQ(eng.run(), Status::kOk);
  EXPECT_EQ(end, microseconds(150));
}

TEST(EngineTest, ComputeZeroIsNoOp) {
  Engine eng;
  eng.spawn("t0", [&](Actor& self) {
    self.compute(0);
    EXPECT_EQ(self.now(), 0);
  });
  EXPECT_EQ(eng.run(), Status::kOk);
}

TEST(EngineTest, ActorsInterleaveByVirtualTimeNotSpawnOrder) {
  Engine eng;
  std::vector<std::string> trace;
  eng.spawn("slow", [&](Actor& self) {
    self.compute(microseconds(100));
    trace.push_back("slow");
  });
  eng.spawn("fast", [&](Actor& self) {
    self.compute(microseconds(10));
    trace.push_back("fast");
  });
  EXPECT_EQ(eng.run(), Status::kOk);
  EXPECT_EQ(trace, (std::vector<std::string>{"fast", "slow"}));
}

TEST(EngineTest, WakeResumesSuspendedActor) {
  Engine eng;
  bool flag = false;
  Actor& waiter = eng.spawn("waiter", [&](Actor& self) {
    self.wait([&] { return flag; }, "flag");
    EXPECT_EQ(self.now(), microseconds(42));
  });
  eng.schedule_at(microseconds(42), [&] {
    flag = true;
    eng.wake(waiter);
  });
  EXPECT_EQ(eng.run(), Status::kOk);
}

TEST(EngineTest, StaleWakeupsAreHarmless) {
  Engine eng;
  bool flag = false;
  Actor& waiter = eng.spawn("waiter", [&](Actor& self) {
    self.wait([&] { return flag; }, "flag");
  });
  // Several wakes while the predicate is still false: the actor must
  // re-suspend each time and only proceed on the real one.
  eng.schedule_at(microseconds(1), [&] { eng.wake(waiter); });
  eng.schedule_at(microseconds(2), [&] { eng.wake(waiter); });
  eng.schedule_at(microseconds(3), [&] {
    flag = true;
    eng.wake(waiter);
  });
  EXPECT_EQ(eng.run(), Status::kOk);
}

/// One waiter blocked on `flag` while a second actor wakes it `kWakes` times
/// with the flag still false, then sets it and wakes it once more. `gated`
/// picks Actor::wait; otherwise the waiter runs the hand-rolled re-check
/// loop that every wakeup resumes.
struct FalseWakeRun {
  static constexpr int kWakes = 1000;
  std::uint64_t events = 0;
  std::uint64_t resumes = 0;
  int actor_checks = 0;    // predicate calls on the waiter's own identity
  int handler_checks = 0;  // predicate calls from a wake event

  explicit FalseWakeRun(bool gated) {
    Engine eng;
    bool flag = false;
    Actor* waiter_self = nullptr;
    auto pred = [&] {
      ++(Actor::current() == waiter_self ? actor_checks : handler_checks);
      return flag;
    };
    Actor& waiter = eng.spawn("waiter", [&](Actor& self) {
      waiter_self = &self;
      if (gated) {
        self.wait(pred, "flag");
      } else {
        while (!pred()) self.suspend("flag");
      }
      EXPECT_TRUE(flag);
    });
    eng.spawn("waker", [&](Actor& self) {
      for (int i = 0; i < kWakes; ++i) {
        self.compute(microseconds(1));
        eng.wake(waiter);
      }
      self.compute(microseconds(1));  // the last false wake must not coalesce
      flag = true;
      eng.wake(waiter);
    });
    EXPECT_EQ(eng.run(), Status::kOk);
    events = eng.events_executed();
    resumes = eng.resumes();
  }
};

TEST(EngineTest, GatedWaiterResumesOnceAcrossFalseWakeups) {
  const FalseWakeRun gated(true);
  const FalseWakeRun loop(false);
  // The predicate runs at the same points either way, so the schedule is
  // the same event for event.
  EXPECT_EQ(gated.events, loop.events);
  EXPECT_EQ(gated.actor_checks + gated.handler_checks,
            loop.actor_checks + loop.handler_checks);
  // Gated: one check on entry, then every wake event checks in handler
  // context and only the last one (flag set) resumes the waiter.
  EXPECT_EQ(gated.actor_checks, 1);
  EXPECT_EQ(gated.handler_checks, FalseWakeRun::kWakes + 1);
  // The loop resumes the waiter's thread for every wakeup.
  EXPECT_EQ(loop.actor_checks, FalseWakeRun::kWakes + 2);
  EXPECT_EQ(loop.handler_checks, 0);
  // Handoffs: run() -> waiter -> waker at the start, waker -> waiter when
  // the flag holds, waiter -> run() at the end. The loop adds a round trip
  // (waker -> waiter -> waker) per false wakeup.
  EXPECT_EQ(gated.resumes, 4u);
  EXPECT_EQ(loop.resumes, 4u + 2u * FalseWakeRun::kWakes);
}

TEST(EngineTest, KillShardWhileGatedRunsNoPredicateAfterThePoison) {
  Engine eng;
  bool unwound = false;
  int checks = 0;
  Actor& victim = eng.spawn_on(2, "victim", [&](Actor& self) {
    OnUnwind guard{unwound};
    self.wait(
        [&] {
          ++checks;
          return false;
        },
        "gated until the node dies");
  });
  for (int t = 1; t <= 3; ++t) {
    eng.schedule_at(microseconds(t), [&] { eng.wake(victim); });
  }
  int checks_at_kill = -1;
  eng.schedule_at(microseconds(5), [&] {
    checks_at_kill = checks;
    eng.wake(victim);  // queued before the poison, runs after it
    eng.kill_shard(2);
    for (int t = 6; t <= 8; ++t) {
      eng.schedule_at(microseconds(t), [&] { eng.wake(victim); });
    }
  });
  EXPECT_EQ(eng.run(), Status::kOk);
  EXPECT_EQ(checks_at_kill, 4);  // entry + three false wakeups
  EXPECT_EQ(checks, checks_at_kill);
  EXPECT_TRUE(unwound);
  EXPECT_TRUE(victim.finished() && victim.poisoned());
}

TEST(EngineTest, ShutdownWhileGatedRunsNoPredicateAfterThePoison) {
  Engine eng;
  bool unwound = false;
  int checks = 0;
  Actor& victim = eng.spawn("victim", [&](Actor& self) {
    OnUnwind guard{unwound};
    self.wait(
        [&] {
          ++checks;
          return false;
        },
        "gated forever");
  });
  eng.schedule_at(microseconds(1), [&] { eng.wake(victim); });
  EXPECT_EQ(eng.run(), Status::kDeadlock);
  EXPECT_EQ(checks, 2);
  eng.wake(victim);  // queued but never dispatched (~Engine sweeps it)
  eng.shutdown();
  EXPECT_EQ(checks, 2);
  EXPECT_TRUE(unwound);
  EXPECT_TRUE(victim.finished() && victim.poisoned());
}

TEST(EngineTest, DeadlockDetected) {
  Engine eng;
  eng.spawn("stuck", [&](Actor& self) {
    self.wait([] { return false; }, "never");
  });
  EXPECT_EQ(eng.run(), Status::kDeadlock);
  EXPECT_FALSE(eng.actors()[0]->finished());
  EXPECT_STREQ(eng.actors()[0]->block_reason(), "never");
}

TEST(EngineTest, NoDeadlockWhenAllFinish) {
  Engine eng;
  for (int i = 0; i < 4; ++i) {
    eng.spawn("t" + std::to_string(i),
              [i](Actor& self) { self.compute(microseconds(i + 1)); });
  }
  EXPECT_EQ(eng.run(), Status::kOk);
}

TEST(EngineTest, ActorExceptionPropagatesToRun) {
  Engine eng;
  eng.spawn("thrower", [&](Actor&) { throw std::runtime_error("boom"); });
  EXPECT_THROW((void)eng.run(), std::runtime_error);
}

TEST(EngineTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    Engine eng;
    std::vector<std::pair<int, Time>> trace;
    for (int i = 0; i < 5; ++i) {
      eng.spawn("t" + std::to_string(i), [&trace, i](Actor& self) {
        for (int k = 0; k < 3; ++k) {
          self.compute(microseconds((i * 7 + k * 3) % 11 + 1));
          trace.emplace_back(i, self.now());
        }
      });
    }
    EXPECT_EQ(eng.run(), Status::kOk);
    return trace;
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
}

TEST(EngineTest, TailBlockRecyclingSurvivesPartialThenFullDrain) {
  // Regression: once the queue head crosses a block boundary, the drained
  // block sits in the spare list AND (until the dead-prefix prune) in the
  // active block table. The full-drain reset must recycle only the live
  // suffix — recycling the whole table duplicates pointers in the spare
  // list, and a later burst maps two active blocks onto the same storage,
  // silently overwriting queued events.
  static constexpr int kWave1 = 2100;  // crosses one 2048-slot block boundary
  static constexpr int kWave2 = 5000;  // spans 3 blocks; an aliased pair corrupts
  Engine eng;
  std::vector<int> order;
  order.reserve(kWave1 + kWave2);
  for (int i = 0; i < kWave1; ++i) {
    eng.schedule_at(microseconds(i), [&order, i] { order.push_back(i); });
  }
  eng.schedule_at(microseconds(kWave1), [&] {
    // Runs after the tail fully drained; these pushes draw recycled blocks.
    for (int j = 0; j < kWave2; ++j) {
      eng.schedule_at(microseconds(kWave1 + 1 + j),
                      [&order, j] { order.push_back(kWave1 + j); });
    }
  });
  EXPECT_EQ(eng.run(), Status::kOk);
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kWave1 + kWave2));
  for (int i = 0; i < kWave1 + kWave2; ++i) {
    ASSERT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(EngineTest, CurrentIsNullInEventContext) {
  Engine eng;
  eng.schedule_at(0, [] { EXPECT_EQ(Actor::current(), nullptr); });
  EXPECT_EQ(eng.run(), Status::kOk);
}

TEST(EngineTest, CountersAccumulate) {
  Engine eng;
  eng.schedule_at(0, [&] { eng.counters().bump("pkts", 3); });
  EXPECT_EQ(eng.run(), Status::kOk);
  EXPECT_EQ(eng.counters().get("pkts"), 3);
}

TEST(EngineTest, SpawnFromActor) {
  Engine eng;
  bool child_ran = false;
  eng.spawn("parent", [&](Actor& self) {
    self.compute(microseconds(5));
    self.engine().spawn("child", [&](Actor& c) {
      EXPECT_EQ(c.now(), microseconds(5));
      child_ran = true;
    });
  });
  EXPECT_EQ(eng.run(), Status::kOk);
  EXPECT_TRUE(child_ran);
}

TEST(EngineTest, KillShardUnwindsActorsSpawnedOnThatShard) {
  Engine eng;
  bool parent_unwound = false;
  bool helper_unwound = false;
  bool survivor_done = false;
  Actor* helper = nullptr;
  Actor& parent = eng.spawn_on(2, "parent", [&](Actor& self) {
    OnUnwind guard{parent_unwound};
    // Plain spawn from an actor inherits that actor's shard.
    helper = &self.engine().spawn("helper", [&](Actor& h) {
      OnUnwind g{helper_unwound};
      h.suspend("blocked until the node dies");
    });
    self.suspend("blocked until the node dies");
  });
  Actor& idle = eng.spawn_stackless(2, "idle", nullptr);
  Actor& survivor = eng.spawn_on(1, "survivor", [&](Actor& self) {
    self.compute(microseconds(30));
    survivor_done = true;
  });
  eng.schedule_at(microseconds(10), [&] {
    ASSERT_NE(helper, nullptr);
    EXPECT_EQ(helper->shard(), 2);
    // Event context has no actor to inherit from.
    EXPECT_EQ(eng.spawn("from-event", [](Actor&) {}).shard(), Engine::kNoShard);
    EXPECT_FALSE(parent_unwound);
    EXPECT_FALSE(helper_unwound);
    eng.kill_shard(2);
    // Mid-run the victims are poisoned at once and unwind right after this
    // callback returns, before any later event runs.
    EXPECT_TRUE(parent.poisoned() && helper->poisoned());
    EXPECT_TRUE(idle.finished());
    eng.schedule_at(eng.now(), [&] {
      EXPECT_TRUE(parent_unwound);
      EXPECT_TRUE(helper_unwound);
      EXPECT_TRUE(parent.finished() && parent.poisoned());
      EXPECT_TRUE(helper->finished() && helper->poisoned());
      EXPECT_FALSE(survivor.finished());
      EXPECT_FALSE(survivor.poisoned());
    });
  });
  EXPECT_EQ(eng.run(), Status::kOk);
  EXPECT_TRUE(survivor_done);
  EXPECT_EQ(eng.now(), microseconds(30));
}

TEST(EngineTest, KillShardIncludingTheDispatchingActor) {
  // The only blocked actor's own thread dispatches the kill event, so the
  // victim is unwound right after the callback that poisoned it returns.
  Engine eng;
  bool unwound = false;
  std::thread::id victim_thread;
  Actor& victim = eng.spawn_on(3, "victim", [&](Actor& self) {
    OnUnwind guard{unwound};
    victim_thread = std::this_thread::get_id();
    self.suspend("blocked until the node dies");
  });
  eng.schedule_at(microseconds(5), [&] {
    EXPECT_EQ(std::this_thread::get_id(), victim_thread);
    EXPECT_EQ(Actor::current(), nullptr);
    eng.kill_shard(3);
    EXPECT_FALSE(unwound);
    eng.schedule_at(eng.now(), [&] { EXPECT_TRUE(unwound); });
  });
  eng.schedule_at(microseconds(7), [&] {
    EXPECT_TRUE(victim.finished() && victim.poisoned());
  });
  EXPECT_EQ(eng.run(), Status::kOk);
  EXPECT_TRUE(unwound);
  EXPECT_EQ(eng.now(), microseconds(7));
}

TEST(EngineTest, CallbackThrowOnActorThreadRethrowsOnRunCaller) {
  Engine eng;
  bool unwound = false;
  std::thread::id actor_thread;
  Actor& a = eng.spawn("blocked", [&](Actor& self) {
    OnUnwind guard{unwound};
    actor_thread = std::this_thread::get_id();
    self.suspend("never woken");
  });
  bool later_ran = false;
  eng.schedule_at(microseconds(3), [&] {
    EXPECT_EQ(std::this_thread::get_id(), actor_thread);
    throw std::runtime_error("callback failed");
  });
  eng.schedule_at(microseconds(4), [&] { later_ran = true; });
  const std::thread::id caller = std::this_thread::get_id();
  try {
    (void)eng.run();
    ADD_FAILURE() << "run() returned instead of rethrowing";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "callback failed");
    EXPECT_EQ(std::this_thread::get_id(), caller);
  }
  EXPECT_FALSE(later_ran);
  EXPECT_FALSE(a.finished());
  eng.shutdown();
  EXPECT_TRUE(unwound);
  EXPECT_TRUE(a.finished() && a.poisoned());
}

TEST(EngineTest, SecondRunAfterDrainResumesBlockedActors) {
  Engine eng;
  bool flag = false;
  int done = 0;
  std::vector<Actor*> waiters;
  for (int i = 0; i < 2; ++i) {
    waiters.push_back(&eng.spawn("w" + std::to_string(i), [&](Actor& self) {
      self.wait([&] { return flag; }, "flag");
      ++done;
    }));
  }
  EXPECT_EQ(eng.run(), Status::kDeadlock);
  EXPECT_EQ(done, 0);
  eng.schedule_at(microseconds(9), [&] {
    flag = true;
    for (Actor* w : waiters) eng.wake(*w);
  });
  EXPECT_EQ(eng.run(), Status::kOk);
  EXPECT_EQ(done, 2);
  EXPECT_EQ(eng.now(), microseconds(9));
}

TEST(EngineTest, DeadlockDetectedWhenAnActorThreadDrains) {
  Engine eng;
  std::thread::id finisher_thread;
  std::thread::id last_dispatch;
  eng.spawn("finisher", [&](Actor& self) {
    finisher_thread = std::this_thread::get_id();
    self.compute(microseconds(1));
  });
  eng.spawn("stuck", [&](Actor& self) {
    eng.schedule_after(microseconds(2),
                       [&] { last_dispatch = std::this_thread::get_id(); });
    self.wait([] { return false; }, "never");
  });
  EXPECT_EQ(eng.run(), Status::kDeadlock);
  // "stuck" suspended last, so its thread resumed "finisher" at 1 us. After
  // its body ended, the finisher's thread ran the 2 us event and drained the
  // queue, then handed the baton back to the run() caller.
  EXPECT_EQ(last_dispatch, finisher_thread);
  EXPECT_NE(last_dispatch, std::this_thread::get_id());
  EXPECT_TRUE(eng.actors()[0]->finished());
  EXPECT_FALSE(eng.actors()[1]->finished());
  EXPECT_STREQ(eng.actors()[1]->block_reason(), "never");
}

}  // namespace
}  // namespace splap::sim
