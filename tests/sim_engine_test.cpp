#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/time.hpp"

namespace splap::sim {
namespace {

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
  struct OnUnwind {
    bool& flag;
    ~OnUnwind() { flag = true; }
  };
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
    EXPECT_TRUE(parent_unwound);
    EXPECT_TRUE(helper_unwound);
    EXPECT_TRUE(parent.finished() && parent.poisoned());
    EXPECT_TRUE(helper->finished() && helper->poisoned());
    EXPECT_TRUE(idle.finished());
    EXPECT_FALSE(survivor.finished());
    EXPECT_FALSE(survivor.poisoned());
  });
  EXPECT_EQ(eng.run(), Status::kOk);
  EXPECT_TRUE(survivor_done);
  EXPECT_EQ(eng.now(), microseconds(30));
}

}  // namespace
}  // namespace splap::sim
