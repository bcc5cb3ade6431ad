// Fixture engine with gated waits (see suspend_under_handler/src/sim/
// engine.hpp): Actor::wait and WaitSet::park hand their predicate to the
// wake event, which tests it in handler context.
#pragma once

using Time = long long;

namespace splap::sim {

class Actor {
 public:
  void suspend(const char* why) { (void)why; }
  void compute(Time d) { (void)d; }
  template <class Pred>
  void wait(Pred pred, const char* why) { (void)why; (void)pred(); }
  static Actor* current() { return nullptr; }
};

class WaitSet {
 public:
  void add(Actor& a) { (void)a; }
  template <class Pred>
  void park(Actor& a, Pred ready, const char* why) {
    a.wait([&] { return ready(); }, why);
  }
};

class Engine {
 public:
  template <class F>
  void schedule_after(Time d, F f) { (void)d; f(); }
  template <class F>
  void spawn(const char* name, F f) { (void)name; (void)f; }
};

}  // namespace splap::sim
