// The legal shape of a gate predicate: it reads state and re-registers the
// actor with its waker, and the blocking happens in the actor body that
// calls park/wait.
#include "sim/engine.hpp"

namespace splap::lapi {

struct Counter {
  long value = 0;
};

bool reached(const Counter& c, long val) { return c.value >= val; }

void waitcntr(sim::Actor* a, sim::WaitSet& ws, Counter& c, long val) {
  a->compute(2);  // the call's entry charge, before parking
  ws.park(*a, [&c, val] { return reached(c, val); }, "waitcntr");
}

void await_flag(sim::Actor* a, sim::WaitSet& ws, const bool& flag) {
  a->wait(
      [a, &ws, &flag] {
        if (flag) return true;
        ws.add(*a);
        return false;
      },
      "flag");
}

void run(sim::Engine& eng, sim::Actor* a, sim::WaitSet& ws, Counter& c) {
  eng.spawn("task", [a, &ws, &c] {
    waitcntr(a, ws, c, 1);
    bool flag = false;
    await_flag(a, ws, flag);
  });
}

}  // namespace splap::lapi
