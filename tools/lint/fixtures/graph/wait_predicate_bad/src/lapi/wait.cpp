// Gate predicates run in the wake event, not on the waiting actor: one that
// charges time or blocks would suspend the dispatcher. Both predicates below
// reach a suspension primitive through a helper. The event at the bottom
// calls a parking function from handler context: WaitSet::park is itself a
// suspension primitive.
#include "sim/engine.hpp"

namespace splap::lapi {

struct Counter {
  long value = 0;
};

bool poll_adapter(sim::Actor* a, const Counter& c) {
  a->compute(5);  // charging time blocks: not allowed in a predicate
  return c.value > 0;
}

bool settle(sim::Actor* a) {
  a->suspend("settle");
  return true;
}

void waitcntr(sim::Actor* a, sim::WaitSet& ws, Counter& c) {
  ws.park(*a, [a, &c] { return poll_adapter(a, c); }, "waitcntr");
}

void fence(sim::Actor* a) {
  a->wait([a] { return settle(a); }, "fence");
}

void arm(sim::Engine& eng, sim::Actor* a, sim::WaitSet& ws, Counter& c) {
  eng.schedule_after(10, [a, &ws, &c] { waitcntr(a, ws, c); });
}

}  // namespace splap::lapi
