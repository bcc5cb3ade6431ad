#include "sim/engine.hpp"

#include <algorithm>
#include <system_error>
#include <utility>

namespace splap::sim {
namespace {

thread_local Actor* tls_current_actor = nullptr;

/// Thrown into a blocked actor when the engine is torn down, so its thread
/// unwinds cleanly (RAII still runs). Never escapes thread_main.
struct ActorKilled {};

bool multi_hw() {
  static const bool v = std::thread::hardware_concurrency() > 1;
  return v;
}

/// Starting spin budget before yielding/parking. On a single hardware thread
/// spinning only delays the partner's timeslice, so the fast path goes
/// straight to the yield loop.
int initial_spin_budget() { return multi_hw() ? 256 : 0; }

constexpr int kSpinMax = 4096;
constexpr int kYieldRounds = 2;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

}  // namespace

// ---------------------------------------------------------------------------
// Actor
// ---------------------------------------------------------------------------

Actor::Actor(Engine& engine, int id, int shard, std::string name,
             std::function<void(Actor&)> body)
    : engine_(engine),
      id_(id),
      shard_(shard),
      stackless_(false),
      name_(std::move(name)) {
  thread_ = std::thread([this, b = std::move(body)]() mutable {
    thread_main(std::move(b));
  });
}

Actor::Actor(Engine& engine, int id, int shard, std::string name,
             std::function<void(Actor&)> body, StacklessTag)
    : engine_(engine),
      id_(id),
      shard_(shard),
      stackless_(true),
      name_(std::move(name)),
      stackless_body_(std::move(body)) {
  block_reason_ = stackless_body_ ? "not started" : "stackless-idle";
}

Actor::~Actor() {
  if (thread_.joinable()) thread_.join();
}

Time Actor::now() const { return engine_.now(); }

Actor* Actor::current() { return tls_current_actor; }

void Actor::Seat::give(Seat& to) {
  // Nobody else writes our word until the baton comes back to us, which
  // happens-after the exchange below, so clearing it here cannot race.
  word.store(0, std::memory_order_relaxed);
  if ((to.word.exchange(kGo, std::memory_order_acq_rel) & kParkedBit) != 0) {
    to.word.notify_one();
  }
}

void Actor::Seat::wait() {
  auto taken = [this] {
    return (word.load(std::memory_order_acquire) & kGo) != 0;
  };
  if (taken()) return;
  if (spin_budget < 0) spin_budget = initial_spin_budget();
  for (int i = spin_budget; i-- > 0;) {
    cpu_relax();
    if (taken()) return;
  }
  // Yield phase: on a loaded or single-CPU machine the giver needs our
  // timeslice, not our spinning — and a yield that succeeds saves the futex
  // wait AND the giver's wake syscall (it sees no parked bit).
  for (int i = 0; i < kYieldRounds; ++i) {
    std::this_thread::yield();
    if (taken()) {
      if (multi_hw() && spin_budget < kSpinMax) {
        // Spin missed but yield caught it: a longer spin may dodge even the
        // yield next time.
        spin_budget = std::min(spin_budget * 2 + 16, kSpinMax);
      }
      return;
    }
  }
  spin_budget /= 2;  // both phases missed: spinning is wasted here
  // Advertise the park so the giver knows a wake is needed. Only the giver's
  // exchange clears the bit; a post-wake store here could clobber it.
  std::uint32_t cur =
      word.fetch_or(kParkedBit, std::memory_order_acq_rel) | kParkedBit;
  while ((cur & kGo) == 0) {
    word.wait(cur, std::memory_order_acquire);
    cur = word.load(std::memory_order_acquire);
  }
}

void Actor::thread_main(std::function<void(Actor&)> body) {
  seat_.wait();  // the first grant
  tls_current_actor = this;
  block_reason_ = "running";
  if (!poisoned_) {
    try {
      body(*this);
    } catch (const ActorKilled&) {
      // Engine teardown: unwind silently.
    } catch (...) {
      // A crash-stop or teardown unwind drops late failures.
      if (!poisoned_) engine_.failure_ = std::current_exception();
    }
  }
  body = nullptr;  // free the captures while this thread holds the baton
  tls_current_actor = nullptr;
  block_reason_ = "finished";
  finished_ = true;
  engine_.dispatch_until_resumed(this);
}

bool Actor::poisoned() const { return poisoned_; }

void Actor::grant() {
  if (finished_) return;
  if (stackless_) {
    Actor* saved = tls_current_actor;
    tls_current_actor = this;
    block_reason_ = "running";
    struct Restore {  // restores on the throw path too
      Actor*& slot;
      Actor* saved;
      Actor* self;
      ~Restore() {
        slot = saved;
        self->block_reason_ = "finished";
        self->finished_ = true;
      }
    } restore{tls_current_actor, saved, this};
    if (stackless_body_) {
      // Move out so captured state is freed as soon as the body returns.
      auto body = std::move(stackless_body_);
      stackless_body_ = nullptr;
      body(*this);
    }
    return;
  }
  SPLAP_REQUIRE(engine_.next_ == nullptr,
                "one event may resume at most one thread-backed actor");
  engine_.next_ = this;
}

void Actor::run_inline(const std::function<void(Actor&)>& fn) {
  SPLAP_REQUIRE(stackless_,
                "run_inline is only valid on a stackless actor (thread-backed "
                "actors run their own body)");
  SPLAP_REQUIRE(!finished_, "run_inline on a finished actor");
  Actor* saved = tls_current_actor;
  tls_current_actor = this;
  const char* saved_reason = block_reason_;
  block_reason_ = "running";
  struct Restore {
    Actor*& slot;
    Actor* saved;
    Actor* self;
    const char* reason;
    ~Restore() {
      slot = saved;
      self->block_reason_ = reason;
    }
  } restore{tls_current_actor, saved, this, saved_reason};
  fn(*this);
}

void Actor::suspend(const char* why) {
  SPLAP_REQUIRE(!stackless_,
                "stackless (handler-mode) actor attempted to block; stackless "
                "actors must never suspend/wait/compute — use a thread-backed "
                "actor for blocking code");
  SPLAP_REQUIRE(current() == this,
                "suspend() may only be called from the actor's own thread "
                "(blocking is forbidden in handler/event context)");
  block_reason_ = why;
  engine_.dispatch_until_resumed(this);
  gate_ = nullptr;  // before the kill unwind too: wait()'s frame goes away
  if (poisoned_) throw ActorKilled{};
  block_reason_ = "running";
}

void Actor::compute(Time d) {
  SPLAP_REQUIRE(d >= 0, "compute() requires a non-negative duration");
  if (d == 0) return;
  bool fired = false;
  engine_.schedule_after(d, [this, &fired] {
    // A killed actor's stack (and `fired` with it) unwinds before its
    // pending wake fires: touch nothing of it then.
    if (poisoned_) return;
    fired = true;
    engine_.wake(*this);
  });
  while (!fired) suspend("compute");
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

Engine::Engine() {
  tail_spare_.push_back(&first_block_);
#ifdef SPLAP_AUDIT
  audit_spare_.insert(&first_block_, "Engine ctor");
#endif
}

Engine::~Engine() {
  shutdown();
  // Join every thread before freeing any actor: a finishing thread's last
  // act is a handoff into another thread's seat.
  for (auto& a : actors_) {
    if (a->thread_.joinable()) a->thread_.join();
  }
  // Events still queued (failed run, deadlock) own callables; destroy them
  // before the pool slabs go away. Audit builds also hand the swept nodes
  // back to the pool so acquire/release pairing balances, then verify no
  // node is left acquired: any remainder escaped both the run loop and this
  // sweep, i.e. a queue-bookkeeping leak.
#ifdef SPLAP_AUDIT
#define SPLAP_SWEEP(node) \
  do {                    \
    (node)->clear();      \
    event_pool_.release(node); \
  } while (0)
#else
#define SPLAP_SWEEP(node) (node)->clear()
#endif
  if (box_full_) SPLAP_SWEEP(box_.node);
  for (const HeapSlot& s : heap_) SPLAP_SWEEP(s.node);
  std::size_t idx = tail_head_;
  for (std::size_t b = tail_head_block_; b < tail_blocks_.size(); ++b) {
    const std::size_t end =
        b + 1 == tail_blocks_.size() ? tail_back_ : SlotBlock::kSlots;
    for (std::size_t j = idx; j < end; ++j) SPLAP_SWEEP(tail_blocks_[b]->s[j].node);
    idx = 0;
  }
#undef SPLAP_SWEEP
#ifdef SPLAP_AUDIT
  if (event_pool_.in_use() != 0) {
    audit::fail("event node leak at engine teardown", "Engine::~Engine",
                nullptr);
  }
#endif
}

#ifdef SPLAP_AUDIT
void Engine::audit_object_begin(const void* obj) { audit_race_.begin(obj); }

void Engine::audit_object_end(const void* obj) { audit_race_.end(obj); }

void Engine::audit_object_touch(const void* obj, const char* where) {
  const Actor* a = Actor::current();
  const int actor_id = a != nullptr ? a->id() : -1;
  audit_race_.touch(obj, now_, audit_step_, actor_id, where);
}
#endif

void Engine::shutdown() {
  // Unwind any actor still blocked (failed run, deadlock, or an exception
  // that aborted the event loop).
  poison(kNoShard, true);
}

void Engine::kill_shard(int shard) { poison(shard, false); }

void Engine::poison(int shard, bool all) {
  for (std::size_t i = 0; i < actors_.size(); ++i) {
    Actor& a = *actors_[i];
    if (a.finished_ || (!all && a.shard_ != shard)) continue;
    a.poisoned_ = true;
    if (a.stackless_) {
      // No stack to unwind: mark finished and drop any unstarted body.
      a.finished_ = true;
      a.block_reason_ = "finished";
      a.stackless_body_ = nullptr;
    } else if (running_) {
      // The victim may own this very thread: the loop unwinds it once the
      // current callback has returned.
      unwind_from_ = std::min(unwind_from_, i);
    } else {
      // One resume in which suspend() throws the teardown exception and the
      // stack unwinds; the thread then hands the baton straight back.
      run_seat_.give(a.seat_);
      run_seat_.wait();
    }
  }
}

Actor* Engine::next_victim() {
  for (; unwind_from_ < actors_.size(); ++unwind_from_) {
    Actor& a = *actors_[unwind_from_];
    if (a.poisoned_ && !a.finished_) return &a;
  }
  unwind_from_ = kNoUnwind;
  return nullptr;
}

Actor& Engine::spawn_impl(int shard, std::string name,
                          std::function<void(Actor&)> body, bool stackless) {
  const bool has_body = static_cast<bool>(body);
  const int id = static_cast<int>(actors_.size());
  std::unique_ptr<Actor> a;
  if (stackless) {
    a.reset(new Actor(*this, id, shard, std::move(name), std::move(body),
                      Actor::StacklessTag{}));
  } else {
    try {
      a.reset(new Actor(*this, id, shard, std::move(name), std::move(body)));
    } catch (const std::system_error& e) {
      throw SpawnError(std::string("cannot create a thread for actor #") +
                       std::to_string(id) + ": " + e.what() +
                       " — the OS refused another thread; reduce the node "
                       "count or use stackless actors for non-blocking "
                       "endpoints");
    }
  }
  Actor* p = a.get();
  actors_.push_back(std::move(a));
  // Stackless identity actors (null body) exist only as run_inline targets;
  // everything else gets its body started at the current time.
  if (!stackless || has_body) {
    schedule_at(now(), [p] { p->grant(); });
  }
  return *p;
}

Actor& Engine::spawn(std::string name, std::function<void(Actor&)> body) {
  const Actor* cur = tls_current_actor;
  return spawn_impl(cur != nullptr ? cur->shard() : kNoShard, std::move(name),
                    std::move(body), false);
}

Actor& Engine::spawn_on(int shard, std::string name,
                        std::function<void(Actor&)> body) {
  return spawn_impl(shard, std::move(name), std::move(body), false);
}

Actor& Engine::spawn_stackless(int shard, std::string name,
                               std::function<void(Actor&)> body) {
  return spawn_impl(shard, std::move(name), std::move(body), true);
}

void Engine::wake(Actor& a) {
  SPLAP_REQUIRE(!a.stackless_,
                "wake() on a stackless actor (they never block, so there is "
                "nothing to resume)");
  if (a.finished_) return;
  if (a.wake_pending_) return;
  a.wake_pending_ = true;
  schedule_at(now(), [&a] {
    a.wake_pending_ = false;
    // A gated actor whose predicate is still false stays parked: this is
    // the point where its resumed thread would have re-checked and
    // suspended again. A poisoned one is granted at once so it unwinds.
    if (a.gate_ != nullptr && !a.poisoned_ && !a.gate_(a.gate_pred_)) {
      return;
    }
    a.grant();
  });
}

void Engine::dispatch(const HeapSlot& s) {
  // Touch the NEXT event's node while this one executes: queued nodes
  // cycle through a pool region larger than L1, and the pointer chase is
  // otherwise on the critical path of every dispatch.
  if (tail_size_ != 0) __builtin_prefetch(tail_front().node);
  EventNode* n = s.node;
  now_ = s.t;
#ifdef SPLAP_AUDIT
  audit_race_.on_dispatch(++audit_step_, n->audit_cause);
#endif
  // invoke destroys the callable on both paths, so the node goes straight
  // back to the pool; a free node's stale thunk pointers are never read
  // (bind overwrites them, and ~Engine only sweeps queued nodes).
  try {
    n->invoke(n->obj);
  } catch (...) {
    failure_ = std::current_exception();
  }
  event_pool_.release(n);
  ++events_executed_;
}

void Engine::dispatch_until_resumed(Actor* self) {
  tls_current_actor = nullptr;  // handler context, whichever thread this is
  Actor* next = nullptr;
  while (running_ && !failure_) {
    next = std::exchange(next_, nullptr);
    if (next == nullptr && unwind_from_ != kNoUnwind) next = next_victim();
    if (next != nullptr || queue_empty()) break;
    dispatch(queue_pop());
  }
  // next == nullptr: the baton goes back to the run() caller.
  tls_current_actor = self;
  if (next == self) return;
  Actor::Seat& mine = self != nullptr ? self->seat_ : run_seat_;
  const bool exiting = self != nullptr && self->finished_;
  ++resumes_;
  mine.give(next != nullptr ? next->seat_ : run_seat_);
  if (!exiting) mine.wait();
}

Status Engine::run() {
  SPLAP_REQUIRE(!running_, "Engine::run is not reentrant");
  running_ = true;
  dispatch_until_resumed(nullptr);
  running_ = false;
  if (failure_) std::rethrow_exception(std::exchange(failure_, nullptr));
  bool dead = false;
  for (const auto& a : actors_) {
    if (a->stackless()) continue;  // no stack, nothing ever blocks
    if (!a->finished()) {
      dead = true;
      SPLAP_WARN(now_, "deadlock: actor %d (%s) blocked on: %s", a->id(),
                 a->name().c_str(), a->block_reason());
    }
  }
  return dead ? Status::kDeadlock : Status::kOk;
}

}  // namespace splap::sim
