// Deterministic discrete-event engine with cooperative actors.
//
// A simulated SP task is an Actor: user code runs on a dedicated OS thread so
// it can block naturally (LAPI_Waitcntr really blocks), but the engine admits
// exactly ONE runnable entity at any instant — either one actor or the event
// loop — by passing a single baton between threads. Execution is therefore
// sequential, race-free and bit-reproducible while the public API looks like
// a normal blocking communication library.
//
// The event loop has no thread of its own: whichever thread holds the baton
// runs it. An actor that suspends keeps its thread and dispatches events
// (with Actor::current() == nullptr, i.e. in handler context) until an event
// resumes some actor. Resuming itself is a plain return; resuming another
// actor hands the baton straight to that actor's thread and parks. The
// thread calling Engine::run() dispatches until it first hands the baton
// away, and gets it back only when the queue drains or a failure is stored.
// Every blocking call thus costs at most one thread switch, not a round trip
// through a dispatcher thread.
//
// Virtual time only advances when the engine pops an event; actors charge
// CPU work explicitly through Actor::compute(). Ties in the event queue break
// by insertion order, which pins down determinism.
//
// Hot-path design (see DESIGN.md "Engine internals"): events live in pooled
// nodes with inline small-buffer callback storage. Ordering uses a two-list
// queue: pushes whose time is >= the newest queued time append to a sorted
// FIFO tail in O(1) (the overwhelmingly common DES pattern — schedule_after
// from a monotone clock), everything else falls back to a binary min-heap of
// 24-byte (time, seq, node) slots. Pop takes whichever front is smaller
// under the same (time, seq) key, so the drain order is bit-identical to a
// single priority queue — and steady state never touches the allocator.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "base/audit.hpp"
#include "base/log.hpp"
#include "base/pool.hpp"
#include "base/stats.hpp"
#include "base/status.hpp"
#include "base/time.hpp"

namespace splap::sim {

class Engine;

/// Thread-creation exhaustion surfaced from Engine::spawn: at high node
/// counts pthread_create legitimately fails (address space for stacks,
/// RLIMIT constraints) and callers need a recoverable error, not an uncaught
/// std::system_error. A spawn inside an event callback or an actor body
/// escapes Engine::run like any other failure. Harness layers translate it
/// into Status::kResourceExhausted.
class SpawnError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A simulated task (or internal service thread). Create via Engine::spawn.
class Actor {
 public:
  ~Actor();
  Actor(const Actor&) = delete;
  Actor& operator=(const Actor&) = delete;

  const std::string& name() const { return name_; }
  int id() const { return id_; }
  Engine& engine() const { return engine_; }

  /// The node shard this actor belongs to (kNoShard when unsharded).
  /// Engine::kill_shard unwinds every actor on a shard, and actors spawned
  /// with plain Engine::spawn inherit their spawner's shard.
  int shard() const { return shard_; }

  /// Current virtual time (engine clock).
  Time now() const;

  /// Charge `d` of virtual CPU time to this actor (it is descheduled and
  /// resumes at now()+d). Models computation between communication calls.
  void compute(Time d);

  /// Deschedule until another entity wakes this actor via Engine::wake.
  /// Callers must use a predicate re-check loop: wakeups can be stale.
  void suspend(const char* why);

  /// Suspend until `pred()` holds, registering in nothing — the waker is
  /// responsible for calling Engine::wake on this actor. While suspended the
  /// actor is gated: each wake event tests `pred()` in handler context and
  /// resumes the actor only once it holds, so a false wakeup costs no thread
  /// switch. `pred` may read state and re-register the actor with its waker,
  /// and must never block.
  template <class Pred>
  void wait(Pred pred, const char* why) {
    if (pred()) return;
    gate_pred_ = &pred;
    gate_ = [](void* p) -> bool { return (*static_cast<Pred*>(p))(); };
    suspend(why);  // clears the gate; returns only after pred() held
  }

  /// The actor currently executing on this thread, or nullptr when the
  /// caller is an event callback (handler context). LAPI uses this to
  /// enforce "header handlers must not block".
  static Actor* current();

  bool finished() const { return finished_; }
  const char* block_reason() const { return block_reason_; }

  /// True while the engine is tearing this actor down (its stack is
  /// unwinding). Destructors running on the actor thread must not block
  /// (suspend would rethrow); libraries use this to degrade to best-effort
  /// cleanup.
  bool poisoned() const;

 private:
  friend class Engine;
  Actor(Engine& engine, int id, int shard, std::string name,
        std::function<void(Actor&)> body);

  // A thread's place in the baton relay. Every thread that can hold the
  // baton owns one: each actor, and Engine::run()'s caller.
  // The holder passes the baton by setting the receiver's word to kGo, and a
  // thread only ever waits on its own word, so this release/acquire pair is
  // the only synchronization a handoff needs (every other field is touched
  // by the baton holder alone).
  struct Seat {
    static constexpr std::uint32_t kGo = 1;
    // Set by the owner just before it futex-parks; the giver's exchange
    // clears it and skips the notify syscall when it was never set (the
    // owner is still spinning or yielding).
    static constexpr std::uint32_t kParkedBit = 2;
    std::atomic<std::uint32_t> word{0};
    int spin_budget = -1;  // adaptive spin bound of wait() (-1: unset)

    // Pass the baton from this seat (the calling thread's own) to `to`.
    void give(Seat& to);
    // Block the owner until a holder gives it the baton. Three phases: an
    // adaptive bounded spin (useful only with >1 hardware thread), a short
    // yield loop (lets the giver's timeslice run on a loaded or single-CPU
    // machine without a futex round trip), then a futex park.
    void wait();
  };

  void thread_main(std::function<void(Actor&)> body);
  // Called from a wake or spawn event: records this actor as the engine's
  // next baton holder; the event loop resumes it once the callback has
  // returned.
  void grant();

  Engine& engine_;
  const int id_;
  const int shard_;
  const std::string name_;
  const char* block_reason_ = "not started";

  bool finished_ = false;
  bool wake_pending_ = false;  // coalesces redundant wakeups
  bool poisoned_ = false;      // engine teardown: unwind on next suspend
  // The gated wait's predicate, type-erased and set for the length of its
  // suspend: the wake event grants only when gate_(gate_pred_) is true.
  bool (*gate_)(void*) = nullptr;
  void* gate_pred_ = nullptr;
  Seat seat_;
  std::thread thread_;
};

class Engine {
 public:
  /// Captures up to this many bytes live inside the pooled event node; only
  /// oversized callables fall back to a heap allocation. 64 covers every
  /// steady-state capture in the tree (fabric: two pointers; LAPI/MPL defer:
  /// this + weak_ptr + std::function = 56 bytes).
  static constexpr std::size_t kInlineCallbackBytes = 64;

  /// Shard of actors not pinned to any node (kill_shard never reaches them).
  static constexpr int kNoShard = -1;

  Engine();
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Time now() const { return now_; }

  /// Schedule `fn` at absolute virtual time `t` (>= now; scheduling into the
  /// virtual past would silently corrupt the clock, so it aborts).
  template <class F>
  void schedule_at(Time t, F&& fn) {
    EventNode* n = event_pool_.acquire();
    n->bind(std::forward<F>(fn));
    commit(t, n);
  }
  template <class F>
  void schedule_after(Time d, F&& fn) {
    schedule_at(now() + d, std::forward<F>(fn));
  }

  /// Raw-thunk fast path (fabric packet staging and the like): the event
  /// carries only a function pointer and a context word, so scheduling
  /// constructs no capture and running destroys nothing. `ctx` must outlive
  /// the event.
  void schedule_thunk(Time t, void (*fn)(void*), void* ctx) {
    EventNode* n = event_pool_.acquire();
    n->invoke = fn;
    n->destroy = nullptr;  // nothing owned; teardown clear() is a no-op
    n->obj = ctx;
    commit(t, n);
  }

  /// Create an actor whose body starts executing, on its own OS thread, at
  /// the current time. The actor inherits the calling actor's shard
  /// (kNoShard when called from event context). Throws SpawnError when the
  /// OS refuses another thread.
  Actor& spawn(std::string name, std::function<void(Actor&)> body);

  /// spawn pinned to node shard `shard` (the SPMD harness pins each task to
  /// its node so kill_shard can crash-stop it).
  Actor& spawn_on(int shard, std::string name,
                  std::function<void(Actor&)> body);

  /// Make `a` runnable again at the current time. Safe to call when the
  /// actor is running or already woken (coalesced into one resume).
  void wake(Actor& a);

  /// Total events dispatched. Throughput observable for the scale
  /// benchmarks.
  std::uint64_t events_executed() const { return events_executed_; }

  /// Baton handoffs from one thread to another (each is one OS thread
  /// switch): the cost that gated waits keep off the per-packet path.
  std::uint64_t resumes() const { return resumes_; }

  /// Run until the event queue drains. Returns kOk, or kDeadlock if actors
  /// remain blocked with no event that could ever wake them. Rethrows the
  /// first exception escaping an actor body or event callback.
  Status run();

  /// Poison and unwind every unfinished actor. Idempotent; invoked by the
  /// destructor. Owners of objects that actors reference (nodes, adapters)
  /// must call this BEFORE destroying those objects.
  void shutdown();

  /// Crash-stop one node: poison and unwind every unfinished actor pinned to
  /// node shard `shard`, at the current virtual time. Actors unwind on their
  /// next resume (RAII runs, so libraries see poisoned() and take their
  /// best-effort teardown path). Actors spawned on the shard afterwards (a
  /// restart) start with a clean slate. Must be called from event context mid-run, or between
  /// runs. Between runs the unwinds happen before kill_shard returns. Mid-run
  /// the victims are poisoned at once but unwind, in actors() order, right
  /// after the current callback returns and before the next event is popped:
  /// one victim may be the actor whose thread is running that callback, and
  /// it cannot unwind beneath its own dispatch frames. Idempotent per actor.
  void kill_shard(int shard);

  /// Instrumentation counters shared machine-wide.
  CounterSet& counters() { return counters_; }

  /// Actors spawned so far (stable order).
  const std::vector<std::unique_ptr<Actor>>& actors() const { return actors_; }

  /// Event nodes allocated so far (steady state: constant — the pool
  /// recycles). Exposed for the allocation-regression tests.
  std::size_t event_nodes_allocated() const { return event_pool_.capacity(); }

  /// Events currently queued (all three lists). Owners use this at teardown
  /// to distinguish "simulation drained" from "torn down mid-flight".
  std::size_t queued_events() const {
    return tail_size_ + heap_.size() + (box_full_ ? 1u : 0u);
  }

#ifdef SPLAP_AUDIT
  // --- Audit hooks (SPLAP_AUDIT builds only) ----------------------------
  // Owners of recycled records register each live generation with the
  // virtual-time race tracker; touches are attributed to the current
  // dispatch step and, when called from actor context, the acting actor.

  void audit_object_begin(const void* obj);
  void audit_object_end(const void* obj);
  void audit_object_touch(const void* obj, const char* where);

  /// Test-only: re-introduce the pre-fix full-drain recycle loop that also
  /// re-recycled the dead-prefix blocks already sitting in the spare list
  /// (the aliasing bug the tail-block shadow set exists to catch). Used by
  /// the auditor's regression fixture; never set outside tests.
  void audit_set_legacy_full_drain(bool v) { audit_legacy_full_drain_ = v; }
#endif

 private:
  friend class Actor;

  /// One scheduled event's callable. Nodes are pool-recycled and
  /// pointer-stable, so the bound callable is constructed once in place and
  /// never moved. Ordering metadata lives in HeapSlot, not here: the heap
  /// sift loops then run over a contiguous array of 24-byte slots and never
  /// dereference a node, which is what makes pops cache-friendly at large
  /// queue depths.
  struct EventNode {
    // invoke runs the callable AND destroys it (even if it throws): the run
    // loop then pays one indirect call per event instead of two. destroy
    // exists for nodes that never run (engine teardown with events queued).
    void (*invoke)(void*) = nullptr;
    void (*destroy)(void*) = nullptr;
    void* obj = nullptr;  // == inline_storage, or a heap allocation
#ifdef SPLAP_AUDIT
    std::uint64_t audit_cause = 0;  // dispatch step that scheduled this event
#endif
    alignas(std::max_align_t) std::byte inline_storage[kInlineCallbackBytes];

    template <class F>
    void bind(F&& fn) {
      using D = std::decay_t<F>;
      if constexpr (sizeof(D) <= kInlineCallbackBytes &&
                    alignof(D) <= alignof(std::max_align_t)) {
        obj = new (inline_storage) D(std::forward<F>(fn));
        destroy = [](void* o) { static_cast<D*>(o)->~D(); };
        invoke = [](void* o) {
          D* d = static_cast<D*>(o);
          struct Reap {  // destroys on both the normal and the throw path
            D* d;
            ~Reap() { d->~D(); }
          } reap{d};
          (*d)();
        };
      } else {
        obj = new D(std::forward<F>(fn));
        destroy = [](void* o) { delete static_cast<D*>(o); };
        invoke = [](void* o) {
          D* d = static_cast<D*>(o);
          struct Reap {
            D* d;
            ~Reap() { delete d; }
          } reap{d};
          (*d)();
        };
      }
    }

    /// Destroy the bound callable; idempotent so teardown can clear nodes
    /// that are mid-flight in the queue. There is deliberately no destructor:
    /// every pooled node is cleared either after it runs or by ~Engine's
    /// queue sweep, and a trivially-destructible node keeps slab teardown
    /// from touching every node's memory again.
    void clear() {
      if (destroy != nullptr) {
        destroy(obj);
        destroy = nullptr;
        invoke = nullptr;
        obj = nullptr;
      }
    }
  };
  static_assert(std::is_trivially_destructible_v<EventNode>);

  /// Queue entry: sort key (t, then insertion seq — identical tie-breaking to
  /// the original std::priority_queue formulation, so pop order and every
  /// simulated timestamp stay bit-identical) plus the owning node.
  struct HeapSlot {
    Time t;
    std::uint64_t seq;
    EventNode* node;
    bool before(const HeapSlot& o) const {
      return t != o.t ? t < o.t : seq < o.seq;
    }
  };

  // --- Two-list event queue --------------------------------------------
  // The sorted FIFO tail holds every push whose time is >= the tail's
  // newest time (seq is always larger, so the order key stays strictly
  // increasing) — the overwhelmingly common DES pattern. Out-of-order
  // pushes go to the binary min-heap heap_. The global minimum is
  // therefore min(front of tail, top of heap), which queue_pop selects
  // with the same before() predicate — pop order is provably identical to
  // one priority queue over all pushed slots.
  //
  // The tail stores slots in fixed-size blocks rather than one vector:
  // growth never copies (a vector doubling through the allocator's mmap
  // range costs page faults per event burst), and drained blocks recycle
  // through a spare list, so steady state allocates nothing.

  struct SlotBlock {
    static constexpr std::size_t kSlots = 2048;  // 48 KB per block
    HeapSlot s[kSlots];
  };

  void tail_push(HeapSlot s) {
    if (tail_back_ == SlotBlock::kSlots || tail_blocks_.empty()) {
      if (tail_spare_.empty()) {
        owned_blocks_.push_back(std::make_unique_for_overwrite<SlotBlock>());
        tail_spare_.push_back(owned_blocks_.back().get());
#ifdef SPLAP_AUDIT
        audit_spare_.insert(owned_blocks_.back().get(), "tail_push grow");
#endif
      }
      tail_blocks_.push_back(tail_spare_.back());
      tail_spare_.pop_back();
#ifdef SPLAP_AUDIT
      audit_spare_.remove(tail_blocks_.back(), "tail_push take-from-spare");
#endif
      tail_back_ = 0;
    }
    tail_blocks_.back()->s[tail_back_++] = s;
    tail_back_t_ = s.t;
    ++tail_size_;
  }

  HeapSlot tail_pop() {
    const HeapSlot s = tail_blocks_[tail_head_block_]->s[tail_head_++];
    if (--tail_size_ == 0) {
      // Fully drained: recycle the live suffix and reset to the empty state.
      // Blocks before tail_head_block_ (the dead prefix kept around between
      // prunes) were already handed to tail_spare_ when the head crossed
      // them; recycling those again would alias two active blocks onto the
      // same storage.
#ifdef SPLAP_AUDIT
      const std::size_t recycle_from =
          audit_legacy_full_drain_ ? 0 : tail_head_block_;
#else
      const std::size_t recycle_from = tail_head_block_;
#endif
      for (std::size_t b = recycle_from; b < tail_blocks_.size(); ++b) {
        tail_spare_.push_back(tail_blocks_[b]);
#ifdef SPLAP_AUDIT
        // A block already in the spare list showing up again here is the
        // storage-aliasing double recycle: two future tail blocks would
        // share one allocation and overwrite each other's queued events.
        audit_spare_.insert(tail_blocks_[b], "tail_pop full-drain recycle");
#endif
      }
      tail_blocks_.clear();
      tail_head_block_ = 0;
      tail_head_ = 0;
      tail_back_ = 0;
    } else if (tail_head_ == SlotBlock::kSlots) {
      tail_spare_.push_back(tail_blocks_[tail_head_block_]);
#ifdef SPLAP_AUDIT
      audit_spare_.insert(tail_blocks_[tail_head_block_],
                          "tail_pop block-crossing recycle");
#endif
      ++tail_head_block_;
      tail_head_ = 0;
      if (tail_head_block_ >= 16) {
        // Drop the dead prefix so a run that never fully drains stays O(1)
        // in block-table space.
        tail_blocks_.erase(tail_blocks_.begin(),
                           tail_blocks_.begin() +
                               static_cast<std::ptrdiff_t>(tail_head_block_));
        tail_head_block_ = 0;
      }
    }
    return s;
  }

  const HeapSlot& tail_front() const {
    return tail_blocks_[tail_head_block_]->s[tail_head_];
  }

  void queue_push(HeapSlot s) {
    // tail_back_t_ is a cached copy of the newest tail slot's time:
    // comparing against the member avoids a load of the slot just stored
    // (store-forwarding stall on back-to-back schedules).
    if (tail_size_ == 0 || tail_back_t_ <= s.t) {
      tail_push(s);
      return;
    }
    push_ooo(s);
  }

  /// Out-of-order push (kept out of line so the monotone fast path above
  /// stays small enough to inline everywhere). The dominant such pattern is
  /// an IMMINENT event — e.g. the fabric scheduling a delivery a few hundred
  /// ns out while the tail holds arrivals microseconds away — so a one-slot
  /// box absorbs it without heap traffic. Placement is pure routing:
  /// queue_pop takes the exact minimum of box/tail/heap under before(), so
  /// pop order is identical no matter which list a slot landed in.
  [[gnu::noinline]] void push_ooo(HeapSlot s) {
    if (!box_full_) {
      box_ = s;
      box_full_ = true;
      return;
    }
    if (s.before(box_)) {
      heap_push(box_);
      box_ = s;
    } else {
      heap_push(s);
    }
  }

  HeapSlot queue_pop() {
    if (!box_full_ && heap_.empty() && tail_size_ != 0) [[likely]] {
      return tail_pop();
    }
    return pop_mixed();
  }

  /// Exact three-way minimum when the box or heap is occupied.
  [[gnu::noinline]] HeapSlot pop_mixed() {
    if (box_full_) {
      if ((heap_.empty() || box_.before(heap_.front())) &&
          (tail_size_ == 0 || box_.before(tail_front()))) {
        box_full_ = false;
        return box_;
      }
    }
    if (tail_size_ != 0 &&
        (heap_.empty() || tail_front().before(heap_.front()))) {
      return tail_pop();
    }
    return heap_pop();
  }

  bool queue_empty() const {
    return tail_size_ == 0 && !box_full_ && heap_.empty();
  }

  void heap_push(HeapSlot s) {
    heap_.push_back(s);
    std::size_t i = heap_.size() - 1;
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!s.before(heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = s;
  }

  HeapSlot heap_pop() {
    const HeapSlot top = heap_.front();
    const HeapSlot last = heap_.back();
    heap_.pop_back();
    const std::size_t sz = heap_.size();
    if (sz > 0) {
      std::size_t i = 0;
      for (;;) {
        const std::size_t left = 2 * i + 1;
        if (left >= sz) break;
        std::size_t child = left;
        if (left + 1 < sz && heap_[left + 1].before(heap_[left])) {
          child = left + 1;
        }
        if (!heap_[child].before(last)) break;
        heap_[i] = heap_[child];
        i = child;
      }
      heap_[i] = last;
    }
    return top;
  }

  void commit(Time t, EventNode* n) {
    SPLAP_REQUIRE(t >= now_, "cannot schedule an event in the virtual past");
#ifdef SPLAP_AUDIT
    n->audit_cause = audit_step_;
#endif
    queue_push(HeapSlot{t, next_seq_++, n});
  }

  Actor& spawn_impl(int shard, std::string name,
                    std::function<void(Actor&)> body);

  /// Dispatch one already-popped event (sets now_, runs, recycles the node;
  /// an exception is stored in failure_ after the node is released).
  void dispatch(const HeapSlot& s);

  /// The event loop, run by the calling thread while it holds the baton and
  /// no actor runs. `self` is that thread's actor, or nullptr for the run()
  /// caller. Returns when `self` is the next holder: at once when an event
  /// resumes `self`, otherwise after handing the baton to the next holder's
  /// thread and parking until it comes back. A finished `self` hands the
  /// baton on and returns without parking (its thread then exits).
  void dispatch_until_resumed(Actor* self);

  /// The next poisoned, unfinished actor in actors_ order that a mid-run
  /// kill_shard left to unwind, or nullptr.
  Actor* next_victim();

  /// Poison every unfinished actor (`all`) or those on `shard`, and unwind
  /// them: at once between runs, after the current callback mid-run (see
  /// kill_shard).
  void poison(int shard, bool all);

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  HeapSlot box_{};        // one-slot fast path for imminent out-of-order pushes
  bool box_full_ = false;
  std::vector<HeapSlot> heap_;
  std::vector<SlotBlock*> tail_blocks_;  // active blocks, front to back
  std::vector<SlotBlock*> tail_spare_;   // drained blocks awaiting reuse
  std::vector<std::unique_ptr<SlotBlock>> owned_blocks_;  // heap-grown blocks
  std::size_t tail_head_block_ = 0;  // block holding the tail's front slot
  std::size_t tail_head_ = 0;        // front slot index within that block
  std::size_t tail_back_ = 0;        // one past the last slot in the back block
  std::size_t tail_size_ = 0;        // slots currently queued in the tail
  Time tail_back_t_ = 0;             // time of the most recently appended slot
  // Embedded first block: simulations of up to kSlots in-flight events (the
  // common case) never allocate tail storage at all.
  SlotBlock first_block_;
  ObjectPool<EventNode> event_pool_{512};
  Actor::Seat run_seat_;  // the seat of the thread inside run() or shutdown()
  std::vector<std::unique_ptr<Actor>> actors_;
  CounterSet counters_;
  bool running_ = false;
  Actor* next_ = nullptr;        // set by grant(): the baton's next holder
  std::exception_ptr failure_;   // first failure of this run; run() rethrows
  static constexpr std::size_t kNoUnwind = SIZE_MAX;
  std::size_t unwind_from_ = kNoUnwind;  // where next_victim() scans from
  std::uint64_t events_executed_ = 0;
  std::uint64_t resumes_ = 0;
#ifdef SPLAP_AUDIT
  // Shadow state (audit builds only). audit_step_ numbers dispatches from 1;
  // 0 means "scheduled before the run loop started", which happens-before
  // everything. The spare-block shadow set mirrors tail_spare_ exactly.
  audit::LiveSet audit_spare_{"tail spare-block"};
  audit::RaceTracker audit_race_;
  std::uint64_t audit_step_ = 0;
  bool audit_legacy_full_drain_ = false;
#endif
};

}  // namespace splap::sim
