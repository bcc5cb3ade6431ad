// Model-based test of the per-peer lifecycle (healthy / suspected / failed /
// reborn) with credit flow control and the keepalive detector both on.
//
// A seeded plan drives four tasks through random sequences of operations and
// fault episodes; every task runs the same driver (put and get batches to its
// peers in round-robin order) while a sampler actor on the same node watches
// the context's public state. The plan's episodes are:
//   - loss bursts: the victim is cut off in both directions for a few hundred
//     microseconds (RTO expiry and retransmission);
//   - silence windows: everything the victim transmits is blackholed for a
//     few milliseconds (suspicion crossing, quarantine of started and newly
//     submitted records, heal on contact);
//   - crashes: kill_node then restart_node (direct verdicts and their
//     gossip when the crash beats estimator warmup, otherwise suspicion;
//     rebirth under a new epoch fails what was addressed to the old life).
// Episodes are separated by calm stretches long enough for every accrual
// estimator to refill its window with healthy gaps.
//
// The reference model is small. Per (observer, peer) it knows which phase
// the pair is in: calm, or disturbed — inside an episode that involves
// either end, inside any silence or crash window (drivers blocked on the
// victim leave every other pair idle, and the accrual detector counts idle
// time as silence), or in the verdict tail of either. Against it the test
// checks, at every step:
//   - the reported lifecycle is one of the three states, never two at once;
//   - an operation that completes kOk in a calm phase leaves the peer
//     healthy (the completing packet is contact); one that completes
//     kPeerFailed leaves it failed, or the peer was reborn meanwhile;
//   - kPeerFailed, and every death verdict the error handler reports, only
//     happens while the pair is disturbed;
//   - inside a silence or crash window, an observer with an operation
//     pending toward the victim reports it suspected or failed once the
//     window is old enough for the detector to have crossed its threshold;
//   - credit conservation: no balance exceeds the window, and whenever the
//     context holds no send record every balance equals the window and
//     nothing is quarantined;
//   - every operation's counters fire exactly once, ok or failed.
// A second test runs accrual escalation and isolates the gossip
// corroboration rule: an accrual-only verdict reaches a bystander that never
// suspects the peer, and latches there exactly when a second distinct
// observer reports it too.
#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <vector>

#include "base/rng.hpp"
#include "lapi/context.hpp"
#include "net/machine.hpp"
#include "sim/sync.hpp"

namespace splap {
namespace {

constexpr int kTasks = 4;
constexpr std::int64_t kWindow = 4;
constexpr Time kKeepalive = microseconds(100);
constexpr Time kSampleStep = microseconds(20);
/// After an episode closes, verdicts computed from its silence may still
/// land (a keepalive tick before the first healed packet arrives, gossip,
/// the error handler's completion-pool hop, the idle stretches it caused).
constexpr Time kGrace = milliseconds(2.0);
/// Inside a silence or crash window, the time by which a warm detector has
/// crossed its suspicion threshold against a peer it has traffic pending to.
constexpr Time kSettle = milliseconds(2.5);
/// Accrual-only gossip latches at a bystander once this many distinct
/// observers (reporters plus its own suspicion) agree.
constexpr int kQuorum = 2;
constexpr std::int64_t kSlice = 16 * 1024;  // landing bytes per origin
/// Accrual escalation off: suspicion quarantines but never kills. With it
/// on, the accrual detector counts an observer's idle stretch toward a peer
/// as that peer's silence: when a driver blocked on a silent victim resumes
/// talking to a healthy peer, the first keepalive tick can declare that
/// peer dead, and a get whose serving side falsely declared the origin dead
/// is never completed (both recorded in CHANGES.md as open faults). Deaths
/// here come from crashes: the fixed-miss rule before an estimator is warm,
/// and rebirth failing the records addressed to the old life.
constexpr double kNoEscalation = 1e6;

const std::uint64_t kSeeds[] = {3, 7, 19, 42, 101, 977};

std::string seed_name(const ::testing::TestParamInfo<std::uint64_t>& info) {
  return "seed" + std::to_string(info.param);
}

enum class Life { kHealthy, kSuspected, kFailed };

const char* life_name(Life l) {
  switch (l) {
    case Life::kHealthy: return "healthy";
    case Life::kSuspected: return "suspected";
    case Life::kFailed: return "failed";
  }
  return "?";
}

Life reported(const lapi::Context& ctx, int peer) {
  const bool failed = ctx.peer_failed(peer);
  const bool suspected = ctx.peer_suspected(peer);
  EXPECT_FALSE(failed && suspected)
      << "task " << ctx.task_id() << " reports peer " << peer
      << " failed and suspected at once";
  if (failed) return Life::kFailed;
  return suspected ? Life::kSuspected : Life::kHealthy;
}

/// `fail_threshold` is the accrual escalation point; the lifecycle test
/// turns escalation off (see RandomLifecycleMatchesModel), the gossip test
/// runs it.
lapi::Config model_config(double fail_threshold) {
  lapi::Config c;
  c.retransmit_timeout = microseconds(150);
  c.max_retries = 8;
  c.credit_window = kWindow;
  c.keepalive_interval = kKeepalive;
  c.suspect_threshold = 2.0;
  c.fail_threshold = fail_threshold;
  return c;
}

// ---------------------------------------------------------------------------
// The plan and the phase model
// ---------------------------------------------------------------------------

struct Episode {
  enum Kind { kLossBurst, kSilence, kCrash };
  Kind kind;
  int victim;
  Time from;
  Time until;
};

struct Plan {
  std::vector<Episode> episodes;
  Time ops_end = 0;

  /// The pair (a, b) is disturbed over [from, to]: an episode overlaps it,
  /// its verdict tail included, and either involves one end or is a long
  /// one. A long episode shadows every pair: drivers blocked on the victim
  /// stop talking to everyone else, and the accrual detector counts such an
  /// idle stretch as silence once traffic resumes.
  bool disturbed(int a, int b, Time from, Time to) const {
    for (const Episode& e : episodes) {
      if (e.kind == Episode::kLossBurst && e.victim != a && e.victim != b) {
        continue;
      }
      if (e.from <= to && from < e.until + kGrace) return true;
    }
    return false;
  }
  /// `peer` restarted under a new incarnation within (from, to].
  bool reborn(int peer, Time from, Time to) const {
    for (const Episode& e : episodes) {
      if (e.kind == Episode::kCrash && e.victim == peer && from < e.until &&
          e.until <= to) {
        return true;
      }
    }
    return false;
  }
};

Plan make_plan(std::uint64_t seed) {
  Rng rng(seed);
  Plan plan;
  // A calm start warms every estimator; a third of the plans instead crash a
  // node before any rhythm exists, where the fixed-miss fallback issues a
  // direct verdict that gossip latches unconditionally.
  Time t = milliseconds(4.0);
  if (rng.next_below(3) == 0) {
    const Time from = microseconds(150);
    const Time until = from + microseconds(rng.next_in(2500, 3500));
    plan.episodes.push_back({Episode::kCrash,
                             static_cast<int>(rng.next_below(kTasks)), from,
                             until});
    t = until + milliseconds(6.0);
  }
  for (int i = 0; i < 4; ++i) {
    const auto kind = static_cast<Episode::Kind>(rng.next_below(3));
    const int victim = static_cast<int>(rng.next_below(kTasks));
    const Time len = kind == Episode::kLossBurst
                         ? microseconds(rng.next_in(100, 300))
                         : microseconds(rng.next_in(3000, 4000));
    plan.episodes.push_back({kind, victim, t, t + len});
    t += len + milliseconds(6.0);
  }
  plan.ops_end = t;
  return plan;
}

std::string describe(const Plan& plan) {
  static const char* const kKinds[] = {"loss burst", "silence", "crash"};
  std::string out = "plan:";
  for (const Episode& e : plan.episodes) {
    out += std::string(" [") + kKinds[e.kind] + " of " +
           std::to_string(e.victim) + " " + std::to_string(e.from) + ".." +
           std::to_string(e.until) + "]";
  }
  return out + " ops end " + std::to_string(plan.ops_end);
}

net::Machine::Config machine_config(std::uint64_t seed, const Plan& plan) {
  net::Machine::Config mc;
  mc.tasks = kTasks;
  mc.fabric.seed = seed * 7 + 1;
  mc.fabric.fault.seed = seed;
  for (const Episode& e : plan.episodes) {
    if (e.kind == Episode::kCrash) continue;
    net::PartitionFault mute;
    mute.src = e.victim;
    mute.from = e.from;
    mute.until = e.until;
    mc.fabric.fault.partitions.push_back(mute);
    if (e.kind == Episode::kLossBurst) {
      net::PartitionFault deaf = mute;
      deaf.src = -1;
      deaf.dst = e.victim;
      mc.fabric.fault.partitions.push_back(deaf);
    }
  }
  return mc;
}

// ---------------------------------------------------------------------------
// Per-life bookkeeping (harness-owned: it outlives crashed actors)
// ---------------------------------------------------------------------------

struct Op {
  int target = -1;
  bool get = false;
  bool has_cmpl = false;
  Time issued = 0;
  bool done = false;
  lapi::Counter org;
  lapi::Counter cmpl;
  std::vector<std::byte> buf;
};

struct LifeState {
  int node = -1;
  std::deque<Op> ops;  // stable addresses: LAPI holds counter pointers
  bool stop = false;
  int next_target = 0;
};

struct Verdict {
  int observer;
  int peer;
  Time at;
};

struct Harness {
  const Plan& plan;
  std::vector<std::vector<std::byte>> landing;
  std::deque<LifeState> lives;
  std::vector<Verdict> verdicts;

  explicit Harness(const Plan& p)
      : plan(p),
        landing(kTasks,
                std::vector<std::byte>(static_cast<std::size_t>(kSlice *
                                                                kTasks))) {}

  std::byte* slice(int target, int origin) {
    return landing[static_cast<std::size_t>(target)].data() +
           static_cast<std::ptrdiff_t>(kSlice * origin);
  }

  lapi::Config config() {
    lapi::Config c = model_config(kNoEscalation);
    c.error_handler = [this](lapi::Context& ctx, int peer, Status st) {
      EXPECT_EQ(st, Status::kPeerFailed);
      verdicts.push_back({ctx.task_id(), peer, ctx.engine().now()});
    };
    return c;
  }

  /// One completion observed the moment its counter fired (the wait
  /// blocked): check it against the phase model.
  void check_completion(lapi::Context& ctx, const Op& op, Status st,
                        bool final_counter) {
    const int me = ctx.task_id();
    const Time now = ctx.engine().now();
    ASSERT_TRUE(st == Status::kOk || st == Status::kPeerFailed)
        << "task " << me << " op to " << op.target << " completed "
        << static_cast<int>(st);
    const bool disturbed = plan.disturbed(me, op.target, op.issued, now);
    if (st == Status::kPeerFailed) {
      EXPECT_TRUE(disturbed) << "task " << me << " op to " << op.target
                             << " failed in a calm phase at " << now;
      const Life l = reported(ctx, op.target);
      EXPECT_TRUE(l == Life::kFailed ||
                  plan.reborn(op.target, op.issued, now))
          << "task " << me << " op to " << op.target
          << " failed but the peer reads " << life_name(l) << " at " << now;
    } else if (final_counter && !plan.disturbed(me, op.target, now, now)) {
      const Life l = reported(ctx, op.target);
      EXPECT_EQ(l, Life::kHealthy)
          << "task " << me << " completed an op from " << op.target
          << " yet reads it " << life_name(l) << " at " << now;
    }
  }

  void sample(lapi::Context& ctx, const LifeState& st) {
    const int me = ctx.task_id();
    const Time now = ctx.engine().now();
    bool any_suspected = false;
    for (int p = 0; p < kTasks; ++p) {
      if (p == me) continue;
      const Life l = reported(ctx, p);
      any_suspected |= l == Life::kSuspected;
      EXPECT_LE(ctx.credits_available(p), kWindow)
          << "task " << me << " over-released credits toward " << p;
      for (const Episode& e : plan.episodes) {
        if (e.kind == Episode::kLossBurst || e.victim != p) continue;
        if (now < e.from + kSettle || now >= e.until) continue;
        for (const Op& op : st.ops) {
          if (op.done || op.target != p || op.issued + 3 * kKeepalive > now) {
            continue;
          }
          EXPECT_NE(l, Life::kHealthy)
              << "task " << me << " still reads silent peer " << p
              << " healthy at " << now;
          break;
        }
      }
    }
    if (!any_suspected) {
      EXPECT_EQ(ctx.suspect_queued(), 0u)
          << "task " << me << " quarantines records with no suspect";
    }
    if (ctx.pending_sends() == 0) {
      EXPECT_EQ(ctx.suspect_queued(), 0u);
      for (int p = 0; p < kTasks; ++p) {
        if (p == me) continue;
        EXPECT_EQ(ctx.credits_available(p), kWindow)
            << "task " << me << " leaked credits toward " << p
            << " with no record live at " << now;
      }
    }
  }

  Op& issue(lapi::Context& ctx, LifeState& st, Rng& rng, int target) {
    const int me = ctx.task_id();
    Op& op = st.ops.emplace_back();
    op.target = target;
    op.issued = ctx.engine().now();
    // Sizes span one packet to well past the credit window (an over-window
    // message starts only on an idle pool and drives the balance negative).
    static constexpr std::int64_t kLens[] = {64, 700, 2500, 5000};
    const std::int64_t len = kLens[rng.next_below(std::size(kLens))];
    op.buf.assign(static_cast<std::size_t>(len), std::byte{0x42});
    op.get = rng.next_below(3) == 0;
    Status s;
    if (op.get) {
      s = ctx.get(target, len, slice(target, me), op.buf.data(), nullptr,
                  &op.org);
    } else {
      op.has_cmpl = true;
      s = ctx.put(target, op.buf, slice(target, me), nullptr, &op.org,
                  &op.cmpl);
    }
    EXPECT_EQ(s, Status::kOk);
    return op;
  }

  Status finish(lapi::Context& ctx, const Op& op, lapi::Counter& c,
                bool final_counter) {
    const bool blocks = ctx.getcntr(c) == 0;
    const Status st = ctx.waitcntr(c, 1);
    if (blocks) check_completion(ctx, op, st, final_counter);
    return st;
  }

  void complete(lapi::Context& ctx, Op& op) {
    const Status a = finish(ctx, op, op.org, !op.has_cmpl);
    if (op.has_cmpl) {
      const Status b = finish(ctx, op, op.cmpl, true);
      if (a == Status::kOk) {
        EXPECT_TRUE(b == Status::kOk || b == Status::kPeerFailed);
      }
    }
    op.done = true;
  }

  int next_target(LifeState& st, int me) {
    st.next_target = (st.next_target + 1) % kTasks;
    if (st.next_target == me) st.next_target = (st.next_target + 1) % kTasks;
    return st.next_target;
  }

  /// One life of one node: drive batches until the plan's end, then a calm
  /// final round that must find every peer healthy and every lease home.
  void drive(net::Node& n, std::uint64_t seed) {
    LifeState& st = lives.emplace_back();
    st.node = n.id();
    lapi::Context ctx(n, config());
    Rng rng(seed * 131 + static_cast<std::uint64_t>(lives.size()));
    ctx.engine().spawn("model-sampler", [this, &st, &ctx](sim::Actor& a) {
      for (;;) {
        a.compute(kSampleStep);
        if (st.stop) return;
        sample(ctx, st);
      }
    });
    const int me = n.id();
    while (ctx.engine().now() < plan.ops_end) {
      const int batch = 1 + static_cast<int>(rng.next_below(3));
      const std::size_t first = st.ops.size();
      for (int k = 0; k < batch; ++k) {
        issue(ctx, st, rng, next_target(st, me));
      }
      for (std::size_t i = first; i < st.ops.size(); ++i) {
        complete(ctx, st.ops[i]);
      }
    }
    // Calm final round: contact with every peer clears every latch.
    for (int k = 0; k < kTasks - 1; ++k) {
      Op& op = issue(ctx, st, rng, next_target(st, me));
      complete(ctx, op);
    }
    st.stop = true;
    EXPECT_EQ(ctx.gfence(), Status::kOk) << "task " << me;
    // The barrier's own pulses settle after the fence inside it.
    for (int i = 0; i < 500 && ctx.pending_sends() > 0; ++i) {
      sim::Actor::current()->compute(kSampleStep);
    }
    EXPECT_EQ(ctx.pending_sends(), 0u) << "task " << me;
    EXPECT_EQ(ctx.suspect_queued(), 0u) << "task " << me;
    for (int p = 0; p < kTasks; ++p) {
      if (p == me) continue;
      EXPECT_EQ(reported(ctx, p), Life::kHealthy) << "task " << me;
      EXPECT_EQ(ctx.credits_available(p), kWindow)
          << "task " << me << " toward " << p;
    }
    // Exactly once: each counter was consumed by one wait; a second firing
    // would show up here.
    for (Op& op : st.ops) {
      EXPECT_EQ(ctx.getcntr(op.org), 0)
          << "task " << me << (op.get ? " get" : " put") << " to "
          << op.target << " issued at " << op.issued
          << ": origin counter refired";
      if (op.has_cmpl) {
        EXPECT_EQ(ctx.getcntr(op.cmpl), 0)
            << "task " << me << " put to " << op.target << " issued at "
            << op.issued << ": completion counter refired";
      }
    }
  }
};

class PeerModelTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PeerModelTest, RandomLifecycleMatchesModel) {
  const std::uint64_t seed = GetParam();
  const Plan plan = make_plan(seed);
  net::Machine m(machine_config(seed, plan));
  Harness h(plan);
  for (const Episode& e : plan.episodes) {
    if (e.kind != Episode::kCrash) continue;
    m.kill_node(e.victim, e.from);
    m.restart_node(e.victim, e.until,
                   [&h, seed](net::Node& n) { h.drive(n, seed); });
  }
  ASSERT_EQ(m.run_spmd([&h, seed](net::Node& n) { h.drive(n, seed); }),
            Status::kOk);
  // Failures raised on actor threads carry no scoped trace: name the plan.
  if (HasFailure()) ADD_FAILURE() << describe(plan);

  // Every death verdict came out of an episode touching the pair.
  for (const Verdict& v : h.verdicts) {
    EXPECT_TRUE(plan.disturbed(v.observer, v.peer, v.at, v.at))
        << "task " << v.observer << " declared " << v.peer
        << " dead in a calm phase at " << v.at;
  }
  // The plan's silence and crash windows actually drove the detector.
  bool long_episode = false;
  for (const Episode& e : plan.episodes) {
    long_episode |= e.kind != Episode::kLossBurst;
  }
  auto& ctrs = m.engine().counters();
  if (long_episode) {
    EXPECT_GT(ctrs.get("lapi.peer_suspected") + ctrs.get("lapi.peer_failed"),
              0);
  }
  EXPECT_GT(ctrs.get("lapi.put"), 0);
  EXPECT_GT(ctrs.get("lapi.get"), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PeerModelTest, ::testing::ValuesIn(kSeeds),
                         seed_name);

// ---------------------------------------------------------------------------
// Gossip corroboration: observers 1 and 2 stream puts to task 3; a seeded
// choice of one or both has 3's replies blackholed long enough for the
// accrual detector to escalate. Task 0 never talks to 3, so it never
// suspects 3 on its own: the accrual-only reports it receives must latch
// exactly when two distinct observers agree.
// ---------------------------------------------------------------------------

class GossipQuorumTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GossipQuorumTest, AccrualGossipLatchesOnlyAtQuorum) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  std::vector<int> reporters = {1, 2};
  const int cut = 1 + static_cast<int>(rng.next_below(2));  // 1 or 2 cut
  if (cut == 1) reporters = {1 + static_cast<int>(rng.next_below(2))};
  const Time cut_len = milliseconds(4.0);
  const Time ops_end = milliseconds(10.0);

  net::Machine::Config mc;
  mc.tasks = kTasks;
  mc.fabric.seed = seed * 7 + 1;
  mc.fabric.fault.seed = seed;
  for (const int r : reporters) {
    net::PartitionFault f;
    f.src = 3;
    f.dst = r;
    f.from = microseconds(rng.next_in(1500, 2500));
    f.until = f.from + cut_len;
    mc.fabric.fault.partitions.push_back(f);
  }
  net::Machine m(mc);

  std::vector<std::byte> landing(static_cast<std::size_t>(kSlice * kTasks));
  std::vector<Verdict> verdicts;
  bool bystander_latched = false;
  bool stop = false;

  ASSERT_EQ(m.run_spmd([&](net::Node& n) {
    lapi::Config cfg = model_config(8.0);
    cfg.error_handler = [&](lapi::Context& ctx, int peer, Status) {
      verdicts.push_back({ctx.task_id(), peer, ctx.engine().now()});
    };
    lapi::Context ctx(n, cfg);
    const int me = n.id();
    std::vector<std::byte> src(700, std::byte{0x17});
    auto put_to = [&](int t) {
      lapi::Counter cmpl;
      EXPECT_EQ(ctx.put(t, src, landing.data() + kSlice * me, nullptr,
                        nullptr, &cmpl),
                Status::kOk);
      return ctx.waitcntr(cmpl, 1);
    };
    if (me == 0) {
      // The bystander samples its view of 3 until the observers are done.
      while (!stop) {
        sim::Actor::current()->compute(kSampleStep);
        if (ctx.peer_failed(3)) bystander_latched = true;
        EXPECT_FALSE(ctx.peer_suspected(3));
      }
    } else if (me == 1 || me == 2) {
      while (ctx.engine().now() < ops_end) (void)put_to(3);
      stop = true;
    } else {
      sim::Actor::current()->compute(ops_end);
    }
    // Calm final round: every pair makes contact before the barrier.
    for (int t = 0; t < kTasks; ++t) {
      if (t != me) {
        EXPECT_EQ(put_to(t), Status::kOk) << "task " << me << " to " << t;
      }
    }
    // The bystander was idle toward most peers all run; its first pulses
    // may read as silence and be suspected, but nobody may be dead.
    EXPECT_NE(ctx.gfence(), Status::kPeerFailed) << "task " << me;
  }), Status::kOk);

  // Model: each cut observer escalates on its own accrual evidence; the
  // bystander latches iff the distinct reporters reach the quorum.
  int reporter_verdicts = 0;
  int bystander_verdicts = 0;
  for (const Verdict& v : verdicts) {
    EXPECT_EQ(v.peer, 3);
    if (v.observer == 0) ++bystander_verdicts;
    for (const int r : reporters) reporter_verdicts += v.observer == r;
  }
  EXPECT_GE(reporter_verdicts, static_cast<int>(reporters.size()));
  const bool quorum = static_cast<int>(reporters.size()) >= kQuorum;
  EXPECT_EQ(bystander_latched, quorum) << reporters.size() << " reporter(s)";
  EXPECT_EQ(bystander_verdicts, quorum ? 1 : 0);
  auto& ctrs = m.engine().counters();
  // The first reporter escalates on its own evidence; a second may latch
  // on that report plus its own suspicion instead.
  EXPECT_GE(ctrs.get("lapi.accrual_failed"), 1);
  EXPECT_EQ(ctrs.get("lapi.keepalive_failed"), 0);  // no direct evidence
  EXPECT_EQ(ctrs.get("lapi.retransmit_giveup"), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GossipQuorumTest, ::testing::ValuesIn(kSeeds),
                         seed_name);

}  // namespace
}  // namespace splap
