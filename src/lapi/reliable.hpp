// Reliable-delivery core, shared by every protocol library in the tree.
//
// Two pieces live here:
//
//   ReliableChannel  the generation-numbered retransmit timer machinery —
//                    exponential backoff with an optional rto_max clamp and
//                    deterministic seeded jitter, Jacobson SRTT/RTTVAR
//                    estimation with Karn's rule, and the stale-timer
//                    suppression that keeps a re-armed record from being
//                    retransmitted by an invalidated timeout. Protocol-
//                    agnostic: what "retransmit" or "give up" means is the
//                    owning Sender's business. LAPI and MPL both layer on
//                    this one implementation (the paper's Section 5 layering:
//                    MPI as a sibling client of the same reliable transport).
//
//   SendEngine       LAPI's origin side: msg-id allocation, in-flight send
//                    records (the retransmission source — the real library's
//                    copy into the adapter DMA buffers, Section 6 item 3),
//                    packetization into header + data packets with end-to-end
//                    CRC stamping, the two-level DATA/DONE ack protocol, and
//                    retry-exhaustion failure completion.
//
// Invariant owned here: a send record is reclaimed exactly once — by the
// final ack, an RMW response, or retry exhaustion — and no timer fires into
// a reclaimed record (generation check; audited by the record ledger in
// SPLAP_AUDIT builds).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "base/audit.hpp"
#include "base/cost_model.hpp"
#include "base/rng.hpp"
#include "lapi/progress.hpp"
#include "lapi/protocol.hpp"
#include "lapi/select.hpp"
#include "net/delivery.hpp"

namespace splap::lapi {

/// Per-record retry bookkeeping embedded in the owner's send record.
struct RetryState {
  int retries = 0;
  std::uint64_t timeout_gen = 0;  // invalidates stale timeout events
};

/// Retransmission policy of one channel. LAPI maps its Config here (the
/// adaptive fields gated on adaptive_timeout); MPL uses the fixed timeout
/// with the backoff clamp armed.
struct RetryPolicy {
  Time base_rto = milliseconds(4.0);
  int max_retries = 12;
  /// Jacobson initial-RTO estimation + deterministic backoff jitter (a
  /// uniform draw of up to a quarter of each backed-off delay).
  bool adaptive = false;
  /// Cap the doubled retry delay at rto_max (without it a dozen doublings
  /// of a multi-ms base reach minutes of virtual time).
  bool clamp_backoff = false;
  Time rto_min = 0;
  Time rto_max = 0;
};

class ReliableChannel {
 public:
  /// The owner of the send records this channel times. retry_state returns
  /// nullptr once a record has been reclaimed; the remaining hooks are only
  /// invoked for live records.
  class Sender {
   public:
    virtual RetryState* retry_state(std::int64_t id) = 0;
    /// Fully acknowledged (no retransmission needed, record merely awaiting
    /// reclamation); a settled record's timer expires silently.
    virtual bool settled(std::int64_t id) = 0;
    virtual void retransmit(std::int64_t id) = 0;
    virtual void give_up(std::int64_t id) = 0;

   protected:
    ~Sender() = default;
  };

  /// `scope` prefixes the instrumentation counters ("<scope>.retransmits",
  /// "<scope>.stale_timeouts", "<scope>.retransmit_giveup"). `alive` guards
  /// timer events against outliving the owning protocol context.
  ReliableChannel(sim::Engine& engine, Sender& sender, RetryPolicy policy,
                  const std::string& scope, std::uint64_t jitter_seed,
                  std::weak_ptr<char> alive);

  /// (Re-)arm the retransmit timer of record `id`. Bumps the record's
  /// timeout generation, invalidating every previously scheduled timer.
  void arm(std::int64_t id, Time delay);

  /// First retransmit timeout for a fresh message: adaptive SRTT/RTTVAR
  /// estimate when armed (and a sample exists), else the fixed base RTO.
  Time initial_rto() const;

  /// Feed an ack round-trip into the Jacobson estimator. Callers enforce
  /// Karn's rule (only never-retransmitted messages sample).
  void on_rtt_sample(Time sample);

  /// Current smoothed RTT estimate (0 until the first sample).
  Time srtt() const { return srtt_; }
  int max_retries() const { return policy_.max_retries; }

 private:
  void on_timer(std::int64_t id, std::uint64_t gen, Time delay);

  sim::Engine& engine_;
  Sender& sender_;
  RetryPolicy policy_;
  // Resolved once at construction: timer paths fire per retransmission and
  // must not pay a counter-name scan each time.
  CounterSet::Handle ctr_retransmits_;
  CounterSet::Handle ctr_stale_;
  CounterSet::Handle ctr_giveup_;
  Rng jitter_rng_;  // deterministic backoff jitter (seeded per task)
  std::weak_ptr<char> alive_;

  // Jacobson SRTT/RTTVAR state (Karn's rule keeps retransmitted messages
  // out of the sample stream; callers enforce it).
  bool have_rtt_ = false;
  Time srtt_ = 0;
  Time rttvar_ = 0;
};

/// Phi-accrual-style suspicion estimator over one peer's packet inter-arrival
/// rhythm (phi-accrual lineage; same adaptive spirit as the Jacobson RTO).
/// Each admitted packet contributes one inter-arrival gap to a sliding
/// window; suspicion is the current silence measured against the smoothed
/// expectation (mean + 2*stddev). Steady traffic collapses the variance, so
/// a peer with a tight rhythm is suspected quickly when it goes quiet, while
/// a peer with naturally bursty traffic earns a wide tolerance — which is
/// exactly what separates a straggler from a corpse. Pure virtual-time
/// arithmetic: no randomness, no wall clock.
class AccrualEstimator {
 public:
  /// Inter-arrival samples required before suspicion() means anything; below
  /// this the detector falls back to the legacy fixed-miss rule.
  static constexpr int kWarmupSamples = 3;

  explicit AccrualEstimator(int window = 16)
      : window_(window < 2 ? 2 : window),
        gaps_(static_cast<std::size_t>(window_), 0.0) {}

  /// Record an arrival at virtual time `now`.
  void observe(Time now) {
    if (last_ != kNoTime && now >= last_) {
      const double gap = static_cast<double>(now - last_);
      if (count_ == window_) {
        const double old = gaps_[static_cast<std::size_t>(head_)];
        sum_ -= old;
        sumsq_ -= old * old;
      } else {
        ++count_;
      }
      gaps_[static_cast<std::size_t>(head_)] = gap;
      head_ = head_ + 1 == window_ ? 0 : head_ + 1;
      sum_ += gap;
      sumsq_ += gap * gap;
    }
    last_ = now;
  }

  /// Silence since the last arrival over the smoothed gap expectation.
  /// 0 while warming up or when an arrival just landed; grows monotonically
  /// with silence. The +1 floor keeps a fully collapsed variance (perfectly
  /// periodic traffic) from dividing by zero.
  double suspicion(Time now) const {
    if (!warmed_up() || last_ == kNoTime || now <= last_) return 0.0;
    const double silence = static_cast<double>(now - last_);
    return silence / (mean() + 2.0 * stddev() + 1.0);
  }

  bool warmed_up() const { return count_ >= kWarmupSamples; }
  int samples() const { return count_; }
  Time last_heard() const { return last_; }
  double mean() const { return count_ > 0 ? sum_ / count_ : 0.0; }
  double stddev() const {
    if (count_ == 0) return 0.0;
    const double m = mean();
    const double var = sumsq_ / count_ - m * m;
    return var > 0.0 ? std::sqrt(var) : 0.0;  // round-off can dip negative
  }
  /// Forget everything (peer incarnation change): the new life has its own
  /// rhythm.
  void reset() {
    head_ = 0;
    count_ = 0;
    last_ = kNoTime;
    sum_ = 0.0;
    sumsq_ = 0.0;
  }

 private:
  int window_;
  std::vector<double> gaps_;  // ring buffer of inter-arrival gaps
  int head_ = 0;
  int count_ = 0;
  Time last_ = kNoTime;
  double sum_ = 0.0;
  double sumsq_ = 0.0;
};

/// Lifecycle of one peer as this origin sees it. Healthy is the default of
/// every peer without a PeerState.
enum class PeerLife : std::uint8_t {
  kHealthy,
  /// Gray failure: every record toward the peer is quarantined (credits
  /// returned, RTO frozen) until any contact heals it.
  kSuspected,
  /// Latched dead: every record toward the peer was failed over. Any
  /// contact (a reconnect, or congestion misjudged as death) un-latches.
  kFailed,
};

/// Everything the origin side keeps about one peer: its lifecycle, its
/// packet-credit balance, the keepalive observation window, the accrual
/// estimator and the two parking FIFOs. Created on first need — with the
/// default Config (no credits, no keepalive) no peer ever gets one.
///
/// Credits are the real LAPI's token scheme over the TB3 adapter's finite
/// buffering. A message leases one credit per wire packet before its first
/// transmission; leases return incrementally as the target reports ingested
/// packets (cumulative ack_pkts on acks/kCredit) and in full when the send
/// record is reclaimed. A message larger than the whole window may start
/// only when the balance is full, taking it negative — so a below-window
/// balance always implies a live record whose reclamation will release
/// credits, which is the deadlock-freedom argument (see DESIGN.md §6):
/// credit restoration rides the record-reclamation invariant, never on any
/// single packet surviving.
struct PeerState {
  explicit PeerState(std::int64_t window) : credits(window) {}

  PeerLife life = PeerLife::kHealthy;
  /// Credit balance (the window when nothing is leased).
  std::int64_t credits;
  /// Keepalive observation window: `watched` while the peer is a probe
  /// target; `heard` is set by any admitted packet and consumed each tick.
  bool watched = false;
  bool heard = false;
  int misses = 0;
  /// Inter-arrival rhythm (accrual detector only); dropped with each
  /// verdict and rebirth, since a new life has its own rhythm.
  std::unique_ptr<AccrualEstimator> accrual;
  /// Handler-context sends that could not lease credits, FIFO; drained as
  /// credits return. (Lists, not deques: an empty list allocates nothing,
  /// and most peers never park a record.)
  std::list<std::int64_t> credit_waitq;
  /// Records quarantined while the peer is suspected, FIFO. Separate from
  /// credit_waitq so mid-quarantine credit returns cannot restart them, and
  /// so a heal restarts them in their original order.
  std::list<std::int64_t> suspectq;
  /// Distinct tasks that gossiped an accrual-only death verdict against
  /// the peer; cleared by any contact and by our own verdict.
  std::set<int> death_reports;
  /// Gets failed over before their reply landed: a reply that still
  /// arrives (the peer was alive behind a partition) is dropped instead of
  /// completing the op twice. The old life's replies die at the epoch gate,
  /// so rebirth clears this.
  std::set<std::int64_t> abandoned_gets;
};

/// Origin-side record of an in-flight data-bearing LAPI message, kept until
/// the data ack arrives (a get's until its reply has landed too).
struct SendRecord {
  int target = -1;
  PktKind kind = PktKind::kPutHdr;
  std::shared_ptr<WireMeta> hdr_meta;
  std::shared_ptr<std::vector<std::byte>> data;  // full message payload
  bool data_acked = false;
  bool done_acked = false;  // only tracked when a DONE ack was requested
  bool needs_done = false;
  /// Large (zero-copy) send: the origin counter fires at the data ack, when
  /// the pinned user buffer becomes reusable.
  bool org_pending = false;
  /// Get request whose reply landed (completing the get). A get record is
  /// reclaimed once both this and its ack are in.
  bool replied = false;
  RetryState retry;
  /// Injection time of the (first) transmission; the data ack of a message
  /// that was never retransmitted yields an RTT sample (Karn's rule).
  Time sent_at = 0;

  // --- flow control (inert unless Config::credit_window > 0) --------------
  /// Wire packets this message occupies (header + data fragments). Credit
  /// unit: retransmissions ride the original lease.
  std::int64_t pkts = 1;
  /// Credits still leased from the per-peer gate.
  std::int64_t credits_held = 0;
  /// Cumulative target-ingest count already credited back (grants are
  /// cumulative, so duplicated/reordered updates are idempotent).
  std::int64_t credits_granted = 0;
  /// Parked in the per-peer credit wait queue; not yet transmitted.
  bool queued = false;
  /// One NACK-driven fast retransmit per recovery round (reset by grant
  /// progress or an RTO retransmit, so overflow storms cannot multiply).
  bool nack_rtx = false;
};

class SendEngine final : public ReliableChannel::Sender {
 public:
  SendEngine(net::Delivery& wire, ProgressEngine& progress, int task_id,
             const Config& config, bool checksums);

  /// Inject a validated message: allocates the msg id, charges the call (or
  /// queues behind the dispatcher in handler context), records the send for
  /// retransmission and arms its timer. The facade has already validated
  /// the target and the library state.
  void submit(PktKind kind, int target, std::shared_ptr<WireMeta> hdr,
              std::shared_ptr<std::vector<std::byte>> data,
              Time extra_call_cost);

  /// Dispatcher demux entry points (return the packet processing cost).
  Time on_ack(const net::Packet& pkt);
  Time on_rmw_resp(const net::Packet& pkt);
  /// The target's adapter dropped a packet of one of our messages (RX
  /// overflow) or shed it at the partial table: fast retransmit without
  /// waiting out the RTO.
  Time on_nack(const net::Packet& pkt);
  /// Standalone credit update: cumulative ingested-packet count for a
  /// still-incomplete message, releasing part of its lease mid-stream.
  Time on_credit(const net::Packet& pkt);

  /// The reply to get request `req` finished landing from `peer` (assembly
  /// side calls this). Returns false when the get was already failed over:
  /// its counters fired then, and must not fire again.
  bool note_get_reply(int peer, std::int64_t req);

  /// The settled watermark (WireMeta::settled): the lowest msg id of a live
  /// send record, or of one still being submitted; the next msg id when
  /// none is. Monotone: ids are allocated in increasing order.
  std::int64_t watermark() const {
    std::int64_t w = msg_seq_;
    if (!sends_.empty()) w = std::min(w, sends_.begin()->first);
    if (!unrecorded_.empty()) w = std::min(w, *unrecorded_.begin());
    return w;
  }

  int outstanding_data() const { return outstanding_data_; }
  int outstanding_gets() const { return outstanding_gets_; }
  std::size_t pending_sends() const { return sends_.size(); }
  Time srtt() const { return channel_.srtt(); }
  /// The protocol-decision layer (and its registration cache). The facade
  /// consults classify() to plan strided gather charges; tests and GA read
  /// the cache statistics.
  ProtocolSelector& selector() { return selector_; }
  const ProtocolSelector& selector() const { return selector_; }
  /// Flow-control introspection (tests): credits available toward `peer`.
  std::int64_t credits_available(int peer) const {
    auto it = peers_.find(peer);
    return it == peers_.end() ? config_.credit_window : it->second.credits;
  }
  /// True when every remaining record has exhausted its retries (term's
  /// quiesce loop stops waiting on such records).
  bool all_exhausted() const;

  // --- crash-stop peer failure (tentpole of the recovery subsystem) --------

  /// Incarnation epoch of the owning context; stamped into every packet this
  /// engine originates itself (data fragments copy the facade-stamped
  /// header). Defaults to 0, the only epoch of a never-crashed run.
  void set_epoch(std::int64_t e) { epoch_ = e; }

  /// A keepalive probe arrived: reply immediately (header-only, dispatcher
  /// cost only — same class of traffic as a NACK).
  Time on_probe(const net::Packet& pkt);

  /// Any packet from `src` was admitted: the peer is demonstrably alive.
  /// Feeds the accrual estimator, clears the keepalive miss count, heals a
  /// *suspected* peer (un-quarantining its parked sends), un-latches a
  /// dead verdict (the peer reconnected, or congestion was misjudged) and
  /// refutes the accrual gossip collected against it so far.
  void note_heard(int src);

  bool peer_failed(int peer) const { return life(peer) == PeerLife::kFailed; }
  bool peer_suspected(int peer) const {
    return life(peer) == PeerLife::kSuspected;
  }

  /// Sends currently quarantined behind suspected peers (introspection).
  std::size_t suspect_queued() const {
    std::size_t n = 0;
    for (const auto& [peer, p] : peers_) n += p.suspectq.size();
    return n;
  }

  /// Death notice gossiped by task `reporter`. A direct verdict latches at
  /// once; an accrual-only one latches when distinct observers — reporters
  /// plus our own suspicion of the peer — reach the suspicion quorum, so
  /// one partitioned observer cannot split-brain a healthy task.
  void note_peer_death(int peer, bool direct, int reporter);

  /// Declare `peer` dead (retry exhaustion, keepalive timeout, or gossip
  /// from another task's detection): fail over every queued and pending
  /// record toward it at once with kPeerFailed, reclaim their credit
  /// leases, and fire the peer-failure hook once per latch transition.
  /// `direct` records the evidence class for the hook: true for first-hand
  /// proof (retry exhaustion, fixed-miss keepalive), false for an
  /// accrual-only verdict — gossip of the latter needs corroboration.
  void fail_peer(int peer, bool direct = true);

  /// The peer restarted with incarnation `new_epoch`. Records addressed to
  /// an older incarnation can never complete (the new life rejects their
  /// dst_epoch), so fail them over now; records already addressed to the
  /// new life ride through untouched — the very packet that triggered the
  /// adoption may be their ack. Clears the dead latch: the new life is
  /// reachable. Deliberately does NOT fire the peer-failure hook: rebirth
  /// is not a death declaration, and the stale records' own kPeerFailed
  /// completions carry the news to their waiters.
  void on_peer_reborn(int peer, std::int64_t new_epoch);

  /// Invoked in dispatcher context on each fresh dead-peer latch (the
  /// facade wires the LAPI_Init error handler and failure gossip here).
  /// The bool is fail_peer's `direct` evidence class.
  void set_peer_failure_hook(std::function<void(int, bool)> hook) {
    peer_failure_hook_ = std::move(hook);
  }

  /// Crash teardown only (Context::term on a poisoned actor): the records
  /// and leases still live belong to the epoch that just died — drop them
  /// from the audit ledgers so the crash itself doesn't read as a leak.
  /// Healthy teardown never calls this; its ledgers must drain naturally.
  void forgive_crash_teardown();

 private:
  // ReliableChannel::Sender hooks.
  RetryState* retry_state(std::int64_t id) override;
  bool settled(std::int64_t id) override;
  void retransmit(std::int64_t id) override;
  void give_up(std::int64_t id) override;

  /// Inject the message's wire packets (header + data fragments), optionally
  /// skipping the first `skip_first` — the NACK fast path skips the packets
  /// the target's cumulative grant already covers, so a recovery burst into
  /// a still-tight adapter carries fresh packets instead of duplicates. The
  /// skip is a heuristic (grants count ingested packets, which is the wire
  /// prefix only under in-order arrival); the RTO path always resends
  /// everything, so a wrong guess costs time, never correctness.
  void transmit_packets(const SendRecord& rec, std::int64_t skip_first = 0);
  void transmit_probe(const SendRecord& rec);
  /// A LAPI packet from this task to `dst`: `meta`, stamped with the
  /// current watermark, in a header of `header_bytes`.
  net::Packet packet(int dst, std::shared_ptr<WireMeta> meta,
                     std::int64_t header_bytes);
  /// (Re)transmit a record: its packets while the data is unacknowledged,
  /// else a bare duplicate header that elicits the missing DONE ack.
  void transmit(const SendRecord& rec);
  /// Start record `id` on the wire at `inject_at` (deferred behind the
  /// dispatcher when in the future) and arm its first RTO.
  void start(std::int64_t id, Time inject_at);
  /// Start a parked record as any handler-context send: behind the
  /// dispatcher's current work.
  void start_parked(SendRecord& rec, std::int64_t id);
  /// Abandon one record: complete the op with `reason` (kPeerFailed for a
  /// dead peer, kResourceExhausted otherwise) — unblock every counter that
  /// has not fired yet (marked failed), release the outstanding bookkeeping
  /// and reclaim the record. Never hangs a waiter. Also emits a best-effort
  /// kCancel so the target reclaims any partial assembly the abandoned
  /// message left behind.
  void fail_send(std::int64_t msg_id, Status reason);
  /// Keepalive: (re-)arm the probe tick while records are pending.
  void arm_keepalive();
  void keepalive_tick();
  /// healthy -> suspected: quarantine every record toward `peer` (freeze its
  /// RTO by bumping the timeout generation, return its credit lease, park it
  /// in the suspect queue) instead of failing it. Fresh transitions bump
  /// lapi.peer_suspected.
  void suspect_peer(int peer);
  /// suspected -> healthy (any contact): restart the quarantined records —
  /// re-lease credits, retransmit (not charged against the retry budget) and
  /// re-arm their timers. Bumps lapi.peer_healed.
  void heal_peer(int peer);

  /// Wire packets a message of this shape occupies (the credit unit).
  /// Both this and transmit_packets read the same frag_plan, so the lease
  /// and the transmission can never disagree.
  std::int64_t packet_count(PktKind kind, const WireMeta& hdr,
                            std::int64_t len) const;
  /// Arm the first RTO of `id`, scaled by the injection backlog + wire time.
  void arm_initial(std::int64_t id, std::int64_t len);
  void lease_credits(SendRecord& rec);
  /// Return up to `n` leased credits to the peer pool, drain its wait queue
  /// and wake parked senders. No-op on unleased records.
  void credit_return(SendRecord& rec, std::int64_t n);
  /// Apply a cumulative ingest report (ack_pkts) to a record's lease.
  void apply_grant(SendRecord& rec, std::int64_t granted);
  void release_credits(SendRecord& rec) { credit_return(rec, rec.credits_held); }
  /// Start queued sends toward `peer` while credits allow, FIFO.
  void drain_credit_waitq(int peer);

  PeerLife life(int peer) const {
    auto it = peers_.find(peer);
    return it == peers_.end() ? PeerLife::kHealthy : it->second.life;
  }
  PeerState& peer_state(int peer) {
    return peers_.try_emplace(peer, config_.credit_window).first->second;
  }
  /// A message of `pkts` packets may lease credits toward `p` now: the
  /// balance covers it (or is full, for an over-window message) and no
  /// earlier send is queued ahead.
  bool admits(const PeerState& p, std::int64_t pkts) const {
    return (p.credits >= pkts || p.credits == config_.credit_window) &&
           p.credit_waitq.empty();
  }
  /// SPLAP_AUDIT: the per-peer invariants, checked at every lifecycle
  /// transition — credit conservation (balance + leases == window, never
  /// above it), a suspected peer holds no lease and no started record, a
  /// failed peer has no live record and nothing parked.
#ifdef SPLAP_AUDIT
  void audit_peer(int peer, const char* where);
#else
  void audit_peer(int /*peer*/, const char* /*where*/) {}
#endif

  using SendIt = std::map<std::int64_t, SendRecord>::iterator;
  /// Run `fn(record, meta)` one lapi_ack after an origin-side packet (ack,
  /// RMW response, NACK, credit update) arrives, if the record it names is
  /// still live. Returns the dispatcher cost.
  template <class F>
  Time after_ack(const net::Packet& pkt, F fn) {
    const Time c = progress_.cost().lapi_ack;
    progress_.defer(
        progress_.engine().now() + c,
        [this, fn, meta = std::static_pointer_cast<const WireMeta>(pkt.meta)] {
          auto it = sends_.find(meta->acked_msg);
          if (it != sends_.end()) fn(it, *meta);
        });
    return c;
  }
  /// Return the record's lease and drop it.
  void reclaim(SendIt it, const char* where);

  net::Delivery& wire_;
  ProgressEngine& progress_;
  const int task_id_;
  const Config config_;
  /// Stamp/verify end-to-end payload CRCs (armed when the fabric injects
  /// corruption; off otherwise so the clean path does no checksum work).
  const bool checksums_;

  /// Protocol decision layer; owns this context's registration cache.
  ProtocolSelector selector_;

  std::int64_t msg_seq_ = 0;
  std::map<std::int64_t, SendRecord> sends_;
  /// Msg ids allocated by a submit() that has not recorded them yet (the
  /// call yields for its charge, and may park for credits, in between): the
  /// watermark must not pass them.
  std::set<std::int64_t> unrecorded_;
  int outstanding_data_ = 0;
  int outstanding_gets_ = 0;
  ReliableChannel channel_;

  /// The single owner of per-peer state. Ordered, not dense: a 1024-task
  /// machine whose tasks each talk to a handful of peers must not pay for
  /// N^2 records, and ascending order is the keepalive probe order.
  std::map<int, PeerState> peers_;
  std::int64_t epoch_ = 0;
  std::function<void(int, bool)> peer_failure_hook_;
  bool keepalive_armed_ = false;
  /// Accrual detector active: keepalive configured and not forced legacy.
  /// Resolved once — note_heard sits on the per-packet admit path and must
  /// stay a cheap early-out when the detector is off (the default).
  const bool accrual_enabled_;
#ifdef SPLAP_AUDIT
  /// Shadow ledger of live send records: double-reclaim or a timer/ack
  /// touching a reclaimed record aborts at the corrupting operation.
  audit::LiveSet send_ledger_{"lapi send record"};
  /// Shadow ledger of live credit leases: a record releasing more credits
  /// than it holds, or releasing after its lease fully returned, aborts at
  /// the corrupting operation (conservation of the per-peer window).
  audit::LiveSet credit_ledger_{"lapi credit lease"};
  /// Last watermark stamped: a lower one would let a target's floor run
  /// ahead of a message this engine still transmits.
  std::int64_t last_watermark_ = 0;
#endif
};

}  // namespace splap::lapi
