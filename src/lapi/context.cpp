#include "lapi/context.hpp"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <utility>

#include "base/log.hpp"

// The poisoned-teardown path below leaks its service pool on purpose (see the
// comment in term()); tell LeakSanitizer so sanitized CI stays green.
#ifndef __has_feature
#define __has_feature(x) 0
#endif
#if defined(__SANITIZE_ADDRESS__) || __has_feature(address_sanitizer)
#include <sanitizer/lsan_interface.h>
#define SPLAP_LSAN_IGNORE(p) __lsan_ignore_object(p)
#else
#define SPLAP_LSAN_IGNORE(p) (static_cast<void>(p))
#endif

namespace splap::lapi {

namespace {

constexpr std::int64_t kMaxDataSz = std::int64_t{1} << 30;

}  // namespace

// ---------------------------------------------------------------------------
// Init / Term
// ---------------------------------------------------------------------------

Context::Context(net::Node& node, Config config)
    : node_(node),
      config_(config),
      progress_(node.engine(), node.cost(), *this, config.interrupt_mode),
      send_(node.machine().fabric(), progress_, node.id(), config,
            node.machine().fabric().corruption_enabled()),
      assembly_(node.machine().fabric(), progress_, *this, node.id(), config,
                node.machine().fabric().corruption_enabled()) {
  SPLAP_REQUIRE(sim::Actor::current() != nullptr,
                "LAPI_Init must run in a task (actor) context");
  ctr_put_ = engine().counters().handle("lapi.put");
  ctr_get_ = engine().counters().handle("lapi.get");
  // Incarnation epochs: our own restart count, and the last incarnation of
  // each peer we know about. The initial peer table comes from the machine
  // (the PSSP job-start infrastructure knows which nodes restarted before
  // this task initialised); later bumps are learned from packet stamps.
  epoch_ = node_.machine().incarnation(task_id());
  peer_epochs_.resize(static_cast<std::size_t>(num_tasks()));
  for (int t = 0; t < num_tasks(); ++t) {
    peer_epochs_[static_cast<std::size_t>(t)] = node_.machine().incarnation(t);
  }
  send_.set_epoch(epoch_);
  assembly_.set_epoch(epoch_);
  send_.set_peer_failure_hook(
      [this](int peer, bool direct) { on_peer_failed(peer, direct); });
  node_.adapter().register_client(
      net::Client::kLapi,
      [this](net::Packet&& p) { progress_.on_delivery(std::move(p)); });
  // Bounded-RX drops of LAPI packets come back as overflow notifications
  // (the adapter's "exception interrupt"): NACK the origin for fast
  // recovery instead of waiting out its retransmission timeout.
  node_.adapter().register_overflow(
      net::Client::kLapi,
      [this](const net::Packet& p) { assembly_.on_overflow(p); });
  svc_ = std::make_unique<SvcPool>(
      engine(), "lapi" + std::to_string(task_id()), config.completion_threads,
      node_.id());

  // Registers the reserved barrier-pulse handler (id 0) and joins the
  // per-machine Universe registry; defined in collectives.cpp.
  init_collectives();
}

Context::~Context() { term(); }

void Context::term() {
  if (terminated_) return;
  sim::Actor* a = sim::Actor::current();
  SPLAP_REQUIRE(a != nullptr, "LAPI_Term must run in a task context");
  if (!a->poisoned()) {
    try {
      // Quiesce: drain our own in-flight messages (e.g. the last gfence's
      // barrier pulses, which are sent after its fence) so tearing down this
      // context cannot strand a peer waiting on a message whose
      // retransmission we would otherwise cancel. If the fabric lost a
      // message for good (peer already gone), the retransmit layer gives up
      // and we proceed.
      enter_library();
      progress_.waiters().park(
          *a,
          [this] {
            const bool idle = send_.outstanding_gets() == 0 &&
                              progress_.pending_effects() == 0;
            return idle && (send_.outstanding_data() == 0 ||
                            send_.all_exhausted());
          },
          "lapi-term-quiesce");
      exit_library();
      svc_->stop(*a);
      // Retire (not unregister): a duplicate ack elicited by our last
      // pre-settle retransmission may still be in flight and must be
      // absorbed, not counted as a dead letter — those are reserved for
      // crashed/never-inited clients.
      node_.adapter().retire_client(net::Client::kLapi);
      detach_universe();
      terminated_ = true;
      progress_.invalidate();  // cancels pending timeouts / deferred bumps
      return;
    } catch (...) {
      if (!a->poisoned()) throw;
      // The crash landed while term was quiescing. ~Context is noexcept, so
      // the engine's kill exception must be absorbed here; fall through to
      // the crash teardown below. The actor's next suspension rethrows it.
    }
  }
  // Engine teardown is unwinding this actor: blocking is impossible, so
  // detach best-effort and let the engine reap the service threads. The
  // pool must outlive those threads (the engine poisons them after us),
  // so its ownership is intentionally released here — a bounded leak on
  // an already-failed run.
  SPLAP_LSAN_IGNORE(svc_.get());
  svc_.release();  // NOLINT(bugprone-unused-return-value)
  // This incarnation died mid-flight: its unsettled send/credit ledger
  // entries are the crash's legitimate residue, not leaks.
  send_.forgive_crash_teardown();
  node_.adapter().unregister_client(net::Client::kLapi);
  detach_universe();
  terminated_ = true;
  progress_.invalidate();
}

// ---------------------------------------------------------------------------
// Environment
// ---------------------------------------------------------------------------

std::int64_t Context::qenv(Query q) const {
  const CostModel& cm = cost();
  switch (q) {
    case Query::kTaskId: return task_id();
    case Query::kNumTasks: return num_tasks();
    case Query::kMaxUhdrSz: return cm.lapi_payload();
    case Query::kMaxDataSz: return kMaxDataSz;
    case Query::kPktPayload: return cm.lapi_payload();
    case Query::kInterruptSet: return progress_.interrupt_mode() ? 1 : 0;
    case Query::kCmplThreads: return config_.completion_threads;
  }
  SPLAP_REQUIRE(false, "unknown LAPI_Qenv key");
  return -1;
}

void Context::senv(Setting s, std::int64_t v) {
  switch (s) {
    case Setting::kInterruptSet:
      progress_.set_interrupt_mode(v != 0);
      return;
  }
  SPLAP_REQUIRE(false, "unknown LAPI_Senv key");
}

AmHandlerId Context::register_handler(HeaderHandler handler) {
  SPLAP_REQUIRE(!terminated_, "register_handler after LAPI_Term");
  SPLAP_REQUIRE(handler != nullptr, "null header handler");
  handlers_.push_back(std::move(handler));
  return static_cast<AmHandlerId>(handlers_.size() - 1);
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

void Context::setcntr(Counter& c, std::int64_t v) {
  c.value_ = v;
  notify();
}

std::int64_t Context::getcntr(Counter& c) {
  enter_library();
  if (sim::Actor* a = sim::Actor::current()) a->compute(cost().lapi_call_warm);
  const std::int64_t v = c.value_;
  exit_library();
  return v;
}

Status Context::waitcntr(Counter& c, std::int64_t val) {
  sim::Actor* a = sim::Actor::current();
  SPLAP_REQUIRE(a != nullptr, "LAPI_Waitcntr must run in a task context");
  SPLAP_REQUIRE(val >= 0, "negative wait value");
  enter_library();
  a->compute(call_entry_cost());
  progress_.waiters().park(*a, [&c, val] { return c.value_ >= val; },
                           "lapi-waitcntr");
  c.value_ -= val;  // Waitcntr auto-decrements (Section 2.3)
  // Failure completions (retry exhaustion) unblocked this wait like any
  // other bump; surface them instead of pretending the data arrived. Each
  // wait consumes at most `val` recorded failures, mirroring the decrement.
  Status st = Status::kOk;
  if (c.failed_ > 0) {
    const std::int64_t consume = std::min(c.failed_, val);
    // Peer death outranks plain resource exhaustion: the caller must learn
    // the partner is gone, not merely that a retry budget ran out.
    st = c.peer_failed_ > 0 ? Status::kPeerFailed : Status::kResourceExhausted;
    c.failed_ -= consume;
    c.peer_failed_ -= std::min(c.peer_failed_, consume);
  }
  exit_library();
  return st;
}

// ---------------------------------------------------------------------------
// Send path: validate here, inject via the send engine
// ---------------------------------------------------------------------------

Status Context::send_message(PktKind kind, int target,
                             std::shared_ptr<WireMeta> hdr,
                             std::shared_ptr<std::vector<std::byte>> data,
                             Time extra_call_cost) {
  if (terminated_) return Status::kBadHandle;
  if (target < 0 || target >= num_tasks()) return Status::kBadParameter;
  // Stamp the op with both incarnations it was issued against. dst_epoch is
  // fixed here, at submit: if the target restarts mid-op, our retransmits
  // still carry the old stamp and the new life rejects them — the remote
  // addresses in this header belong to the incarnation that died.
  hdr->epoch = epoch_;
  hdr->dst_epoch = node_.machine().incarnation(target);
  send_.submit(kind, target, std::move(hdr), std::move(data), extra_call_cost);
  return Status::kOk;
}

// ---------------------------------------------------------------------------
// Public operations
// ---------------------------------------------------------------------------

Status Context::put(int target, std::span<const std::byte> src,
                    std::byte* tgt_addr, Counter* tgt_cntr, Counter* org_cntr,
                    Counter* cmpl_cntr) {
  if (!src.empty() && (src.data() == nullptr || tgt_addr == nullptr)) {
    return Status::kBadParameter;
  }
  if (static_cast<std::int64_t>(src.size()) > kMaxDataSz) {
    return Status::kBadParameter;
  }
  ctr_put_.bump();
  auto hdr = std::make_shared<WireMeta>();
  hdr->tgt_addr = tgt_addr;
  hdr->total_len = static_cast<std::int64_t>(src.size());
  hdr->org_addr = src.data();  // registration key of the source region
  hdr->tgt_cntr = tgt_cntr;
  hdr->org_cntr = org_cntr;
  hdr->cmpl_cntr = cmpl_cntr;
  auto data = std::make_shared<std::vector<std::byte>>(src.begin(), src.end());
  return send_message(PktKind::kPutHdr, target, std::move(hdr),
                      std::move(data), 0);
}

Status Context::get(int target, std::int64_t len, const std::byte* tgt_addr,
                    std::byte* org_addr, Counter* tgt_cntr, Counter* org_cntr) {
  if (len < 0 || len > kMaxDataSz) return Status::kBadParameter;
  if (len > 0 && (tgt_addr == nullptr || org_addr == nullptr)) {
    return Status::kBadParameter;
  }
  ctr_get_.bump();
  auto hdr = std::make_shared<WireMeta>();
  hdr->src_addr = tgt_addr;
  hdr->dst_addr = org_addr;
  hdr->total_len = len;
  hdr->tgt_cntr = tgt_cntr;
  hdr->org_cntr = org_cntr;
  return send_message(PktKind::kGetReq, target, std::move(hdr), nullptr,
                      cost().lapi_get_extra);
}

Status Context::putv(int target, const StridedRegion& src,
                     const StridedRegion& dst, Counter* tgt_cntr,
                     Counter* org_cntr, Counter* cmpl_cntr) {
  if (src.row_bytes != dst.row_bytes || src.cols != dst.cols) {
    return Status::kBadParameter;
  }
  const std::int64_t len = src.total_bytes();
  if (len < 0 || len > kMaxDataSz) return Status::kBadParameter;
  if (len > 0 && (src.base == nullptr || dst.base == nullptr)) {
    return Status::kBadParameter;
  }
  engine().counters().bump("lapi.putv");
  auto hdr = std::make_shared<WireMeta>();
  hdr->tgt_addr = dst.base;
  hdr->total_len = len;
  hdr->strided = true;
  hdr->s_row_bytes = dst.row_bytes;
  hdr->s_cols = dst.cols;
  hdr->s_ld = dst.ld_bytes;
  hdr->org_addr = src.base;  // registration key of the source region
  hdr->tgt_cntr = tgt_cntr;
  hdr->org_cntr = org_cntr;
  hdr->cmpl_cntr = cmpl_cntr;
  // Gather the source into the message (charged as call-time copy work):
  // the user buffer is reusable at injection.
  auto data = std::make_shared<std::vector<std::byte>>(
      static_cast<std::size_t>(len));
  copy_strided_to_contig(src, data->data());
  // Small messages are charged their bcopy inside the send path already,
  // and a zero-copy send gathers nothing at the call (the adapter
  // scatter/gather engine streams straight from the user region), so the
  // gather charge belongs to the rendezvous path only.
  Time gather_cost = 0;
  if (len > cost().lapi_bcopy_limit &&
      send_.selector().classify(PktKind::kPutHdr, *hdr, len, target,
                                cost()) != XferProtocol::kZeroCopy) {
    gather_cost = cost().copy_time(len);
  }
  return send_message(PktKind::kPutHdr, target, std::move(hdr),
                      std::move(data), gather_cost);
}

Status Context::getv(int target, const StridedRegion& src,
                     const StridedRegion& dst, Counter* tgt_cntr,
                     Counter* org_cntr) {
  if (src.row_bytes != dst.row_bytes || src.cols != dst.cols) {
    return Status::kBadParameter;
  }
  const std::int64_t len = src.total_bytes();
  if (len < 0 || len > kMaxDataSz) return Status::kBadParameter;
  if (len > 0 && (src.base == nullptr || dst.base == nullptr)) {
    return Status::kBadParameter;
  }
  engine().counters().bump("lapi.getv");
  auto hdr = std::make_shared<WireMeta>();
  hdr->src_addr = src.base;
  hdr->dst_addr = dst.base;
  hdr->total_len = len;
  hdr->strided = true;
  hdr->g_row_bytes = src.row_bytes;
  hdr->g_cols = src.cols;
  hdr->g_ld = src.ld_bytes;
  hdr->s_row_bytes = dst.row_bytes;
  hdr->s_cols = dst.cols;
  hdr->s_ld = dst.ld_bytes;
  hdr->tgt_cntr = tgt_cntr;
  hdr->org_cntr = org_cntr;
  return send_message(PktKind::kGetReq, target, std::move(hdr), nullptr,
                      cost().lapi_get_extra);
}

Status Context::amsend(int target, AmHandlerId handler,
                       std::span<const std::byte> uhdr,
                       std::span<const std::byte> udata, Counter* tgt_cntr,
                       Counter* org_cntr, Counter* cmpl_cntr) {
  if (handler < 0 || handler >= static_cast<AmHandlerId>(handlers_.size())) {
    return Status::kBadParameter;
  }
  if (static_cast<std::int64_t>(uhdr.size()) > qenv(Query::kMaxUhdrSz)) {
    return Status::kBadParameter;
  }
  if (static_cast<std::int64_t>(udata.size()) > kMaxDataSz) {
    return Status::kBadParameter;
  }
  engine().counters().bump("lapi.amsend");
  auto hdr = std::make_shared<WireMeta>();
  hdr->handler_id = handler;
  hdr->uhdr.assign(uhdr.begin(), uhdr.end());
  hdr->total_len = static_cast<std::int64_t>(udata.size());
  hdr->tgt_cntr = tgt_cntr;
  hdr->org_cntr = org_cntr;
  hdr->cmpl_cntr = cmpl_cntr;
  auto data =
      std::make_shared<std::vector<std::byte>>(udata.begin(), udata.end());
  return send_message(PktKind::kAmHdr, target, std::move(hdr), std::move(data),
                      0);
}

Status Context::rmw(RmwOp op, int target, std::int64_t* tgt_var,
                    std::int64_t in1, std::int64_t in2, std::int64_t* prev_out,
                    Counter* org_cntr) {
  if (tgt_var == nullptr) return Status::kBadParameter;
  engine().counters().bump("lapi.rmw");
  auto hdr = std::make_shared<WireMeta>();
  hdr->rmw_op = op;
  hdr->rmw_var = tgt_var;
  hdr->rmw_in1 = in1;
  hdr->rmw_in2 = in2;
  hdr->rmw_prev_out = prev_out;
  hdr->org_cntr = org_cntr;
  return send_message(PktKind::kRmwReq, target, std::move(hdr), nullptr, 0);
}

std::int64_t Context::rmw_sync(RmwOp op, int target, std::int64_t* tgt_var,
                               std::int64_t in1, std::int64_t in2) {
  Counter done;
  std::int64_t prev = 0;
  const Status st = rmw(op, target, tgt_var, in1, in2, &prev, &done);
  SPLAP_REQUIRE(st == Status::kOk, "rmw_sync: bad parameters");
  const Status w = waitcntr(done, 1);
  SPLAP_REQUIRE(w == Status::kOk, "rmw_sync: wait failed");
  return prev;
}

// ---------------------------------------------------------------------------
// Receive path: demultiplex to the origin or target side
// ---------------------------------------------------------------------------

Time Context::process_packet(net::Packet& pkt) {
  const WireMeta& m = pkt.meta_as<WireMeta>();
  if (m.epoch < 0 || m.dst_epoch < 0) [[unlikely]] {
    // Incarnation epochs are monotone counters from zero; a negative stamp
    // is not a stale life, it is a mangled header. Drop at the door.
    engine().counters().bump("lapi.malformed_drop");
    return cost().lapi_pkt_rx;
  }
  if (m.dst_epoch != epoch_ || m.epoch != peer_epochs_[static_cast<std::size_t>(pkt.src)]) [[unlikely]] {
    if (m.dst_epoch < epoch_ ||
        m.epoch < peer_epochs_[static_cast<std::size_t>(pkt.src)]) {
      // A packet from or for a dead incarnation: its header fields name
      // buffers of a life that no longer exists. Reject at the door.
      engine().counters().bump("lapi.stale_epoch");
      return cost().lapi_pkt_rx;
    }
    // The peer restarted (its stamp outran what we knew): adopt the new
    // incarnation and wipe every trace of the old one before admitting.
    peer_epochs_[static_cast<std::size_t>(pkt.src)] = m.epoch;
    assembly_.forget_origin(pkt.src);
    send_.on_peer_reborn(pkt.src, m.epoch);
  }
  send_.note_heard(pkt.src);
  switch (m.kind) {
    case PktKind::kAck: return send_.on_ack(pkt);
    case PktKind::kRmwResp: return send_.on_rmw_resp(pkt);
    case PktKind::kNack: return send_.on_nack(pkt);
    case PktKind::kCredit: return send_.on_credit(pkt);
    case PktKind::kProbe:
      assembly_.settle(pkt.src, m.settled);
      return send_.on_probe(pkt);
    case PktKind::kProbeAck: return cost().lapi_pkt_rx;
    default: return assembly_.process(pkt);
  }
}

// ---------------------------------------------------------------------------
// AssemblyEngine::Env upcalls
// ---------------------------------------------------------------------------

AmReply Context::run_handler(AmHandlerId id, const AmDelivery& d) {
  SPLAP_REQUIRE(id >= 0 && id < static_cast<AmHandlerId>(handlers_.size()),
                "active message names an unregistered handler");
  return handlers_[static_cast<std::size_t>(id)](*this, d);
}

void Context::run_completion(
    const std::function<void(Context&, sim::Actor&)>& fn,
    sim::Actor& svc_actor) {
  fn(*this, svc_actor);
}

void Context::submit_completion(std::function<void(sim::Actor&)> fn) {
  svc_->submit(std::move(fn));
}

Status Context::send_get_reply(int origin, std::shared_ptr<WireMeta> hdr,
                               std::shared_ptr<std::vector<std::byte>> data) {
  return send_message(PktKind::kPutHdr, origin, std::move(hdr),
                      std::move(data), 0);
}

// ---------------------------------------------------------------------------
// Crash-stop failure handling
// ---------------------------------------------------------------------------

void Context::on_peer_failed(int peer, bool direct) {
  // First-hand detection (retry exhaustion or keepalive misses in the send
  // engine). The send side already failed every record toward the peer;
  // clean up our target side — its incomplete partials can never finish.
  // Its markers and floor stay (see reclaim_peer_partials).
  assembly_.reclaim_peer_partials(peer);
  // Deliver the LAPI_Init-registered error handler on the completion-thread
  // pool, exactly once per failure latch, like any completion handler would
  // run (never inline under the dispatcher).
  if (config_.error_handler) {
    svc_->submit([this, peer](sim::Actor&) {
      config_.error_handler(*this, peer, Status::kPeerFailed);
    });
  }
  // Gossip the verdict to the sibling contexts (the group-services
  // membership channel): barrier partners that never address the dead node
  // would otherwise wait on it forever. The evidence class rides along:
  // receivers latch direct verdicts unconditionally but demand quorum for
  // accrual-only ones.
  broadcast_peer_death(peer, direct);
}

}  // namespace splap::lapi
