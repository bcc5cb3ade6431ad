// Bounded receive-side state: the settled watermark (LAPI) and the admission
// cursor (MPL) let a receiver forget every message its origin has settled.
//
// Part A runs 10k messages through each stack and checks that the target's
// retained per-message records stay within the outstanding operations plus
// one window, instead of growing with the length of the run.
//
// Part B checks the duplicate path that replaces the forgotten records: a
// packet of a message below the floor (LAPI) or the cursor (MPL) is answered
// exactly as a completed record would answer it, and never delivers, runs a
// handler or executes an RMW a second time.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "lapi/assembly.hpp"
#include "lapi_test_util.hpp"
#include "mpl/comm.hpp"

namespace splap {
namespace {

using lapi::testing::machine_config;
using lapi::testing::run_lapi;

constexpr int kMessages = 10000;

// ===========================================================================
// Part A: retained records stay bounded over 10k messages
// ===========================================================================

TEST(RetentionTest, LapiReceiverStateStaysBounded) {
  constexpr int kWindow = 16;
  net::Machine m(machine_config(2));
  std::vector<std::byte> landing(64);
  std::vector<std::byte> source(64, std::byte{7});
  std::int64_t var = 0;
  std::size_t peak_target = 0;  // task 1: puts, AMs, RMWs, get requests
  std::size_t peak_origin = 0;  // task 0: the get replies
  int completions = 0;
  ASSERT_EQ(run_lapi(m, [&](lapi::Context& ctx) {
    const lapi::AmHandlerId h = ctx.register_handler(
        [&](lapi::Context& tc, const lapi::AmDelivery& d) {
          peak_target = std::max(peak_target, tc.retained_records());
          lapi::AmReply r;
          r.buffer = landing.data();
          if (d.uhdr[0] == std::byte{1}) {  // every other AM: a completion
            r.completion = [&](lapi::Context&, sim::Actor&) { ++completions; };
          }
          return r;
        });
    if (ctx.task_id() != 0) return;
    std::vector<std::byte> uhdr(900);  // GA-sized user header
    std::vector<std::byte> data(64, std::byte{3});
    std::vector<std::byte> got(64);
    lapi::Counter done;
    for (int i = 0; i < kMessages; i += kWindow) {
      for (int j = i; j < i + kWindow; ++j) {
        switch (j % 4) {
          case 0:
            ASSERT_EQ(ctx.put(1, data, landing.data(), nullptr, nullptr, &done),
                      Status::kOk);
            break;
          case 1:
            uhdr[0] = std::byte{static_cast<unsigned char>((j / 4) % 2)};
            ASSERT_EQ(ctx.amsend(1, h, uhdr, data, nullptr, nullptr, &done),
                      Status::kOk);
            break;
          case 2:
            ASSERT_EQ(ctx.rmw(lapi::RmwOp::kFetchAndAdd, 1, &var, 1, 0,
                              nullptr, &done),
                      Status::kOk);
            break;
          default:
            ASSERT_EQ(ctx.get(1, 64, source.data(), got.data(), nullptr, &done),
                      Status::kOk);
            break;
        }
      }
      ASSERT_EQ(ctx.waitcntr(done, kWindow), Status::kOk);
      peak_origin = std::max(peak_origin, ctx.retained_records());
    }
  }), Status::kOk);
  EXPECT_EQ(var, kMessages / 4);  // every RMW executed exactly once
  EXPECT_EQ(completions, kMessages / 8);
  // Without the floor, both counts grow by one record per message.
  EXPECT_LE(peak_target, static_cast<std::size_t>(2 * kWindow));
  EXPECT_LE(peak_origin, static_cast<std::size_t>(2 * kWindow));
}

TEST(RetentionTest, MplReceiverStateStaysBounded) {
  constexpr int kWindow = 8;
  net::Machine m(machine_config(2));
  std::size_t peak = 0;
  int intact = 0;
  ASSERT_EQ(m.run_spmd([&](net::Node& n) {
    mpl::Comm comm(n);
    // Alternate eager and rendezvous messages (above the 4 KB eager limit).
    const auto len = [&](int i) {
      return i % 2 == 0 ? std::size_t{16}
                        : static_cast<std::size_t>(comm.eager_limit() + 904);
    };
    if (comm.rank() == 0) {
      std::vector<std::vector<std::byte>> bufs(kWindow);
      for (int i = 0; i < kMessages; i += kWindow) {
        std::vector<mpl::Request> reqs;
        for (int j = i; j < i + kWindow; ++j) {
          auto& b = bufs[static_cast<std::size_t>(j - i)];
          b.assign(len(j), static_cast<std::byte>(j % 251));
          reqs.push_back(comm.isend(1, 3, b));
        }
        for (const mpl::Request r : reqs) comm.wait(r);
      }
    } else {
      std::vector<std::vector<std::byte>> bufs(kWindow);
      for (int i = 0; i < kMessages; i += kWindow) {
        std::vector<mpl::Request> reqs;
        for (int j = i; j < i + kWindow; ++j) {
          auto& b = bufs[static_cast<std::size_t>(j - i)];
          b.assign(len(j), std::byte{0});
          reqs.push_back(comm.irecv(0, 3, b));
        }
        peak = std::max(peak, comm.retained_records());
        for (const mpl::Request r : reqs) comm.wait(r);
        peak = std::max(peak, comm.retained_records());
        for (int j = i; j < i + kWindow; ++j) {
          const auto& b = bufs[static_cast<std::size_t>(j - i)];
          if (b.front() == static_cast<std::byte>(j % 251) &&
              b.back() == static_cast<std::byte>(j % 251)) {
            ++intact;
          }
        }
      }
    }
    comm.barrier();
  }), Status::kOk);
  EXPECT_EQ(intact, kMessages);
  // A live posting sits in two tables; undelivered messages of the next
  // window may arrive unexpected. Without pruning, all three grow per
  // message.
  EXPECT_LE(peak, static_cast<std::size_t>(3 * kWindow));
}

// ===========================================================================
// Part B: duplicates below the floor
// ===========================================================================

/// Records every reply the target emits: when, what kind, how big.
struct Reply {
  Time at = 0;
  lapi::PktKind kind = lapi::PktKind::kAck;
  std::int64_t header_bytes = 0;
  std::shared_ptr<const lapi::WireMeta> meta;
};

class RecordingWire final : public net::Delivery {
 public:
  explicit RecordingWire(sim::Engine& eng) : eng_(eng) {}
  net::Packet make_packet() override { return net::Packet{}; }
  Time link_free(int /*src*/) const override { return eng_.now(); }
  void transmit(net::Packet&& pkt) override {
    auto meta = std::static_pointer_cast<const lapi::WireMeta>(pkt.meta);
    replies.push_back(Reply{eng_.now(), meta->kind, pkt.header_bytes, meta});
  }
  std::vector<Reply> replies;

 private:
  sim::Engine& eng_;
};

/// Task 1's target side alone: counts handler, completion and get-serving
/// upcalls so a second delivery shows.
class Target final : public lapi::ProgressEngine::Sink,
                     public lapi::AssemblyEngine::Env {
 public:
  Target(sim::Engine& eng, const CostModel& cm, RecordingWire& wire)
      : eng_(eng),
        progress_(eng, cm, *this, /*interrupt_mode=*/true),
        assembly_(wire, progress_, *this, /*task_id=*/1, lapi::Config{},
                  /*verify_checksums=*/false) {}

  /// Hand `pkt` to the target's dispatcher at virtual time `at`.
  void deliver_at(Time at, const net::Packet& pkt) {
    auto copy = std::make_shared<net::Packet>();
    copy->src = pkt.src;
    copy->dst = pkt.dst;
    copy->header_bytes = pkt.header_bytes;
    copy->meta = pkt.meta;
    copy->data.assign(pkt.data.data(), pkt.data.data() + pkt.data.size());
    eng_.schedule_at(at, [this, copy] {
      progress_.on_delivery(std::move(*copy));
    });
  }

  lapi::AssemblyEngine& assembly() { return assembly_; }
  std::vector<std::byte> landing = std::vector<std::byte>(2000);
  int handler_runs = 0;
  int completion_runs = 0;
  int get_replies = 0;

 private:
  Time process_packet(net::Packet& pkt) override {
    return assembly_.process(pkt);
  }
  lapi::AmReply run_handler(lapi::AmHandlerId,
                            const lapi::AmDelivery&) override {
    ++handler_runs;
    lapi::AmReply r;
    r.buffer = landing.data();
    r.completion = [](lapi::Context&, sim::Actor&) {};
    return r;
  }
  void run_completion(const std::function<void(lapi::Context&, sim::Actor&)>&,
                      sim::Actor&) override {
    ++completion_runs;
  }
  void submit_completion(std::function<void(sim::Actor&)> fn) override {
    eng_.spawn("svc", std::move(fn));
  }
  Status send_get_reply(int, std::shared_ptr<lapi::WireMeta>,
                        std::shared_ptr<std::vector<std::byte>>) override {
    ++get_replies;
    return Status::kOk;
  }

  sim::Engine& eng_;
  lapi::ProgressEngine progress_;
  lapi::AssemblyEngine assembly_;
};

net::Packet packet_from_origin(std::shared_ptr<lapi::WireMeta> meta,
                               std::int64_t header_bytes,
                               std::span<const std::byte> payload = {}) {
  net::Packet p;
  p.src = 0;
  p.dst = 1;
  p.header_bytes = header_bytes;
  p.meta = std::move(meta);
  p.data.assign(payload.data(), payload.data() + payload.size());
  return p;
}

TEST(RetentionTest, LapiDuplicatesBelowTheFloorAreAnsweredNotRedelivered) {
  sim::Engine eng;
  CostModel cm;
  RecordingWire wire(eng);
  Target t(eng, cm, wire);
  lapi::Counter org, cmpl;  // origin counters, only echoed back
  std::int64_t var = 10;
  std::vector<std::byte> payload(2000, std::byte{5});
  std::vector<std::byte> served(8, std::byte{9});
  std::vector<std::byte> get_dst(8);

  // msg 0: an AM with a 900-byte user header, header packet + one data
  // packet; msg 1: a fetch-and-add; msg 2: a get request.
  auto am = std::make_shared<lapi::WireMeta>();
  am->kind = lapi::PktKind::kAmHdr;
  am->msg_id = 0;
  am->total_len = 2000;
  am->handler_id = 0;
  am->uhdr.assign(900, std::byte{1});
  am->org_cntr = &org;
  am->cmpl_cntr = &cmpl;
  const net::Packet am_hdr = packet_from_origin(
      am, cm.lapi_header_bytes + 900, std::span(payload).first(1000));
  auto am_data_meta = std::make_shared<lapi::WireMeta>();
  am_data_meta->kind = lapi::PktKind::kData;
  am_data_meta->msg_id = 0;
  am_data_meta->offset = 1000;
  const net::Packet am_data = packet_from_origin(
      am_data_meta, cm.lapi_header_bytes, std::span(payload).last(1000));

  auto rmw = std::make_shared<lapi::WireMeta>();
  rmw->kind = lapi::PktKind::kRmwReq;
  rmw->msg_id = 1;
  rmw->rmw_op = lapi::RmwOp::kFetchAndAdd;
  rmw->rmw_var = &var;
  rmw->rmw_in1 = 5;
  rmw->org_cntr = &org;
  const net::Packet rmw_req = packet_from_origin(
      rmw, cm.lapi_header_bytes + lapi::kRmwReqDescBytes);

  auto get = std::make_shared<lapi::WireMeta>();
  get->kind = lapi::PktKind::kGetReq;
  get->msg_id = 2;
  get->total_len = 8;
  get->src_addr = served.data();
  get->dst_addr = get_dst.data();
  const net::Packet get_req = packet_from_origin(
      get, cm.lapi_header_bytes + lapi::kGetReqDescBytes);

  t.deliver_at(microseconds(10), am_hdr);
  t.deliver_at(microseconds(20), am_data);
  t.deliver_at(microseconds(30), rmw_req);
  t.deliver_at(microseconds(40), get_req);
  ASSERT_EQ(eng.run(), Status::kOk);
  ASSERT_EQ(t.handler_runs, 1);
  ASSERT_EQ(t.completion_runs, 1);
  ASSERT_EQ(t.get_replies, 1);
  ASSERT_EQ(var, 15);
  EXPECT_EQ(t.assembly().retained_records(), 3u);  // 2 markers + 1 RMW

  // Re-deliver each packet above the floor (the markers answer) and then
  // below it (nothing left to answer from), one at a time on an idle
  // dispatcher, and capture the single reply each one draws.
  const std::vector<const net::Packet*> dups{&am_hdr, &am_data, &rmw_req,
                                             &get_req};
  const auto replay = [&](Time start) {
    std::vector<Reply> out;
    for (std::size_t i = 0; i < dups.size(); ++i) {
      const Time at = start + milliseconds(1.0) * static_cast<Time>(i);
      const std::size_t before = wire.replies.size();
      t.deliver_at(at, *dups[i]);
      EXPECT_EQ(eng.run(), Status::kOk);
      EXPECT_EQ(wire.replies.size(), before + 1) << "packet " << i;
      Reply r = wire.replies.back();
      r.at -= at;  // reply delay, comparable across the two rounds
      out.push_back(r);
    }
    return out;
  };
  const std::vector<Reply> marked = replay(milliseconds(1.0));

  // msg 3: a one-packet put whose piggybacked watermark settles msgs 0-2.
  std::vector<std::byte> put_dst(4);
  auto put = std::make_shared<lapi::WireMeta>();
  put->kind = lapi::PktKind::kPutHdr;
  put->msg_id = 3;
  put->settled = 3;
  put->total_len = 4;
  put->tgt_addr = put_dst.data();
  t.deliver_at(milliseconds(10.0),
               packet_from_origin(put, cm.lapi_header_bytes,
                                  std::span(payload).first(4)));
  ASSERT_EQ(eng.run(), Status::kOk);
  EXPECT_EQ(t.assembly().retained_records(), 1u);  // only msg 3's marker

  const std::vector<Reply> settled = replay(milliseconds(20.0));
  ASSERT_EQ(settled.size(), marked.size());
  for (std::size_t i = 0; i < marked.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(settled[i].kind, marked[i].kind);
    EXPECT_EQ(settled[i].header_bytes, marked[i].header_bytes);
    EXPECT_EQ(settled[i].at, marked[i].at);
    // The origin dropped its record: nothing reads the counters.
    EXPECT_EQ(settled[i].meta->org_cntr, nullptr);
    EXPECT_EQ(settled[i].meta->cmpl_cntr, nullptr);
    EXPECT_EQ(settled[i].meta->rmw_prev_out, nullptr);
  }
  EXPECT_EQ(marked[2].kind, lapi::PktKind::kRmwResp);
  EXPECT_EQ(marked[2].meta->rmw_prev, 10);  // the cached result
  EXPECT_EQ(settled[2].meta->rmw_prev, 0);

  // Exactly once: no second handler, completion, RMW or get serve, and the
  // duplicates recreated no record.
  EXPECT_EQ(t.handler_runs, 1);
  EXPECT_EQ(t.completion_runs, 1);
  EXPECT_EQ(t.get_replies, 1);
  EXPECT_EQ(var, 15);
  EXPECT_EQ(t.assembly().retained_records(), 1u);
}

// MPL keeps no record of a delivered message: its admission cursor is the
// floor. Drop every fifth packet so some acks are lost after their message
// was delivered and forgotten; the sender's retransmission must be re-acked
// (or it would exhaust its retries) and must not match a posting again.
TEST(RetentionTest, MplDuplicateAfterDeliveryIsReackedNotRematched) {
  constexpr int kCount = 200;
  net::Machine::Config mc = machine_config(2);
  mc.fabric.fault.loss = net::LossModel::kEveryNth;
  mc.fabric.fault.loss_every_n = 5;
  net::Machine m(mc);
  int in_order = 0;
  bool extra_matched = true;
  std::size_t retained = 0;
  ASSERT_EQ(m.run_spmd([&](net::Node& n) {
    mpl::Comm comm(n);
    if (comm.rank() == 0) {
      for (int i = 0; i < kCount; ++i) {
        const std::int64_t v = i;
        ASSERT_EQ(comm.send(1, 4, lapi::testing::as_bytes_of(&v, sizeof v)),
                  Status::kOk);
      }
    } else {
      for (int i = 0; i < kCount; ++i) {
        std::int64_t v = -1;
        ASSERT_EQ(comm.recv(0, 4,
                            std::span(reinterpret_cast<std::byte*>(&v),
                                      sizeof v)),
                  Status::kOk);
        if (v == i) ++in_order;
      }
      // Any retransmission still in flight would match this posting if a
      // delivered message were matched twice.
      std::int64_t extra = 0;
      const mpl::Request r = comm.irecv(
          0, 4, std::span(reinterpret_cast<std::byte*>(&extra), sizeof extra));
      sim::Actor::current()->compute(milliseconds(200.0));
      extra_matched = comm.test(r);
      retained = comm.retained_records();
    }
    comm.barrier();
    EXPECT_EQ(comm.comm_status(), Status::kOk);
  }), Status::kOk);
  EXPECT_EQ(in_order, kCount);
  EXPECT_FALSE(extra_matched);
  // The extra posting, in both posting tables, plus at most rank 0's barrier
  // envelope, unexpected until rank 1 reaches the barrier itself.
  EXPECT_LE(retained, 3u);
  EXPECT_GT(m.engine().counters().get("mpl.retransmits"), 0);
  EXPECT_EQ(m.engine().counters().get("mpl.retransmit_giveup"), 0);
}

}  // namespace
}  // namespace splap
