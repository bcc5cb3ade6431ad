// small_msg: 4 tasks in interrupt mode, each running a closed loop of
// windows. A window (one request) is 8 single-packet 256-byte operations --
// LAPI puts, gets and active messages with a completion handler -- to
// rotating peers, then one waitcntr on a counter all 8 signal. Before each
// window the task computes for a seed-chosen 0..20 us outside the library;
// packets that reach it then are taken as interrupts.
#include <cstring>

#include "base/rng.hpp"
#include "lapi/context.hpp"
#include "workload.hpp"

namespace bench {
namespace {

using namespace splap;

constexpr int kTasks = 4;
constexpr int kWindow = 8;
constexpr std::int64_t kBytes = 256;
constexpr int kWindowsPerTask = 256;
constexpr std::int64_t kPatternBytes = 64 * 1024;
constexpr Time kMaxThinkNs = 20'000;
// Landing area of a task: one slot per [origin][window slot].
constexpr std::int64_t kSlotBytes = kTasks * kWindow * kBytes;

enum Kind : std::uint8_t { kPut, kGet, kAm };

struct Step {
  std::uint8_t kind = kPut;
  std::uint8_t peer = 0;
  std::uint32_t off = 0;  // pattern offset of the data
};

/// The user header an AM carries: where it lands and what it must hold.
struct AmHdr {
  std::int32_t origin = 0;
  std::int32_t window = 0;
  std::int32_t slot = 0;
  std::uint32_t off = 0;
};

class SmallMsg final : public Workload {
 public:
  explicit SmallMsg(std::uint64_t seed) : pattern_(kPatternBytes) {
    Rng rng(seed);
    for (auto& b : pattern_) b = static_cast<std::byte>(rng.next_u64());
    for (int t = 0; t < kTasks; ++t) {
      // Equal thirds of puts, gets and AMs, and think times spread evenly
      // over 0..kMaxThinkNs; the seed orders them and picks the offsets
      // and each window's peer rotation.
      auto& ops = plan_[t];
      ops.resize(static_cast<std::size_t>(kWindowsPerTask * kWindow));
      for (std::size_t j = 0; j < ops.size(); ++j) {
        ops[j].kind = static_cast<std::uint8_t>(j % 3);
      }
      shuffle(ops, rng);
      for (int w = 0; w < kWindowsPerTask; ++w) {
        think_[t].push_back(kMaxThinkNs * (2 * w + 1) / (2 * kWindowsPerTask));
      }
      shuffle(think_[t], rng);
      for (int w = 0; w < kWindowsPerTask; ++w) {
        const auto rot = static_cast<int>(rng.next_u64() % (kTasks - 1));
        for (int k = 0; k < kWindow; ++k) {
          Step& op = ops[static_cast<std::size_t>(w * kWindow + k)];
          op.peer = static_cast<std::uint8_t>(
              (t + 1 + (rot + k) % (kTasks - 1)) % kTasks);
          op.off = static_cast<std::uint32_t>(
              rng.next_u64() % ((kPatternBytes - kBytes) / 8) * 8);
          if (op.kind == kAm) ++am_expected_[op.peer];
        }
      }
    }
  }

  int tasks() const override { return kTasks; }
  std::int64_t requests_per_round() const override {
    return std::int64_t{kTasks} * kWindowsPerTask;
  }
  std::uint64_t request_hash() const override {
    std::uint64_t h = kFnvBasis;
    for (int t = 0; t < kTasks; ++t) {
      for (const Step& op : plan_[t]) h = mix(mix(h, op.kind), op.peer);
      for (const Time think : think_[t]) h = mix(h, think);
    }
    return h;
  }
  std::uint64_t input_hash() const override {
    std::uint64_t h = fnv1a(pattern_.data(), pattern_.size(), request_hash());
    for (int t = 0; t < kTasks; ++t) {
      for (const Step& op : plan_[t]) h = mix(h, op.off);
    }
    return h;
  }

  void prepare_round() override {
    for (int t = 0; t < kTasks; ++t) {
      Mem& m = mem_[t];
      m.put_land.assign(kSlotBytes, std::byte{0});
      m.am_land.assign(kSlotBytes, std::byte{0});
      m.get_dst.assign(kWindow * kBytes, std::byte{0});
      // Each task serves gets from its own rotation of the pattern.
      m.get_src.resize(kPatternBytes);
      for (std::int64_t i = 0; i < kPatternBytes; ++i) {
        m.get_src[static_cast<std::size_t>(i)] =
            pattern_[static_cast<std::size_t>((i + 977 * t) % kPatternBytes)];
      }
      m.ams_seen = 0;
      m.am_bad.assign(kWindowsPerTask, 0);
    }
  }

  void run_task(net::Node& node, RoundState& rs, Probe& probe) override {
    lapi::Context ctx(node);
    const int me = ctx.task_id();
    Mem& mine = mem_[me];
    const lapi::AmHandlerId handler = ctx.register_handler(
        [this, &mine](lapi::Context&, const lapi::AmDelivery& d) {
          AmHdr h;
          std::memcpy(&h, d.uhdr.data(), sizeof h);
          std::byte* buf =
              mine.am_land.data() + (h.origin * kWindow + h.slot) * kBytes;
          lapi::AmReply r;
          r.buffer = buf;
          r.completion = [this, &mine, buf, h](lapi::Context&, sim::Actor&) {
            ++mine.ams_seen;
            if (std::memcmp(buf, pattern_.data() + h.off, kBytes) != 0) {
              mem_[h.origin].am_bad[static_cast<std::size_t>(h.window)] = 1;
            }
          };
          return r;
        });
    if (ctx.gfence() != Status::kOk) ++rs.bad;
    rs.setup_done(ctx.engine().now());

    TaskLog& log = rs.logs[static_cast<std::size_t>(me)];
    const auto& ops = plan_[me];
    lapi::Counter done;
    const int windows = rs.setup_only ? 0 : kWindowsPerTask;
    for (int w = 0; w < windows; ++w) {
      node.task().compute(think_[me][static_cast<std::size_t>(w)]);
      probe.begin_request();
      Request req;
      req.v0 = ctx.engine().now();
      int issued = 0;
      for (int k = 0; k < kWindow; ++k) {
        const Step& op = ops[static_cast<std::size_t>(w * kWindow + k)];
        const std::span<const std::byte> data(pattern_.data() + op.off, kBytes);
        Mem& peer = mem_[op.peer];
        Status st = Status::kOk;
        if (op.kind == kPut) {
          st = probe.call(Op::kLapiPut, [&] {
            return ctx.put(op.peer, data,
                           peer.put_land.data() + (me * kWindow + k) * kBytes,
                           nullptr, nullptr, &done);
          });
        } else if (op.kind == kGet) {
          st = probe.call(Op::kLapiGet, [&] {
            return ctx.get(op.peer, kBytes, peer.get_src.data() + op.off,
                           mine.get_dst.data() + k * kBytes, nullptr, &done);
          });
        } else {
          const AmHdr h{me, w, k, op.off};
          st = probe.call(Op::kLapiAmsend, [&] {
            return ctx.amsend(op.peer, handler,
                              std::as_bytes(std::span<const AmHdr>(&h, 1)),
                              data, nullptr, nullptr, &done);
          });
        }
        if (st == Status::kOk) {
          ++issued;
        } else {
          req.ok = false;
        }
      }
      const Status wst = probe.call(Op::kLapiWait,
                                    [&] { return ctx.waitcntr(done, issued); });
      req.v1 = ctx.engine().now();
      probe.end_request();
      req.ok = req.ok && wst == Status::kOk && window_landed(me, w);
      req.bytes = kWindow * kBytes;
      log.requests.push_back(req);
    }
    rs.region_done(ctx.engine().now());
    if (probe.call(Op::kLapiWait, [&] { return ctx.gfence(); }) !=
        Status::kOk) {
      ++rs.bad;
    }
  }

  std::int64_t finish_round() override {
    std::int64_t bad = 0;
    for (int t = 0; t < kTasks; ++t) {
      if (mem_[t].ams_seen != am_expected_[t]) ++bad;
    }
    return bad;
  }

 private:
  struct Mem {
    std::vector<std::byte> put_land, am_land, get_src, get_dst;
    std::int64_t ams_seen = 0;  // AM completion handlers run at this task
    std::vector<char> am_bad;   // per window: an AM this task sent landed wrong
  };

  /// Byte-for-byte check of window `w` of task `me` once it completed: puts
  /// are in their target slots, gets in the local buffer. AM payloads were
  /// checked by the completion handler at the target, which ran before the
  /// origin's counter fired.
  bool window_landed(int me, int w) const {
    if (mem_[me].am_bad[static_cast<std::size_t>(w)] != 0) return false;
    for (int k = 0; k < kWindow; ++k) {
      const Step& op = plan_[me][static_cast<std::size_t>(w * kWindow + k)];
      const Mem& peer = mem_[op.peer];
      const std::byte* expect = op.kind == kGet ? peer.get_src.data() + op.off
                                                : pattern_.data() + op.off;
      const std::byte* got =
          op.kind == kPut ? peer.put_land.data() + (me * kWindow + k) * kBytes
          : op.kind == kGet ? mem_[me].get_dst.data() + k * kBytes
                            : nullptr;
      if (got != nullptr && std::memcmp(got, expect, kBytes) != 0) return false;
    }
    return true;
  }

  std::vector<std::byte> pattern_;
  std::vector<Step> plan_[kTasks];
  std::vector<Time> think_[kTasks];  // compute before each window
  std::int64_t am_expected_[kTasks] = {};
  Mem mem_[kTasks];
};

}  // namespace

std::unique_ptr<Workload> make_small_msg(std::uint64_t seed) {
  return std::make_unique<SmallMsg>(seed);
}

}  // namespace bench
