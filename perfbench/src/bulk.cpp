// bulk: 2 tasks walking one shared list of large exchanges in lockstep.
// Each entry is one kind and size, and both tasks perform it toward each
// other at once, so both link directions carry the same load:
//   put  -- LAPI put into the peer, waitcntr on the completion counter;
//   get  -- LAPI get from the peer, waitcntr on the origin counter;
//   mpl  -- MPL isend to the peer, blocking recv from it, wait on the send.
// Each task's half of an entry is one request. In an MPL exchange one task
// first computes for kMplLateNs, so the other's eager message arrives before
// the receive is posted and takes MPL's unexpected-message copy, and its
// rendezvous request waits for the late receive.
#include <cmath>
#include <cstring>

#include "base/rng.hpp"
#include "lapi/context.hpp"
#include "mpl/comm.hpp"
#include "workload.hpp"

namespace bench {
namespace {

using namespace splap;

constexpr int kTasks = 2;
constexpr int kEntries = 510;
constexpr std::int64_t kMaxBytes = 1024 * 1024;
constexpr std::int64_t kPatternBytes = 2 * kMaxBytes;
/// LAPI transfers span 16 KiB..1 MiB; MPL ones start at 1 KiB so that they
/// fall on both sides of the default 4 KiB eager limit.
constexpr std::int64_t kLapiMinBytes = 16 * 1024;
constexpr std::int64_t kMplMinBytes = 1024;
constexpr Time kMplLateNs = 200'000;

enum Kind : std::uint8_t { kPut, kGet, kMpl };

struct Step {
  std::uint8_t kind = kPut;
  std::uint32_t off[kTasks] = {};  // each task's pattern offset
  std::int64_t bytes = 0;
};

/// The k-th of n sizes spread log-evenly over [lo, hi], a multiple of 8.
std::int64_t grid_size(int k, int n, std::int64_t lo, std::int64_t hi) {
  const double x = static_cast<double>(lo) *
                   std::pow(static_cast<double>(hi) / static_cast<double>(lo),
                            (k + 0.5) / n);
  return static_cast<std::int64_t>(x) / 8 * 8;
}

class Bulk final : public Workload {
 public:
  explicit Bulk(std::uint64_t seed) : pattern_(kPatternBytes) {
    Rng rng(seed);
    for (auto& b : pattern_) b = static_cast<std::byte>(rng.next_u64());
    // Equal thirds of puts, gets and MPL exchanges, each third with sizes
    // spread log-evenly over its range; the seed orders the list and picks
    // the pattern offsets.
    plan_.resize(kEntries);
    constexpr int kPerKind = kEntries / 3;
    for (int i = 0; i < kEntries; ++i) {
      Step& s = plan_[static_cast<std::size_t>(i)];
      s.kind = static_cast<std::uint8_t>(i % 3);
      const std::int64_t lo = s.kind == kMpl ? kMplMinBytes : kLapiMinBytes;
      s.bytes = grid_size(i / 3, kPerKind, lo, kMaxBytes);
    }
    shuffle(plan_, rng);
    for (Step& s : plan_) {
      for (auto& off : s.off) {
        off = static_cast<std::uint32_t>(
            rng.next_u64() % ((kPatternBytes - s.bytes) / 8 + 1) * 8);
      }
    }
  }

  int tasks() const override { return kTasks; }
  std::int64_t requests_per_round() const override { return kTasks * kEntries; }
  std::uint64_t request_hash() const override {
    std::uint64_t h = kFnvBasis;
    for (const Step& s : plan_) h = mix(mix(h, s.kind), s.bytes);
    return h;
  }
  std::uint64_t input_hash() const override {
    std::uint64_t h = fnv1a(pattern_.data(), pattern_.size(), request_hash());
    for (const Step& s : plan_) {
      for (const std::uint32_t off : s.off) h = mix(h, off);
    }
    return h;
  }

  void prepare_round() override {
    for (int t = 0; t < kTasks; ++t) {
      Mem& m = mem_[t];
      m.put_land.assign(kMaxBytes, std::byte{0});
      m.recv_land.assign(kMaxBytes, std::byte{0});
      m.get_dst.assign(kMaxBytes, std::byte{0});
      // Gets read from the pattern reversed per task, so a get that returns
      // put data or the wrong task's memory fails its check.
      m.get_src.resize(kPatternBytes);
      for (std::int64_t i = 0; i < kPatternBytes; ++i) {
        m.get_src[static_cast<std::size_t>(i)] =
            pattern_[static_cast<std::size_t>(kPatternBytes - 1 - i)] ^
            static_cast<std::byte>(t + 1);
      }
    }
  }

  void run_task(net::Node& node, RoundState& rs, Probe& probe) override {
    lapi::Context ctx(node);
    mpl::Comm comm(node);
    const int me = ctx.task_id();
    const int peer = 1 - me;
    if (ctx.gfence() != Status::kOk) ++rs.bad;
    rs.setup_done(ctx.engine().now());

    TaskLog& log = rs.logs[static_cast<std::size_t>(me)];
    lapi::Counter done;
    const int entries = rs.setup_only ? 0 : kEntries;
    for (int i = 0; i < entries; ++i) {
      const Step& s = plan_[static_cast<std::size_t>(i)];
      const std::size_t n = static_cast<std::size_t>(s.bytes);
      const std::span<const std::byte> mine(pattern_.data() + s.off[me], n);
      if (s.kind == kMpl && me == i % kTasks) node.task().compute(kMplLateNs);
      probe.begin_request();
      Request req;
      req.bytes = s.bytes;
      req.v0 = ctx.engine().now();
      Status st = Status::kOk;
      const std::byte* got = nullptr;
      const std::byte* want = nullptr;
      if (s.kind == kPut) {
        st = probe.call(Op::kLapiPut, [&] {
          return ctx.put(peer, mine, mem_[peer].put_land.data(), nullptr,
                         nullptr, &done);
        });
        if (st == Status::kOk) {
          st = probe.call(Op::kLapiWait, [&] { return ctx.waitcntr(done, 1); });
        }
        got = mem_[peer].put_land.data();
        want = mine.data();
      } else if (s.kind == kGet) {
        want = mem_[peer].get_src.data() + s.off[me];
        st = probe.call(Op::kLapiGet, [&] {
          return ctx.get(peer, s.bytes, want, mem_[me].get_dst.data(), nullptr,
                         &done);
        });
        if (st == Status::kOk) {
          st = probe.call(Op::kLapiWait, [&] { return ctx.waitcntr(done, 1); });
        }
        got = mem_[me].get_dst.data();
      } else {
        const mpl::Request sent =
            probe.call(Op::kMplSend, [&] { return comm.isend(peer, i, mine); });
        mpl::RecvStatus rst;
        const std::span<std::byte> buf(mem_[me].recv_land.data(), n);
        st = probe.call(Op::kMplRecv,
                        [&] { return comm.recv(peer, i, buf, &rst); });
        probe.call(Op::kMplWait, [&] { comm.wait(sent); });
        if (rst.len != s.bytes) st = Status::kTruncated;
        got = buf.data();
        want = pattern_.data() + s.off[peer];
      }
      req.v1 = ctx.engine().now();
      probe.end_request();
      req.ok = st == Status::kOk && std::memcmp(got, want, n) == 0;
      log.requests.push_back(req);
    }
    rs.region_done(ctx.engine().now());
    const Status fence =
        probe.call(Op::kLapiWait, [&] { return ctx.gfence(); });
    if (fence != Status::kOk) ++rs.bad;
    if (comm.comm_status() != Status::kOk) ++rs.bad;
  }

 private:
  struct Mem {
    std::vector<std::byte> put_land, recv_land, get_dst, get_src;
  };

  std::vector<std::byte> pattern_;
  std::vector<Step> plan_;
  Mem mem_[kTasks];
};

}  // namespace

std::unique_ptr<Workload> make_bulk(std::uint64_t seed) {
  return std::make_unique<Bulk>(seed);
}

}  // namespace bench
