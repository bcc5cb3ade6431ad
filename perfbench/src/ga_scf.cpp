// ga_scf: 4 tasks running Global Arrays over LAPI, a scaled form of
// examples/ga_scf.cpp. Each iteration tiles the N x N matrices into
// irregular blocks, some of which straddle the owners' block boundaries;
// tasks take blocks with read_inc, get the D patch, charge compute, and acc
// into F. Each iteration ends with sync and
// a gop_sum of the trace. Every GA call is one request.
//
// The output check replays the same arithmetic serially: F must match
// element by element and the energy series value by value, each within a
// relative tolerance of 1e-9 (gop_sum may add the partial traces in another
// order than the serial loop).
#include <cmath>
#include <algorithm>

#include "base/rng.hpp"
#include "ga/runtime.hpp"
#include "workload.hpp"

namespace bench {
namespace {

using namespace splap;

constexpr int kTasks = 4;
constexpr std::int64_t kN = 256;
constexpr int kIters = 20;
/// Tile edge lengths (they sum to kN): 64 tiles per iteration. The tiling
/// is the same for every seed; the seed chooses D and the order in which
/// read_inc hands the tiles out, and so which task fetches which tile.
constexpr std::int64_t kTileLengths[] = {16, 20, 24, 28, 32, 36, 48, 52};
static_assert(16 + 20 + 24 + 28 + 32 + 36 + 48 + 52 == kN);
constexpr double kTolerance = 1e-9;

bool close_enough(double got, double want) {
  return std::fabs(got - want) <= kTolerance * std::max(1.0, std::fabs(want));
}

struct Tile {
  ga::Patch patch;
  double shift = 0;  // the block's additive "integral" term
};

/// Split [0, kN) into consecutive ranges of kTileLengths, rotated by
/// `rot` so each iteration tiles the matrices differently.
std::vector<std::pair<std::int64_t, std::int64_t>> split(std::size_t rot) {
  constexpr std::size_t n = std::size(kTileLengths);
  std::vector<std::pair<std::int64_t, std::int64_t>> r;
  std::int64_t lo = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const std::int64_t len = kTileLengths[(k + rot) % n];
    r.emplace_back(lo, lo + len - 1);
    lo += len;
  }
  return r;
}

class GaScf final : public Workload {
 public:
  explicit GaScf(std::uint64_t seed) {
    Rng rng(seed);
    d0_.resize(kN * kN);
    for (double& x : d0_) {
      x = static_cast<double>(rng.next_u64() >> 11) * 0x1.0p-53;
    }
    requests_ = 0;
    for (int it = 0; it < kIters; ++it) {
      const auto rows = split(static_cast<std::size_t>(it));
      const auto cols = split(static_cast<std::size_t>(2 * it + 1));
      auto& tiles = tiles_[it];
      for (std::size_t bj = 0; bj < cols.size(); ++bj) {
        for (std::size_t bi = 0; bi < rows.size(); ++bi) {
          tiles.push_back(Tile{{rows[bi].first, rows[bi].second,
                                cols[bj].first, cols[bj].second},
                               0.01 * std::sin(static_cast<double>(bi + bj))});
          max_elems_ = std::max(max_elems_, tiles.back().patch.elems());
        }
      }
      // read_inc hands the tiles out in a seed-chosen order.
      shuffle(tiles, rng);
      // Per tile get + acc + read_inc; per task one empty read_inc, two
      // syncs and a gop_sum.
      requests_ += 3 * static_cast<std::int64_t>(tiles.size()) + 4 * kTasks;
    }
    serial_reference();
  }

  int tasks() const override { return kTasks; }
  std::int64_t requests_per_round() const override { return requests_; }
  std::uint64_t request_hash() const override {
    std::uint64_t h = kFnvBasis;
    for (const auto& tiles : tiles_) {
      for (const Tile& t : tiles) {
        const ga::Patch& p = t.patch;
        h = mix(mix(mix(mix(h, p.lo1), p.hi1), p.lo2), p.hi2);
      }
    }
    return h;
  }
  std::uint64_t input_hash() const override {
    return fnv1a(d0_.data(), d0_.size() * sizeof(double), request_hash());
  }

  void prepare_round() override {
    for (int it = 0; it < kIters; ++it) {
      taken_[it].assign(tiles_[it].size() + kTasks, 0);
    }
  }

  void run_task(net::Node& node, RoundState& rs, Probe& probe) override {
    ga::Runtime rt(node);
    ga::GlobalArray dens = rt.create(kN, kN);
    ga::GlobalArray fock = rt.create(kN, kN);
    const ga::Patch blk = dens.my_block();
    double* dl = dens.access();
    for (std::int64_t j = blk.lo2; j <= blk.hi2; ++j) {
      for (std::int64_t i = blk.lo1; i <= blk.hi1; ++i) {
        dl[(j - blk.lo2) * blk.rows() + (i - blk.lo1)] = d0_[j * kN + i];
      }
    }
    rt.sync();
    rs.setup_done(rt.engine().now());

    const int me = rt.me();
    TaskLog& log = rs.logs[static_cast<std::size_t>(me)];
    std::vector<double> dbuf(static_cast<std::size_t>(max_elems_));
    std::vector<double> fbuf(dbuf.size());
    // One GA call as one request: status and, where given, the output check.
    auto call = [&](Op op, std::int64_t bytes, auto&& fn) {
      probe.begin_request();
      Request req;
      req.bytes = bytes;
      req.v0 = rt.engine().now();
      const auto result = probe.call(op, fn);
      req.v1 = rt.engine().now();
      probe.end_request();
      req.ok = rt.comm_status() == Status::kOk;
      log.requests.push_back(req);
      return result;
    };
    const int iters = rs.setup_only ? 0 : kIters;
    for (int it = 0; it < iters; ++it) {
      const auto& tiles = tiles_[it];
      call(Op::kGaSync, 0, [&] { rt.sync(); return 0; });
      for (;;) {
        const std::int64_t k = call(Op::kGaReadInc, 0, [&] {
          return rt.read_inc(1 + it, 1);
        });
        auto& taken = taken_[it];
        if (k < 0 || k >= static_cast<std::int64_t>(taken.size()) ||
            taken[static_cast<std::size_t>(k)]++ != 0) {
          log.requests.back().ok = false;
        }
        if (k >= static_cast<std::int64_t>(tiles.size())) break;
        const Tile& t = tiles[static_cast<std::size_t>(k)];
        const ga::Patch& p = t.patch;
        const std::int64_t bytes = p.elems() * 8;
        call(Op::kGaGet, bytes, [&] {
          dens.get(p, dbuf.data(), p.rows());
          return 0;
        });
        if (!patch_matches(p, dbuf.data(), it)) log.requests.back().ok = false;
        node.task().compute(
            microseconds(0.08 * static_cast<double>(p.elems())));
        for (std::int64_t e = 0; e < p.elems(); ++e) {
          fbuf[static_cast<std::size_t>(e)] =
              0.5 * dbuf[static_cast<std::size_t>(e)] + t.shift;
        }
        call(Op::kGaAcc, bytes, [&] {
          fock.acc(p, fbuf.data(), p.rows(), 1.0);
          return 0;
        });
      }
      call(Op::kGaSync, 0, [&] { rt.sync(); return 0; });
      double tr[1] = {0.0};
      const ga::Patch fb = fock.my_block();
      const double* fl = fock.access();
      for (std::int64_t j = fb.lo2; j <= fb.hi2; ++j) {
        for (std::int64_t i = fb.lo1; i <= fb.hi1; ++i) {
          if (i == j) tr[0] += fl[(j - fb.lo2) * fb.rows() + (i - fb.lo1)];
        }
      }
      call(Op::kGaGopSum, 8, [&] {
        rt.gop_sum(std::span<double>(tr, 1));
        return 0;
      });
      if (!close_enough(tr[0] / kN, energy_[it])) {
        log.requests.back().ok = false;
      }
      for (std::int64_t e = 0; e < blk.elems(); ++e) {
        dl[static_cast<std::size_t>(e)] *= 0.9;
      }
    }
    rs.region_done(rt.engine().now());

    // F against the serial reference, block by block at its owner.
    const ga::Patch fb = fock.my_block();
    const double* fl = fock.access();
    bool f_ok = true;
    for (std::int64_t j = fb.lo2; j <= fb.hi2 && iters == kIters; ++j) {
      for (std::int64_t i = fb.lo1; i <= fb.hi1; ++i) {
        f_ok = f_ok && close_enough(fl[(j - fb.lo2) * fb.rows() + (i - fb.lo1)],
                                    f_[j * kN + i]);
      }
    }
    if (!f_ok) ++rs.bad;
    probe.call(Op::kGaSync, [&] { rt.sync(); return 0; });
    rt.destroy(fock);
    rt.destroy(dens);
  }

  std::int64_t finish_round() override {
    // Every read_inc value handed out exactly once (a duplicate already
    // failed its request; this catches values never handed out).
    std::int64_t bad = 0;
    for (const auto& taken : taken_) {
      bad += std::any_of(taken.begin(), taken.end(),
                         [](char c) { return c != 1; });
    }
    return bad;
  }

 private:
  /// D at iteration `it`, the values every get must return: D0 scaled by
  /// 0.9 once per iteration, as the owners do it.
  bool patch_matches(const ga::Patch& p, const double* buf, int it) const {
    for (std::int64_t j = p.lo2; j <= p.hi2; ++j) {
      for (std::int64_t i = p.lo1; i <= p.hi1; ++i) {
        double want = d0_[j * kN + i];
        for (int k = 0; k < it; ++k) want *= 0.9;
        if (buf[(j - p.lo2) * p.rows() + (i - p.lo1)] != want) return false;
      }
    }
    return true;
  }

  void serial_reference() {
    f_.assign(kN * kN, 0.0);
    std::vector<double> d = d0_;
    for (int it = 0; it < kIters; ++it) {
      for (const Tile& t : tiles_[it]) {
        const ga::Patch& p = t.patch;
        for (std::int64_t j = p.lo2; j <= p.hi2; ++j) {
          for (std::int64_t i = p.lo1; i <= p.hi1; ++i) {
            f_[j * kN + i] += 1.0 * (0.5 * d[j * kN + i] + t.shift);
          }
        }
      }
      double tr = 0;
      for (std::int64_t i = 0; i < kN; ++i) tr += f_[i * kN + i];
      energy_[it] = tr / kN;
      for (double& x : d) x *= 0.9;
    }
  }

  std::vector<double> d0_;
  std::vector<Tile> tiles_[kIters];
  std::int64_t requests_ = 0;
  std::int64_t max_elems_ = 0;  // largest tile
  // Serial reference: final F and the energy series.
  std::vector<double> f_;
  double energy_[kIters] = {};
  // Round check state.
  std::vector<char> taken_[kIters];  // read_inc values handed out
};

}  // namespace

std::unique_ptr<Workload> make_ga_scf(std::uint64_t seed) {
  return std::make_unique<GaScf>(seed);
}

}  // namespace bench
