// The three benchmark workloads and the per-round state they share.
//
// A workload is generated from its seed once (the request list, the data
// patterns and the serial reference); each round then builds a fresh
// Machine and replays that same list through the simulated program, so
// every round of a run is the same virtual computation and must produce the
// same virtual-time results and counts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "net/machine.hpp"
#include "probe.hpp"

namespace bench {

/// State of one round, shared by the tasks of its Machine. The engine runs
/// exactly one actor at a time and hands control over with acquire/release
/// synchronization, so the tasks update it without locks.
struct RoundState {
  splap::net::Machine* machine = nullptr;
  /// Set-up-only round: the tasks skip the request loop (setup_s samples).
  bool setup_only = false;
  std::vector<TaskLog> logs;  // one per task
  /// Check failures not tied to one request record (set-up and teardown
  /// status, end-of-round comparisons).
  std::int64_t bad = 0;

  // Timed region: opens when the first task is through the set-up barrier
  // and closes when the last task has completed its last request.
  std::int64_t t_begin = 0;    // before the Machine is built
  std::int64_t t_machine = 0;  // Machine built
  int entered = 0;
  int finished = 0;
  Time vstart = std::numeric_limits<Time>::max();
  Time vend = 0;
  Snapshot s0, s1;

  void setup_done(Time now) {
    if (entered++ == 0) s0 = take_snapshot(*machine);
    if (now < vstart) vstart = now;
  }
  void region_done(Time now) {
    if (now > vend) vend = now;
    if (++finished == static_cast<int>(logs.size())) {
      s1 = take_snapshot(*machine);
    }
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual int tasks() const = 0;
  /// Requests one round issues (the closed loops' total).
  virtual std::int64_t requests_per_round() const = 0;
  /// Hash of the request list alone: op kinds, targets, sizes, think times
  /// and their order, without the data or where it is read from. Another
  /// seed must change it.
  virtual std::uint64_t request_hash() const = 0;
  /// Hash of everything generated from the seed: the request list, the data
  /// and its offsets. The same seed must repeat it in any process.
  virtual std::uint64_t input_hash() const = 0;
  /// Fresh target buffers and check state for a new round.
  virtual void prepare_round() = 0;
  /// One task's whole life in a round: set-up (ending in
  /// rs.setup_done), the closed request loop unless rs.setup_only (ending
  /// in rs.region_done), then teardown.
  virtual void run_task(splap::net::Node& node, RoundState& rs,
                        Probe& probe) = 0;
  /// Output checks that need the whole round; returns the mismatches.
  /// Not called after set-up-only rounds.
  virtual std::int64_t finish_round() { return 0; }
};

std::unique_ptr<Workload> make_small_msg(std::uint64_t seed);
std::unique_ptr<Workload> make_bulk(std::uint64_t seed);
std::unique_ptr<Workload> make_ga_scf(std::uint64_t seed);

/// Seeded Fisher-Yates shuffle. The workloads draw a fixed mix (kinds,
/// sizes, think times) and let the seed choose its order, so seeds change
/// the request list without changing what it is made of.
template <class T, class R>
void shuffle(std::vector<T>& v, R& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.next_u64() % i]);
  }
}

inline constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;

/// FNV-1a over raw bytes, for input and result fingerprints.
inline std::uint64_t fnv1a(const void* data, std::size_t n,
                           std::uint64_t h = kFnvBasis) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

/// Adds one scalar field to an FNV-1a hash. Fields are hashed one by one,
/// never as whole structs, so padding bytes never enter a hash.
template <class T>
std::uint64_t mix(std::uint64_t h, T v) {
  static_assert(std::is_arithmetic_v<T>);
  return fnv1a(&v, sizeof v, h);
}

}  // namespace bench
