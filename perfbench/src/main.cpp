// splap_perfbench: runs one splap workload for a fixed wall-clock budget
// and prints its end-to-end metrics (--trace 0) or per-layer metrics
// (--trace 1) by name and unit, ending with one JSON result line.
//
//   splap_perfbench --workload small_msg|bulk|ga_scf --seed N --seconds S
//                   --trace 0|1 [--spans-out FILE]
//
// A run is a series of rounds. Each round builds a fresh Machine, replays
// the seed's request list and checks every output. Virtual-time results
// come from the first round and must repeat exactly in every later one
// (the determinism self-check); wall-clock results are taken over rounds so
// that stalls of the host drop out (see wall_rate and setup_sample).
// With --trace 1 untraced and traced rounds alternate: per-layer metrics
// come from the traced ones, the tracing overhead from comparing the two.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "workload.hpp"

namespace bench {
namespace {

using splap::Status;

/// Largest accepted mismatch between the process CPU of the timed region
/// and the sum of its per-thread parts (the parts are read one thread at a
/// time while spinning threads keep running).
constexpr double kCpuSumTolerance = 0.02;

/// Set-up-only rounds run in batches of kSetupBatch: kSetupBatches batches
/// at the start of every run and one after each full round, so the set-up
/// samples cover the whole run.
constexpr std::size_t kSetupBatch = 10;
constexpr std::size_t kSetupBatches = 2;

/// Largest share of host CPU time the hypervisor may steal over a run for
/// its wall figures to count as measuring the code. Runs on a calm host
/// read 0.1-0.8%, the benchmark's own wake-ups included; with a few percent
/// stolen, the steal-corrected rates can still read 20% low or more.
constexpr double kMaxSteal = 0.02;

#ifdef SPLAP_AUDIT
constexpr bool kAudit = true;
#else
constexpr bool kAudit = false;
#endif

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "splap_perfbench: %s\nusage: splap_perfbench --workload "
               "small_msg|bulk|ga_scf --seed N --seconds S --trace 0|1 "
               "[--spans-out FILE]\n",
               msg);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const char* v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v);
    } else if (k == "--trace") {
      a.trace = std::atoi(v) != 0;
    } else if (k == "--spans-out") {
      a.spans_out = v;
    } else {
      usage(("unknown option " + k).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

std::unique_ptr<Workload> make(const std::string& name, std::uint64_t seed) {
  if (name == "small_msg") return make_small_msg(seed);
  if (name == "bulk") return make_bulk(seed);
  if (name == "ga_scf") return make_ga_scf(seed);
  usage(("unknown workload " + name).c_str());
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// A measured value and its unit.
struct Val {
  double value;
  const char* unit;
};

/// Everything one round yields.
struct RoundOut {
  bool traced = false;
  double setup_s = 0, machine_s = 0, init_s = 0;
  double peak_rss_mb = 0;  // high-water mark of the process during the round
  double wall_s = 0;  // timed region
  /// Share of host CPU time stolen during the timed region, and the stolen
  /// time itself, summed over all CPUs.
  double steal = 0;
  double stolen_s = 0;
  /// The timed region less the stolen time: the time the machine ran.
  double run_s = 0;
  std::int64_t requests = 0;
  std::int64_t failed = 0;
  /// Virtual-time results and protocol counts: identical in every round.
  std::map<std::string, Val> virt;
  std::uint64_t fingerprint = 0;
  /// Wall-clock and CPU results of this round.
  std::map<std::string, Val> wall;
  std::vector<Span> spans;
};

/// The half of a run's rounds (at least 3) with the smallest share of host
/// CPU time stolen, which the wall figures are taken from.
std::vector<const RoundOut*> least_stolen(std::vector<const RoundOut*> rounds) {
  std::stable_sort(rounds.begin(), rounds.end(),
                   [](const RoundOut* a, const RoundOut* b) {
                     return a->steal < b->steal;
                   });
  rounds.resize(
      std::min(rounds.size(), std::max<std::size_t>(3, (rounds.size() + 1) / 2)));
  return rounds;
}

/// wall_req_per_s of a run. On a shared host the hypervisor stalls the
/// machine's CPUs in episodes of minutes (steal), and because the simulator
/// hands control from thread to thread along one critical path, 10-20% of
/// stolen CPU time can make a round 3-5x slower. Each round's rate is
/// therefore taken over its run_s, the wall time less the stolen time,
/// which removes most of that slowdown (a stalled round still reads 5-35%
/// slower than a calm one). The correction is least exact where most of a
/// round was stolen, so the run reports the median over its least-stolen
/// rounds.
double wall_rate(const std::vector<const RoundOut*>& rounds) {
  std::vector<double> rate;
  for (const RoundOut* r : least_stolen(rounds)) {
    rate.push_back(r->wall.at("wall_req_per_s").value);
  }
  return median_of(rate);
}

/// The set-up round setup_s is taken from. A set-up takes 1-5 ms, too short
/// to read its own stolen time (/proc/stat counts 10 ms ticks), so each
/// batch of set-up-only rounds goes with the full round it follows (the
/// first batches with the first round), and only the batches of the
/// least-stolen rounds count. Within a batch the fastest set-up is taken,
/// which drops short stalls; the sample is the median of those, one actual
/// round, so its parts add up to it.
const RoundOut& setup_sample(const std::vector<RoundOut>& setups,
                             const std::vector<RoundOut>& rounds) {
  std::vector<const RoundOut*> all;
  for (const RoundOut& r : rounds) all.push_back(&r);
  std::vector<const RoundOut*> fastest;
  auto take = [&](std::size_t batch) {
    const auto first =
        setups.begin() + static_cast<std::ptrdiff_t>(batch * kSetupBatch);
    const auto last = first + static_cast<std::ptrdiff_t>(kSetupBatch);
    fastest.push_back(&*std::min_element(
        first, last, [](const RoundOut& a, const RoundOut& b) {
          return a.setup_s < b.setup_s;
        }));
  };
  for (const RoundOut* r : least_stolen(all)) {
    const auto i = static_cast<std::size_t>(r - rounds.data());
    if (i == 0) {
      for (std::size_t b = 0; b < kSetupBatches; ++b) take(b);
    }
    take(kSetupBatches + i);
  }
  std::sort(fastest.begin(), fastest.end(),
            [](const RoundOut* a, const RoundOut* b) {
              return a->setup_s < b->setup_s;
            });
  return *fastest[(fastest.size() - 1) / 2];
}

/// CPU time of one span that falls inside the timed region of its thread.
std::int64_t clipped_cpu(const Span& s, std::int64_t lo, std::int64_t hi) {
  const std::int64_t a = std::max(s.cpu0, lo);
  const std::int64_t b = std::min(s.cpu1, hi);
  return b > a ? b - a : 0;
}

void span_metrics(const RoundState& rs, int engine_tid, RoundOut& out) {
  std::vector<double> wall_us[static_cast<int>(Op::kCount)];
  std::vector<double> cpu_us[static_cast<int>(Op::kCount)];
  double layer_cpu[4] = {0, 0, 0, 0};
  // Task-thread CPU outside every call span, summed over the gaps between
  // consecutive call spans inside the region. It is read from the clocks
  // at the span edges rather than taken as the remainder, so calls + driver
  // only add up to the task CPU when the spans attribute it exactly once.
  double driver_cpu = 0;
  std::vector<int> known{engine_tid};
  for (const TaskLog& log : rs.logs) {
    known.push_back(log.tid);
    const std::int64_t lo = rs.s0.cpu_of(log.tid);
    const std::int64_t hi = rs.s1.cpu_of(log.tid);
    std::int64_t cursor = lo;  // end of the previous call span
    for (const Span& s : log.spans) {
      const int op = static_cast<int>(s.op);
      wall_us[op].push_back(static_cast<double>(s.wall1 - s.wall0) / 1e3);
      cpu_us[op].push_back(static_cast<double>(s.cpu1 - s.cpu0) / 1e3);
      if (layer_of(s.op) == Layer::kNone || s.cpu1 <= lo || s.cpu0 >= hi) {
        continue;
      }
      layer_cpu[static_cast<int>(layer_of(s.op))] +=
          static_cast<double>(clipped_cpu(s, lo, hi));
      driver_cpu += static_cast<double>(std::max<std::int64_t>(
          0, std::max(s.cpu0, lo) - cursor));
      cursor = std::min(s.cpu1, hi);
    }
    driver_cpu += static_cast<double>(std::max<std::int64_t>(0, hi - cursor));
  }
  auto pool = [&](std::initializer_list<Op> ops, bool cpu) {
    std::vector<double> v;
    for (Op op : ops) {
      const auto& src = (cpu ? cpu_us : wall_us)[static_cast<int>(op)];
      v.insert(v.end(), src.begin(), src.end());
    }
    return v;
  };
  auto& w = out.wall;
  auto us = [&](std::initializer_list<Op> ops, bool cpu, double p) {
    return Val{percentile(pool(ops, cpu), p), "us"};
  };
  const auto lapi_issue = {Op::kLapiPut, Op::kLapiGet, Op::kLapiAmsend};
  w["lapi.call_wall_us.p50"] = us(lapi_issue, false, 0.5);
  w["lapi.call_wall_us.p99"] = us(lapi_issue, false, 0.99);
  w["lapi.call_cpu_us.p50"] = us(lapi_issue, true, 0.5);
  w["lapi.call_cpu_us.p99"] = us(lapi_issue, true, 0.99);
  w["lapi.wait_wall_us.p50"] = us({Op::kLapiWait}, false, 0.5);
  w["lapi.wait_wall_us.p99"] = us({Op::kLapiWait}, false, 0.99);
  const auto mpl_calls = {Op::kMplSend, Op::kMplRecv, Op::kMplWait};
  w["mpl.call_wall_us.p50"] = us(mpl_calls, false, 0.5);
  w["mpl.call_wall_us.p99"] = us(mpl_calls, false, 0.99);
  w["mpl.call_cpu_us.p50"] = us(mpl_calls, true, 0.5);
  const std::pair<const char*, Op> ga_ops[] = {{"get", Op::kGaGet},
                                               {"acc", Op::kGaAcc},
                                               {"read_inc", Op::kGaReadInc},
                                               {"sync", Op::kGaSync}};
  for (const auto& [name, op] : ga_ops) {
    const std::string base = std::string("ga.call_wall_us.") + name;
    w[base + ".p50"] = us({op}, false, 0.5);
    w[base + ".p99"] = us({op}, false, 0.99);
  }
  w["ga.call_cpu_us.p50"] = us({Op::kGaGet, Op::kGaAcc, Op::kGaReadInc,
                                Op::kGaSync, Op::kGaGopSum},
                               true, 0.5);

  // CPU parts of the timed region, each read from per-thread clocks.
  double other_cpu = 0;
  for (const auto& [tid, ns] : rs.s1.thread_cpu) {
    if (std::find(known.begin(), known.end(), tid) == known.end()) {
      other_cpu += static_cast<double>(ns - rs.s0.cpu_of(tid));
    }
  }
  const double engine_cpu =
      static_cast<double>(rs.s1.cpu_of(engine_tid) - rs.s0.cpu_of(engine_tid));
  const double calls_cpu = layer_cpu[1] + layer_cpu[2] + layer_cpu[3];
  const double process_cpu =
      static_cast<double>(rs.s1.process_cpu - rs.s0.process_cpu);
  w["lapi.call_cpu_s"] = {layer_cpu[static_cast<int>(Layer::kLapi)] / 1e9, "s"};
  w["mpl.call_cpu_s"] = {layer_cpu[static_cast<int>(Layer::kMpl)] / 1e9, "s"};
  w["ga.call_cpu_s"] = {layer_cpu[static_cast<int>(Layer::kGa)] / 1e9, "s"};
  w["driver.cpu_s"] = {driver_cpu / 1e9, "s"};
  w["unattributed.cpu_s"] = {other_cpu / 1e9, "s"};
  w["trace.cpu_sum_err"] = {
      process_cpu > 0
          ? std::fabs(process_cpu -
                      (engine_cpu + calls_cpu + driver_cpu + other_cpu)) /
                process_cpu
          : 1.0,
      "ratio"};
}

RoundOut run_round(Workload& wl, bool traced, bool setup_only, int engine_tid) {
  RoundState rs;
  rs.setup_only = setup_only;
  rs.logs.resize(static_cast<std::size_t>(wl.tasks()));
  for (TaskLog& log : rs.logs) {
    if (setup_only) continue;
    log.requests.reserve(static_cast<std::size_t>(wl.requests_per_round()));
    if (traced) {
      log.spans.reserve(
          static_cast<std::size_t>(wl.requests_per_round() / wl.tasks()) * 12);
    }
  }
  wl.prepare_round();

  RoundOut out;
  out.traced = traced;
  std::size_t payload_buffers = 0;
  // Earlier rounds' freed memory goes back to the OS first, so each round's
  // high-water mark starts from the same baseline.
  malloc_trim(0);
  reset_peak_rss();
  rs.t_begin = wall_ns();
  {
    splap::net::Machine::Config mc;
    mc.tasks = wl.tasks();
    splap::net::Machine machine(mc);
    rs.t_machine = wall_ns();
    rs.machine = &machine;
    const Status st = machine.run_spmd([&](splap::net::Node& node) {
      TaskLog& log = rs.logs[static_cast<std::size_t>(node.id())];
      log.tid = current_tid();
      Probe probe(log, node.id(), traced, node.engine());
      wl.run_task(node, rs, probe);
    });
    if (st != Status::kOk) ++rs.bad;
    payload_buffers = machine.fabric().payload_buffers_allocated();
    rs.machine = nullptr;
  }
  SPLAP_REQUIRE(rs.entered == wl.tasks() && rs.finished == wl.tasks(),
                "a task skipped the timed region");
  out.peak_rss_mb = peak_rss_mb();
  out.machine_s = static_cast<double>(rs.t_machine - rs.t_begin) / 1e9;
  out.init_s = static_cast<double>(rs.s0.wall - rs.t_machine) / 1e9;
  out.setup_s = static_cast<double>(rs.s0.wall - rs.t_begin) / 1e9;
  if (setup_only) {
    out.failed = rs.bad;
    return out;
  }
  rs.bad += wl.finish_round();
  out.wall_s = static_cast<double>(rs.s1.wall - rs.s0.wall) / 1e9;
  out.steal = steal_share(rs.s0.host, rs.s1.host);
  out.stolen_s = stolen_s(rs.s0.host, rs.s1.host);
  // The stolen time is summed over all CPUs, so it can exceed the time the
  // critical path lost; the subtraction never takes more than 90% away.
  out.run_s = std::max(out.wall_s - out.stolen_s, 0.1 * out.wall_s);

  std::vector<Time> lat;
  std::int64_t payload = 0;
  for (const TaskLog& log : rs.logs) {
    for (const Request& r : log.requests) {
      lat.push_back(r.v1 - r.v0);
      if (r.ok) {
        payload += r.bytes;
      } else {
        ++out.failed;
      }
    }
  }
  out.failed += rs.bad;
  out.requests = static_cast<std::int64_t>(lat.size());
  const auto req = static_cast<double>(std::max<std::int64_t>(out.requests, 1));
  const Time vdur = rs.vend - rs.vstart;

  auto& v = out.virt;
  auto d = [&](const char* name) {
    return static_cast<double>(rs.s1.counter(name) - rs.s0.counter(name));
  };
  v["vlat_p50_us"] = {percentile(lat, 0.5) / 1e3, "us"};
  v["vlat_p99_us"] = {percentile(lat, 0.99) / 1e3, "us"};
  v["vgoodput_mb_s"] = {splap::mb_per_s(payload, vdur), "MB/s"};
  v["vlat.samples"] = {static_cast<double>(lat.size()), "count"};
  const auto events = static_cast<double>(rs.s1.events - rs.s0.events);
  const auto pkts = static_cast<double>(rs.s1.pkts - rs.s0.pkts);
  const auto wire = static_cast<double>(rs.s1.wire_bytes - rs.s0.wire_bytes);
  v["sim.events_per_req"] = {events / req, "events/req"};
  v["net.pkts_per_req"] = {pkts / req, "pkts/req"};
  v["net.wire_bytes_per_req"] = {wire / req, "B/req"};
  v["net.payload_frac"] = {wire > 0 ? static_cast<double>(payload) / wire : 0.0,
                           "ratio"};
  v["net.dropped"] = {static_cast<double>(rs.s1.dropped - rs.s0.dropped),
                      "pkts"};
  v["net.payload_buffers"] = {static_cast<double>(payload_buffers), "buffers"};
  v["lapi.interrupts_per_req"] = {d("lapi.interrupts") / req, "intr/req"};
  v["lapi.pkts_rx_per_req"] = {d("lapi.pkts_rx") / req, "pkts/req"};
  v["lapi.retransmits"] = {d("lapi.retransmits"), "count"};
  v["lapi.stale_timeouts"] = {d("lapi.stale_timeouts"), "count"};
  v["mpl.pkts_rx_per_req"] = {d("mpl.pkts_rx") / req, "pkts/req"};
  v["mpl.unexpected_copies_per_req"] = {d("mpl.unexpected_copies") / req,
                                        "copies/req"};
  v["mpl.retransmits"] = {d("mpl.retransmits"), "count"};
  v["ga.am_acc_per_req"] = {d("ga.lapi.am_acc") / req, "msgs/req"};
  v["ga.rmc_direct_per_req"] = {d("ga.lapi.rmc_direct") / req, "ops/req"};
  v["ga.rmc_columns_per_req"] = {d("ga.lapi.rmc_columns") / req, "ops/req"};
  v["ga.acc_in_header"] = {d("ga.acc_in_header"), "count"};
  v["ga.acc_in_completion"] = {d("ga.acc_in_completion"), "count"};
  v["ga.pool_overflow"] = {d("ga.pool_overflow"), "count"};

  // The determinism fingerprint covers every virtual-time result and every
  // count the round produced, not only the ones reported.
  std::uint64_t h = fnv1a(lat.data(), lat.size() * sizeof(Time));
  h = fnv1a(&payload, sizeof payload, h);
  h = fnv1a(&vdur, sizeof vdur, h);
  for (const auto& [name, val] : rs.s1.counters) {
    const std::int64_t delta = val - rs.s0.counter(name);
    h = fnv1a(name.data(), name.size(), h);
    h = fnv1a(&delta, sizeof delta, h);
  }
  for (const auto& [name, val] : v) h = fnv1a(&val.value, sizeof val.value, h);
  out.fingerprint = h;

  auto& w = out.wall;
  const double csw = static_cast<double>(rs.s1.csw - rs.s0.csw);
  const double process_cpu =
      static_cast<double>(rs.s1.process_cpu - rs.s0.process_cpu) / 1e9;
  w["wall_req_per_s"] = {static_cast<double>(out.requests) / out.run_s, "1/s"};
  w["sim.events_per_wall_s"] = {events / out.run_s, "1/s"};
  w["sim.ctx_switches_per_req"] = {csw / req, "csw/req"};
  w["sim.cpu_per_wall"] = {process_cpu / out.run_s, "ratio"};
  w["sim.cpu_us_per_req"] = {1e6 * process_cpu / req, "us/req"};
  w["sim.engine_cpu_s"] = {
      static_cast<double>(rs.s1.cpu_of(engine_tid) - rs.s0.cpu_of(engine_tid)) /
          1e9,
      "s"};
  if (traced) {
    span_metrics(rs, engine_tid, out);
    for (const TaskLog& log : rs.logs) {
      out.spans.insert(out.spans.end(), log.spans.begin(), log.spans.end());
    }
  }
  return out;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "splap_perfbench: cannot write %s\n", path.c_str());
    return;
  }
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"task\":%d,\"parent\":%d,\"wall0_ns\":%lld,"
                 "\"wall1_ns\":%lld,\"v0_ns\":%lld,\"v1_ns\":%lld,"
                 "\"cpu0_ns\":%lld,\"cpu1_ns\":%lld}\n",
                 op_name(s.op), s.task, s.parent,
                 static_cast<long long>(s.wall0),
                 static_cast<long long>(s.wall1), static_cast<long long>(s.v0),
                 static_cast<long long>(s.v1), static_cast<long long>(s.cpu0),
                 static_cast<long long>(s.cpu1));
  }
  std::fclose(f);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_metric(const Metric& m) {
  std::printf("metric %-34s = %.6g %s\n", m.name.c_str(), m.value, m.unit);
}


}  // namespace
}  // namespace bench

int main(int argc, char** argv) {
  using namespace bench;
  const Args args = parse(argc, argv);
  auto wl = make(args.workload, args.seed);
  const int engine_tid = current_tid();

  const HostTicks host0 = host_ticks();
  const std::int64_t t0 = wall_ns();
  std::vector<RoundOut> setups;
  std::int64_t failed = 0;
  auto setup_batch = [&] {
    for (std::size_t i = 0; i < kSetupBatch; ++i) {
      setups.push_back(run_round(*wl, false, true, engine_tid));
      failed += setups.back().failed;
    }
  };
  for (std::size_t i = 0; i < kSetupBatches; ++i) setup_batch();
  std::vector<RoundOut> rounds;
  const std::size_t min_rounds = args.trace ? 4 : 3;
  while (rounds.size() < min_rounds ||
         static_cast<double>(wall_ns() - t0) / 1e9 < args.seconds) {
    const bool traced = args.trace && rounds.size() % 2 == 1;
    rounds.push_back(run_round(*wl, traced, false, engine_tid));
    setup_batch();
  }
  const double run_steal = steal_share(host0, host_ticks());

  std::int64_t attempted = 0;
  bool deterministic = true;
  std::vector<const RoundOut*> untraced, traced;
  std::vector<double> rss;
  for (const RoundOut& r : rounds) {
    attempted += r.requests;
    failed += r.failed;
    deterministic = deterministic && r.fingerprint == rounds[0].fingerprint;
    (r.traced ? traced : untraced).push_back(&r);
    if (!r.traced) rss.push_back(r.peak_rss_mb);
  }
  const double rate = wall_rate(untraced);
  const RoundOut& mid = setup_sample(setups, rounds);
  const RoundOut& first = rounds[0];

  std::printf("workload %s seed %llu: %zu rounds, %lld requests per round, "
              "request list %016llx, inputs %016llx, fingerprint %016llx\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              rounds.size(), static_cast<long long>(first.requests),
              static_cast<unsigned long long>(wl->request_hash()),
              static_cast<unsigned long long>(wl->input_hash()),
              static_cast<unsigned long long>(first.fingerprint));
  std::printf("build {\"build_type\": \"%s\", \"compiler\": \"%s\", "
              "\"splap_sanitize\": \"%s\", \"splap_audit\": %s}\n",
              SPLAP_BENCH_BUILD_TYPE, SPLAP_BENCH_COMPILER,
              SPLAP_BENCH_SANITIZE, kAudit ? "true" : "false");
  std::printf("rounds (wall_req_per_s/the same without the steal correction/"
              "ctx switches per request/process CPU us per request/host "
              "steal %%/peak RSS, t = traced):");
  for (const RoundOut& r : rounds) {
    std::printf(" %.0f/%.0f/%.1f/%.0fus/%.1f%%/%.2fMB%s",
                r.wall.at("wall_req_per_s").value,
                static_cast<double>(r.requests) / r.wall_s,
                r.wall.at("sim.ctx_switches_per_req").value,
                r.wall.at("sim.cpu_us_per_req").value, 100 * r.steal,
                r.peak_rss_mb, r.traced ? "/t" : "");
  }
  std::printf("\n");
  std::printf("vlat samples per round: %.0f\n",
              first.virt.at("vlat.samples").value);
  bool correct = failed == 0;
  auto check = [&](bool ok, const char* what) {
    std::printf("check %-44s %s\n", what, ok ? "ok" : "FAILED");
    correct = correct && ok;
  };
  check(failed == 0, "outputs match the seed's data and reference");
  check(deterministic, "every round repeats round 1's virtual results");

  const double failed_frac =
      static_cast<double>(failed) / static_cast<double>(attempted);
  // Host steal over the whole run, for the host record.
  std::printf("steal {\"steal_run\": %.4f, \"steal_limit\": %.4f}\n",
              run_steal, kMaxSteal);
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"wall_req_per_s", rate, "1/s"},
        {"vlat_p50_us", first.virt.at("vlat_p50_us").value, "us"},
        {"vlat_p99_us", first.virt.at("vlat_p99_us").value, "us"},
        {"vgoodput_mb_s", first.virt.at("vgoodput_mb_s").value, "MB/s"},
        {"setup_s", mid.setup_s, "s"},
        {"peak_rss_mb", *std::min_element(rss.begin(), rss.end()), "MB"},
    };
    std::printf("metric %-34s = %.6g %s\n", "failed_frac", failed_frac,
                "ratio");
  } else {
    metrics.push_back({"setup.machine_s", mid.machine_s, "s"});
    metrics.push_back({"setup.init_s", mid.init_s, "s"});
    // The two parts split the median round's set-up at the moment its
    // Machine is built, so they sum to its setup_s by construction.
    std::printf("setup_s of the median set-up round: %.9f s\n", mid.setup_s);
    for (const auto& [name, val] : first.virt) {
      if (name.find('.') != std::string::npos && name != "vlat.samples") {
        metrics.push_back({name, val.value, val.unit});
      }
    }
    // Wall and CPU figures: the median over traced rounds, except the CPU
    // sum check, which reports the worst round.
    double worst_cpu_err = 0;
    for (const auto& [name, val] : traced[0]->wall) {
      if (name == "wall_req_per_s") continue;
      std::vector<double> xs;
      for (const RoundOut* r : traced) xs.push_back(r->wall.at(name).value);
      if (name == "trace.cpu_sum_err") {
        worst_cpu_err = *std::max_element(xs.begin(), xs.end());
      }
      metrics.push_back({name, name == "trace.cpu_sum_err" ? worst_cpu_err
                                                           : median_of(xs),
                         val.unit});
    }
    check(worst_cpu_err <= kCpuSumTolerance,
          "CPU parts sum to the process CPU within 2%");
    metrics.push_back({"trace.overhead_frac",
                       1.0 - wall_rate(traced) / rate,
                       "ratio"});
    metrics.push_back({"failed_frac", failed_frac, "ratio"});
    if (!args.spans_out.empty()) {
      write_spans(args.spans_out, traced.back()->spans);
    }
  }
  for (const Metric& m : metrics) print_metric(m);

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
