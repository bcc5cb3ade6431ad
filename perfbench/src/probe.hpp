// Measurement from outside the library: wall and CPU clocks, whole-process
// snapshots, and the in-memory span recorder of the traced run.
//
// Nothing here reaches into src/. CPU time comes from the kernel's
// per-thread clocks (every thread of the process is enumerated through
// /proc/self/task), context switches from getrusage, and protocol work from
// the public counters of the Engine and the Fabric.
#pragma once

#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <dirent.h>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "net/machine.hpp"

namespace bench {

using splap::Time;

inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline std::int64_t clock_ns(clockid_t id) {
  timespec ts{};
  if (clock_gettime(id, &ts) != 0) return -1;
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

inline std::int64_t thread_cpu_ns() {
  return clock_ns(CLOCK_THREAD_CPUTIME_ID);
}

inline int current_tid() { return static_cast<int>(syscall(SYS_gettid)); }

/// CPU clock of any thread of this process, by kernel thread id (the
/// encoding glibc's pthread_getcpuclockid uses: per-thread, scheduler clock).
inline std::int64_t tid_cpu_ns(int tid) {
  const auto id =
      static_cast<clockid_t>((~static_cast<unsigned>(tid) << 3) | 6u);
  return clock_ns(id);
}

/// Host-wide CPU time (all CPUs, in clock ticks) and the part of it the
/// hypervisor stole from this machine, from /proc/stat.
struct HostTicks {
  std::int64_t total = 0;
  std::int64_t steal = 0;
};

inline HostTicks host_ticks() {
  HostTicks h;
  if (std::FILE* f = std::fopen("/proc/stat", "r")) {
    // cpu user nice system idle iowait irq softirq steal ...
    long long v[8] = {};
    if (std::fscanf(f, "cpu %lld %lld %lld %lld %lld %lld %lld %lld", &v[0],
                    &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
      for (const long long x : v) h.total += x;
      h.steal = v[7];
    }
    std::fclose(f);
  }
  return h;
}

/// CPU time the hypervisor stole between two readings, summed over CPUs.
inline double stolen_s(const HostTicks& a, const HostTicks& b) {
  static const double tick_s = 1.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
  return static_cast<double>(b.steal - a.steal) * tick_s;
}

/// Stolen share of the host CPU time between two readings.
inline double steal_share(const HostTicks& a, const HostTicks& b) {
  return b.total > a.total ? static_cast<double>(b.steal - a.steal) /
                                 static_cast<double>(b.total - a.total)
                           : 0.0;
}

/// Everything the benchmark reads at the two edges of a timed region.
struct Snapshot {
  std::int64_t wall = 0;
  std::int64_t process_cpu = 0;
  std::vector<std::pair<int, std::int64_t>> thread_cpu;  // tid -> ns
  std::int64_t csw = 0;  // voluntary + involuntary context switches
  HostTicks host;
  std::uint64_t events = 0;
  std::int64_t pkts = 0;
  std::int64_t wire_bytes = 0;
  std::int64_t dropped = 0;
  std::vector<std::pair<std::string, std::int64_t>> counters;

  std::int64_t counter(const std::string& name) const {
    for (const auto& [n, v] : counters) {
      if (n == name) return v;
    }
    return 0;
  }
  std::int64_t cpu_of(int tid) const {
    for (const auto& [t, v] : thread_cpu) {
      if (t == tid) return v;
    }
    return 0;
  }
};

inline Snapshot take_snapshot(splap::net::Machine& m) {
  Snapshot s;
  s.process_cpu = clock_ns(CLOCK_PROCESS_CPUTIME_ID);
  if (DIR* d = opendir("/proc/self/task")) {
    while (const dirent* e = readdir(d)) {
      if (e->d_name[0] == '.') continue;
      const int tid = std::atoi(e->d_name);
      const std::int64_t ns = tid_cpu_ns(tid);
      if (ns >= 0) s.thread_cpu.emplace_back(tid, ns);
    }
    closedir(d);
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  s.csw = ru.ru_nvcsw + ru.ru_nivcsw;
  s.host = host_ticks();
  s.events = m.engine().events_executed();
  s.pkts = m.fabric().packets_sent();
  s.wire_bytes = m.fabric().bytes_on_wire();
  s.dropped = m.fabric().packets_dropped();
  s.counters = m.engine().counters().all();
  s.wall = wall_ns();
  return s;
}

/// Restart the kernel's resident-set high-water mark of this process.
inline void reset_peak_rss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

/// Resident-set high-water mark since the last reset_peak_rss, in MB.
inline double peak_rss_mb() {
  double kb = 0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::atof(line + 6);
    }
    std::fclose(f);
  }
  return kb / 1024.0;
}

/// The library calls the benchmark wraps in spans.
enum class Op : std::uint8_t {
  kRequest,  // parent span of one request
  kLapiPut,
  kLapiGet,
  kLapiAmsend,
  kLapiWait,  // waitcntr / fence / gfence
  kMplSend,  // send / isend
  kMplRecv,
  kMplWait,
  kGaGet,
  kGaAcc,
  kGaReadInc,
  kGaSync,
  kGaGopSum,
  kCount
};

enum class Layer : std::uint8_t { kNone, kLapi, kMpl, kGa };

inline Layer layer_of(Op op) {
  switch (op) {
    case Op::kLapiPut:
    case Op::kLapiGet:
    case Op::kLapiAmsend:
    case Op::kLapiWait: return Layer::kLapi;
    case Op::kMplSend:
    case Op::kMplRecv:
    case Op::kMplWait: return Layer::kMpl;
    case Op::kGaGet:
    case Op::kGaAcc:
    case Op::kGaReadInc:
    case Op::kGaSync:
    case Op::kGaGopSum: return Layer::kGa;
    default: return Layer::kNone;
  }
}

inline const char* op_name(Op op) {
  static const char* const names[] = {
      "request",  "lapi.put", "lapi.get",    "lapi.amsend", "lapi.wait",
      "mpl.send", "mpl.recv", "mpl.wait",    "ga.get",      "ga.acc",
      "ga.read_inc", "ga.sync", "ga.gop_sum"};
  static_assert(std::size(names) == static_cast<std::size_t>(Op::kCount));
  return names[static_cast<int>(op)];
}

struct Span {
  Op op = Op::kRequest;
  int task = -1;
  std::int32_t parent = -1;  // index of the request span in the same task log
  std::int64_t wall0 = 0, wall1 = 0;
  Time v0 = 0, v1 = 0;
  std::int64_t cpu0 = 0, cpu1 = 0;  // thread CPU of the calling task
};

/// One completed request as the closed loop saw it.
struct Request {
  Time v0 = 0, v1 = 0;
  std::int64_t bytes = 0;
  bool ok = true;
};

/// Per-task record of one round; written only by its own task.
struct TaskLog {
  int tid = 0;
  std::vector<Request> requests;
  std::vector<Span> spans;
};

/// Times calls into the library for one task. With tracing off a call is a
/// plain call; with it on, each call gets a span holding wall, virtual and
/// thread-CPU start/end.
class Probe {
 public:
  Probe(TaskLog& log, int task, bool traced, const splap::sim::Engine& engine)
      : log_(log), task_(task), traced_(traced), engine_(engine) {}

  template <class F>
  decltype(auto) call(Op op, F&& fn) {
    if (!traced_) return fn();
    const std::size_t i = open(op, parent_);
    struct Close {
      Probe* p;
      std::size_t i;
      ~Close() { p->close(i); }
    } close{this, i};
    return fn();
  }

  void begin_request() {
    if (traced_) parent_ = static_cast<std::int32_t>(open(Op::kRequest, -1));
  }
  void end_request() {
    if (traced_ && parent_ >= 0) close(static_cast<std::size_t>(parent_));
    parent_ = -1;
  }

 private:
  std::size_t open(Op op, std::int32_t parent) {
    Span s;
    s.op = op;
    s.task = task_;
    s.parent = parent;
    s.v0 = engine_.now();
    s.wall0 = wall_ns();
    s.cpu0 = thread_cpu_ns();
    log_.spans.push_back(s);
    return log_.spans.size() - 1;
  }
  void close(std::size_t i) {
    Span& s = log_.spans[i];
    s.cpu1 = thread_cpu_ns();
    s.wall1 = wall_ns();
    s.v1 = engine_.now();
  }

  TaskLog& log_;
  int task_;
  bool traced_;
  const splap::sim::Engine& engine_;
  std::int32_t parent_ = -1;
};

/// Nearest-rank percentile (p in [0,1]) of an unsorted sample; 0 if empty.
template <class T>
double percentile(std::vector<T> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return static_cast<double>(v[std::max<std::size_t>(rank, 1) - 1]);
}

}  // namespace bench
