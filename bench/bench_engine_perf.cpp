// Wall-clock performance of the simulator itself (google-benchmark): event
// throughput of the DES engine, actor handoff rate, fabric packet rate,
// end-to-end simulated-LAPI message rate and MPL ping-pong exchange rate
// (those two also report baton handoffs per item, `resumes_per_item`).
// These are meta-benchmarks of the reproduction infrastructure, not paper
// results — they bound how large an experiment the simulator can run
// interactively.
//
// Besides the console table, the binary writes BENCH_engine.json (override
// with --json_out=PATH) so the perf trajectory of the hot paths is tracked
// across PRs in a machine-readable form.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "lapi/context.hpp"
#include "mpl/comm.hpp"
#include "net/machine.hpp"
#include "sim/engine.hpp"

namespace {

using namespace splap;

/// Abort loudly on any unexpected LAPI/MPL failure: a benchmark or example
/// that silently swallows an error reports a meaningless number.
inline void ok(Status s) { SPLAP_REQUIRE(s == Status::kOk, "operation failed"); }


void BM_EngineEventThroughput(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine eng;
    for (int i = 0; i < n; ++i) {
      eng.schedule_at(i, [] {});
    }
    benchmark::DoNotOptimize(eng.run());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EngineEventThroughput)->Arg(1000)->Arg(10000);

void BM_ActorHandoff(benchmark::State& state) {
  const int switches = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine eng;
    eng.spawn("worker", [&](sim::Actor& self) {
      for (int i = 0; i < switches; ++i) self.compute(microseconds(1));
    });
    benchmark::DoNotOptimize(eng.run());
  }
  state.SetItemsProcessed(state.iterations() * switches);
}
// One actor computing in a loop: its own thread dispatches each timer and
// wake, then resumes itself, so this times a suspend with no thread switch.
// Real time, because the run() caller parks while the actor's thread works.
BENCHMARK(BM_ActorHandoff)->Arg(256)->UseRealTime();

void BM_ActorPingPong(benchmark::State& state) {
  // Two actors waking each other in turn: every item is one baton handoff
  // between OS threads.
  const int handoffs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine eng;
    int turn = 0;
    sim::Actor* players[2] = {nullptr, nullptr};
    for (int me = 0; me < 2; ++me) {
      players[me] = &eng.spawn("player", [&, me](sim::Actor& self) {
        for (int i = me; i < handoffs; i += 2) {
          self.wait([&] { return turn == i; }, "turn");
          ++turn;
          eng.wake(*players[1 - me]);
        }
      });
    }
    benchmark::DoNotOptimize(eng.run());
  }
  state.SetItemsProcessed(state.iterations() * handoffs);
}
BENCHMARK(BM_ActorPingPong)->Arg(256)->UseRealTime();

void BM_FabricPacketRate(benchmark::State& state) {
  const int packets = static_cast<int>(state.range(0));
  for (auto _ : state) {
    net::Machine::Config mc;
    mc.tasks = 2;
    net::Machine m(mc);
    int delivered = 0;
    m.node(1).adapter().register_client(net::Client::kLapi,
                                        [&](net::Packet&&) { ++delivered; });
    m.engine().schedule_at(0, [&] {
      for (int i = 0; i < packets; ++i) {
        net::Packet p = m.fabric().make_packet();
        p.src = 0;
        p.dst = 1;
        p.client = net::Client::kLapi;
        p.header_bytes = 48;
        p.data.resize(976);
        m.fabric().transmit(std::move(p));
      }
    });
    benchmark::DoNotOptimize(m.engine().run());
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(state.iterations() * packets);
}
BENCHMARK(BM_FabricPacketRate)->Arg(2000);

/// Baton handoffs between actor threads per item (message or exchange),
/// whole job included: Engine::resumes() summed over the iterations.
void set_resumes_per_item(benchmark::State& state, std::uint64_t resumes,
                          int items_per_iteration) {
  state.counters["resumes_per_item"] =
      static_cast<double>(resumes) /
      static_cast<double>(state.iterations() * items_per_iteration);
}

void BM_LapiPutMessageRate(benchmark::State& state) {
  const int msgs = static_cast<int>(state.range(0));
  std::uint64_t resumes = 0;
  for (auto _ : state) {
    net::Machine::Config mc;
    mc.tasks = 2;
    net::Machine m(mc);
    std::vector<std::byte> tgt(512);
    (void)m.run_spmd([&](net::Node& n) {
      lapi::Context ctx(n);
      if (ctx.task_id() == 0) {
        std::vector<std::byte> src(512, std::byte{1});
        lapi::Counter cmpl;
        for (int i = 0; i < msgs; ++i) {
          (void)ctx.put(1, src, tgt.data(), nullptr, nullptr, &cmpl);
        }
        ok(ctx.waitcntr(cmpl, msgs));
      }
      ok(ctx.gfence());
    });
    resumes += m.engine().resumes();
  }
  state.SetItemsProcessed(state.iterations() * msgs);
  set_resumes_per_item(state, resumes, msgs);
}
BENCHMARK(BM_LapiPutMessageRate)->Arg(500)->UseRealTime();

void BM_MplPingPong(benchmark::State& state) {
  // 1-byte send/recv ping-pong between two tasks through mpl::Comm; one item
  // is one exchange. The receiver matches from its per-source cursor and
  // forgets delivered messages, so the cost per exchange must stay flat from
  // 1k to 16k exchanges (it grew with every message ever received when the
  // matcher walked them all).
  const int exchanges = static_cast<int>(state.range(0));
  std::uint64_t resumes = 0;
  for (auto _ : state) {
    net::Machine::Config mc;
    mc.tasks = 2;
    net::Machine m(mc);
    const Status st = m.run_spmd([&](net::Node& n) {
      mpl::Comm comm(n);
      std::byte b{1};
      const std::span<std::byte> buf(&b, 1);
      const int peer = 1 - comm.rank();
      for (int i = 0; i < exchanges; ++i) {
        if (comm.rank() == 0) {
          ok(comm.send(peer, 0, buf));
          ok(comm.recv(peer, 0, buf));
        } else {
          ok(comm.recv(peer, 0, buf));
          ok(comm.send(peer, 0, buf));
        }
      }
      comm.barrier();
    });
    ok(st);
    resumes += m.engine().resumes();
  }
  state.SetItemsProcessed(state.iterations() * exchanges);
  set_resumes_per_item(state, resumes, exchanges);
}
BENCHMARK(BM_MplPingPong)->Arg(1000)->Arg(16000)->UseRealTime();

/// Console output plus a flat JSON export of every run: one row per
/// benchmark with wall time and throughput, ready for trajectory tracking
/// (diff BENCH_engine.json across commits).
class JsonTrajectoryReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& r : runs) {
      Row row;
      row.name = r.benchmark_name();
      row.real_time_ns = r.GetAdjustedRealTime();
      row.cpu_time_ns = r.GetAdjustedCPUTime();
      row.iterations = static_cast<long long>(r.iterations);
      const auto it = r.counters.find("items_per_second");
      row.items_per_second = it != r.counters.end() ? it->second.value : 0.0;
      const auto rs = r.counters.find("resumes_per_item");
      row.resumes_per_item = rs != r.counters.end() ? rs->second.value : -1.0;
      rows_.push_back(std::move(row));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  bool write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\n  \"schema\": \"splap-bench-v1\",\n");
    std::fprintf(f, "  \"binary\": \"bench_engine_perf\",\n");
    std::fprintf(f, "  \"benchmarks\": [\n");
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"real_time_ns\": %.1f, "
                   "\"cpu_time_ns\": %.1f, \"iterations\": %lld, "
                   "\"items_per_second\": %.1f",
                   r.name.c_str(), r.real_time_ns, r.cpu_time_ns,
                   r.iterations, r.items_per_second);
      if (r.resumes_per_item >= 0) {
        std::fprintf(f, ", \"resumes_per_item\": %.3f", r.resumes_per_item);
      }
      std::fprintf(f, "}%s\n", i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    return true;
  }

 private:
  struct Row {
    std::string name;
    double real_time_ns = 0;
    double cpu_time_ns = 0;
    long long iterations = 0;
    double items_per_second = 0;
    double resumes_per_item = -1;  // < 0: the benchmark does not report it
  };
  std::vector<Row> rows_;
};

}  // namespace

int main(int argc, char** argv) {
#if defined(__GLIBC__)
  // google-benchmark runs benchmarks on a worker thread whose malloc arena
  // trims (madvise) freed slabs back to the OS between iterations; the
  // refaulting then dominates every benchmark that creates an Engine or
  // Machine per iteration. Disable trimming — these benchmarks measure the
  // simulator, not the allocator's OS-return policy.
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_MMAP_THRESHOLD, 1 << 30);
#endif
  std::string json_path = "BENCH_engine.json";
  // Peel off our own flag before google-benchmark sees the argv.
  std::vector<char*> args(argv, argv + argc);
  for (auto it = args.begin(); it != args.end();) {
    if (std::strncmp(*it, "--json_out=", 11) == 0) {
      json_path = *it + 11;
      it = args.erase(it);
    } else {
      ++it;
    }
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  JsonTrajectoryReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!reporter.write_json(json_path)) {
    std::fprintf(stderr, "bench_engine_perf: cannot write %s\n",
                 json_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %s\n", json_path.c_str());
  return 0;
}
