// Engine scale-out coverage (ctest label `scale`):
//
//  - a 1024-node LAPI smoke with the end-to-end flow-control armed (bounded
//    RX queues + per-peer credit windows): dissemination barrier, then a
//    put/get ring, every byte exactly-once;
//  - completion-handler pools spawn their threads on the first completion
//    job, so put/get/fence-only runs hold one OS thread per node;
//  - the Engine::spawn exhaustion path: thread-creation failure, before the
//    run or mid-run, surfaces as Status::kResourceExhausted, not an
//    exception.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#if defined(__unix__)
#include <pthread.h>
#include <sys/resource.h>
#include <unistd.h>
#endif

#include "lapi_test_util.hpp"
#include "net/machine.hpp"
#include "sim/engine.hpp"

#ifndef __has_feature
#define __has_feature(x) 0
#endif

namespace splap::lapi {
namespace {

using testing::as_bytes_of;
using testing::run_lapi;

/// Flow control armed the way the overload harness runs it: small bounded
/// RX queues force drops under incast, credits pace the senders, and the
/// NACK/retransmit machinery repairs the rest.
net::Machine::Config scale_machine(int tasks) {
  net::Machine::Config mc;
  mc.tasks = tasks;
  mc.fabric.rx_queue_depth = 16;
  return mc;
}

Config scale_lapi_config() {
  Config lc;
  lc.credit_window = 32;
  return lc;
}

/// The smoke test's ring workload: barrier, every task puts its stamp into
/// its right neighbour's slot, barrier, every task gets its own stamp back
/// from the slot it wrote. Addresses are passed directly (test-owned
/// arrays) instead of through LAPI_Address_init.
void ring_workload(Context& ctx, int tasks, std::vector<std::int64_t>& slot,
                   std::vector<std::int64_t>& fetched) {
  const int me = ctx.task_id();
  const int right = (me + 1) % tasks;
  EXPECT_EQ(ctx.gfence(), Status::kOk);
  const std::int64_t stamp = 1'000'000 + me;
  Counter put_cmpl;
  ASSERT_EQ(ctx.put(right, as_bytes_of(&stamp, sizeof stamp),
                    reinterpret_cast<std::byte*>(
                        &slot[static_cast<std::size_t>(right)]),
                    nullptr, nullptr, &put_cmpl),
            Status::kOk);
  EXPECT_EQ(ctx.waitcntr(put_cmpl, 1), Status::kOk);
  EXPECT_EQ(ctx.gfence(), Status::kOk);
  Counter got;
  ASSERT_EQ(ctx.get(right,
                    static_cast<std::int64_t>(sizeof(std::int64_t)),
                    reinterpret_cast<const std::byte*>(
                        &slot[static_cast<std::size_t>(right)]),
                    reinterpret_cast<std::byte*>(
                        &fetched[static_cast<std::size_t>(me)]),
                    nullptr, &got),
            Status::kOk);
  EXPECT_EQ(ctx.waitcntr(got, 1), Status::kOk);
}

void check_ring(int tasks, const std::vector<std::int64_t>& slot,
                const std::vector<std::int64_t>& fetched) {
  for (int i = 0; i < tasks; ++i) {
    const int left = (i + tasks - 1) % tasks;
    // Exactly-once: slot i holds its left neighbour's stamp (not zero, not
    // doubled — a replayed put would still land the same value, so the
    // counter totals below are the duplicate detector).
    EXPECT_EQ(slot[static_cast<std::size_t>(i)], 1'000'000 + left) << i;
    // Each task read back the stamp it wrote to its right neighbour.
    EXPECT_EQ(fetched[static_cast<std::size_t>(i)], 1'000'000 + i) << i;
  }
}

TEST(ScaleTest, Smoke1024NodesBarrierPutGetExactlyOnce) {
  constexpr int kTasks = 1024;
  net::Machine m(scale_machine(kTasks));
  std::vector<std::int64_t> slot(kTasks, 0);
  std::vector<std::int64_t> fetched(kTasks, 0);
  ASSERT_EQ(run_lapi(m, scale_lapi_config(),
                     [&](Context& ctx) {
                       ring_workload(ctx, kTasks, slot, fetched);
                     }),
            Status::kOk);
  check_ring(kTasks, slot, fetched);
  // One OS thread per node: barrier pulses, puts and gets carry no
  // completion handler, so no context spawned its service threads.
  EXPECT_EQ(m.engine().actors().size(), static_cast<std::size_t>(kTasks));
  // Exactly one put and one get per task reached the API...
  EXPECT_EQ(m.engine().counters().get("lapi.put"), kTasks);
  EXPECT_EQ(m.engine().counters().get("lapi.get"), kTasks);
  // ...and the bounded queues actually exercised the recovery machinery or
  // ran clean; either way nothing was lost for good.
  EXPECT_EQ(m.engine().counters().get("lapi.failed_ops"), 0);
}

TEST(ScaleTest, PutGetFenceRunSpawnsNoServiceThread) {
  constexpr int kTasks = 8;
  net::Machine m(testing::machine_config(kTasks));
  std::vector<std::int64_t> slot(kTasks, 0);
  std::vector<std::int64_t> fetched(kTasks, 0);
  Config lc;
  lc.completion_threads = 4;
  ASSERT_EQ(run_lapi(m, lc,
                     [&](Context& ctx) {
                       ring_workload(ctx, kTasks, slot, fetched);
                     }),
            Status::kOk);
  check_ring(kTasks, slot, fetched);
  EXPECT_EQ(m.engine().actors().size(), static_cast<std::size_t>(kTasks));
}

/// An amsend ring whose completion handlers run on the service pool — the
/// one LAPI path that exercises SvcPool. Every task receives one message, so
/// every context spawns its pool. Returns the per-task completion counts,
/// the final virtual time and the received packet count; `actors` gets the
/// number of actors the run spawned.
std::string amsend_ring(int completion_threads, std::size_t* actors) {
  constexpr int kTasks = 8;
  net::Machine m(testing::machine_config(kTasks));
  std::vector<int> completions(kTasks, 0);
  std::vector<std::byte> landing(static_cast<std::size_t>(kTasks) * 64);
  Config lc;
  lc.completion_threads = completion_threads;
  EXPECT_EQ(
      run_lapi(m, lc,
               [&](Context& ctx) {
                 const int me = ctx.task_id();
                 const AmHandlerId h = ctx.register_handler(
                     [&landing, &completions, me](
                         Context&, const AmDelivery&) -> AmReply {
                       AmReply r;
                       r.buffer =
                           landing.data() + static_cast<std::size_t>(me) * 64;
                       r.completion = [&completions, me](Context&,
                                                         sim::Actor&) {
                         ++completions[static_cast<std::size_t>(me)];
                       };
                       return r;
                     });
                 EXPECT_EQ(ctx.gfence(), Status::kOk);
                 std::vector<std::byte> data(64, std::byte{0x5A});
                 Counter cmpl;
                 EXPECT_EQ(ctx.amsend((me + 1) % kTasks, h, {}, data, nullptr,
                                      nullptr, &cmpl),
                           Status::kOk);
                 EXPECT_EQ(ctx.waitcntr(cmpl, 1), Status::kOk);
               }),
      Status::kOk);
  *actors = m.engine().actors().size();
  std::ostringstream os;
  for (int c : completions) os << c << ",";
  os << " now=" << m.engine().now();
  os << " put=" << m.engine().counters().get("lapi.pkts_rx");
  return os.str();
}

TEST(ScaleTest, FirstCompletionSpawnsCompletionThreads) {
  for (const int threads : {1, 4}) {
    std::size_t actors = 0;
    const std::string got = amsend_ring(threads, &actors);
    EXPECT_EQ(actors, static_cast<std::size_t>(8 * (1 + threads))) << threads;
    // Pools that spawned every service thread at LAPI_Init gave this same
    // result: spawning on the first job moves no event.
    EXPECT_EQ(got, "1,1,1,1,1,1,1,1, now=4179482 put=120") << threads;
  }
}

#if defined(__unix__) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__) && !__has_feature(address_sanitizer) && \
    !__has_feature(thread_sanitizer)
std::int64_t current_vm_bytes() {
  long pages = 0;
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return -1;
  const int got = std::fscanf(f, "%ld", &pages);
  std::fclose(f);
  if (got != 1) return -1;
  return static_cast<std::int64_t>(pages) * sysconf(_SC_PAGESIZE);
}

TEST(ScaleTest, SpawnExhaustionSurfacesAsResourceExhausted) {
  const std::int64_t vm = current_vm_bytes();
  if (vm < 0) GTEST_SKIP() << "no /proc/self/statm on this host";
  net::Machine::Config mc;
  mc.tasks = 64;  // needs ~512 MB of thread stacks; the cap allows ~64 MB
  net::Machine m(mc);
  struct rlimit old_as;
  ASSERT_EQ(getrlimit(RLIMIT_AS, &old_as), 0);
  struct rlimit tight = old_as;
  tight.rlim_cur = static_cast<rlim_t>(vm + (64LL << 20));
  ASSERT_EQ(setrlimit(RLIMIT_AS, &tight), 0);
  const Status st = m.run_spmd([](net::Node&) {});
  ASSERT_EQ(setrlimit(RLIMIT_AS, &old_as), 0);
  EXPECT_EQ(st, Status::kResourceExhausted);
}

/// Bytes of address space one default thread stack takes.
std::int64_t default_stack_bytes() {
  pthread_attr_t attr;
  if (pthread_getattr_default_np(&attr) != 0) return -1;
  std::size_t bytes = 0;
  const int rc = pthread_attr_getstacksize(&attr, &bytes);
  pthread_attr_destroy(&attr);
  return rc == 0 ? static_cast<std::int64_t>(bytes) : -1;
}

TEST(ScaleTest, CompletionThreadRefusedMidRunSurfacesAsResourceExhausted) {
  const std::int64_t stack = default_stack_bytes();
  if (current_vm_bytes() < 0 || stack <= 0) {
    GTEST_SKIP() << "no /proc/self/statm or default thread attributes";
  }
  // glibc keeps up to 40 MiB of exited threads' stacks for reuse, and a
  // reused stack maps nothing new: ask for more service threads than that
  // cache can hold, so at least one spawn must map a fresh stack.
  Config lc;
  lc.completion_threads = static_cast<int>((40LL << 20) / stack) + 2;
  net::Machine m(testing::machine_config(2));
  struct rlimit old_as;
  ASSERT_EQ(getrlimit(RLIMIT_AS, &old_as), 0);
  std::vector<std::byte> landing(64);
  const Status st = run_lapi(m, lc, [&](Context& ctx) {
    const AmHandlerId h = ctx.register_handler(
        [&landing](Context&, const AmDelivery&) -> AmReply {
          AmReply r;
          r.buffer = landing.data();
          r.completion = [](Context&, sim::Actor&) {};
          return r;
        });
    EXPECT_EQ(ctx.gfence(), Status::kOk);
    if (ctx.task_id() != 0) return;
    // Room for the message, none for another thread stack: task 1's pool
    // spawns its threads inside the delivery event, and one spawn fails.
    struct rlimit tight = old_as;
    tight.rlim_cur = static_cast<rlim_t>(current_vm_bytes() + stack / 2);
    ASSERT_EQ(setrlimit(RLIMIT_AS, &tight), 0);
    std::vector<std::byte> data(64, std::byte{0x5A});
    Counter cmpl;
    EXPECT_EQ(ctx.amsend(1, h, {}, data, nullptr, nullptr, &cmpl),
              Status::kOk);
    (void)ctx.waitcntr(cmpl, 1);
  });
  ASSERT_EQ(setrlimit(RLIMIT_AS, &old_as), 0);
  EXPECT_EQ(st, Status::kResourceExhausted);
}
#endif

}  // namespace
}  // namespace splap::lapi
