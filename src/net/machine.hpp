// A simulated RS/6000 SP: N nodes, each with an adapter onto the shared
// switch fabric, plus the SPMD harness that runs one task per node.
//
// Protocol libraries (LAPI, MPL) attach to a node by registering a client
// handler with its Adapter; the fabric invokes that handler at each packet's
// virtual delivery time. Whether delivery causes an "interrupt" or waits for
// a poll is the client's policy, not the adapter's — exactly the split on
// the real machine, where the CSS adapter raises an interrupt only if the
// protocol armed it.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "base/cost_model.hpp"
#include "net/fabric.hpp"
#include "net/packet.hpp"
#include "sim/engine.hpp"

namespace splap::net {

class Machine;

class Adapter {
 public:
  using ClientHandler = std::function<void(Packet&&)>;

  /// Register the protocol library that owns `client` packets on this node.
  void register_client(Client client, ClientHandler handler) {
    auto& slot = handlers_[static_cast<std::size_t>(client)];
    SPLAP_REQUIRE(slot == nullptr, "client already registered on this node");
    slot = std::move(handler);
  }

  void unregister_client(Client client) {
    handlers_[static_cast<std::size_t>(client)] = nullptr;
    overflow_handlers_[static_cast<std::size_t>(client)] = nullptr;
  }

  /// Orderly protocol shutdown: the slot keeps absorbing straggler packets
  /// (duplicate acks elicited by the last pre-settle retransmissions, which
  /// may still be in flight when term returns) the way a real NIC keeps
  /// receiving after the library detaches. Absorbed packets are counted but
  /// are NOT dead letters — those remain the signature of a client that
  /// vanished without shutdown (a crash) or never initialised at all.
  void retire_client(Client client) {
    handlers_[static_cast<std::size_t>(client)] = [this](Packet&&) {
      ++absorbed_;
    };
    overflow_handlers_[static_cast<std::size_t>(client)] = nullptr;
  }

  /// Straggler packets absorbed by retired client slots.
  std::int64_t absorbed() const { return absorbed_; }

  /// Optional per-client RX-overflow notification: invoked with each packet
  /// the bounded adapter RX queue discarded for `client` (the packet is
  /// about to be destroyed — inspect, don't keep). Lets a transport NACK
  /// the origin instead of waiting out its retransmission timeout.
  using OverflowHandler = std::function<void(const Packet&)>;
  void register_overflow(Client client, OverflowHandler handler) {
    overflow_handlers_[static_cast<std::size_t>(client)] = std::move(handler);
  }

  void overflow(const Packet& pkt) {
    auto& h = overflow_handlers_[static_cast<std::size_t>(pkt.client)];
    if (h != nullptr) h(pkt);
  }

  void deliver(Packet&& pkt) {
    auto& h = handlers_[static_cast<std::size_t>(pkt.client)];
    if (h == nullptr) {
      // Packet for a protocol that already shut down on this node (e.g. a
      // straggler retransmission after LAPI_Term). Dropped, but counted so
      // tests can assert it never happens in healthy runs.
      ++dead_letters_;
      return;
    }
    h(std::move(pkt));
  }

  /// Packets that arrived for an unregistered client.
  std::int64_t dead_letters() const { return dead_letters_; }

 private:
  std::array<ClientHandler, static_cast<std::size_t>(Client::kCount)>
      handlers_{};
  std::array<OverflowHandler, static_cast<std::size_t>(Client::kCount)>
      overflow_handlers_{};
  std::int64_t dead_letters_ = 0;
  std::int64_t absorbed_ = 0;
};

class Node {
 public:
  Node(Machine& machine, int id) : machine_(machine), id_(id) {}
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  int id() const { return id_; }
  Machine& machine() const { return machine_; }
  Adapter& adapter() { return adapter_; }
  sim::Engine& engine() const;
  const CostModel& cost() const;

  /// The node's application task (valid during run_spmd).
  sim::Actor& task() const {
    SPLAP_REQUIRE(task_ != nullptr, "node task not running");
    return *task_;
  }

 private:
  friend class Machine;
  Machine& machine_;
  int id_;
  Adapter adapter_;
  sim::Actor* task_ = nullptr;
};

class Machine {
 public:
  struct Config {
    int tasks = 2;
    FabricConfig fabric;
  };

  explicit Machine(Config config);
  /// Actors blocked at teardown unwind through protocol contexts that
  /// reference the nodes; the engine must therefore quiesce before the
  /// nodes are destroyed.
  ~Machine() { engine_.shutdown(); }

  int tasks() const { return static_cast<int>(nodes_.size()); }
  sim::Engine& engine() { return engine_; }
  Fabric& fabric() { return fabric_; }
  const CostModel& cost() const { return fabric_.cost(); }
  Node& node(int i) {
    SPLAP_REQUIRE(i >= 0 && i < tasks(), "bad node id");
    return *nodes_[static_cast<std::size_t>(i)];
  }

  /// Run `body` as one task per node (SPMD) to completion of all tasks and
  /// all in-flight events. May be called repeatedly for phased workloads;
  /// virtual time carries across phases.
  ///
  /// Healthy-run invariant: a clean run (kOk, no crash scheduled, opt-out not
  /// taken) must deliver every packet to a registered client — a nonzero
  /// dead-letter count then means a protocol tore down while peers still
  /// addressed it, which is a bug, not weather. Crash/restart runs are the
  /// one legitimate source of dead letters (stale retransmissions arriving
  /// between a node's reboot and its LAPI_Init), so they skip the check.
  ///
  /// Returns kResourceExhausted, with every actor unwound, when the OS
  /// refuses a thread: for a task before the run starts, or mid-run (a
  /// completion pool spawning on its first job, a restarted task).
  Status run_spmd(const std::function<void(Node&)>& body);

  // --- crash-stop fault domain -------------------------------------------

  /// Crash node `node` at virtual time `t` (>= now): at t the fabric stops
  /// carrying its traffic, in-flight deliveries to it are flushed, and every
  /// actor pinned to its shard is torn down (stacks unwind; RAII runs with
  /// Actor::poisoned() set). Deterministic and repeatable per seed.
  void kill_node(int node, Time t);

  /// Restart `node` at time `t` (> its crash): closes the fabric crash
  /// window, resets the node's adapter-side fabric state, bumps the node's
  /// incarnation epoch, and respawns `body` as a fresh task on the node's
  /// shard. The new life starts with clean protocol state; survivors of the
  /// old life reject its stale packets by epoch.
  void restart_node(int node, Time t, std::function<void(Node&)> body);

  /// The node's current incarnation epoch: 0 for the first life, +1 per
  /// restart. Stamped into every LAPI/MPL packet header a task sends.
  std::int64_t incarnation(int node) const {
    return incarnations_[static_cast<std::size_t>(node)];
  }

  /// Any crash scheduled on this machine so far (disables the healthy-run
  /// dead-letter assertion).
  bool crash_planned() const { return crash_planned_; }

  /// Opt out of the healthy-run dead-letter assertion for tests that
  /// deliberately leave a client unregistered (e.g. a target task that never
  /// calls LAPI_Init while peers retransmit at it).
  void allow_dead_letters() { allow_dead_letters_ = true; }

 private:
  sim::Engine engine_;
  Fabric fabric_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::int64_t> incarnations_;
  bool crash_planned_ = false;
  bool allow_dead_letters_ = false;
};

}  // namespace splap::net
