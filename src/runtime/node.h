// Runtime node harnesses: the same protocol state machines as the
// simulation, running over real UDP sockets and the monotonic system clock.
//
// RuntimeServer hosts every server engine shape (plain, FileId-sharded, one
// replica of the replicated authority); RuntimeClient hosts a CacheClient.
// Each owns a UDP transport, a clock and an event loop (a sharded
// RuntimeServer owns one loop per shard, and every one of them receives).
// All protocol work is serialized by a loop's execution lock: datagrams,
// timers and RunSync tasks run on the loop thread, while RuntimeClient's
// blocking wrappers run the protocol call on the caller's thread
// (EventLoop::RunInline). A read under a valid lease therefore completes
// without a thread hand-off, and a miss or a write sends its request
// straight from the caller, which then reads the client socket itself
// until its reply arrives (the leader, below).
#ifndef SRC_RUNTIME_NODE_H_
#define SRC_RUNTIME_NODE_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/clock/system_clock.h"
#include "src/core/cache_client.h"
#include "src/core/server_engine.h"
#include "src/fs/file_store.h"
#include "src/net/faulty_transport.h"
#include "src/runtime/event_loop.h"
#include "src/runtime/udp_transport.h"

namespace leases {

class RuntimeServer : private PacketHandler {
 public:
  // This host's seat in a replicated authority; read only when
  // config.replica.num_replicas > 0.
  struct ReplicaSlot {
    size_t index = 0;  // < config.replica.num_replicas
    // The host's assertion that this replica never took part in an
    // authority round (fresh cluster). When false, a volatile acceptor
    // stays silent for one authority term before it votes.
    bool cold_boot = false;
    uint16_t authority_port = 0;  // 0 picks an ephemeral port
  };

  // The authority-plane address of replica `index`; kept out of the small
  // NodeId range clients and servers use.
  static NodeId ReplicaAddr(size_t index) {
    return NodeId(900 + static_cast<uint32_t>(index));
  }

  // The full configuration surface; MakeServerEngine validates it at Start.
  // The config picks the shape:
  //  * 1 shard: the loop's socket feeds one LeaseServer.
  //  * N > 1 shards: shard i of a ShardedLeaseServer runs under
  //    EventLoop i's execution lock. Every loop watches the one socket
  //    (exclusively: one idle loop wakes per arrival), and the loop that
  //    drains a datagram decodes and routes it (ShardedLeaseServer::Route).
  //    It runs each delivery on its own thread, under the owning shard's
  //    lock, when that shard is free and has no delivery posted; otherwise
  //    it posts the delivery to the shard's loop. It never waits for
  //    another shard's lock. Every shard sends through the one faults() ->
  //    UDP transport.
  //  * replica.num_replicas > 0: one replica of the replicated authority.
  //    `id` is the virtual serving identity every replica shares; the
  //    loop-0 socket serves clients on it (only the authority holder
  //    serves; a standby drops client datagrams, bar replica.standby_reads
  //    reads, and the client retries). A second socket on loop 0, bound
  //    to ReplicaAddr(slot.index), carries the authority rounds. Localhost
  //    has no virtual IP to move at takeover, so a client follows the new
  //    holder by re-pointing its peer entry for `id` at that host's
  //    port(). Replicated shapes run on one shard only.
  RuntimeServer(NodeId id, EngineConfig config);
  RuntimeServer(NodeId id, EngineConfig config, ReplicaSlot slot);
  ~RuntimeServer() override;

  RuntimeServer(const RuntimeServer&) = delete;
  RuntimeServer& operator=(const RuntimeServer&) = delete;

  // Fails with kInvalidArgument for an invalid config or for num_shards > 1
  // with replicas.
  Status Start(uint16_t port = 0);
  // Durable variant: recovery state (max term, boot count, optional lease
  // records; a replica's acceptor promises when replica.durable_acceptors
  // is set) is journaled under `data_dir` and replayed before the server
  // starts serving, so a restarted process honors the previous incarnation's
  // grants and votes. With N > 1 shards, shard i journals under
  // `data_dir/shard-<i>`. Directories are created if missing.
  Status Start(const std::string& data_dir, uint16_t port = 0);
  void Stop();

  // The serving socket's port, and where it sends to clients.
  uint16_t port() const { return transport_->port(); }
  void AddPeer(NodeId peer, uint16_t peer_port) {
    transport_->AddPeer(peer, peer_port);
  }
  // The authority socket of a replicated host, and where it reaches the
  // other replicas (wire every replica after each one's Start). With more
  // than one replica, Start leaves the authority engine stopped, and the
  // call that registers the last other replica starts it, so its first
  // round reaches every peer; that call returns the engine's start status.
  uint16_t authority_port() const { return authority_->port(); }
  Status AddReplicaPeer(size_t index, uint16_t peer_port);

  // Namespace store for pre-start setup; not thread-safe once serving. With
  // N > 1 shards, Start() copies each record into its owning shard's
  // partition, and from then on the partitions are authoritative.
  FileStore& store() { return store_; }
  // Runs `fn` against each shard's LeaseServer in shard order, each on its
  // shard's loop thread (one call on a 1-shard server; none on a replica
  // that does not hold the authority).
  void WithServer(std::function<void(LeaseServer&)> fn);
  // Runs `fn` against the engine on loop 0's thread (with N > 1 shards,
  // only shard 0's state is safe to touch there).
  void WithEngine(std::function<void(ServerEngine&)> fn);
  // The engine shell (valid between Start and Stop).
  ServerEngine& engine() { return *engine_; }
  // The engine's counters (a replica's include the authority counters);
  // with N > 1 shards, per-shard counters merged (MergeServerStats). Plus
  // the sockets' local send failures and the routed deliveries dropped at
  // a full shard.
  ServerStats stats();

  // Fault-injection decorator every shard sends through; a passthrough
  // until faults are configured. Valid between Start and Stop.
  FaultInjectingTransport& faults() { return *faulty_; }

  size_t num_shards() const { return config_.num_shards; }
  // Deliveries routed to shards, whether run by the receiving loop or
  // posted to the shard's. Always 0 with 1 shard, whose socket feeds the
  // engine without routing.
  uint64_t processed() const;
  // Deliveries dropped because their shard was busy and already had
  // kShardInboxLimit posted and not yet run (stats().inbound_drops).
  uint64_t dropped() const { return dropped_.load(); }

  // In-flight deliveries allowed per shard; the protocol reads a drop as
  // wire loss and the client retransmits.
  static constexpr uint64_t kShardInboxLimit = 4096;

 private:
  struct Shard;

  // `data_dir` null: recovery state lives in memory.
  Status StartInternal(const std::string* data_dir, uint16_t port);
  // Builds the protocol objects and seeds the shard partitions.
  Status StartEngine();
  // Runs `fn` on the caller's thread holding the execution lock of every
  // loop from `shard` on, so no shard task, timer or datagram runs meanwhile.
  void RunExclusive(size_t shard, const std::function<void()>& fn);
  // The socket handler of a sharded server: runs on the thread of whichever
  // loop drained the datagram, under that loop's execution lock.
  void HandlePacket(NodeId from, MessageClass cls,
                    std::span<const uint8_t> bytes) override;
  // Runs one routed delivery on this thread if shard `i` is free and has
  // none posted, else posts it to the shard's loop (or drops it at
  // kShardInboxLimit).
  void Deliver(size_t i, NodeId from, MessageClass cls, Packet&& packet);

  NodeId id_;
  EngineConfig config_;
  ReplicaSlot slot_;
  FileStore store_;
  SystemClock clock_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<UdpTransport> transport_;
  std::unique_ptr<FaultInjectingTransport> faulty_;
  std::unique_ptr<UdpTransport> authority_;  // replicated shapes only
  std::unique_ptr<ServerEngine> engine_;
  // Replicas whose authority address is not yet registered; the engine of
  // a multi-replica host starts once none is left. Owner thread only.
  std::vector<bool> unwired_replicas_;
  std::atomic<uint64_t> dropped_{0};
};

class RuntimeClient {
 public:
  RuntimeClient(NodeId id, NodeId server_id, FileId root,
                ClientParams params);
  ~RuntimeClient();

  Status Start(uint16_t server_port, uint16_t port = 0);
  void Stop();

  uint16_t port() const { return transport_->port(); }

  // Blocking wrappers. They run on the calling thread, which must not be the
  // loop thread (so never from inside WithClient); several threads may call
  // them at once and are serialized by the loop's execution lock.
  //
  // A call that goes remote makes its thread the leader, unless another
  // caller already leads: the loop's watch of the client socket is paused,
  // and the leader sleeps in ppoll on the socket and a wake fd until its
  // reply arrives or `timeout` passes, handling every datagram it drains
  // (replies for other callers, an approval request for another file)
  // under the execution lock. It then resumes the watch. A completion on
  // another thread, such as a retransmit timer giving up on the loop,
  // writes the wake fd. Other callers wait for the loop or the leader to
  // complete their call.
  Result<OpenResult> Open(const std::string& path,
                          Duration timeout = Duration::Seconds(30));
  Result<ReadResult> Read(FileId file,
                          Duration timeout = Duration::Seconds(30));
  Result<WriteResult> Write(FileId file, std::vector<uint8_t> data,
                            Duration timeout = Duration::Seconds(30));

  // Runs `fn` on the loop thread against the live client.
  void WithClient(std::function<void(CacheClient&)> fn);
  ClientStats stats();
  UdpTransport& transport() { return *transport_; }

  // Fault-injection decorator the client sends through; a passthrough until
  // faults are configured. Valid between Start and Stop.
  FaultInjectingTransport& faults() { return *faulty_; }

 private:
  // Issues a CacheClient call under the execution lock, with `issue`
  // receiving the completion callback, and blocks until it completes.
  template <typename T, typename Issue>
  Result<T> Call(Issue&& issue, Duration timeout);
  void CheckBlockingCall() const;

  NodeId id_;
  NodeId server_id_;
  FileId root_;
  ClientParams params_;
  SystemClock clock_;
  std::unique_ptr<EventLoop> loop_;
  std::unique_ptr<UdpTransport> transport_;
  std::unique_ptr<FaultInjectingTransport> faulty_;
  std::unique_ptr<CacheClient> client_;
  int wake_fd_ = -1;  // eventfd that wakes the leader
  bool leading_ = false;  // a caller leads; guarded by the execution lock
};

}  // namespace leases

#endif  // SRC_RUNTIME_NODE_H_
