// Runtime node harnesses: the same LeaseServer / CacheClient state machines
// running over real UDP sockets and the monotonic system clock.
//
// RuntimeServer and RuntimeClient each own a UDP transport, a clock and an
// event loop (a sharded RuntimeServer owns one loop per shard). All protocol
// work is serialized by a loop's execution lock: datagrams, timers and
// RunSync tasks run on the loop thread, while RuntimeClient's blocking
// wrappers run the protocol call on the caller's thread
// (EventLoop::RunInline). A read under a valid lease therefore completes
// without a thread hand-off, and a miss or a write sends its request
// straight from the caller.
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
  // The full configuration surface; MakeServerEngine validates it at Start.
  // config.num_shards picks the shape. With 1 shard the loop's socket feeds
  // one LeaseServer. With N > 1, shard i of a ShardedLeaseServer runs on
  // EventLoop i; loop 0 owns the socket, decodes and routes each datagram
  // (ShardedLeaseServer::Route), runs shard-0 work inline and posts the rest
  // to the owning shard's loop. Every shard sends through the one
  // faults() -> UDP transport. Replicated shapes run under
  // RuntimeReplicaServer.
  RuntimeServer(NodeId id, EngineConfig config);
  ~RuntimeServer() override;

  RuntimeServer(const RuntimeServer&) = delete;
  RuntimeServer& operator=(const RuntimeServer&) = delete;

  Status Start(uint16_t port = 0);
  // Durable variant: recovery state (max term, boot count, optional lease
  // records) is journaled under `data_dir` and replayed before the server
  // starts serving, so a restarted process honors the previous incarnation's
  // grants. With N > 1 shards, shard i journals under `data_dir/shard-<i>`.
  // Directories are created if missing.
  Status Start(const std::string& data_dir, uint16_t port = 0);
  void Stop();

  uint16_t port() const { return transport_->port(); }
  void AddPeer(NodeId peer, uint16_t peer_port) {
    transport_->AddPeer(peer, peer_port);
  }

  // Namespace store for pre-start setup; not thread-safe once serving. With
  // N > 1 shards, Start() copies each record into its owning shard's
  // partition, and from then on the partitions are authoritative.
  FileStore& store() { return store_; }
  // Runs `fn` against each shard's LeaseServer in shard order, each on its
  // shard's loop thread (one call on a 1-shard server).
  void WithServer(std::function<void(LeaseServer&)> fn);
  // The engine shell (valid between Start and Stop).
  ServerEngine& engine() { return *engine_; }
  // Per-shard counters merged (MergeServerStats), plus the transport's
  // local send failures and the routed deliveries dropped at a full shard.
  ServerStats stats();

  // Fault-injection decorator every shard sends through; a passthrough
  // until faults are configured. Valid between Start and Stop.
  FaultInjectingTransport& faults() { return *faulty_; }

  size_t num_shards() const { return config_.num_shards; }
  // Deliveries routed to shards. Always 0 with 1 shard, whose socket feeds
  // the engine without routing.
  uint64_t processed() const;
  // Deliveries dropped because their shard already had kShardInboxLimit
  // posted and not yet run (stats().inbound_drops).
  uint64_t dropped() const { return dropped_.load(); }

  // In-flight deliveries allowed per shard; the protocol reads a drop as
  // wire loss and the client retransmits.
  static constexpr uint64_t kShardInboxLimit = 4096;

 private:
  struct Shard;

  Status StartInternal(uint16_t port);
  // Runs `fn` on the caller's thread holding the execution lock of every
  // loop from `shard` on, so no shard task, timer or datagram runs meanwhile.
  void RunExclusive(size_t shard, const std::function<void()>& fn);
  LeaseServer& ShardServer(size_t shard);
  // The socket handler of a sharded server (loop 0's thread).
  void HandlePacket(NodeId from, MessageClass cls,
                    std::span<const uint8_t> bytes) override;

  NodeId id_;
  EngineConfig config_;
  FileStore store_;
  SystemClock clock_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<UdpTransport> transport_;
  std::unique_ptr<FaultInjectingTransport> faulty_;
  std::unique_ptr<ServerEngine> engine_;
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
};

}  // namespace leases

#endif  // SRC_RUNTIME_NODE_H_
