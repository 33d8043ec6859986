// Runtime node harnesses: the same LeaseServer / CacheClient state machines
// running over real UDP sockets and the monotonic system clock.
//
// RuntimeServer and RuntimeClient each own an event loop, a UDP transport
// and a clock. All protocol work is serialized by the loop's execution lock:
// datagrams, timers and RunSync tasks run on the loop thread, while
// RuntimeClient's blocking wrappers run the protocol call on the caller's
// thread (EventLoop::RunInline). A read under a valid lease therefore
// completes without a thread hand-off, and a miss or a write sends its
// request straight from the caller.
#ifndef SRC_RUNTIME_NODE_H_
#define SRC_RUNTIME_NODE_H_

#include <memory>
#include <string>

#include "src/clock/system_clock.h"
#include "src/core/cache_client.h"
#include "src/core/server_engine.h"
#include "src/core/term_policy.h"
#include "src/fs/file_store.h"
#include "src/net/faulty_transport.h"
#include "src/runtime/event_loop.h"
#include "src/runtime/udp_transport.h"

namespace leases {

class RuntimeServer {
 public:
  // The full configuration surface; the engine shape (plain only -- sharded
  // runs under ShardedRuntimeServer, replicated under RuntimeReplicaServer)
  // is validated by MakeServerEngine at Start.
  RuntimeServer(NodeId id, EngineConfig config);
  // Historical shim: plain server with a fixed `term`.
  RuntimeServer(NodeId id, ServerParams params, Duration term);
  ~RuntimeServer();

  Status Start(uint16_t port = 0);
  // Durable variant: recovery state (max term, boot count, optional lease
  // records) is journaled under `data_dir` and replayed before the server
  // starts serving, so a restarted process honors the previous incarnation's
  // grants. The directory is created if missing.
  Status Start(const std::string& data_dir, uint16_t port = 0);
  void Stop();

  uint16_t port() const { return transport_->port(); }
  void AddPeer(NodeId peer, uint16_t peer_port) {
    transport_->AddPeer(peer, peer_port);
  }

  // Direct (pre-start) store setup; not thread-safe once serving.
  FileStore& store() { return store_; }
  // Runs `fn` on the loop thread against the live server.
  void WithServer(std::function<void(LeaseServer&)> fn);
  // The engine shell (valid between Start and Stop).
  ServerEngine& engine() { return *engine_; }
  ServerStats stats();

  // Fault-injection decorator the server sends through; a passthrough until
  // faults are configured. Valid between Start and Stop.
  FaultInjectingTransport& faults() { return *faulty_; }

 private:
  Status StartInternal(uint16_t port);

  NodeId id_;
  EngineConfig config_;
  FileStore store_;
  // Set only by the durable Start overload; meta_ journals through it and
  // must be destroyed first (declaration order keeps the backend alive).
  std::unique_ptr<StorageBackend> storage_;
  DurableMeta meta_;
  SystemClock clock_;
  std::unique_ptr<TermPolicy> policy_;
  std::unique_ptr<EventLoop> loop_;
  std::unique_ptr<UdpTransport> transport_;
  std::unique_ptr<FaultInjectingTransport> faulty_;
  std::unique_ptr<ServerEngine> engine_;
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
