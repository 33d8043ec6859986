#include "src/runtime/node.h"

#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <thread>

#include "src/common/check.h"
#include "src/fs/journal.h"

namespace leases {
namespace {

// Bridges an async protocol call into a blocking one. The shared state
// keeps the promise alive even if the callback outlives the caller's wait.
// Callbacks run under the client loop's execution lock, as does every
// change to `leader`.
template <typename T>
class Waiter {
 public:
  explicit Waiter(int wake_fd) { state_->wake_fd = wake_fd; }

  std::function<void(Result<T>)> MakeCallback() {
    auto state = state_;
    return [state](Result<T> r) {
      bool expected = false;
      if (!state->done.compare_exchange_strong(expected, true)) {
        return;
      }
      state->promise.set_value(std::move(r));
      // A leader sleeps in ppoll on the socket and the wake fd only, so a
      // completion on any other thread (a loop timer giving up, another
      // caller) must wake it.
      if (state->leader != std::thread::id() &&
          state->leader != std::this_thread::get_id()) {
        uint64_t one = 1;
        ssize_t n = ::write(state->wake_fd, &one, sizeof(one));
        (void)n;
      }
    };
  }

  bool done() const { return state_->done.load(); }
  void set_leader(std::thread::id leader) { state_->leader = leader; }

  Result<T> Wait(std::chrono::steady_clock::time_point deadline) {
    std::future<Result<T>> future = state_->promise.get_future();
    if (future.wait_until(deadline) != std::future_status::ready) {
      return Error{ErrorCode::kTimeout, "blocking call timed out"};
    }
    return future.get();
  }

 private:
  struct State {
    std::promise<Result<T>> promise;
    std::atomic<bool> done{false};
    std::thread::id leader;  // the caller draining the socket, if any
    int wake_fd = -1;
  };
  std::shared_ptr<State> state_ = std::make_shared<State>();
};

}  // namespace

// Everything one shard owns. With 1 shard, `store` is unused: the server
// serves the namespace store itself.
struct RuntimeServer::Shard {
  explicit Shard(Duration term) : policy(term) {}

  FileStore store;
  // Set only by the durable Start overload; meta journals through it and
  // must be destroyed first (declaration order keeps the backend alive).
  std::unique_ptr<StorageBackend> storage;
  DurableMeta meta;
  FixedTermPolicy policy;
  std::unique_ptr<EventLoop> loop;
  // Deliveries posted to this shard's loop and not yet run. While it is
  // non-zero no delivery runs inline, so the shard's order holds.
  std::atomic<uint64_t> in_flight{0};
  std::atomic<uint64_t> processed{0};
};

RuntimeServer::RuntimeServer(NodeId id, EngineConfig config)
    : RuntimeServer(id, std::move(config), ReplicaSlot{}) {}

RuntimeServer::RuntimeServer(NodeId id, EngineConfig config, ReplicaSlot slot)
    : id_(id), config_(std::move(config)), slot_(slot) {
  for (size_t i = 0; i < std::max<size_t>(config_.num_shards, 1); ++i) {
    shards_.push_back(std::make_unique<Shard>(config_.term));
  }
}

RuntimeServer::~RuntimeServer() { Stop(); }

Status RuntimeServer::Start(uint16_t port) {
  return StartInternal(nullptr, port);
}

Status RuntimeServer::Start(const std::string& data_dir, uint16_t port) {
  return StartInternal(&data_dir, port);
}

Status RuntimeServer::StartInternal(const std::string* data_dir,
                                    uint16_t port) {
  const bool replicated = config_.replica.num_replicas > 0;
  if (replicated && shards_.size() > 1) {
    // One authority socket and one serving loop per replica; the sharded
    // holder runs in SimCluster only.
    return Status(ErrorCode::kInvalidArgument,
                  "RuntimeServer hosts replicas on one shard only");
  }
  for (size_t i = 0; data_dir != nullptr && i < shards_.size(); ++i) {
    Shard& shard = *shards_[i];
    auto journal = std::make_unique<JournalBackend>(
        shards_.size() == 1 ? *data_dir
                            : *data_dir + "/shard-" + std::to_string(i));
    Status opened = journal->Open();
    if (!opened.ok()) {
      return opened;
    }
    shard.storage = std::move(journal);
    shard.meta = DurableMeta(shard.storage.get());
    // Replay IS recovery: the rebuilt max term / boot count make the new
    // server delay writes for the previous incarnation's grant window.
    Status replayed = shard.meta.Reopen();
    if (!replayed.ok()) {
      return replayed;
    }
  }
  std::vector<EventLoop*> loops;
  for (auto& shard : shards_) {
    shard->loop = std::make_unique<EventLoop>();
    shard->in_flight = 0;
    loops.push_back(shard->loop.get());
  }
  EventLoop* io_loop = loops[0];
  // Every shard loop receives; the 1-shard and replicated hosts keep one
  // ordinary watch on loop 0.
  transport_ = std::make_unique<UdpTransport>(id_, loops, nullptr);
  Status started = transport_->Start(port);
  if (!started.ok()) {
    return started;
  }
  // All protocol traffic goes through the fault decorator (a passthrough
  // until faults are configured); delayed re-sends run on loop 0.
  faulty_ =
      std::make_unique<FaultInjectingTransport>(transport_.get(), io_loop);
  EngineEnv env;
  env.id = id_;
  if (shards_.size() == 1) {
    env.store = &store_;
    env.meta = &shards_[0]->meta;
    env.transport = faulty_.get();
    env.clock = &clock_;
    env.timers = io_loop;
    env.policy = &shards_[0]->policy;
  } else {
    for (auto& shard : shards_) {
      env.shards.push_back(ShardEnv{.store = &shard->store,
                                    .meta = &shard->meta,
                                    .clock = &clock_,
                                    .timers = shard->loop.get(),
                                    .transport = faulty_.get(),
                                    .policy = &shard->policy});
    }
  }
  if (replicated) {
    // The serving socket answers clients on the virtual id; the authority
    // rounds travel on this replica's own address.
    authority_ = std::make_unique<UdpTransport>(ReplicaAddr(slot_.index),
                                                io_loop, nullptr);
    started = authority_->Start(slot_.authority_port);
    if (!started.ok()) {
      return started;
    }
    env.transport = authority_.get();
    env.serve_transport = faulty_.get();
    env.replica_index = slot_.index;
    env.replica_cold_boot = slot_.cold_boot;
    for (size_t r = 0; r < config_.replica.num_replicas; ++r) {
      env.peers.push_back(ReplicaAddr(r));
    }
  }
  auto engine = MakeServerEngine(config_, std::move(env));
  if (!engine.ok()) {
    return Status(engine.error().code, engine.error().message);
  }
  engine_ = std::move(engine.value());
  // A replica's first authority round would find no other replica
  // registered yet (their ports are known only once each has started), so
  // a multi-replica engine starts from AddReplicaPeer. Until then it drops
  // what it receives.
  unwired_replicas_.assign(config_.replica.num_replicas, true);
  if (replicated) {
    unwired_replicas_[slot_.index] = false;
  }
  if (!replicated || config_.replica.num_replicas == 1) {
    Status serving = StartEngine();
    if (!serving.ok()) {
      return serving;
    }
  }
  transport_->SetHandler(shards_.size() == 1
                             ? static_cast<PacketHandler*>(engine_.get())
                             : this);
  if (authority_ != nullptr) {
    authority_->SetHandler(engine_.get());
  }
  return Status::Ok();
}

Status RuntimeServer::StartEngine() {
  // Holding every loop's execution lock, so a timer one shard arms cannot
  // fire before the other shards exist.
  Status serving;
  RunExclusive(0, [this, &serving]() {
    serving = engine_->Start();
    if (serving.ok() && shards_.size() > 1) {
      engine_->sharded()->AdoptAll(store_);
    }
  });
  return serving;
}

Status RuntimeServer::AddReplicaPeer(size_t index, uint16_t peer_port) {
  authority_->AddPeer(ReplicaAddr(index), peer_port);
  if (index >= unwired_replicas_.size() || !unwired_replicas_[index]) {
    return Status::Ok();
  }
  unwired_replicas_[index] = false;
  if (std::find(unwired_replicas_.begin(), unwired_replicas_.end(), true) !=
      unwired_replicas_.end()) {
    return Status::Ok();
  }
  return StartEngine();
}

void RuntimeServer::RunExclusive(size_t shard,
                                 const std::function<void()>& fn) {
  if (shard == shards_.size()) {
    fn();
    return;
  }
  shards_[shard]->loop->RunInline([&]() { RunExclusive(shard + 1, fn); });
}

void RuntimeServer::HandlePacket(NodeId from, MessageClass cls,
                                 std::span<const uint8_t> bytes) {
  std::optional<Packet> packet = DecodePacket(bytes);
  if (!packet) {
    return;  // malformed datagrams are dropped, as in LeaseServer
  }
  engine_->sharded()->Route(
      from, cls, std::move(*packet),
      [this](size_t i, NodeId f, MessageClass c, Packet&& p) {
        Deliver(i, f, c, std::move(p));
      });
}

void RuntimeServer::Deliver(size_t i, NodeId from, MessageClass cls,
                            Packet&& packet) {
  ShardedLeaseServer* sharded = engine_->sharded();
  Shard& shard = *shards_[i];
  bool delivered = false;
  // Runs under shard i's execution lock. A delivery posted earlier and not
  // yet run must go first, so this one then queues behind it.
  auto deliver_if_none_posted = [&]() {
    if (shard.in_flight.load() == 0) {
      sharded->DeliverToShard(i, from, cls, packet);
      ++shard.processed;
      delivered = true;
    }
  };
  // This thread holds its own loop's lock already, and only try-locks any
  // other: two receiving loops cannot deadlock, and a busy shard never
  // holds up the receive.
  if (shard.loop->InLoopThread()) {
    deliver_if_none_posted();
  } else {
    shard.loop->TryRunInline(deliver_if_none_posted);
  }
  if (delivered) {
    return;
  }
  // A shard that falls this far behind sheds input like the wire.
  if (shard.in_flight++ >= kShardInboxLimit) {
    --shard.in_flight;
    ++dropped_;
    return;
  }
  shard.loop->Post(
      [sharded, &shard, i, from, cls, packet = std::move(packet)]() {
        sharded->DeliverToShard(i, from, cls, packet);
        ++shard.processed;
        --shard.in_flight;
      });
}

void RuntimeServer::Stop() {
  for (UdpTransport* socket : {transport_.get(), authority_.get()}) {
    if (socket != nullptr) {
      socket->SetHandler(nullptr);
      socket->Stop();
    }
  }
  for (auto& shard : shards_) {
    if (shard->loop != nullptr) {
      shard->loop->Stop();  // joins the thread; posted deliveries are lost
    }
  }
  // Every loop thread is joined, so tearing the protocol objects down is
  // single-threaded (their destructors cancel timers on the stopped loops).
  engine_.reset();
  faulty_.reset();
  authority_.reset();
  transport_.reset();
  for (auto& shard : shards_) {
    shard->loop.reset();
  }
}

void RuntimeServer::WithServer(std::function<void(LeaseServer&)> fn) {
  LEASES_CHECK(engine_ != nullptr);
  for (size_t i = 0; i < shards_.size(); ++i) {
    shards_[i]->loop->RunSync([this, i, &fn]() {
      LeaseServer* server = shards_.size() == 1
                                ? engine_->plain()
                                : &engine_->sharded()->shard(i);
      if (server != nullptr) {  // null on a replica that is not the holder
        fn(*server);
      }
    });
  }
}

void RuntimeServer::WithEngine(std::function<void(ServerEngine&)> fn) {
  LEASES_CHECK(engine_ != nullptr);
  shards_[0]->loop->RunSync([this, &fn]() { fn(*engine_); });
}

ServerStats RuntimeServer::stats() {
  ServerStats out;
  if (shards_.size() == 1) {
    WithEngine([&out](ServerEngine& engine) { out = engine.stats(); });
  } else {
    bool first = true;
    WithServer([&out, &first](LeaseServer& server) {
      if (first) {
        out = server.stats();
        first = false;
      } else {
        MergeServerStats(&out, server.stats());
      }
    });
  }
  // Transport plane: local send failures and inbound drops are invisible
  // to the protocol (it reads them as wire loss), so surface them alongside
  // the server counters.
  out.send_failures = transport_->stats().send_failures;
  if (authority_ != nullptr) {
    out.send_failures += authority_->stats().send_failures;
  }
  out.inbound_drops = dropped();
  return out;
}

uint64_t RuntimeServer::processed() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->processed.load();
  }
  return total;
}

RuntimeClient::RuntimeClient(NodeId id, NodeId server_id, FileId root,
                             ClientParams params)
    : id_(id), server_id_(server_id), root_(root), params_(params) {}

RuntimeClient::~RuntimeClient() { Stop(); }

Status RuntimeClient::Start(uint16_t server_port, uint16_t port) {
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) {
    return Status(ErrorCode::kUnavailable, "eventfd() failed");
  }
  loop_ = std::make_unique<EventLoop>();
  transport_ = std::make_unique<UdpTransport>(id_, loop_.get(), nullptr);
  Status started = transport_->Start(port);
  if (!started.ok()) {
    return started;
  }
  transport_->AddPeer(server_id_, server_port);
  faulty_ =
      std::make_unique<FaultInjectingTransport>(transport_.get(), loop_.get());
  uint64_t incarnation = static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  loop_->RunSync([this, incarnation]() {
    client_ = std::make_unique<CacheClient>(
        id_, server_id_, root_, faulty_.get(), &clock_, loop_.get(),
        params_, /*oracle=*/nullptr, incarnation);
  });
  transport_->SetHandler(client_.get());
  return Status::Ok();
}

void RuntimeClient::Stop() {
  if (transport_ != nullptr) {
    transport_->SetHandler(nullptr);
    transport_->Stop();
  }
  if (loop_ != nullptr && client_ != nullptr) {
    loop_->RunSync([this]() { client_.reset(); });
  }
  if (loop_ != nullptr) {
    loop_->Stop();
  }
  client_.reset();
  faulty_.reset();  // after Stop: no more loop callbacks into the decorator
  transport_.reset();
  loop_.reset();
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
    wake_fd_ = -1;
  }
}

template <typename T, typename Issue>
Result<T> RuntimeClient::Call(Issue&& issue, Duration timeout) {
  CheckBlockingCall();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(timeout.ToMicros());
  Waiter<T> waiter(wake_fd_);
  bool lead = false;
  loop_->RunInline([&]() {
    issue(waiter.MakeCallback());
    // A call that completed inline (a cache hit) touches no socket. One
    // that went remote takes the socket from the loop, unless another
    // caller already leads; it then waits as a follower.
    if (!waiter.done() && !leading_) {
      lead = leading_ = true;
      waiter.set_leader(std::this_thread::get_id());
      transport_->PauseReceive();
    }
  });
  while (lead) {
    // Readable socket: drain it here, so the reply is handled on this
    // thread and the loop thread is not woken for it.
    bool readable = transport_->WaitReadable(wake_fd_, deadline);
    loop_->RunInline([&]() {
      if (readable) {
        transport_->DrainBatch();
      }
      if (waiter.done() || std::chrono::steady_clock::now() >= deadline) {
        lead = leading_ = false;
        waiter.set_leader(std::thread::id());
        transport_->ResumeReceive();
      }
    });
  }
  return waiter.Wait(deadline);
}

Result<OpenResult> RuntimeClient::Open(const std::string& path,
                                       Duration timeout) {
  return Call<OpenResult>(
      [&](auto callback) { client_->Open(path, std::move(callback)); },
      timeout);
}

Result<ReadResult> RuntimeClient::Read(FileId file, Duration timeout) {
  return Call<ReadResult>(
      [&](auto callback) { client_->Read(file, std::move(callback)); },
      timeout);
}

Result<WriteResult> RuntimeClient::Write(FileId file,
                                         std::vector<uint8_t> data,
                                         Duration timeout) {
  return Call<WriteResult>(
      [&](auto callback) {
        client_->Write(file, std::move(data), std::move(callback));
      },
      timeout);
}

void RuntimeClient::CheckBlockingCall() const {
  LEASES_CHECK(client_ != nullptr);
  // From the loop thread (e.g. inside WithClient) the call could never
  // complete: the loop's timers, and a follower's reply, run on the very
  // thread that would wait.
  LEASES_CHECK(!loop_->InLoopThread());
}

void RuntimeClient::WithClient(std::function<void(CacheClient&)> fn) {
  LEASES_CHECK(loop_ != nullptr && client_ != nullptr);
  loop_->RunSync([this, &fn]() { fn(*client_); });
}

ClientStats RuntimeClient::stats() {
  ClientStats out;
  WithClient([&out](CacheClient& client) { out = client.stats(); });
  return out;
}

}  // namespace leases
