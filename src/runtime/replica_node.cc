#include "src/runtime/replica_node.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/core/term_policy.h"

namespace leases {

RuntimeReplicaServer::RuntimeReplicaServer(NodeId virtual_id,
                                           size_t replica_index,
                                           EngineConfig config)
    : virtual_id_(virtual_id),
      index_(replica_index),
      config_(std::move(config)),
      policy_(std::make_unique<FixedTermPolicy>(config_.term)) {
  LEASES_CHECK(config_.replica.num_replicas >= 1);
  LEASES_CHECK(replica_index < config_.replica.num_replicas);
}

RuntimeReplicaServer::~RuntimeReplicaServer() { Stop(); }

Status RuntimeReplicaServer::Start(bool cold_boot, uint16_t serve_port,
                                   uint16_t authority_port,
                                   bool join_as_learner) {
  loop_ = std::make_unique<EventLoop>();
  authority_transport_ = std::make_unique<UdpTransport>(
      ReplicaAddr(index_), loop_.get(), nullptr);
  serve_transport_ =
      std::make_unique<UdpTransport>(virtual_id_, loop_.get(), nullptr);
  Status started = authority_transport_->Start(authority_port);
  if (!started.ok()) {
    return started;
  }
  started = serve_transport_->Start(serve_port);
  if (!started.ok()) {
    return started;
  }

  EngineEnv env;
  env.id = virtual_id_;
  env.store = &store_;
  env.meta = &meta_;
  env.transport = authority_transport_.get();
  env.clock = &clock_;
  env.timers = loop_.get();
  env.policy = policy_.get();
  env.replica_index = index_;
  for (size_t r = 0; r < config_.replica.num_replicas; ++r) {
    env.peers.push_back(ReplicaAddr(r));
  }
  env.serve_transport = serve_transport_.get();
  env.replica_cold_boot = cold_boot;
  env.join_as_learner = join_as_learner;
  env.on_takeover = [this](NodeId) {
    if (takeover_cb_) {
      takeover_cb_(index_);
    }
  };
  auto engine = MakeServerEngine(config_, std::move(env));
  if (!engine.ok()) {
    return Status(engine.error().code, engine.error().message);
  }
  engine_ = std::move(engine.value());
  // Timer arming and (for the seed replica) the first acquisition happen
  // on the loop thread, matching the serialized protocol model.
  Status serving;
  loop_->RunSync([this, &serving]() { serving = engine_->Start(); });
  if (!serving.ok()) {
    return serving;
  }
  authority_transport_->SetHandler(engine_.get());
  serve_transport_->SetHandler(engine_.get());
  return Status::Ok();
}

void RuntimeReplicaServer::Stop() {
  if (authority_transport_ != nullptr) {
    authority_transport_->SetHandler(nullptr);
    authority_transport_->Stop();
  }
  if (serve_transport_ != nullptr) {
    serve_transport_->SetHandler(nullptr);
    serve_transport_->Stop();
  }
  if (loop_ != nullptr && engine_ != nullptr) {
    // Engine teardown cancels its timers against the still-running loop.
    loop_->RunSync([this]() { engine_.reset(); });
  }
  if (loop_ != nullptr) {
    loop_->Stop();
  }
  engine_.reset();
  serve_transport_.reset();
  authority_transport_.reset();
  loop_.reset();
}

void RuntimeReplicaServer::AddReplicaPeer(size_t index,
                                          uint16_t authority_port) {
  authority_transport_->AddPeer(ReplicaAddr(index), authority_port);
}

void RuntimeReplicaServer::AddClientPeer(NodeId client, uint16_t port) {
  serve_transport_->AddPeer(client, port);
}

void RuntimeReplicaServer::RegisterClient(NodeId client) {
  LEASES_CHECK(loop_ != nullptr && engine_ != nullptr);
  loop_->RunSync([this, client]() { engine_->RegisterClient(client); });
}

bool RuntimeReplicaServer::is_holder() {
  if (loop_ == nullptr || engine_ == nullptr) {
    return false;
  }
  bool holder = false;
  loop_->RunSync([this, &holder]() {
    holder = engine_->replica()->is_holder();
  });
  return holder;
}

Duration RuntimeReplicaServer::last_inherited_bound() {
  LEASES_CHECK(loop_ != nullptr && engine_ != nullptr);
  Duration bound = Duration::Zero();
  loop_->RunSync([this, &bound]() {
    bound = engine_->replica()->last_inherited_bound();
  });
  return bound;
}

Status RuntimeReplicaServer::AddReplica(size_t index) {
  LEASES_CHECK(loop_ != nullptr && engine_ != nullptr);
  Status s;
  loop_->RunSync([this, index, &s]() {
    ReplicaNode* node = engine_->replica();
    std::vector<NodeId> members = node->member_addrs();
    members.push_back(ReplicaAddr(index));
    s = node->RequestReconfig(std::move(members));
  });
  return s;
}

Status RuntimeReplicaServer::RemoveReplica(size_t index) {
  LEASES_CHECK(loop_ != nullptr && engine_ != nullptr);
  Status s;
  loop_->RunSync([this, index, &s]() {
    ReplicaNode* node = engine_->replica();
    std::vector<NodeId> members = node->member_addrs();
    auto it = std::find(members.begin(), members.end(), ReplicaAddr(index));
    if (it == members.end()) {
      s = Status(ErrorCode::kInvalidArgument,
                 "replica is not a committed member");
      return;
    }
    members.erase(it);
    s = node->RequestReconfig(std::move(members));
  });
  return s;
}

std::vector<NodeId> RuntimeReplicaServer::member_addrs() {
  LEASES_CHECK(loop_ != nullptr && engine_ != nullptr);
  std::vector<NodeId> members;
  loop_->RunSync(
      [this, &members]() { members = engine_->replica()->member_addrs(); });
  return members;
}

ServerStats RuntimeReplicaServer::stats() {
  LEASES_CHECK(loop_ != nullptr && engine_ != nullptr);
  ServerStats out;
  loop_->RunSync([this, &out]() { out = engine_->stats(); });
  out.send_failures += authority_transport_->stats().send_failures;
  out.send_failures += serve_transport_->stats().send_failures;
  return out;
}

}  // namespace leases
