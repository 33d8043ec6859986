#include "perfbench/src/host.h"

#include <functional>

#include "src/clock/system_clock.h"
#include "src/core/server_engine.h"
#include "src/core/term_policy.h"
#include "src/runtime/event_loop.h"
#include "src/runtime/node.h"
#include "src/runtime/sharded_node.h"
#include "src/runtime/udp_transport.h"

namespace perfbench {
namespace {

using leases::Duration;
using leases::EngineConfig;
using leases::NodeId;
using leases::Status;

const NodeId kServerId(1);
constexpr size_t kShards = 2;

// The benchmark's fixed server configuration: a 10 s FixedTermPolicy term
// and default ServerParams.
EngineConfig BenchConfig(size_t shards) {
  EngineConfig config;
  config.term = Duration::Seconds(10);
  config.num_shards = shards;
  return config;
}

int64_t TimeNs(const std::function<void()>& fn) {
  int64_t start = NowNs();
  fn();
  return NowNs() - start;
}

class PlainHost : public BenchHost {
 public:
  PlainHost() : server_(kServerId, BenchConfig(1)) {}

  leases::FileStore& store() override { return server_.store(); }
  Status Start() override { return server_.Start(); }
  uint16_t port() const override { return server_.port(); }
  void AddPeer(NodeId client, uint16_t port) override {
    server_.AddPeer(client, port);
  }
  HostCounters counters() override { return {server_.stats(), 0, 0}; }
  int64_t ProbeServerLoop() override {
    return TimeNs([this] { server_.WithServer([](leases::LeaseServer&) {}); });
  }
  void Stop() override { server_.Stop(); }

 private:
  leases::RuntimeServer server_;
};

// The plain host rebuilt from RuntimeServer's public parts so the timing
// decorators can sit between the UDP transport and the engine.
class TracedPlainHost : public BenchHost {
 public:
  explicit TracedPlainHost(SlotMap slots)
      : config_(BenchConfig(1)),
        policy_(config_.term),
        slots_(std::move(slots)) {}
  ~TracedPlainHost() override { Stop(); }

  leases::FileStore& store() override { return store_; }

  Status Start() override {
    loop_ = std::make_unique<leases::EventLoop>();
    transport_ =
        std::make_unique<leases::UdpTransport>(kServerId, loop_.get(), nullptr);
    Status started = transport_->Start(0);
    if (!started.ok()) {
      return started;
    }
    timing_ = std::make_unique<TimingTransport>(transport_.get(), slots_);
    leases::EngineEnv env;
    env.id = kServerId;
    env.store = &store_;
    env.meta = &meta_;
    env.transport = timing_.get();
    env.clock = &clock_;
    env.timers = loop_.get();
    env.policy = &policy_;
    auto engine = leases::MakeServerEngine(config_, std::move(env));
    if (!engine.ok()) {
      return Status(engine.error().code, engine.error().message);
    }
    engine_ = std::move(engine.value());
    Status serving;
    loop_->RunSync([this, &serving] { serving = engine_->Start(); });
    if (!serving.ok()) {
      return serving;
    }
    tap_ = std::make_unique<ServerTap>(engine_.get(), slots_);
    transport_->SetHandler(tap_.get());
    return Status::Ok();
  }

  uint16_t port() const override { return transport_->port(); }
  void AddPeer(NodeId client, uint16_t port) override {
    transport_->AddPeer(client, port);
  }

  HostCounters counters() override {
    HostCounters out;
    loop_->RunSync([this, &out] { out.server = engine_->stats(); });
    out.server.send_failures = transport_->stats().send_failures;
    return out;
  }

  int64_t ProbeServerLoop() override {
    return TimeNs([this] { loop_->RunSync([] {}); });
  }

  // Same teardown order as RuntimeServer::Stop.
  void Stop() override {
    if (transport_ != nullptr) {
      transport_->SetHandler(nullptr);
      transport_->Stop();
    }
    if (loop_ != nullptr && engine_ != nullptr) {
      loop_->RunSync([this] { engine_.reset(); });
    }
    if (loop_ != nullptr) {
      loop_->Stop();
    }
    engine_.reset();
    transport_.reset();
    loop_.reset();
  }

  HostTrace trace() const override {
    if (tap_ == nullptr) {
      return {};
    }
    return {&tap_->handle(), &timing_->send(),
            {&tap_->spans(), &timing_->spans()}};
  }

 private:
  EngineConfig config_;
  leases::FileStore store_;
  leases::DurableMeta meta_;
  leases::SystemClock clock_;
  leases::FixedTermPolicy policy_;
  SlotMap slots_;
  std::unique_ptr<leases::EventLoop> loop_;
  std::unique_ptr<leases::UdpTransport> transport_;
  // The decorators outlive the transport's use of them: Stop() detaches
  // the handler and joins the loop before anything here is destroyed.
  std::unique_ptr<TimingTransport> timing_;
  std::unique_ptr<leases::ServerEngine> engine_;
  std::unique_ptr<ServerTap> tap_;
};

class ShardedHost : public BenchHost {
 public:
  ShardedHost() : server_(kServerId, BenchConfig(kShards)) {}

  leases::FileStore& store() override { return server_.store(); }
  Status Start() override { return server_.Start(); }
  uint16_t port() const override { return server_.port(); }
  void AddPeer(NodeId client, uint16_t port) override {
    server_.AddPeer(client, port);
  }
  HostCounters counters() override {
    return {server_.stats(), server_.processed(), server_.dropped()};
  }
  int64_t ProbeServerLoop() override {
    return TimeNs([this] { server_.stats(); }) /
           static_cast<int64_t>(server_.num_shards());
  }
  void Stop() override { server_.Stop(); }

 private:
  leases::ShardedRuntimeServer server_;
};

}  // namespace

std::unique_ptr<BenchHost> MakeHost(HostKind kind, const SlotMap* slots) {
  if (kind == HostKind::kSharded) {
    return std::make_unique<ShardedHost>();
  }
  if (slots != nullptr) {
    return std::make_unique<TracedPlainHost>(*slots);
  }
  return std::make_unique<PlainHost>();
}

}  // namespace perfbench
