#include "src/runtime/node.h"

#include <chrono>
#include <future>

#include "src/common/check.h"
#include "src/fs/journal.h"

namespace leases {
namespace {

// Bridges an async protocol call into a blocking one with a timeout. The
// shared state keeps the promise alive even if the callback outlives the
// caller's wait.
template <typename T>
class Waiter {
 public:
  std::function<void(Result<T>)> MakeCallback() {
    auto state = state_;
    return [state](Result<T> r) {
      bool expected = false;
      if (state->done.compare_exchange_strong(expected, true)) {
        state->promise.set_value(std::move(r));
      }
    };
  }

  Result<T> Wait(Duration timeout) {
    std::future<Result<T>> future = state_->promise.get_future();
    if (future.wait_for(std::chrono::microseconds(timeout.ToMicros())) !=
        std::future_status::ready) {
      return Error{ErrorCode::kTimeout, "blocking call timed out"};
    }
    return future.get();
  }

 private:
  struct State {
    std::promise<Result<T>> promise;
    std::atomic<bool> done{false};
  };
  std::shared_ptr<State> state_ = std::make_shared<State>();
};

}  // namespace

RuntimeServer::RuntimeServer(NodeId id, EngineConfig config)
    : id_(id),
      config_(std::move(config)),
      policy_(std::make_unique<FixedTermPolicy>(config_.term)) {}

RuntimeServer::RuntimeServer(NodeId id, ServerParams params, Duration term)
    : RuntimeServer(id, [&] {
        EngineConfig config;
        config.server = params;
        config.term = term;
        return config;
      }()) {}

RuntimeServer::~RuntimeServer() { Stop(); }

Status RuntimeServer::Start(uint16_t port) { return StartInternal(port); }

Status RuntimeServer::Start(const std::string& data_dir, uint16_t port) {
  auto journal = std::make_unique<JournalBackend>(data_dir);
  Status opened = journal->Open();
  if (!opened.ok()) {
    return opened;
  }
  storage_ = std::move(journal);
  meta_ = DurableMeta(storage_.get());
  // Replay IS recovery: the rebuilt max term / boot count make the new
  // server delay writes for the previous incarnation's grant window.
  Status replayed = meta_.Reopen();
  if (!replayed.ok()) {
    return replayed;
  }
  return StartInternal(port);
}

Status RuntimeServer::StartInternal(uint16_t port) {
  loop_ = std::make_unique<EventLoop>();
  transport_ = std::make_unique<UdpTransport>(id_, loop_.get(), nullptr);
  Status started = transport_->Start(port);
  if (!started.ok()) {
    return started;
  }
  // All protocol traffic goes through the fault decorator (a passthrough
  // until faults are configured); delayed re-sends run on the loop.
  faulty_ =
      std::make_unique<FaultInjectingTransport>(transport_.get(), loop_.get());
  EngineEnv env;
  env.id = id_;
  env.store = &store_;
  env.meta = &meta_;
  env.transport = faulty_.get();
  env.clock = &clock_;
  env.timers = loop_.get();
  env.policy = policy_.get();
  auto engine = MakeServerEngine(config_, std::move(env));
  if (!engine.ok()) {
    return Status(engine.error().code, engine.error().message);
  }
  engine_ = std::move(engine.value());
  // Engine start (LeaseServer construction, timer arming) runs on the loop
  // thread, preserving the single-threaded protocol model.
  Status serving;
  loop_->RunSync([this, &serving]() { serving = engine_->Start(); });
  if (!serving.ok()) {
    return serving;
  }
  transport_->SetHandler(engine_.get());
  return Status::Ok();
}

void RuntimeServer::Stop() {
  if (transport_ != nullptr) {
    transport_->SetHandler(nullptr);
    transport_->Stop();
  }
  if (loop_ != nullptr && engine_ != nullptr) {
    loop_->RunSync([this]() { engine_.reset(); });
  }
  if (loop_ != nullptr) {
    loop_->Stop();
  }
  engine_.reset();
  faulty_.reset();  // after Stop: no more loop callbacks into the decorator
  transport_.reset();
  loop_.reset();
}

void RuntimeServer::WithServer(std::function<void(LeaseServer&)> fn) {
  LEASES_CHECK(loop_ != nullptr && engine_ != nullptr);
  loop_->RunSync([this, &fn]() { fn(*engine_->plain()); });
}

ServerStats RuntimeServer::stats() {
  ServerStats out;
  WithServer([&out](LeaseServer& server) { out = server.stats(); });
  // Transport plane: local send failures are invisible to the protocol (it
  // reads them as wire loss), so surface them alongside the server counters.
  out.send_failures = transport_->stats().send_failures;
  return out;
}

RuntimeClient::RuntimeClient(NodeId id, NodeId server_id, FileId root,
                             ClientParams params)
    : id_(id), server_id_(server_id), root_(root), params_(params) {}

RuntimeClient::~RuntimeClient() { Stop(); }

Status RuntimeClient::Start(uint16_t server_port, uint16_t port) {
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
}

Result<OpenResult> RuntimeClient::Open(const std::string& path,
                                       Duration timeout) {
  CheckBlockingCall();
  Waiter<OpenResult> waiter;
  loop_->RunInline([&]() { client_->Open(path, waiter.MakeCallback()); });
  return waiter.Wait(timeout);
}

Result<ReadResult> RuntimeClient::Read(FileId file, Duration timeout) {
  CheckBlockingCall();
  Waiter<ReadResult> waiter;
  loop_->RunInline([&]() { client_->Read(file, waiter.MakeCallback()); });
  return waiter.Wait(timeout);
}

Result<WriteResult> RuntimeClient::Write(FileId file,
                                         std::vector<uint8_t> data,
                                         Duration timeout) {
  CheckBlockingCall();
  Waiter<WriteResult> waiter;
  loop_->RunInline([&]() {
    client_->Write(file, std::move(data), waiter.MakeCallback());
  });
  return waiter.Wait(timeout);
}

void RuntimeClient::CheckBlockingCall() const {
  LEASES_CHECK(client_ != nullptr);
  // From the loop thread (e.g. inside WithClient) the call could never
  // complete: its reply is delivered by the very thread that would wait.
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
