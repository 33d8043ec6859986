// The replicated lease authority over real UDP sockets: three replica
// processes-worth of state machines on localhost, a real holder crash, and
// a client that survives the failover by re-pointing the virtual address
// (the test's stand-in for the VIP/ARP move a deployment would do).
//
// Real-clock timing is inherently noisy, so every bound here is generous:
// the assertions pin the *shape* of failover (a standby takes over, the
// write hold comes from the inherited bound, data flows again), not tight
// latencies -- those are measured in the deterministic sim suites.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>

#include "src/fs/journal.h"
#include "src/replica/authority.h"
#include "src/runtime/node.h"

namespace leases {
namespace {

std::vector<uint8_t> B(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

bool WaitFor(const std::function<bool()>& cond,
             Duration timeout = Duration::Seconds(20)) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::microseconds(timeout.ToMicros());
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return cond();
}

bool IsHolder(RuntimeServer& replica) {
  bool holder = false;
  replica.WithEngine([&holder](ServerEngine& engine) {
    holder = engine.replica()->is_holder();
  });
  return holder;
}

Duration InheritedBound(RuntimeServer& replica) {
  Duration bound;
  replica.WithEngine([&bound](ServerEngine& engine) {
    bound = engine.replica()->last_inherited_bound();
  });
  return bound;
}

// Pre-registers the client with the authority so a takeover replays it
// into the new serving engine.
void RegisterClient(RuntimeServer& replica, NodeId client) {
  replica.WithEngine(
      [client](ServerEngine& engine) { engine.RegisterClient(client); });
}

// Points every replica's authority socket at every other replica.
void WireReplicas(const std::vector<std::unique_ptr<RuntimeServer>>& replicas) {
  for (size_t a = 0; a < replicas.size(); ++a) {
    for (size_t b = 0; b < replicas.size(); ++b) {
      if (a != b) {
        replicas[a]->AddReplicaPeer(b, replicas[b]->authority_port());
      }
    }
  }
}

ClientParams RuntimeClientParams() {
  ClientParams params;
  params.transit_allowance = Duration::Millis(50);
  params.epsilon = Duration::Millis(50);
  params.request_timeout = Duration::Millis(300);
  return params;
}

// A single-replica authority is a transparent shell: it serves immediately
// over the same two-socket wiring, with no election round-trips.
TEST(RuntimeReplica, SingleReplicaShellServesOverUdp) {
  EngineConfig config;
  config.term = Duration::Seconds(5);
  config.replica.num_replicas = 1;
  RuntimeServer server(NodeId(1), config, {.index = 0, .cold_boot = true});
  FileId file = *server.store().CreatePath("/data/hello", FileClass::kNormal,
                                           B("world"));
  ASSERT_TRUE(server.Start().ok());

  RuntimeClient client(NodeId(10), NodeId(1), server.store().root(),
                       RuntimeClientParams());
  ASSERT_TRUE(client.Start(server.port()).ok());
  server.AddPeer(NodeId(10), client.port());
  RegisterClient(server, NodeId(10));

  Result<ReadResult> read = client.Read(file, Duration::Seconds(10));
  ASSERT_TRUE(read.ok()) << read.error().ToString();
  EXPECT_EQ(std::string(read->data.begin(), read->data.end()), "world");
  Result<WriteResult> write =
      client.Write(file, B("there"), Duration::Seconds(10));
  ASSERT_TRUE(write.ok()) << write.error().ToString();
  EXPECT_EQ(server.stats().writes_committed, 1u);

  client.Stop();
  server.Stop();
}

// The acceptance shape on real sockets: replica 0 seeds a cold cluster and
// serves; killing it promotes a standby well inside the plain server's
// max-granted-term recovery wait, and the client continues after
// re-pointing the virtual address at the new holder.
TEST(RuntimeReplica, ThreeReplicaFailoverPromotesStandby) {
  EngineConfig config;
  config.term = Duration::Seconds(10);  // grants are capped far below this
  config.replica.num_replicas = 3;

  std::vector<std::unique_ptr<RuntimeServer>> replicas;
  FileId file;
  for (size_t r = 0; r < 3; ++r) {
    auto replica = std::make_unique<RuntimeServer>(
        NodeId(1), config,
        RuntimeServer::ReplicaSlot{.index = r, .cold_boot = true});
    // The lease plane replicates authority, not file data: seed each
    // replica's independent store identically.
    file = *replica->store().CreatePath("/data/hello", FileClass::kNormal,
                                        B("world"));
    ASSERT_TRUE(replica->Start().ok());
    replicas.push_back(std::move(replica));
  }
  WireReplicas(replicas);

  // The seed replica acquires once the peer wiring is up.
  ASSERT_TRUE(WaitFor([&] { return IsHolder(*replicas[0]); }))
      << "seed replica never acquired the authority lease";

  RuntimeClient client(NodeId(10), NodeId(1), replicas[0]->store().root(),
                       RuntimeClientParams());
  ASSERT_TRUE(client.Start(replicas[0]->port()).ok());
  for (auto& replica : replicas) {
    replica->AddPeer(NodeId(10), client.port());
    RegisterClient(*replica, NodeId(10));
  }

  Result<ReadResult> read = client.Read(file, Duration::Seconds(10));
  ASSERT_TRUE(read.ok()) << read.error().ToString();
  EXPECT_EQ(std::string(read->data.begin(), read->data.end()), "world");

  // Kill the holder. A standby must acquire from the surviving quorum well
  // inside the 10 s term a single server would have to wait out.
  auto crash = std::chrono::steady_clock::now();
  replicas[0]->Stop();
  RuntimeServer* successor = nullptr;
  ASSERT_TRUE(WaitFor([&] {
    for (size_t r = 1; r < 3; ++r) {
      if (IsHolder(*replicas[r])) {
        successor = replicas[r].get();
        return true;
      }
    }
    return false;
  })) << "no standby took over after the holder crash";
  auto failover = std::chrono::steady_clock::now() - crash;
  EXPECT_LT(failover, std::chrono::seconds(10))
      << "failover took as long as single-server recovery";

  // The VIP move: re-point the virtual server id at the new holder.
  client.transport().AddPeer(NodeId(1), successor->port());

  // The first write pays the inherited grant bound (the deferred
  // inheritance hold), not the max-granted-term wait, then commits.
  Result<WriteResult> write =
      client.Write(file, B("after-failover"), Duration::Seconds(30));
  ASSERT_TRUE(write.ok()) << write.error().ToString();
  EXPECT_GT(InheritedBound(*successor).ToMicros(), 0);
  EXPECT_LT(InheritedBound(*successor), Duration::Seconds(10));
  EXPECT_EQ(successor->stats().writes_committed, 1u);

  Result<ReadResult> again = client.Read(file, Duration::Seconds(10));
  ASSERT_TRUE(again.ok()) << again.error().ToString();
  EXPECT_EQ(std::string(again->data.begin(), again->data.end()),
            "after-failover");

  client.Stop();
  for (auto& replica : replicas) {
    replica->Stop();
  }
}

// A replica starts its authority plane only once every other replica is
// registered, so a cold start's first rounds reach their peers: no send
// fails for want of an address.
TEST(RuntimeReplica, ColdStartSendsNoRoundBeforePeersAreWired) {
  EngineConfig config;
  config.term = Duration::Seconds(10);
  config.replica.num_replicas = 3;
  std::vector<std::unique_ptr<RuntimeServer>> replicas;
  for (size_t r = 0; r < 3; ++r) {
    replicas.push_back(std::make_unique<RuntimeServer>(
        NodeId(1), config,
        RuntimeServer::ReplicaSlot{.index = r, .cold_boot = true}));
    ASSERT_TRUE(replicas[r]->Start().ok());
  }
  // Time for a round armed at Start to have run.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  WireReplicas(replicas);
  ASSERT_TRUE(WaitFor([&] { return IsHolder(*replicas[0]); }))
      << "seed replica never acquired the authority lease";
  EXPECT_GT(replicas[0]->stats().authority_rounds, 0u);
  for (auto& replica : replicas) {
    EXPECT_EQ(replica->stats().send_failures, 0u);
  }
  for (auto& replica : replicas) {
    replica->Stop();
  }
}

// Three replicas journal under their own directories; standby 2 is then
// stopped and restarted from its directory, as a new process would be
// (cold_boot = false: it may have voted before).
class RuntimeReplicaRestart : public ::testing::Test {
 protected:
  void TearDown() override {
    replicas_.clear();
    for (size_t r = 0; r < 3; ++r) {
      std::filesystem::remove_all(Dir(r));
    }
  }

  static std::string Dir(size_t r) {
    return "leases_runtime_replica." + std::to_string(::getpid()) + "." +
           std::to_string(r) + ".tmp";
  }

  // `wipe_dir` empties standby 2's directory before the restart, as a
  // replaced disk or a missing data_dir would.
  void StartThenRestartStandby(bool durable_acceptors, bool wipe_dir = false) {
    config_.term = Duration::Seconds(10);
    config_.replica.num_replicas = 3;
    config_.replica.durable_acceptors = durable_acceptors;
    for (size_t r = 0; r < 3; ++r) {
      std::filesystem::remove_all(Dir(r));
      replicas_.push_back(Replica(r, /*cold_boot=*/true));
      ASSERT_TRUE(replicas_[r]->Start(Dir(r)).ok());
    }
    WireReplicas(replicas_);
    ASSERT_TRUE(WaitFor([&] { return IsHolder(*replicas_[0]); }))
        << "seed replica never acquired the authority lease";

    replicas_[2].reset();  // the process exits; only its directory stays
    JournalBackend journal(Dir(2));
    ASSERT_TRUE(journal.Open().ok());
    DurableMeta meta(&journal);
    ASSERT_TRUE(meta.Reopen().ok());
    // The key ReplicaNode persists an acceptor's promised ballot under.
    promise_on_disk_ = meta.Load("auth_promised").has_value();
    if (wipe_dir) {
      std::filesystem::remove_all(Dir(2));
    }

    replicas_[2] = Replica(2, /*cold_boot=*/false);
    ASSERT_TRUE(replicas_[2]->Start(Dir(2)).ok());
    WireReplicas(replicas_);  // the restarted replica has a new port
  }

  std::unique_ptr<RuntimeServer> Replica(size_t index, bool cold_boot) {
    return std::make_unique<RuntimeServer>(
        NodeId(1), config_,
        RuntimeServer::ReplicaSlot{.index = index, .cold_boot = cold_boot});
  }

  EngineConfig config_;
  std::vector<std::unique_ptr<RuntimeServer>> replicas_;
  bool promise_on_disk_ = false;
};

// A durable acceptor's promises survive in its journal, so the restarted
// standby votes at once: with standby 1 gone too, the holder keeps its
// quorum only through the restarted replica, for two authority terms.
TEST_F(RuntimeReplicaRestart, DurableAcceptorVotesWithoutWarmup) {
  ASSERT_NO_FATAL_FAILURE(
      StartThenRestartStandby(/*durable_acceptors=*/true));
  EXPECT_TRUE(promise_on_disk_);
  EXPECT_EQ(replicas_[2]->stats().authority_warmup_waits, 0u);
  // A standby has no serving engine for WithServer to visit.
  int visited = 0;
  replicas_[2]->WithServer([&visited](LeaseServer&) { ++visited; });
  replicas_[0]->WithServer([&visited](LeaseServer&) { visited += 10; });
  EXPECT_EQ(visited, 10);

  replicas_[1]->Stop();
  uint64_t renewals = replicas_[0]->stats().authority_renewals;
  std::this_thread::sleep_for(std::chrono::microseconds(
      (config_.replica.authority_term * 2).ToMicros()));
  EXPECT_TRUE(IsHolder(*replicas_[0]));
  ServerStats holder = replicas_[0]->stats();
  EXPECT_EQ(holder.authority_stepdowns, 0u);
  EXPECT_GT(holder.authority_renewals, renewals);
}

// The contrast: a volatile acceptor forgot what it promised, so it sits
// out one authority term before it votes again.
TEST_F(RuntimeReplicaRestart, VolatileAcceptorWarmsUp) {
  ASSERT_NO_FATAL_FAILURE(
      StartThenRestartStandby(/*durable_acceptors=*/false));
  EXPECT_FALSE(promise_on_disk_);
  EXPECT_EQ(replicas_[2]->stats().authority_warmup_waits, 1u);
}

// A durable acceptor restarted from an emptied data_dir has forgotten its
// promises just like a volatile one, so it must warm up too, even though
// the host asserts it is not a cold boot.
TEST_F(RuntimeReplicaRestart, DurableAcceptorWithEmptiedDataDirWarmsUp) {
  ASSERT_NO_FATAL_FAILURE(StartThenRestartStandby(/*durable_acceptors=*/true,
                                                  /*wipe_dir=*/true));
  EXPECT_TRUE(promise_on_disk_);  // there was a promise to forget
  EXPECT_EQ(replicas_[2]->stats().authority_warmup_waits, 1u);
}

// The runtime host serves a replica on one shard; a sharded replica is
// refused before any socket is bound.
TEST(RuntimeReplica, StartRefusesShardedReplicas) {
  EngineConfig config;
  config.num_shards = 2;
  config.replica.num_replicas = 3;
  RuntimeServer server(NodeId(1), config);
  EXPECT_EQ(server.Start().code(), ErrorCode::kInvalidArgument);
  const std::string dir =
      "leases_runtime_sharded_replica." + std::to_string(::getpid()) + ".tmp";
  EXPECT_EQ(server.Start(dir).code(), ErrorCode::kInvalidArgument);
  EXPECT_FALSE(std::filesystem::exists(dir));
}

}  // namespace
}  // namespace leases
