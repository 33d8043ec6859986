// The lease protocol over real UDP sockets and real timers: the same state
// machines as the simulation, on the localhost runtime. The fixture and
// durability cases run against every host shape: one shard, two shards on
// two event loops, and the single-replica authority shell.
#include <gtest/gtest.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <ostream>
#include <random>
#include <string>
#include <thread>

#include "src/runtime/node.h"

namespace leases {
namespace {

std::vector<uint8_t> B(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

// The server shape under test: 0 replicas is the unreplicated host.
struct HostShape {
  size_t shards = 1;
  size_t replicas = 0;
};

// The instantiation name says which count the printed number is:
// Shards/...<shards> or Replicas/...<replicas>.
void PrintTo(const HostShape& shape, std::ostream* os) {
  *os << (shape.replicas > 0 ? shape.replicas : shape.shards);
}

EngineConfig ServerConfig(Duration term, HostShape shape = {}) {
  EngineConfig config;
  config.term = term;
  config.num_shards = shape.shards;
  config.replica.num_replicas = shape.replicas;
  return config;
}

class RuntimeFixture : public ::testing::TestWithParam<HostShape> {
 protected:
  void SetUp() override {
    server = std::make_unique<RuntimeServer>(
        NodeId(1), ServerConfig(Duration::Seconds(2), GetParam()));
    file = *server->store().CreatePath("/data/hello", FileClass::kNormal,
                                       B("world"));
    ASSERT_TRUE(server->Start().ok());

    ClientParams client_params;
    client_params.transit_allowance = Duration::Millis(50);
    client_params.epsilon = Duration::Millis(50);
    client_params.request_timeout = Duration::Millis(300);
    client = std::make_unique<RuntimeClient>(
        NodeId(2), NodeId(1), server->store().root(), client_params);
    ASSERT_TRUE(client->Start(server->port()).ok());
    server->AddPeer(NodeId(2), client->port());
  }

  void TearDown() override {
    client->Stop();
    server->Stop();
  }

  std::unique_ptr<RuntimeServer> server;
  std::unique_ptr<RuntimeClient> client;
  FileId file;
};

TEST_P(RuntimeFixture, OpenReadWriteOverSockets) {
  Result<OpenResult> open = client->Open("/data/hello");
  ASSERT_TRUE(open.ok()) << open.error().ToString();
  EXPECT_EQ(open->file, file);

  Result<ReadResult> read = client->Read(file);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(std::string(read->data.begin(), read->data.end()), "world");
  EXPECT_FALSE(read->from_cache);

  Result<WriteResult> write = client->Write(file, B("there"));
  ASSERT_TRUE(write.ok());
  EXPECT_EQ(write->version, 2u);

  Result<ReadResult> again = client->Read(file);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->from_cache);  // lease still valid on a real clock
  EXPECT_EQ(std::string(again->data.begin(), again->data.end()), "there");
}

TEST_P(RuntimeFixture, LeaseExpiresOnRealClock) {
  ASSERT_TRUE(client->Read(file).ok());
  ClientStats before = client->stats();
  EXPECT_EQ(before.extend_requests, 0u);
  // Term is 2 s; after 2.2 s the lease must have lapsed.
  std::this_thread::sleep_for(std::chrono::milliseconds(2200));
  Result<ReadResult> read = client->Read(file);
  ASSERT_TRUE(read.ok());
  EXPECT_FALSE(read->from_cache);
  EXPECT_EQ(client->stats().extend_requests, 1u);
}

TEST_P(RuntimeFixture, RetransmissionSurvivesDatagramLoss) {
  // Drop every 2nd outgoing datagram from the client; retries (same request
  // id, server-side dedup) must still complete every operation exactly once.
  client->WithClient([](CacheClient&) {});
  client->faults().set_drop_every_nth(2);
  Result<WriteResult> w1 = client->Write(file, B("v2"), Duration::Seconds(10));
  ASSERT_TRUE(w1.ok()) << w1.error().ToString();
  Result<WriteResult> w2 = client->Write(file, B("v3"), Duration::Seconds(10));
  ASSERT_TRUE(w2.ok());
  EXPECT_EQ(w2->version, w1->version + 1);  // no double-commit from retries
  Result<ReadResult> read = client->Read(file, Duration::Seconds(10));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(std::string(read->data.begin(), read->data.end()), "v3");
  EXPECT_GT(client->stats().retransmits, 0u);
}

TEST_P(RuntimeFixture, DuplicatedAndDelayedDatagramsAreHarmless) {
  // Duplicate half the client's datagrams and jitter a third of them; the
  // request-id dedup and version-monotonic reply handling must keep every
  // operation exactly-once over the real backend.
  TransportFaults faults;
  faults.dup_prob = 0.5;
  faults.dup_delay_max = Duration::Millis(5);
  faults.delay_prob = 0.3;
  faults.delay_max = Duration::Millis(5);
  faults.seed = 42;
  client->faults().SetFaults(faults);
  Result<WriteResult> w1 = client->Write(file, B("d2"), Duration::Seconds(10));
  ASSERT_TRUE(w1.ok()) << w1.error().ToString();
  Result<WriteResult> w2 = client->Write(file, B("d3"), Duration::Seconds(10));
  ASSERT_TRUE(w2.ok());
  EXPECT_EQ(w2->version, w1->version + 1);  // duplicates never double-commit
  Result<ReadResult> read = client->Read(file, Duration::Seconds(10));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(std::string(read->data.begin(), read->data.end()), "d3");
}

INSTANTIATE_TEST_SUITE_P(Shards, RuntimeFixture,
                         ::testing::Values(HostShape{1, 0}, HostShape{2, 0}),
                         ::testing::PrintToStringParamName());
INSTANTIATE_TEST_SUITE_P(Replicas, RuntimeFixture,
                         ::testing::Values(HostShape{1, 1}),
                         ::testing::PrintToStringParamName());

// A caller blocked on a remote op reads the client socket itself (the
// leader), with the loop's watch of it paused. Everything the socket
// carries meanwhile must still be handled, and a completion on the loop
// thread must still wake the caller.
class RuntimeLeader : public ::testing::TestWithParam<HostShape> {
 protected:
  void SetUp() override {
    server = std::make_unique<RuntimeServer>(
        NodeId(1), ServerConfig(Duration::Seconds(10), GetParam()));
    x = *server->store().CreatePath("/x", FileClass::kNormal, B("x1"));
    y = *server->store().CreatePath("/y", FileClass::kNormal, B("y1"));
    ASSERT_TRUE(server->Start().ok());
  }

  void TearDown() override {
    for (auto& client : clients) {
      client->Stop();
    }
    server->Stop();
  }

  RuntimeClient& AddClient(NodeId id, ClientParams params) {
    params.transit_allowance = Duration::Millis(50);
    params.epsilon = Duration::Millis(50);
    clients.push_back(std::make_unique<RuntimeClient>(
        id, NodeId(1), server->store().root(), params));
    EXPECT_TRUE(clients.back()->Start(server->port()).ok());
    server->AddPeer(id, clients.back()->port());
    return *clients.back();
  }

  std::unique_ptr<RuntimeServer> server;
  std::vector<std::unique_ptr<RuntimeClient>> clients;
  FileId x;
  FileId y;
};

// The paper's write path (section 2): a writer waits on every holder's
// approval. A's write of X waits ~2 s on C's approval, C's sends held back
// meanwhile. B then writes Y, which A holds: A's approval must come from
// A's waiting caller at once, not from Y's 10 s lease running out.
TEST_P(RuntimeLeader, ApprovalAnsweredWhileCallerWaitsRemote) {
  RuntimeClient& a = AddClient(NodeId(2), ClientParams{});
  RuntimeClient& b = AddClient(NodeId(3), ClientParams{});
  RuntimeClient& c = AddClient(NodeId(4), ClientParams{});
  ASSERT_TRUE(c.Read(x).ok());
  ASSERT_TRUE(a.Read(y).ok());

  const auto start = std::chrono::steady_clock::now();
  c.faults().SetPeerBlocked(NodeId(1), true);  // C's approvals are held back
  std::atomic<bool> a_done{false};
  Result<WriteResult> a_write = Error{ErrorCode::kTimeout, "not run"};
  std::thread writer([&]() {
    a_write = a.Write(x, B("x2"));
    a_done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));  // A leads
  ASSERT_FALSE(a_done);

  const auto b_start = std::chrono::steady_clock::now();
  Result<WriteResult> b_write = b.Write(y, B("y2"));
  const auto b_took = std::chrono::steady_clock::now() - b_start;
  ASSERT_TRUE(b_write.ok()) << b_write.error().ToString();
  EXPECT_LT(b_took, std::chrono::milliseconds(1000));
  EXPECT_FALSE(a_done);  // A was still waiting on C throughout

  std::this_thread::sleep_until(start + std::chrono::seconds(2));
  c.faults().SetPeerBlocked(NodeId(1), false);  // the next retry gets through
  writer.join();
  ASSERT_TRUE(a_write.ok()) << a_write.error().ToString();
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(2));
  EXPECT_EQ(a.stats().approvals_granted, 1u);
  EXPECT_GE(c.stats().approvals_granted, 1u);  // one per approval retry
  Result<ReadResult> read = a.Read(y);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(std::string(read->data.begin(), read->data.end()), "y2");
}

// Every reply to A is lost: the CacheClient gives up on its own retry
// timer, on the loop thread, and that must wake the waiting caller then,
// not at the wrapper's 30 s deadline.
TEST_P(RuntimeLeader, ClientGiveUpWakesWaitingCaller) {
  ClientParams params;
  params.request_timeout = Duration::Millis(100);
  params.max_retries = 2;
  RuntimeClient& a = AddClient(NodeId(2), params);
  server->faults().SetPeerBlocked(NodeId(2), true);
  const auto start = std::chrono::steady_clock::now();
  Result<WriteResult> write = a.Write(x, B("x2"));
  const auto took = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(write.ok());
  EXPECT_EQ(write.error().code, ErrorCode::kTimeout);
  // Three attempts of 100 ms +/-25% each.
  EXPECT_GE(took, std::chrono::milliseconds(200));
  EXPECT_LT(took, std::chrono::seconds(3));
  EXPECT_EQ(a.stats().timeouts, 1u);
  // The socket is handed back to the loop: the next call goes through.
  server->faults().SetPeerBlocked(NodeId(2), false);
  Result<ReadResult> read = a.Read(y, Duration::Seconds(10));
  ASSERT_TRUE(read.ok()) << read.error().ToString();
  EXPECT_EQ(std::string(read->data.begin(), read->data.end()), "y1");
}

INSTANTIATE_TEST_SUITE_P(Shards, RuntimeLeader,
                         ::testing::Values(HostShape{1, 0}, HostShape{2, 0}),
                         ::testing::PrintToStringParamName());
INSTANTIATE_TEST_SUITE_P(Replicas, RuntimeLeader,
                         ::testing::Values(HostShape{1, 1}),
                         ::testing::PrintToStringParamName());

TEST(RuntimeMultiClient, SharedWriteInvalidatesOtherClient) {
  RuntimeServer server(NodeId(1), ServerConfig(Duration::Seconds(5)));
  FileId file = *server.store().CreatePath("/shared", FileClass::kNormal,
                                           B("v1"));
  ASSERT_TRUE(server.Start().ok());

  ClientParams params;
  params.transit_allowance = Duration::Millis(50);
  params.epsilon = Duration::Millis(50);
  RuntimeClient a(NodeId(2), NodeId(1), server.store().root(), params);
  RuntimeClient b(NodeId(3), NodeId(1), server.store().root(), params);
  ASSERT_TRUE(a.Start(server.port()).ok());
  ASSERT_TRUE(b.Start(server.port()).ok());
  server.AddPeer(NodeId(2), a.port());
  server.AddPeer(NodeId(3), b.port());

  ASSERT_TRUE(a.Read(file).ok());
  ASSERT_TRUE(b.Read(file).ok());

  // B writes; A must be consulted (real callback round over UDP) and its
  // copy invalidated.
  Result<WriteResult> w = b.Write(file, B("v2"));
  ASSERT_TRUE(w.ok()) << w.error().ToString();

  Result<ReadResult> read = a.Read(file);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(std::string(read->data.begin(), read->data.end()), "v2");
  EXPECT_FALSE(read->from_cache);
  EXPECT_EQ(a.stats().approvals_granted, 1u);

  a.Stop();
  b.Stop();
  server.Stop();
}

// Several caller threads share one RuntimeClient -- their calls run inline,
// on their own threads -- while a second client writes the same files, so
// approval callbacks and invalidations run on the loop thread in between.
// Every call must complete, each thread must see every file's version never
// go backwards, and a read issued after a write's ack must return at least
// that version (the paper's invariant, over real sockets).
TEST(RuntimeConcurrency, InlineCallersShareAClientWhileAnotherWrites) {
  constexpr int kFiles = 4;
  constexpr int kCallers = 3;
  const auto run_for = std::chrono::milliseconds(1500);

  RuntimeServer server(NodeId(1), ServerConfig(Duration::Seconds(2)));
  std::array<FileId, kFiles> files;
  for (int f = 0; f < kFiles; ++f) {
    files[f] = *server.store().CreatePath("/f" + std::to_string(f),
                                          FileClass::kNormal, B("seed"));
  }
  ASSERT_TRUE(server.Start().ok());
  ClientParams params;
  params.transit_allowance = Duration::Millis(50);
  params.epsilon = Duration::Millis(50);
  RuntimeClient shared(NodeId(2), NodeId(1), server.store().root(), params);
  RuntimeClient writer(NodeId(3), NodeId(1), server.store().root(), params);
  ASSERT_TRUE(shared.Start(server.port()).ok());
  ASSERT_TRUE(writer.Start(server.port()).ok());
  server.AddPeer(NodeId(2), shared.port());
  server.AddPeer(NodeId(3), writer.port());

  // Highest version acked to any writer, per file.
  std::array<std::atomic<uint64_t>, kFiles> acked{};
  auto note_ack = [&](int f, uint64_t version) {
    uint64_t seen = acked[f].load();
    while (seen < version && !acked[f].compare_exchange_weak(seen, version)) {
    }
  };
  std::atomic<int> failures{0};
  std::atomic<int> stale{0};
  std::atomic<int> regressions{0};
  std::atomic<int> reads{0};
  std::atomic<bool> stop{false};

  std::thread write_loop([&]() {
    for (int i = 0; !stop; ++i) {
      int f = i % kFiles;
      Result<WriteResult> w =
          writer.Write(files[f], B("w" + std::to_string(i)));
      if (!w.ok()) {
        ++failures;
        continue;
      }
      note_ack(f, w->version);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t]() {
      std::mt19937 rng(static_cast<uint32_t>(t) + 1);
      std::array<uint64_t, kFiles> last{};
      while (!stop) {
        int f = static_cast<int>(rng() % kFiles);
        if (rng() % 10 == 0) {
          Result<WriteResult> w = shared.Write(files[f], B("s"));
          if (!w.ok()) {
            ++failures;
            continue;
          }
          note_ack(f, w->version);
          continue;
        }
        uint64_t floor = acked[f].load();
        Result<ReadResult> r = shared.Read(files[f]);
        if (!r.ok()) {
          ++failures;
          continue;
        }
        ++reads;
        stale += r->version < floor ? 1 : 0;
        regressions += r->version < last[f] ? 1 : 0;
        last[f] = std::max(last[f], r->version);
      }
    });
  }
  std::this_thread::sleep_for(run_for);
  stop = true;
  write_loop.join();
  for (std::thread& t : callers) {
    t.join();
  }

  EXPECT_EQ(failures, 0);
  EXPECT_EQ(shared.stats().timeouts + writer.stats().timeouts, 0u);
  EXPECT_EQ(stale, 0);
  EXPECT_EQ(regressions, 0);
  EXPECT_GT(reads, 0);
  EXPECT_GT(shared.stats().approvals_granted, 0u);  // the race was exercised
  shared.Stop();
  writer.Stop();
  server.Stop();
}

// A blocking call from the loop thread could never complete (the thread
// that would deliver its reply is the one waiting), so it aborts at once.
TEST(RuntimeDeathTest, ReadFromInsideWithClientAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        RuntimeServer server(NodeId(1), ServerConfig(Duration::Seconds(2)));
        FileId file = *server.store().CreatePath("/f", FileClass::kNormal,
                                                 B("x"));
        if (!server.Start().ok()) {
          return;
        }
        RuntimeClient client(NodeId(2), NodeId(1), server.store().root(),
                             ClientParams{});
        if (!client.Start(server.port()).ok()) {
          return;
        }
        client.WithClient([&](CacheClient&) { (void)client.Read(file); });
      },
      "InLoopThread");
}

class RuntimeDurability : public ::testing::TestWithParam<HostShape> {};

TEST_P(RuntimeDurability, RestartedServerRecoversGrantWindowFromDataDir) {
  const size_t shards = GetParam().shards;
  const std::string dir =
      "leases_runtime_durable." + std::to_string(::getpid()) + ".tmp";
  std::filesystem::remove_all(dir);
  ClientParams client_params;
  client_params.transit_allowance = Duration::Millis(50);
  client_params.epsilon = Duration::Millis(50);

  // First incarnation journals its recovery state under `dir`; a client
  // read leaves a 1 s lease granted.
  {
    RuntimeServer server(NodeId(1),
                         ServerConfig(Duration::Seconds(1), GetParam()));
    FileId file = *server.store().CreatePath("/data/hello",
                                             FileClass::kNormal, B("v1"));
    ASSERT_TRUE(server.Start(dir).ok());
    RuntimeClient client(NodeId(2), NodeId(1), server.store().root(),
                         client_params);
    ASSERT_TRUE(client.Start(server.port()).ok());
    server.AddPeer(NodeId(2), client.port());
    ASSERT_TRUE(client.Read(file).ok());
    EXPECT_EQ(server.stats().recoveries, 0u);  // fresh boot, nothing durable
    EXPECT_GT(server.stats().journal_appends, 0u);
    client.Stop();
    server.Stop();
    // The server process dies here; only `dir` survives.
  }
  // A sharded server journals each shard in its own subdirectory.
  EXPECT_EQ(std::filesystem::exists(dir + "/shard-1"), shards > 1);

  // Second incarnation over the same directory: it must find the durable
  // state, advance the boot counter, and hold writes for the granted term.
  RuntimeServer reborn(NodeId(1),
                       ServerConfig(Duration::Seconds(1), GetParam()));
  FileId file = *reborn.store().CreatePath("/data/hello", FileClass::kNormal,
                                           B("v1"));
  ASSERT_TRUE(reborn.Start(dir).ok());
  ServerStats stats = reborn.stats();
  EXPECT_EQ(stats.recoveries, shards);  // every shard journals a boot count
  EXPECT_EQ(stats.recovery_window, Duration::Seconds(1));
  EXPECT_GE(stats.journal_replays, 1u);
  EXPECT_GT(stats.journal_replayed_records, 0u);
  // The shard that granted the lease holds writes for its term.
  bool in_recovery = false;
  reborn.WithServer(
      [&](LeaseServer& s) { in_recovery = in_recovery || s.InRecovery(); });
  EXPECT_TRUE(in_recovery);

  // A write during the window is held, not lost: it commits once the
  // pre-crash grant has provably expired.
  RuntimeClient client(NodeId(2), NodeId(1), reborn.store().root(),
                       client_params);
  ASSERT_TRUE(client.Start(reborn.port()).ok());
  reborn.AddPeer(NodeId(2), client.port());
  auto begin = std::chrono::steady_clock::now();
  Result<WriteResult> w = client.Write(file, B("v2"), Duration::Seconds(10));
  ASSERT_TRUE(w.ok()) << w.error().ToString();
  EXPECT_GT(std::chrono::steady_clock::now() - begin,
            std::chrono::milliseconds(200));
  client.Stop();
  reborn.Stop();
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Shards, RuntimeDurability,
                         ::testing::Values(HostShape{1, 0}, HostShape{2, 0}),
                         ::testing::PrintToStringParamName());
INSTANTIATE_TEST_SUITE_P(Replicas, RuntimeDurability,
                         ::testing::Values(HostShape{1, 1}),
                         ::testing::PrintToStringParamName());

}  // namespace
}  // namespace leases
