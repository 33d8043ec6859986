// The sharded grant plane under real concurrency: several RuntimeClients
// hammer a sharded RuntimeServer over UDP, exercising every shard loop
// receiving from the one socket, deliveries run on the receiving thread
// under another shard's lock or posted to a busy shard's loop, the
// per-shard timers and every shard sending through one UDP transport at
// once. Run under TSan in
// the sanitizer tier (tools/run_sanitizer_tier.sh), this is the proof that
// the hot path is race-free.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "src/core/shard_router.h"
#include "src/runtime/event_loop.h"
#include "src/runtime/node.h"
#include "src/runtime/udp_transport.h"

namespace leases {
namespace {

std::vector<uint8_t> B(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

EngineConfig ShardedConfig(Duration term, size_t num_shards) {
  EngineConfig config;
  config.term = term;
  config.num_shards = num_shards;
  return config;
}

ClientParams TestClientParams() {
  ClientParams p;
  p.transit_allowance = Duration::Millis(50);
  p.epsilon = Duration::Millis(50);
  p.request_timeout = Duration::Millis(300);
  return p;
}

// One file per shard of a fresh `shards`-shard server, in shard order.
std::vector<FileId> FilePerShard(RuntimeServer& server, size_t shards) {
  std::vector<FileId> files;
  for (int i = 0; files.size() < shards; ++i) {
    FileId f = *server.store().CreatePath("/d/f" + std::to_string(i),
                                          FileClass::kNormal, B("seed"));
    if (ShardIndexOf(f, shards) == files.size()) {
      files.push_back(f);
    }
  }
  return files;
}

// Polls `cond` for up to 5 s.
bool Eventually(const std::function<bool()>& cond) {
  for (int i = 0; i < 1000 && !cond(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return cond();
}

TEST(ShardConcurrency, ClientsHammerAllShardsThroughBatchedUdp) {
  constexpr size_t kShards = 4;
  constexpr size_t kClients = 3;
  constexpr size_t kFiles = 16;
  constexpr int kRounds = 30;

  RuntimeServer server(NodeId(1),
                       ShardedConfig(Duration::Seconds(5), kShards));
  std::vector<FileId> files;
  for (size_t i = 0; i < kFiles; ++i) {
    files.push_back(*server.store().CreatePath(
        "/data/f" + std::to_string(i), FileClass::kNormal, B("seed")));
  }
  // The workload only exercises sharding if the files actually span shards.
  std::vector<bool> hit(kShards, false);
  for (FileId f : files) {
    hit[ShardIndexOf(f, kShards)] = true;
  }
  size_t shards_hit = 0;
  for (bool h : hit) {
    shards_hit += h ? 1 : 0;
  }
  ASSERT_GT(shards_hit, 1u);
  ASSERT_TRUE(server.Start().ok());

  std::vector<std::unique_ptr<RuntimeClient>> clients;
  for (size_t c = 0; c < kClients; ++c) {
    auto client = std::make_unique<RuntimeClient>(
        NodeId(2 + c), NodeId(1), server.store().root(), TestClientParams());
    ASSERT_TRUE(client->Start(server.port()).ok());
    server.AddPeer(NodeId(2 + c), client->port());
    clients.push_back(std::move(client));
  }

  // Each client thread walks the whole file set repeatedly -- every thread
  // touches every shard -- mixing cached reads, write-throughs (which fan
  // out approval traffic to the other leaseholders) and fresh reads.
  std::atomic<uint64_t> failures{0};
  std::atomic<uint64_t> writes_done{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c]() {
      RuntimeClient& client = *clients[c];
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < kFiles; ++i) {
          FileId file = files[i];
          if ((round + i) % (kClients + 1) == c) {
            std::string payload =
                "c" + std::to_string(c) + "r" + std::to_string(round);
            Result<WriteResult> w =
                client.Write(file, B(payload), Duration::Seconds(10));
            if (!w.ok()) {
              failures.fetch_add(1, std::memory_order_relaxed);
            } else {
              writes_done.fetch_add(1, std::memory_order_relaxed);
            }
          } else {
            Result<ReadResult> r = client.Read(file, Duration::Seconds(10));
            if (!r.ok()) {
              failures.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }

  EXPECT_EQ(failures.load(), 0u);
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.writes_committed, writes_done.load());
  EXPECT_GT(stats.reads_served, 0u);
  EXPECT_GT(stats.leases_granted, 0u);
  EXPECT_GT(server.processed(), 0u);
  EXPECT_EQ(stats.send_failures, 0u);

  // Every client converges on the same final contents once the dust settles:
  // write-through plus approval-invalidation means a fresh read cannot
  // return a stale version.
  for (FileId file : files) {
    Result<ReadResult> first = clients[0]->Read(file, Duration::Seconds(10));
    ASSERT_TRUE(first.ok());
    for (size_t c = 1; c < kClients; ++c) {
      Result<ReadResult> other =
          clients[c]->Read(file, Duration::Seconds(10));
      ASSERT_TRUE(other.ok());
      EXPECT_EQ(other->version, first->version);
    }
  }

  for (auto& client : clients) {
    client->Stop();
  }
  server.Stop();
}

TEST(ShardConcurrency, CrossShardBatchedExtendOverUdp) {
  // Short term so the client's whole working set lapses together; the
  // batched ExtendRequest then spans shards and exercises the split/merge
  // rendezvous with real shard loops replying through one transport.
  constexpr size_t kShards = 8;
  constexpr size_t kFiles = 12;

  RuntimeServer server(NodeId(1),
                       ShardedConfig(Duration::Millis(800), kShards));
  std::vector<FileId> files;
  for (size_t i = 0; i < kFiles; ++i) {
    files.push_back(*server.store().CreatePath(
        "/ext/f" + std::to_string(i), FileClass::kNormal, B("x")));
  }
  ASSERT_TRUE(server.Start().ok());

  RuntimeClient client(NodeId(2), NodeId(1), server.store().root(),
                       TestClientParams());
  ASSERT_TRUE(client.Start(server.port()).ok());
  server.AddPeer(NodeId(2), client.port());

  for (FileId f : files) {
    ASSERT_TRUE(client.Read(f, Duration::Seconds(10)).ok());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(1000));
  // All leases lapsed: the next read triggers one batched extension over
  // every held file, split across the shards and merged back into a single
  // reply the client can consume.
  ClientStats before = client.stats();
  for (FileId f : files) {
    ASSERT_TRUE(client.Read(f, Duration::Seconds(10)).ok());
  }
  ClientStats after = client.stats();
  EXPECT_GT(after.extend_requests, before.extend_requests);
  ServerStats stats = server.stats();
  EXPECT_GT(stats.extension_items, 0u);

  client.Stop();
  server.Stop();
}

// The shards of a sharded server all send through one UdpTransport. N
// threads sending through it at once must leave exact per-class sent
// counts, stats() must be safe to read mid-storm (this test runs under TSan
// in the sanitizer tier) and never go backwards, and every datagram must
// reach the sink.
TEST(ShardConcurrency, SharedTransportSendsAreExactUnderContention) {
  constexpr size_t kThreads = 8;
  constexpr uint64_t kSendsPerThreadPerClass = 2000;
  // Datagrams in flight at most (plus one per thread), so the sink's socket
  // buffer never overflows and the test counts sends, not kernel drops.
  constexpr uint64_t kWindow = 64;

  struct Counter : PacketHandler {
    std::atomic<uint64_t> count[kNumMessageClasses] = {};
    void HandlePacket(NodeId, MessageClass cls,
                      std::span<const uint8_t>) override {
      count[static_cast<int>(cls)].fetch_add(1);
    }
    uint64_t total() const {
      uint64_t sum = 0;
      for (const auto& c : count) {
        sum += c.load();
      }
      return sum;
    }
  } counter;

  EventLoop sink_loop;
  EventLoop loop;
  UdpTransport sink(NodeId(9), &sink_loop, &counter);
  ASSERT_TRUE(sink.Start().ok());
  UdpTransport transport(NodeId(10), &loop, nullptr);
  ASSERT_TRUE(transport.Start().ok());
  transport.AddPeer(NodeId(9), sink.port());

  std::atomic<bool> done{false};
  std::atomic<uint64_t> regressions{0};
  std::thread reader([&]() {
    uint64_t prev = 0;
    while (!done.load(std::memory_order_relaxed)) {
      uint64_t now = transport.stats().TotalSent();
      if (now < prev) {
        regressions.fetch_add(1, std::memory_order_relaxed);
      }
      prev = now;
    }
  });

  std::atomic<uint64_t> issued{0};
  auto send = [&](MessageClass cls, uint64_t i) {
    while (issued.load() >= counter.total() + kWindow) {
      std::this_thread::yield();
    }
    ReadRequest m;
    m.req = RequestId(i + 1);
    m.file = FileId(i + 1);
    transport.Send(NodeId(9), cls, Packet(std::move(m)));
    issued.fetch_add(1);
  };
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&]() {
      for (uint64_t i = 0; i < kSendsPerThreadPerClass; ++i) {
        send(MessageClass::kData, i);
        send(MessageClass::kConsistency, i);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  const NodeMessageStats sent = transport.stats();
  done.store(true, std::memory_order_relaxed);
  reader.join();

  const uint64_t expected = kThreads * kSendsPerThreadPerClass;
  for (int i = 0; i < 1000 && counter.total() < 2 * expected; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  for (MessageClass cls : {MessageClass::kData, MessageClass::kConsistency}) {
    const int c = static_cast<int>(cls);
    EXPECT_EQ(sent.sent[c], expected);
    EXPECT_EQ(counter.count[c].load(), expected);
    EXPECT_EQ(sink.stats().received[c], expected);
  }
  EXPECT_EQ(sent.send_failures, 0u);
  EXPECT_EQ(regressions.load(), 0u);

  transport.Stop();
  sink.Stop();
}

// A shard that stops draining sheds its input past kShardInboxLimit queued
// deliveries, counts every drop, and serves normally once it drains again.
TEST(ShardConcurrency, BlockedShardDropsInboundAndRecovers) {
  constexpr size_t kShards = 2;
  RuntimeServer server(NodeId(1),
                       ShardedConfig(Duration::Seconds(5), kShards));
  std::vector<FileId> files = FilePerShard(server, kShards);
  ASSERT_TRUE(server.Start().ok());
  LeaseServer* shard1 = &server.engine().sharded()->shard(1);

  // Park shard 1's loop inside WithServer until released.
  std::promise<void> parked;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::thread blocker([&]() {
    server.WithServer([&](LeaseServer& shard) {
      if (&shard == shard1) {
        parked.set_value();
        released.wait();
      }
    });
  });
  parked.get_future().wait();

  // Read requests for shard 1's file from a bare transport, paced so the
  // server's socket keeps up, until the shard's inbox overflows.
  EventLoop flood_loop;
  UdpTransport flood(NodeId(7), &flood_loop, nullptr);
  ASSERT_TRUE(flood.Start().ok());
  flood.AddPeer(NodeId(1), server.port());
  server.AddPeer(NodeId(7), flood.port());
  uint64_t sent = 0;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (server.dropped() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    ReadRequest m;
    m.req = RequestId(++sent);
    m.file = files[1];
    flood.Send(NodeId(1), MessageClass::kData, Packet(std::move(m)));
    if (sent % 16 == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  EXPECT_GT(sent, RuntimeServer::kShardInboxLimit);
  EXPECT_GT(server.dropped(), 0u);
  release.set_value();
  blocker.join();

  EXPECT_EQ(server.stats().inbound_drops, server.dropped());
  EXPECT_GT(server.stats().inbound_drops, 0u);
  RuntimeClient client(NodeId(2), NodeId(1), server.store().root(),
                       TestClientParams());
  ASSERT_TRUE(client.Start(server.port()).ok());
  server.AddPeer(NodeId(2), client.port());
  for (FileId f : files) {
    Result<ReadResult> r = client.Read(f, Duration::Seconds(10));
    ASSERT_TRUE(r.ok()) << r.error().ToString();
    EXPECT_EQ(std::string(r->data.begin(), r->data.end()), "seed");
  }
  // The flood holds leases on shard 1's file, so write shard 0's.
  Result<WriteResult> w =
      client.Write(files[0], B("after"), Duration::Seconds(10));
  ASSERT_TRUE(w.ok()) << w.error().ToString();
  // Everything admitted to shard 1's inbox ran once it drained.
  EXPECT_GE(server.processed(), RuntimeServer::kShardInboxLimit);

  client.Stop();
  flood.Stop();
  server.Stop();
}

// A busy shard holds up only its own files. While shard 1's loop is held
// for 300 ms, writes to shard 0's file finish at normal latency, and a
// write to shard 1's file waits behind the hold and then finishes without
// a retransmit.
TEST(ShardConcurrency, BusyShardHoldsUpOnlyItsOwnFiles) {
  constexpr size_t kShards = 2;
  constexpr auto kHold = std::chrono::milliseconds(300);
  RuntimeServer server(NodeId(1),
                       ShardedConfig(Duration::Seconds(5), kShards));
  std::vector<FileId> files = FilePerShard(server, kShards);
  ASSERT_TRUE(server.Start().ok());
  LeaseServer* shard1 = &server.engine().sharded()->shard(1);

  // The retransmit timer outlasts the hold, so a retransmit would mean the
  // delivery was lost, not late.
  ClientParams params = TestClientParams();
  params.request_timeout = Duration::Seconds(2);
  RuntimeClient fast(NodeId(2), NodeId(1), server.store().root(), params);
  RuntimeClient slow(NodeId(3), NodeId(1), server.store().root(), params);
  for (RuntimeClient* client : {&fast, &slow}) {
    ASSERT_TRUE(client->Start(server.port()).ok());
  }
  server.AddPeer(NodeId(2), fast.port());
  server.AddPeer(NodeId(3), slow.port());
  ASSERT_TRUE(fast.Write(files[0], B("warm"), Duration::Seconds(10)).ok());
  ASSERT_TRUE(slow.Write(files[1], B("warm"), Duration::Seconds(10)).ok());

  std::promise<std::chrono::steady_clock::time_point> parked;
  auto hold_start = parked.get_future();
  std::thread blocker([&]() {
    server.WithServer([&](LeaseServer& shard) {
      if (&shard == shard1) {
        parked.set_value(std::chrono::steady_clock::now());
        std::this_thread::sleep_for(kHold);
      }
    });
  });
  const auto held_at = hold_start.get();
  auto slow_write =
      std::async(std::launch::async, [&]() -> std::chrono::milliseconds {
        Result<WriteResult> w =
            slow.Write(files[1], B("held"), Duration::Seconds(10));
        EXPECT_TRUE(w.ok()) << w.error().ToString();
        return std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - held_at);
      });

  std::chrono::steady_clock::duration worst{};
  int fast_writes = 0;
  while (std::chrono::steady_clock::now() - held_at < kHold / 2) {
    auto start = std::chrono::steady_clock::now();
    Result<WriteResult> w = fast.Write(
        files[0], B("w" + std::to_string(fast_writes)), Duration::Seconds(10));
    ASSERT_TRUE(w.ok()) << w.error().ToString();
    worst = std::max(worst, std::chrono::steady_clock::now() - start);
    ++fast_writes;
  }
  EXPECT_GT(fast_writes, 1);
  EXPECT_LT(worst, kHold / 3) << "a shard-0 write waited on shard 1";
  EXPECT_GE(slow_write.get(), kHold - std::chrono::milliseconds(20))
      << "the shard-1 write ran while its shard was held";
  blocker.join();
  EXPECT_EQ(slow.stats().retransmits, 0u);
  EXPECT_EQ(fast.stats().retransmits, 0u);
  EXPECT_EQ(server.dropped(), 0u);

  fast.Stop();
  slow.Stop();
  server.Stop();
}

// Stop unwatches the socket from every shard loop. Under a flood of
// requests that keeps every loop's drain busy, it still returns promptly.
TEST(ShardConcurrency, StopReturnsPromptlyUnderADatagramFlood) {
  constexpr size_t kShards = 2;
  RuntimeServer server(NodeId(1),
                       ShardedConfig(Duration::Seconds(5), kShards));
  std::vector<FileId> files = FilePerShard(server, kShards);
  ASSERT_TRUE(server.Start().ok());
  EventLoop flood_loop;
  UdpTransport flood(NodeId(7), &flood_loop, nullptr);
  ASSERT_TRUE(flood.Start().ok());
  flood.AddPeer(NodeId(1), server.port());
  server.AddPeer(NodeId(7), flood.port());

  std::atomic<bool> flooding{true};
  std::thread sender([&]() {
    uint64_t sent = 0;
    while (flooding.load(std::memory_order_relaxed)) {
      ReadRequest m;
      m.req = RequestId(++sent);
      m.file = files[sent % kShards];
      flood.Send(NodeId(1), MessageClass::kData, Packet(std::move(m)));
    }
  });
  ASSERT_TRUE(Eventually([&]() { return server.processed() > 1000; }));
  auto start = std::chrono::steady_clock::now();
  server.Stop();
  auto took = std::chrono::steady_clock::now() - start;
  flooding = false;
  sender.join();
  EXPECT_LT(took, std::chrono::seconds(1));
  flood.Stop();
}

}  // namespace
}  // namespace leases
