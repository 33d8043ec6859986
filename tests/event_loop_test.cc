// Unit tests for the real-time event loop, UDP transport and the
// fault-injection decorator over the real backend.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <thread>

#include "src/net/faulty_transport.h"
#include "src/runtime/event_loop.h"
#include "src/runtime/udp_transport.h"

namespace leases {
namespace {

TEST(EventLoopTest, PostedTasksRunInOrder) {
  EventLoop loop;
  std::vector<int> order;
  std::atomic<bool> done{false};
  loop.Post([&]() { order.push_back(1); });
  loop.Post([&]() { order.push_back(2); });
  loop.Post([&]() {
    order.push_back(3);
    done = true;
  });
  while (!done) {
    std::this_thread::yield();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoopTest, RunSyncWaitsForCompletion) {
  EventLoop loop;
  int value = 0;
  loop.RunSync([&]() { value = 42; });
  EXPECT_EQ(value, 42);  // no race: RunSync returns after execution
  EXPECT_FALSE(loop.InLoopThread());
  bool in_loop = false;
  loop.RunSync([&]() { in_loop = loop.InLoopThread(); });
  EXPECT_TRUE(in_loop);
}

TEST(EventLoopTest, TimerFiresApproximatelyOnTime) {
  EventLoop loop;
  std::atomic<bool> fired{false};
  auto start = std::chrono::steady_clock::now();
  std::atomic<int64_t> elapsed_ms{0};
  loop.ScheduleAfter(Duration::Millis(50), [&]() {
    elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
    fired = true;
  });
  for (int i = 0; i < 200 && !fired; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(fired);
  EXPECT_GE(elapsed_ms, 45);
  EXPECT_LE(elapsed_ms, 500);  // generous for loaded CI machines
}

TEST(EventLoopTest, TimersFireInDeadlineOrder) {
  EventLoop loop;
  std::vector<int> order;
  std::atomic<bool> done{false};
  loop.ScheduleAfter(Duration::Millis(60), [&]() {
    order.push_back(2);
    done = true;
  });
  loop.ScheduleAfter(Duration::Millis(20), [&]() { order.push_back(1); });
  for (int i = 0; i < 200 && !done; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(done);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventLoopTest, CancelledTimerDoesNotFire) {
  EventLoop loop;
  std::atomic<bool> fired{false};
  TimerId id = loop.ScheduleAfter(Duration::Millis(30),
                                  [&]() { fired = true; });
  EXPECT_TRUE(loop.CancelTimer(id));
  EXPECT_FALSE(loop.CancelTimer(id));
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_FALSE(fired);
}

TEST(EventLoopTest, StopIsIdempotentAndDropsPendingWork) {
  auto loop = std::make_unique<EventLoop>();
  std::atomic<bool> fired{false};
  loop->ScheduleAfter(Duration::Seconds(30), [&]() { fired = true; });
  loop->Stop();
  loop->Stop();
  loop.reset();
  EXPECT_FALSE(fired);
}

// RunInline runs on the caller's thread, yet under the same execution lock
// as the loop's own work: a plain int bumped from N threads through
// RunInline and from posted tasks must land on the exact total (and TSan,
// in the sanitizer tier, must see no race on it).
TEST(EventLoopTest, RunInlineSerializesWithPostedTasksAcrossThreads) {
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  constexpr int kPostEvery = 8;
  EventLoop loop;
  int counter = 0;  // deliberately unsynchronized
  std::atomic<int> off_thread{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&]() {
      const std::thread::id self = std::this_thread::get_id();
      for (int i = 0; i < kIters; ++i) {
        loop.RunInline([&]() {
          ++counter;
          if (std::this_thread::get_id() != self) {
            ++off_thread;
          }
        });
        if (i % kPostEvery == 0) {
          loop.Post([&counter]() { ++counter; });
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  int total = 0;
  loop.RunSync([&]() { total = counter; });  // queued after every Post
  EXPECT_EQ(total, kThreads * kIters + kThreads * (kIters / kPostEvery));
  EXPECT_EQ(off_thread, 0);
}

// After UnwatchFd returns, the fd callback is not running and never runs
// again -- even while datagrams keep the fd readable.
TEST(EventLoopTest, UnwatchFdStopsCallbacksUnderDatagramFlood) {
  constexpr int kRepetitions = 1000;
  int rx = ::socket(AF_INET, SOCK_DGRAM, 0);
  int tx = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(rx, 0);
  ASSERT_GE(tx, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(rx, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(rx, reinterpret_cast<sockaddr*>(&addr), &len), 0);

  std::atomic<bool> flooding{true};
  std::thread flood([&]() {
    uint8_t byte = 0;
    while (flooding) {
      ::sendto(tx, &byte, 1, 0, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr));
    }
  });

  EventLoop loop;
  std::atomic<bool> unwatched{false};
  std::atomic<int> late_calls{0};
  std::atomic<int> calls{0};
  for (int rep = 0; rep < kRepetitions; ++rep) {
    unwatched = false;
    loop.WatchFd(rx, [&]() {
      ++calls;
      if (unwatched) {
        ++late_calls;
      }
      uint8_t buf[16];
      for (int i = 0; i < 16; ++i) {
        if (::recv(rx, buf, sizeof(buf), MSG_DONTWAIT) <= 0) {
          break;
        }
      }
      // Linger so UnwatchFd often lands mid-callback.
      auto until = std::chrono::steady_clock::now() +
                   std::chrono::microseconds(20);
      while (std::chrono::steady_clock::now() < until) {
      }
      if (unwatched) {
        ++late_calls;
      }
    });
    // Unwatch while the flood keeps the callback running.
    int seen = calls.load();
    auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(1);
    while (calls.load() == seen && std::chrono::steady_clock::now() < give_up) {
      std::this_thread::yield();
    }
    loop.UnwatchFd(rx);
    unwatched = true;
  }
  // Give a stale callback every chance to show up before checking.
  loop.RunSync([]() {});
  flooding = false;
  flood.join();
  EXPECT_EQ(late_calls, 0);
  EXPECT_GE(calls, kRepetitions);  // the flood kept the callback busy
  ::close(tx);
  ::close(rx);
}

// Post wakes the loop only while it sleeps; a ping-pong that races each
// Post against the loop going back to sleep must never strand a task.
TEST(EventLoopTest, PostPingPongNeverLosesAWakeUp) {
  constexpr int kRounds = 100000;
  EventLoop loop;
  int posted = 0;  // loop-side only
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kRounds; ++i) {
    loop.Post([&posted]() { ++posted; });
    // RunSync's round trip, but with a deadline: a lost wake-up fails the
    // test instead of hanging it.
    auto seen = std::make_shared<std::promise<int>>();
    std::future<int> reply = seen->get_future();
    loop.Post([seen, &posted]() { seen->set_value(posted); });
    ASSERT_EQ(reply.wait_for(std::chrono::seconds(5)),
              std::future_status::ready)
        << "round " << i << " stranded: a wake-up was lost";
    ASSERT_EQ(reply.get(), i + 1);
  }
  int total = 0;
  loop.RunSync([&]() { total = posted; });
  EXPECT_EQ(total, kRounds);
  // ~2 s on a 4-core VM; the bound leaves room for sanitizer builds.
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(120));
}

// ScheduleAfter wakes the loop only for a deadline earlier than the one it
// sleeps to -- which must still happen.
TEST(EventLoopTest, EarlierTimerWakesLoopSleepingOnALaterOne) {
  EventLoop loop;
  loop.ScheduleAfter(Duration::Seconds(10), []() {});
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // now asleep
  std::atomic<bool> fired{false};
  std::atomic<int64_t> elapsed_us{0};
  auto start = std::chrono::steady_clock::now();
  loop.ScheduleAfter(Duration::Millis(20), [&]() {
    elapsed_us = std::chrono::duration_cast<std::chrono::microseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
    fired = true;
  });
  for (int i = 0; i < 400 && !fired; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(fired);
  EXPECT_GE(elapsed_us, 20000);
  EXPECT_LE(elapsed_us, 250000);  // on time, not at the 10 s deadline
}

// A bound loopback UDP socket and a sender aimed at it, for the fd-watch
// cases below.
struct LoopbackPair {
  LoopbackPair() {
    rx = ::socket(AF_INET, SOCK_DGRAM, 0);
    tx = ::socket(AF_INET, SOCK_DGRAM, 0);
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::bind(rx, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(rx, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  }
  ~LoopbackPair() {
    ::close(tx);
    if (rx >= 0) {
      ::close(rx);
    }
  }
  void Send(const void* data, size_t size) const {
    ::sendto(tx, data, size, 0, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr));
  }
  void SendByte(uint8_t byte = 0) const { Send(&byte, 1); }

  int rx = -1;
  int tx = -1;
  sockaddr_in addr{};
};

// Reads one queued datagram; false when none is queued.
bool RecvOne(int fd) {
  uint8_t buf[64];
  return ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT) >= 0;
}

// Polls `cond` for up to 2 s.
bool Eventually(const std::function<bool()>& cond) {
  for (int i = 0; i < 400 && !cond(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return cond();
}

// A paused watch does not run even while its fd stays readable; the
// datagrams stay queued for whoever resumes (or drains) it.
TEST(EventLoopTest, PausedWatchNeverRuns) {
  LoopbackPair pair;
  EventLoop loop;
  std::atomic<int> calls{0};
  loop.WatchFd(pair.rx, [&]() {
    ++calls;
    RecvOne(pair.rx);
  });
  pair.SendByte();
  ASSERT_TRUE(Eventually([&]() { return calls == 1; }));
  loop.PauseWatch(pair.rx);
  for (int i = 0; i < 50; ++i) {
    pair.SendByte();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  loop.RunSync([]() {});  // a full loop pass with the fd readable
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(RecvOne(pair.rx));  // still queued
  loop.UnwatchFd(pair.rx);
}

// Resuming a watch with data queued wakes the loop, and level-triggered
// polling runs the callback once per pass until the queue is empty.
TEST(EventLoopTest, ResumedWatchRunsOncePerPassForQueuedData) {
  constexpr int kQueued = 3;
  LoopbackPair pair;
  EventLoop loop;
  std::atomic<int> calls{0};
  std::atomic<int> received{0};
  loop.WatchFd(pair.rx, [&]() {
    ++calls;
    received += RecvOne(pair.rx) ? 1 : 0;  // one datagram per pass
  });
  loop.PauseWatch(pair.rx);
  for (int i = 0; i < kQueued; ++i) {
    pair.SendByte();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(calls, 0);
  loop.ResumeWatch(pair.rx);
  ASSERT_TRUE(Eventually([&]() { return received == kQueued; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(calls, kQueued);  // no pass without a datagram behind it
  EXPECT_EQ(received, kQueued);
  loop.UnwatchFd(pair.rx);
}

// A loop whose only watch is paused still wakes for a timer and a post.
TEST(EventLoopTest, TimerAndPostWakeLoopWithPausedWatch) {
  LoopbackPair pair;
  EventLoop loop;
  loop.WatchFd(pair.rx, []() { FAIL() << "paused watch ran"; });
  loop.PauseWatch(pair.rx);
  pair.SendByte();  // readable, but must not wake the loop's watch
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // asleep
  std::atomic<bool> fired{false};
  loop.ScheduleAfter(Duration::Millis(10), [&]() { fired = true; });
  EXPECT_TRUE(Eventually([&]() { return fired.load(); }));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // asleep
  std::atomic<bool> posted{false};
  loop.Post([&]() { posted = true; });
  EXPECT_TRUE(Eventually([&]() { return posted.load(); }));
  loop.UnwatchFd(pair.rx);
}

// An fd number unwatched, closed and re-used for a new socket: the new
// watch runs for the new socket's datagrams only, and the old callback
// never runs again.
TEST(EventLoopTest, RewatchedFdNumberSeesOnlyItsOwnDatagrams) {
  LoopbackPair first;
  EventLoop loop;
  std::atomic<int> old_calls{0};
  std::atomic<bool> unwatched{false};
  std::atomic<int> late{0};
  loop.WatchFd(first.rx, [&]() {
    late += unwatched ? 1 : 0;
    ++old_calls;
    RecvOne(first.rx);
  });
  first.SendByte();
  ASSERT_TRUE(Eventually([&]() { return old_calls == 1; }));
  loop.PauseWatch(first.rx);
  for (int i = 0; i < 20; ++i) {
    first.SendByte();  // left queued on the closed socket
  }
  loop.UnwatchFd(first.rx);
  unwatched = true;
  const int number = first.rx;
  ::close(first.rx);
  first.rx = -1;

  LoopbackPair second;
  if (second.rx != number) {  // force the same fd number
    ASSERT_EQ(::dup2(second.rx, number), number);
    ::close(second.rx);
    second.rx = number;
  }
  std::atomic<int> new_calls{0};
  std::atomic<int> received{0};
  loop.WatchFd(second.rx, [&]() {
    ++new_calls;
    received += RecvOne(second.rx) ? 1 : 0;
  });
  for (int i = 0; i < 5; ++i) {
    second.SendByte();
  }
  ASSERT_TRUE(Eventually([&]() { return received == 5; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(new_calls, 5);
  EXPECT_EQ(old_calls, 1);
  EXPECT_EQ(late, 0);
  loop.UnwatchFd(second.rx);
}

// Two loops watch one socket exclusively: every datagram is handled
// exactly once, by whichever loop drained it.
TEST(EventLoopTest, ExclusiveWatchesOnTwoLoopsHandleEachDatagramOnce) {
  constexpr uint32_t kDatagrams = 4000;
  // Datagrams in flight at most, so the socket buffer never overflows and
  // the test counts deliveries, not kernel drops.
  constexpr uint32_t kWindow = 64;
  LoopbackPair pair;
  EventLoop loops[2];
  std::unique_ptr<std::atomic<int>[]> seen(new std::atomic<int>[kDatagrams]);
  for (uint32_t i = 0; i < kDatagrams; ++i) {
    seen[i] = 0;
  }
  std::atomic<uint32_t> handled{0};
  std::atomic<uint32_t> per_loop[2] = {0, 0};
  for (int l = 0; l < 2; ++l) {
    loops[l].WatchFd(
        pair.rx,
        [&, l]() {
          uint32_t seq;
          for (int i = 0; i < 16; ++i) {
            if (::recv(pair.rx, &seq, sizeof(seq), MSG_DONTWAIT) !=
                sizeof(seq)) {
              break;
            }
            ++seen[seq];
            ++per_loop[l];
            ++handled;
          }
          // Linger so the other loop wakes for the next arrival.
          auto until = std::chrono::steady_clock::now() +
                       std::chrono::microseconds(20);
          while (std::chrono::steady_clock::now() < until) {
          }
        },
        /*exclusive=*/true);
  }
  for (uint32_t seq = 0; seq < kDatagrams; ++seq) {
    while (seq >= handled.load() + kWindow) {
      std::this_thread::yield();
    }
    pair.Send(&seq, sizeof(seq));
  }
  ASSERT_TRUE(Eventually([&]() { return handled == kDatagrams; }));
  for (EventLoop& loop : loops) {
    loop.RunSync([]() {});  // a full pass of each loop
  }
  loops[0].UnwatchFd(pair.rx);
  loops[1].UnwatchFd(pair.rx);
  EXPECT_EQ(handled, kDatagrams);
  for (uint32_t i = 0; i < kDatagrams; ++i) {
    ASSERT_EQ(seen[i], 1) << "datagram " << i;
  }
  EXPECT_EQ(per_loop[0] + per_loop[1], kDatagrams);
}

// TryRunInline never waits: while another thread holds the execution lock
// it returns false without running `fn`; otherwise it runs `fn` on the
// calling thread and returns true. A loop thread may try another loop's
// lock while holding its own.
TEST(EventLoopTest, TryRunInlineRunsOnlyWhenTheLockIsFree) {
  EventLoop loop;
  EventLoop other;
  std::promise<void> held;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  loop.Post([&]() {
    held.set_value();
    released.wait();
  });
  held.get_future().wait();

  bool ran = false;
  auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(loop.TryRunInline([&]() { ran = true; }));
  bool other_loop_tried = true;
  other.RunSync([&]() {
    other_loop_tried = loop.TryRunInline([&]() { ran = true; });
  });
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(1));
  EXPECT_FALSE(other_loop_tried);
  EXPECT_FALSE(ran);
  release.set_value();
  loop.RunSync([]() {});  // the holder has returned

  std::thread::id ran_on;
  EXPECT_TRUE(loop.TryRunInline([&]() { ran_on = std::this_thread::get_id(); }));
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  other.RunSync([&]() {
    other_loop_tried = loop.TryRunInline([&]() { ran = true; });
  });
  EXPECT_TRUE(other_loop_tried);
  EXPECT_TRUE(ran);
}

TEST(UdpTransportTest, LoopbackDelivery) {
  EventLoop loop_a;
  EventLoop loop_b;

  struct Capture : PacketHandler {
    std::atomic<int> count{0};
    std::vector<uint8_t> last;
    NodeId last_from;
    MessageClass last_cls = MessageClass::kData;
    void HandlePacket(NodeId from, MessageClass cls,
                      std::span<const uint8_t> bytes) override {
      last.assign(bytes.begin(), bytes.end());
      last_from = from;
      last_cls = cls;
      ++count;
    }
  } capture;

  UdpTransport a(NodeId(1), &loop_a, nullptr);
  UdpTransport b(NodeId(2), &loop_b, &capture);
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());
  EXPECT_NE(a.port(), 0);
  a.AddPeer(NodeId(2), b.port());

  a.Send(NodeId(2), MessageClass::kConsistency, {9, 8, 7});
  for (int i = 0; i < 200 && capture.count == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(capture.count, 1);
  EXPECT_EQ(capture.last, (std::vector<uint8_t>{9, 8, 7}));
  EXPECT_EQ(capture.last_from, NodeId(1));
  EXPECT_EQ(capture.last_cls, MessageClass::kConsistency);
  EXPECT_EQ(a.stats().sent[static_cast<int>(MessageClass::kConsistency)], 1u);
  EXPECT_EQ(
      b.stats().received[static_cast<int>(MessageClass::kConsistency)], 1u);

  a.Stop();
  b.Stop();
}

TEST(UdpTransportTest, MulticastCountsOneSend) {
  EventLoop loop_a;
  EventLoop loop_b;
  EventLoop loop_c;
  struct Counter : PacketHandler {
    std::atomic<int> count{0};
    void HandlePacket(NodeId, MessageClass,
                      std::span<const uint8_t>) override {
      ++count;
    }
  } cb, cc;
  UdpTransport a(NodeId(1), &loop_a, nullptr);
  UdpTransport b(NodeId(2), &loop_b, &cb);
  UdpTransport c(NodeId(3), &loop_c, &cc);
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());
  ASSERT_TRUE(c.Start().ok());
  a.AddPeer(NodeId(2), b.port());
  a.AddPeer(NodeId(3), c.port());

  NodeId dst[2] = {NodeId(2), NodeId(3)};
  a.Multicast(dst, MessageClass::kConsistency, {1});
  for (int i = 0; i < 200 && (cb.count == 0 || cc.count == 0); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(cb.count, 1);
  EXPECT_EQ(cc.count, 1);
  // The paper's accounting: one logical send regardless of fan-out.
  EXPECT_EQ(a.stats().TotalSent(), 1u);
  a.Stop();
  b.Stop();
  c.Stop();
}

TEST(UdpTransportTest, SendToUnknownPeerIsDroppedSafely) {
  EventLoop loop;
  UdpTransport a(NodeId(1), &loop, nullptr);
  ASSERT_TRUE(a.Start().ok());
  a.Send(NodeId(99), MessageClass::kData, {1});  // no peer registered
  a.Stop();
  SUCCEED();
}

TEST(UdpTransportTest, DropEveryNthLosesDeterministically) {
  EventLoop loop_a;
  EventLoop loop_b;
  struct Counter : PacketHandler {
    std::atomic<int> count{0};
    void HandlePacket(NodeId, MessageClass,
                      std::span<const uint8_t>) override {
      ++count;
    }
  } counter;
  UdpTransport a(NodeId(1), &loop_a, nullptr);
  UdpTransport b(NodeId(2), &loop_b, &counter);
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());
  a.AddPeer(NodeId(2), b.port());
  // The decorator's deterministic counter mode replaces the old transport
  // hook; per-destination counting gives exactly 5/10 losses here.
  FaultInjectingTransport faulty(&a, &loop_a);
  faulty.set_drop_every_nth(2);
  for (int i = 0; i < 10; ++i) {
    faulty.Send(NodeId(2), MessageClass::kData, {static_cast<uint8_t>(i)});
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(counter.count, 5);
  EXPECT_EQ(faulty.fault_stats().dropped_nth, 5u);
  a.Stop();
  b.Stop();
}

// Frames too short for the header or naming no message class are counted
// and dropped; a valid frame behind them still reaches the handler.
TEST(UdpTransportTest, MalformedFramesAreCountedAndDropped) {
  EventLoop loop;
  struct Counter : PacketHandler {
    std::atomic<int> count{0};
    void HandlePacket(NodeId, MessageClass,
                      std::span<const uint8_t>) override {
      ++count;
    }
  } counter;
  UdpTransport b(NodeId(2), &loop, &counter);
  ASSERT_TRUE(b.Start().ok());
  LoopbackPair raw;
  raw.addr.sin_port = htons(b.port());
  const uint8_t short_frame[3] = {1, 0, 0};
  const uint8_t bad_class[6] = {1, 0, 0, 0, 255, 7};
  const uint8_t valid[6] = {1, 0, 0, 0,
                            static_cast<uint8_t>(MessageClass::kData), 7};
  raw.Send(short_frame, sizeof(short_frame));
  raw.Send(bad_class, sizeof(bad_class));
  raw.Send(valid, sizeof(valid));
  ASSERT_TRUE(Eventually([&]() { return counter.count == 1; }));
  NodeMessageStats stats = b.stats();
  EXPECT_EQ(stats.malformed, 2u);
  EXPECT_EQ(stats.TotalReceived(), 1u);
  EXPECT_EQ(counter.count, 1);
  b.Stop();
}

TEST(FaultInjectingTransportTest, DuplicatesAndDelaysArriveOverUdp) {
  EventLoop loop_a;
  EventLoop loop_b;
  struct Counter : PacketHandler {
    std::atomic<int> count{0};
    void HandlePacket(NodeId, MessageClass,
                      std::span<const uint8_t>) override {
      ++count;
    }
  } counter;
  UdpTransport a(NodeId(1), &loop_a, nullptr);
  UdpTransport b(NodeId(2), &loop_b, &counter);
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());
  a.AddPeer(NodeId(2), b.port());
  FaultInjectingTransport faulty(&a, &loop_a);
  TransportFaults faults;
  faults.dup_prob = 1.0;  // every send is doubled
  faults.dup_delay_max = Duration::Millis(2);
  faults.delay_prob = 1.0;  // and the original is jittered too
  faults.delay_max = Duration::Millis(2);
  faults.seed = 7;
  faulty.SetFaults(faults);
  for (int i = 0; i < 10; ++i) {
    faulty.Send(NodeId(2), MessageClass::kData, {static_cast<uint8_t>(i)});
  }
  for (int i = 0; i < 200 && counter.count < 20; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(counter.count, 20);  // 10 originals + 10 duplicates
  FaultInjectingTransport::FaultStats stats = faulty.fault_stats();
  EXPECT_EQ(stats.duplicated, 10u);
  EXPECT_EQ(stats.delayed, 10u);
  a.Stop();
  b.Stop();
}

TEST(FaultInjectingTransportTest, BlockedPeerPartitionsSendSide) {
  EventLoop loop_a;
  EventLoop loop_b;
  struct Counter : PacketHandler {
    std::atomic<int> count{0};
    void HandlePacket(NodeId, MessageClass,
                      std::span<const uint8_t>) override {
      ++count;
    }
  } counter;
  UdpTransport a(NodeId(1), &loop_a, nullptr);
  UdpTransport b(NodeId(2), &loop_b, &counter);
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());
  a.AddPeer(NodeId(2), b.port());
  FaultInjectingTransport faulty(&a, &loop_a);
  faulty.SetPeerBlocked(NodeId(2), true);
  faulty.Send(NodeId(2), MessageClass::kData, {1});
  NodeId dst[1] = {NodeId(2)};
  faulty.Multicast(dst, MessageClass::kData, {2});
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(counter.count, 0);
  EXPECT_EQ(faulty.fault_stats().dropped_blocked, 2u);

  faulty.SetPeerBlocked(NodeId(2), false);  // heal
  faulty.Send(NodeId(2), MessageClass::kData, {3});
  for (int i = 0; i < 200 && counter.count == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(counter.count, 1);
  a.Stop();
  b.Stop();
}

}  // namespace
}  // namespace leases
