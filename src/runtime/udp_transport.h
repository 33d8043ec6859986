// UDP datagram transport on localhost for the real-time runtime.
//
// Frame layout: [sender NodeId u32 LE][MessageClass u8][payload]. A
// transport registers its socket with its receiving EventLoops: a loop
// thread that wakes for the socket drains one recvmmsg batch into its own
// buffers and hands each datagram to the handler in place, under that
// loop's execution lock. With one loop this preserves the serialized
// execution model the protocol objects require. With several (a sharded
// RuntimeServer), each watches the socket exclusively, so one idle loop
// wakes per arrival, and the handler serializes what it shares. A caller
// may take a one-loop socket from its loop (PauseReceive), drain it on its
// own thread under the same lock (WaitReadable + DrainBatch) and hand it
// back (ResumeReceive); see RuntimeClient.
// Multicast is emulated by iterated sendto over the recipient list -- the
// paper's cost model charges the sender once, which the stats mirror.
#ifndef SRC_RUNTIME_UDP_TRANSPORT_H_
#define SRC_RUNTIME_UDP_TRANSPORT_H_

#include <netinet/in.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/common/result.h"
#include "src/net/message_stats.h"
#include "src/net/transport.h"
#include "src/runtime/event_loop.h"

namespace leases {

class UdpTransport : public Transport {
 public:
  // `handler` is invoked under `loop`'s execution lock for each datagram
  // (on the loop thread, or on a thread that drains the paused socket); it
  // may be null until SetHandler is called. `loop` is required and must
  // outlive the transport (Stop() unwatches the socket from it).
  UdpTransport(NodeId self, EventLoop* loop, PacketHandler* handler);
  // Receives on every loop in `loops` (at least one; each must outlive the
  // transport). With more than one, the watches are exclusive and the
  // handler runs under the execution lock of whichever loop drained the
  // datagram, on several loops at once.
  UdpTransport(NodeId self, std::vector<EventLoop*> loops,
               PacketHandler* handler);
  ~UdpTransport() override;

  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  // Binds 127.0.0.1:`port` (0 picks an ephemeral port) and starts
  // receiving on the loops.
  Status Start(uint16_t port = 0);
  // Stops receiving on every loop, then closes the socket. Once it returns
  // no handler call is running or will start.
  void Stop();

  uint16_t port() const { return port_; }
  void SetHandler(PacketHandler* handler) { handler_ = handler; }

  // Registers where a peer lives; must be called before sending to it.
  void AddPeer(NodeId peer, uint16_t port);

  NodeId local_node() const override { return self_; }
  void Send(NodeId dst, MessageClass cls, std::vector<uint8_t> bytes) override;
  void Multicast(std::span<const NodeId> dst, MessageClass cls,
                 std::vector<uint8_t> bytes) override;

  // Typed sends: the packet is encoded straight into a reusable frame
  // buffer (header + payload in one buffer, no intermediate payload
  // vector), so steady-state sends do not allocate. The wire format is
  // identical to the byte overloads.
  void Send(NodeId dst, MessageClass cls, Packet packet) override;
  void Multicast(std::span<const NodeId> dst, MessageClass cls,
                 Packet packet) override;

  // Send, receive, failure and malformed-frame counts. Every send path is
  // thread-safe: the shards of a sharded server all send through one
  // transport.
  NodeMessageStats stats() const;

  // Caller-driven receive, for a transport with one loop. PauseReceive
  // stops the loop from draining the socket, without waking it;
  // ResumeReceive hands the socket back, and a datagram still queued then
  // wakes the loop. Thread-safe, between Start and Stop.
  void PauseReceive() { receivers_[0].loop->PauseWatch(fd_); }
  void ResumeReceive() { receivers_[0].loop->ResumeWatch(fd_); }
  // Sleeps until the socket is readable (true), or until `wake_fd` is
  // readable or `deadline` passes (false). A readable `wake_fd` is read,
  // which resets an eventfd.
  bool WaitReadable(int wake_fd,
                    std::chrono::steady_clock::time_point deadline);
  // Drains one recvmmsg batch into the first loop's buffers and dispatches
  // each datagram to the handler, as that loop's watch does; another thread
  // may call it while receive is paused. Must hold that loop's execution
  // lock.
  void DrainBatch() { Drain(*receivers_[0].batch); }

 private:
  // One recvmmsg batch: datagrams are delivered straight out of these
  // buffers, so a receive copies nothing and allocates nothing. Each
  // receiving loop has its own, used only under that loop's execution lock.
  struct RecvBatch;
  struct Receiver {
    EventLoop* loop;
    std::unique_ptr<RecvBatch> batch;
  };

  // Drains one batch; frames too short for the header or of an unknown
  // class are counted as malformed and dropped.
  void Drain(RecvBatch& batch);
  void SendFrame(NodeId dst, MessageClass cls,
                 const std::vector<uint8_t>& frame);
  // Resolves a peer's loopback address; false (and one counted send failure)
  // when the peer was never registered.
  bool ResolvePeer(NodeId dst, struct sockaddr_in* addr);
  void CountSendFailure();
  static std::vector<uint8_t> BuildFrame(NodeId sender, MessageClass cls,
                                         const std::vector<uint8_t>& payload);
  // Writes [sender u32][class u8] into the reusable send frame; the caller
  // appends the payload. Must hold send_mu_.
  void BeginFrameLocked(MessageClass cls);

  NodeId self_;
  std::vector<Receiver> receivers_;
  std::atomic<PacketHandler*> handler_{nullptr};
  // fd_mu_ serializes sendto against close: timers or RunInline callers may
  // still be sending while the owner tears the transport down. The receive
  // side needs no lock -- it is unwatched before the close.
  std::mutex fd_mu_;
  int fd_ = -1;
  uint16_t port_ = 0;

  mutable std::mutex mu_;
  std::unordered_map<NodeId, uint16_t> peers_;
  NodeMessageStats stats_;

  // Scratch frame for the typed send path; its capacity persists across
  // sends. Guarded by its own mutex so encoding does not hold up AddPeer
  // or stats readers.
  std::mutex send_mu_;
  std::vector<uint8_t> send_frame_;
};

}  // namespace leases

#endif  // SRC_RUNTIME_UDP_TRANSPORT_H_
