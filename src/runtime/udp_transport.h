// UDP datagram transport on localhost for the real-time runtime.
//
// Frame layout: [sender NodeId u32 LE][MessageClass u8][payload]. A
// transport built with an EventLoop registers its socket with that loop:
// the loop thread drains one recvmmsg batch per wake-up and hands each
// datagram to the handler in place, under the loop's execution lock, which
// preserves the serialized execution model the protocol objects require.
// Multicast is emulated by iterated sendto over the recipient list -- the
// paper's cost model charges the sender once, which the stats mirror.
#ifndef SRC_RUNTIME_UDP_TRANSPORT_H_
#define SRC_RUNTIME_UDP_TRANSPORT_H_

#include <netinet/in.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/result.h"
#include "src/net/message_stats.h"
#include "src/net/transport.h"
#include "src/runtime/event_loop.h"

namespace leases {

class UdpBatchSender;

class UdpTransport : public Transport {
 public:
  // `handler` is invoked on `loop`'s thread for each datagram; it may be
  // null until SetHandler is called. `loop` must outlive the transport
  // (Stop() unwatches the socket from it). `loop` may be null when the owner
  // uses SetRawHandler (shard-engine dispatch) instead: the transport then
  // runs its own receiver thread.
  UdpTransport(NodeId self, EventLoop* loop, PacketHandler* handler);
  ~UdpTransport() override;

  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  // Binds 127.0.0.1:`port` (0 picks an ephemeral port) and starts
  // receiving: on the loop, or on the receiver thread in raw-handler mode.
  Status Start(uint16_t port = 0);
  // Stops receiving and closes the socket. Once it returns no handler call
  // is running or will start.
  void Stop();

  uint16_t port() const { return port_; }
  void SetHandler(PacketHandler* handler) { handler_ = handler; }

  // Shard-engine dispatch (transports built without a loop): every datagram
  // is handed to `handler` *on the receiver thread* (sender id + class + raw
  // payload). The handler decodes and routes to the owning shard's queue;
  // run-to-completion then happens on the shard thread. Must be set before
  // Start().
  using RawHandler = std::function<void(NodeId from, MessageClass cls,
                                        std::span<const uint8_t> payload)>;
  void SetRawHandler(RawHandler handler) { raw_handler_ = std::move(handler); }

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

  // Merges the transport's own counters with every live batch sender's
  // local counters (see UdpBatchSender): reads pay the aggregation, sends
  // stay lock-free.
  NodeMessageStats stats() const;

 private:
  friend class UdpBatchSender;

  // Batch senders count their sends into shard-local atomic arrays instead
  // of taking mu_ per datagram; the transport keeps pointers to them so
  // stats() can merge. Registration is rare (sender construction).
  void RegisterBatchCounters(const std::atomic<uint64_t>* counters);
  void UnregisterBatchCounters(const std::atomic<uint64_t>* counters);

  // Raw-handler mode: blocks in recvmmsg until Stop().
  void ReceiverThread();
  // Loop mode: the socket's on-readable callback; drains one batch.
  void DrainOnLoop();
  // Counts and dispatches the first `got` datagrams of the receive batch.
  void DeliverBatch(int got);
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

  // One recvmmsg batch: datagrams are delivered straight out of these
  // buffers, so a receive copies nothing and allocates nothing. Used by
  // exactly one receiving context (the loop or the receiver thread).
  struct RecvBatch;

  NodeId self_;
  EventLoop* loop_;
  std::atomic<PacketHandler*> handler_{nullptr};
  RawHandler raw_handler_;  // set before Start()
  std::unique_ptr<RecvBatch> recv_;
  // fd_mu_ serializes sendto against close: timers or RunInline callers may
  // still be sending while the owner tears the transport down. The receive
  // side needs no lock -- it is unwatched (or joined) before the close.
  std::mutex fd_mu_;
  int fd_ = -1;
  uint16_t port_ = 0;
  std::thread receiver_;  // raw-handler mode only
  std::atomic<bool> stopping_{false};

  mutable std::mutex mu_;
  std::unordered_map<NodeId, uint16_t> peers_;
  NodeMessageStats stats_;
  // Live batch senders' per-class sent counters, merged by stats().
  std::vector<const std::atomic<uint64_t>*> batch_counters_;

  // Scratch frame for the typed send path; its capacity persists across
  // sends. Guarded by its own mutex so encoding does not hold up AddPeer
  // or stats readers.
  std::mutex send_mu_;
  std::vector<uint8_t> send_frame_;
};

// Per-shard outbound batcher: a Transport that queues encoded frames and
// puts them on the wire with one ::sendmmsg per flush instead of one
// ::sendto per reply. NOT thread-safe -- each shard thread owns exactly
// one, so the encode scratch buffers are uncontended (the shared
// UdpTransport::Send path takes send_mu_ on every call, which would
// serialize the shards again).
//
// The owner must call Flush() at its batch boundary (the shard loop's idle
// hook); sends also self-flush at capacity. Frame buffers are retained
// across flushes, so a steady-state shard allocates nothing to send.
class UdpBatchSender : public Transport {
 public:
  // Batches up to `max_batch` frames per sendmmsg (kernel caps at UIO_MAXIOV;
  // modest batches keep per-flush latency low).
  explicit UdpBatchSender(UdpTransport* transport, size_t max_batch = 32);
  // Must be destroyed before `transport` (it unregisters its counters).
  ~UdpBatchSender() override;

  UdpBatchSender(const UdpBatchSender&) = delete;
  UdpBatchSender& operator=(const UdpBatchSender&) = delete;

  NodeId local_node() const override { return transport_->local_node(); }
  void Send(NodeId dst, MessageClass cls, std::vector<uint8_t> bytes) override;
  void Multicast(std::span<const NodeId> dst, MessageClass cls,
                 std::vector<uint8_t> bytes) override;
  void Send(NodeId dst, MessageClass cls, Packet packet) override;
  void Multicast(std::span<const NodeId> dst, MessageClass cls,
                 Packet packet) override;

  void Flush();
  size_t pending() const { return pending_; }

 private:
  // One queued datagram: destination plus its encoded frame.
  struct Slot {
    struct sockaddr_in addr;
    std::vector<uint8_t> frame;
  };

  // Returns the slot to encode into (flushes first when full), or null when
  // the destination is unregistered (counted as a send failure).
  Slot* NextSlot(NodeId dst);
  void WriteHeader(std::vector<uint8_t>* frame, MessageClass cls);
  void CountSent(MessageClass cls);
  // Queues a copy of `scratch_` (an already-framed datagram) per recipient.
  void QueueScratchTo(std::span<const NodeId> dst);

  UdpTransport* transport_;
  std::vector<Slot> slots_;
  size_t pending_ = 0;
  std::vector<uint8_t> scratch_;  // multicast encode-once buffer
  // Sends counted shard-locally (relaxed: only this shard writes; readers
  // tolerate a momentarily stale merge in UdpTransport::stats()). Replaces
  // a per-send lock of the transport mutex, which serialized all shards on
  // one cache line under load.
  std::atomic<uint64_t> sent_[kNumMessageClasses] = {};
};

}  // namespace leases

#endif  // SRC_RUNTIME_UDP_TRANSPORT_H_
