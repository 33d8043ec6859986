// Measurement plumbing for the end-to-end benchmark: a fixed-memory latency
// histogram, an in-memory span log, and the decorators the traced run
// installs at public call boundaries of the runtime (a PacketHandler around
// a client's CacheClient, and a Transport + PacketHandler pair around the
// plain server engine).
//
// Every decorator is a passthrough while Tracing is off: the untraced slices
// of a traced run go through the same objects, so the throughput difference
// between traced and untraced slices is the cost of recording.
#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/net/transport.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Log-linear histogram over nanoseconds: exact below 256 ns, then 256
// sub-buckets per power of two (0.4% relative resolution). Fixed size, so
// memory does not grow with the number of samples and the process RSS
// stays independent of throughput.
class LatencyHistogram {
 public:
  void Record(int64_t ns);
  void Merge(const LatencyHistogram& other);
  uint64_t count() const { return count_; }
  // Nearest-rank quantile in microseconds (bucket midpoint); 0 when empty.
  double QuantileUs(double q) const;

 private:
  static constexpr int kSubBits = 8;
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kBuckets = (64 - kSubBits + 1) * kSub;
  static int BucketOf(uint64_t v);
  static double MidpointOf(int bucket);

  std::array<uint64_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
};

// Span names recorded by the traced run.
enum class SpanName : uint8_t {
  kRead,              // RuntimeClient::Read (root of a read op)
  kWrite,             // RuntimeClient::Write (root of a write op)
  kClientHandle,      // CacheClient::HandlePacket on the client loop
  kServerHandle,      // engine HandlePacket on the plain server loop
  kServerSend,        // Transport send on the plain server loop
  kClientLoopProbe,   // empty RuntimeClient::WithClient
  kServerLoopProbe,   // empty WithServer on the plain host
  kShardStatsProbe,   // ShardedRuntimeServer::stats()
};

// One recorded span. Spans of one op share `op` (client << 40 | per-client
// sequence); the kRead/kWrite span is the op's root and every other span of
// that op is its child.
struct Span {
  uint64_t op = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  SpanName name = SpanName::kRead;
};

// Spans of sampled ops, kept in memory and written out at the end. Each
// log is owned by one thread while the load runs.
class SpanLog {
 public:
  // Ops whose sequence number is a multiple of kSampleEvery keep their
  // spans; every op still feeds the histograms.
  static constexpr uint64_t kSampleEvery = 64;
  static constexpr size_t kMaxSpans = 1 << 16;
  static bool Sampled(uint64_t op) { return op % kSampleEvery == 0; }

  void Add(const Span& span) {
    if (Sampled(span.op) && spans_.size() < kMaxSpans) {
      spans_.push_back(span);
    }
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

// Writes every log's spans as JSON lines; returns false on I/O failure.
bool WriteSpans(const std::string& path, int64_t origin_ns,
                const std::vector<const SpanLog*>& logs);

// Process-wide tracing switch, flipped between slices of a traced run.
class Tracing {
 public:
  static void Enable(bool on) { on_.store(on, std::memory_order_release); }
  static bool on() { return on_.load(std::memory_order_relaxed); }

 private:
  static std::atomic<bool> on_;
};

// Per-client attribution slots shared between the caller thread (one call
// in flight per client), the client loop thread and the server loop thread.
struct CallSlot {
  std::atomic<uint64_t> op{0};               // id of the call in flight
  std::atomic<int64_t> first_reply_ns{0};    // first handled packet start
  std::atomic<int64_t> last_reply_end_ns{0}; // last handled packet end
  std::atomic<int64_t> server_handle_ns{0};  // cumulative server handle time
                                             //   spent on this client's packets
};

// Client-side decorator: installed with UdpTransport::SetHandler in front
// of the CacheClient, so it runs on the client loop thread.
class ClientTap : public leases::PacketHandler {
 public:
  ClientTap(leases::PacketHandler* inner, CallSlot* slot)
      : inner_(inner), slot_(slot) {}

  void HandlePacket(leases::NodeId from, leases::MessageClass cls,
                    std::span<const uint8_t> bytes) override;
  void HandleTyped(leases::NodeId from, leases::MessageClass cls,
                   const leases::Packet& packet) override;

  // Read only after the client loop has stopped.
  const LatencyHistogram& handle() const { return handle_; }
  const SpanLog& spans() const { return spans_; }

 private:
  template <typename Fn>
  void Timed(Fn&& fn);

  leases::PacketHandler* inner_;
  CallSlot* slot_;
  LatencyHistogram handle_;
  SpanLog spans_;
};

// Maps a client NodeId (first_client + i) to its CallSlot, so server-side
// work can be charged to the call that caused it.
struct SlotMap {
  std::vector<CallSlot*> slots;
  uint32_t first_client = 0;

  CallSlot* For(leases::NodeId id) const {
    uint32_t i = id.value() - first_client;
    return id.value() >= first_client && i < slots.size() ? slots[i]
                                                          : nullptr;
  }
};

// Server-side decorators for the plain traced host. Both run on the server
// loop thread only.
class ServerTap : public leases::PacketHandler {
 public:
  ServerTap(leases::PacketHandler* inner, SlotMap slots)
      : inner_(inner), slots_(std::move(slots)) {}

  void HandlePacket(leases::NodeId from, leases::MessageClass cls,
                    std::span<const uint8_t> bytes) override;
  void HandleTyped(leases::NodeId from, leases::MessageClass cls,
                   const leases::Packet& packet) override;

  const LatencyHistogram& handle() const { return handle_; }
  const SpanLog& spans() const { return spans_; }

 private:
  template <typename Fn>
  void Timed(leases::NodeId from, Fn&& fn);

  leases::PacketHandler* inner_;
  SlotMap slots_;
  LatencyHistogram handle_;
  SpanLog spans_;
};

class TimingTransport : public leases::Transport {
 public:
  TimingTransport(leases::Transport* inner, SlotMap slots)
      : inner_(inner), slots_(std::move(slots)) {}

  leases::NodeId local_node() const override { return inner_->local_node(); }
  void Send(leases::NodeId dst, leases::MessageClass cls,
            std::vector<uint8_t> bytes) override;
  void Multicast(std::span<const leases::NodeId> dst, leases::MessageClass cls,
                 std::vector<uint8_t> bytes) override;
  void Send(leases::NodeId dst, leases::MessageClass cls,
            leases::Packet packet) override;
  void Multicast(std::span<const leases::NodeId> dst, leases::MessageClass cls,
                 leases::Packet packet) override;

  const LatencyHistogram& send() const { return send_; }
  const SpanLog& spans() const { return spans_; }

 private:
  // `dst` attributes the span to that client's call; null for multicasts.
  template <typename Fn>
  void Timed(const CallSlot* dst, Fn&& fn);

  leases::Transport* inner_;
  SlotMap slots_;
  LatencyHistogram send_;
  SpanLog spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
