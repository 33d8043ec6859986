#include "perfbench/src/trace.h"

#include <bit>
#include <cmath>
#include <cstdio>

namespace perfbench {

std::atomic<bool> Tracing::on_{false};

int LatencyHistogram::BucketOf(uint64_t v) {
  if (v < static_cast<uint64_t>(kSub)) {
    return static_cast<int>(v);
  }
  int exp = 63 - std::countl_zero(v);  // >= kSubBits
  int shift = exp - kSubBits;
  int mantissa = static_cast<int>((v >> shift) & (kSub - 1));
  return (shift + 1) * kSub + mantissa;
}

double LatencyHistogram::MidpointOf(int bucket) {
  if (bucket < kSub) {
    return bucket;
  }
  int shift = bucket / kSub - 1;
  double low = std::ldexp(static_cast<double>(kSub + bucket % kSub), shift);
  return low + std::ldexp(1.0, shift) / 2;
}

void LatencyHistogram::Record(int64_t ns) {
  uint64_t v = ns < 0 ? 0 : static_cast<uint64_t>(ns);
  ++buckets_[BucketOf(v)];
  ++count_;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (int i = 0; i < kBuckets; ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
}

double LatencyHistogram::QuantileUs(double q) const {
  if (count_ == 0) {
    return 0;
  }
  auto rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_)));
  rank = rank == 0 ? 1 : rank;
  uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      return MidpointOf(i) / 1000.0;
    }
  }
  return MidpointOf(kBuckets - 1) / 1000.0;
}

namespace {

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kRead: return "runtime_client.read";
    case SpanName::kWrite: return "runtime_client.write";
    case SpanName::kClientHandle: return "cache_client.handle";
    case SpanName::kServerHandle: return "lease_server.handle";
    case SpanName::kServerSend: return "udp_transport.send";
    case SpanName::kClientLoopProbe: return "event_loop.client_runsync";
    case SpanName::kServerLoopProbe: return "event_loop.server_runsync";
    case SpanName::kShardStatsProbe: return "shard_loop.stats";
  }
  return "unknown";
}

}  // namespace

bool WriteSpans(const std::string& path, int64_t origin_ns,
                const std::vector<const SpanLog*>& logs) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      bool root = s.name == SpanName::kRead || s.name == SpanName::kWrite;
      std::fprintf(f,
                   "{\"op\":%llu,\"client\":%llu,\"name\":\"%s\","
                   "\"start_ns\":%lld,\"end_ns\":%lld,\"root\":%s}\n",
                   static_cast<unsigned long long>(s.op),
                   static_cast<unsigned long long>(s.op >> 40),
                   SpanNameString(s.name),
                   static_cast<long long>(s.start_ns - origin_ns),
                   static_cast<long long>(s.end_ns - origin_ns),
                   root ? "true" : "false");
    }
  }
  return std::fclose(f) == 0;
}

template <typename Fn>
void ClientTap::Timed(Fn&& fn) {
  if (!Tracing::on()) {
    fn();
    return;
  }
  int64_t start = NowNs();
  fn();
  int64_t end = NowNs();
  handle_.Record(end - start);
  int64_t unset = 0;
  slot_->first_reply_ns.compare_exchange_strong(unset, start,
                                                std::memory_order_relaxed);
  slot_->last_reply_end_ns.store(end, std::memory_order_relaxed);
  spans_.Add({slot_->op.load(std::memory_order_relaxed), start, end,
              SpanName::kClientHandle});
}

void ClientTap::HandlePacket(leases::NodeId from, leases::MessageClass cls,
                             std::span<const uint8_t> bytes) {
  Timed([&] { inner_->HandlePacket(from, cls, bytes); });
}

void ClientTap::HandleTyped(leases::NodeId from, leases::MessageClass cls,
                            const leases::Packet& packet) {
  Timed([&] { inner_->HandleTyped(from, cls, packet); });
}

template <typename Fn>
void ServerTap::Timed(leases::NodeId from, Fn&& fn) {
  if (!Tracing::on()) {
    fn();
    return;
  }
  int64_t start = NowNs();
  fn();
  int64_t end = NowNs();
  handle_.Record(end - start);
  if (CallSlot* slot = slots_.For(from)) {
    slot->server_handle_ns.fetch_add(end - start, std::memory_order_relaxed);
    spans_.Add({slot->op.load(std::memory_order_relaxed), start, end,
                SpanName::kServerHandle});
  }
}

void ServerTap::HandlePacket(leases::NodeId from, leases::MessageClass cls,
                             std::span<const uint8_t> bytes) {
  Timed(from, [&] { inner_->HandlePacket(from, cls, bytes); });
}

void ServerTap::HandleTyped(leases::NodeId from, leases::MessageClass cls,
                            const leases::Packet& packet) {
  Timed(from, [&] { inner_->HandleTyped(from, cls, packet); });
}

template <typename Fn>
void TimingTransport::Timed(const CallSlot* dst, Fn&& fn) {
  if (!Tracing::on()) {
    fn();
    return;
  }
  int64_t start = NowNs();
  fn();
  int64_t end = NowNs();
  send_.Record(end - start);
  if (dst != nullptr) {
    spans_.Add({dst->op.load(std::memory_order_relaxed), start, end,
                SpanName::kServerSend});
  }
}

void TimingTransport::Send(leases::NodeId dst, leases::MessageClass cls,
                           std::vector<uint8_t> bytes) {
  Timed(slots_.For(dst), [&] { inner_->Send(dst, cls, std::move(bytes)); });
}

void TimingTransport::Multicast(std::span<const leases::NodeId> dst,
                                leases::MessageClass cls,
                                std::vector<uint8_t> bytes) {
  Timed(nullptr, [&] { inner_->Multicast(dst, cls, std::move(bytes)); });
}

void TimingTransport::Send(leases::NodeId dst, leases::MessageClass cls,
                           leases::Packet packet) {
  Timed(slots_.For(dst), [&] { inner_->Send(dst, cls, std::move(packet)); });
}

void TimingTransport::Multicast(std::span<const leases::NodeId> dst,
                                leases::MessageClass cls,
                                leases::Packet packet) {
  Timed(nullptr, [&] { inner_->Multicast(dst, cls, std::move(packet)); });
}

}  // namespace perfbench
