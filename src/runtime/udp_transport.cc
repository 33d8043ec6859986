#include "src/runtime/udp_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "src/common/check.h"
#include "src/common/logging.h"

namespace leases {
namespace {

constexpr size_t kMaxDatagram = 60 * 1024;
constexpr size_t kHeaderSize = 5;  // u32 sender + u8 class

}  // namespace

struct UdpTransport::RecvBatch {
  // One ::recvmmsg drains up to kSize queued datagrams per syscall, so a
  // loaded socket amortizes the syscall across the burst.
  static constexpr unsigned kSize = 16;

  RecvBatch() : buffers(kSize) {
    for (unsigned i = 0; i < kSize; ++i) {
      buffers[i].resize(kMaxDatagram);
      iovs[i] = {buffers[i].data(), buffers[i].size()};
      std::memset(&msgs[i], 0, sizeof(msgs[i]));
      msgs[i].msg_hdr.msg_iov = &iovs[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
    }
  }

  std::vector<std::vector<uint8_t>> buffers;
  mmsghdr msgs[kSize];
  iovec iovs[kSize];
};

UdpTransport::UdpTransport(NodeId self, EventLoop* loop,
                           PacketHandler* handler)
    : UdpTransport(self, std::vector<EventLoop*>{loop}, handler) {}

UdpTransport::UdpTransport(NodeId self, std::vector<EventLoop*> loops,
                           PacketHandler* handler)
    : self_(self), handler_(handler) {
  LEASES_CHECK(!loops.empty());
  for (EventLoop* loop : loops) {
    LEASES_CHECK(loop != nullptr);
    receivers_.push_back(Receiver{loop, nullptr});
  }
}

UdpTransport::~UdpTransport() { Stop(); }

Status UdpTransport::Start(uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) {
    return Status(ErrorCode::kUnavailable, "socket() failed");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    fd_ = -1;
    return Status(ErrorCode::kUnavailable, "bind() failed");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd_);
    fd_ = -1;
    return Status(ErrorCode::kUnavailable, "getsockname() failed");
  }
  port_ = ntohs(addr.sin_port);
  const bool exclusive = receivers_.size() > 1;
  for (Receiver& receiver : receivers_) {
    receiver.batch = std::make_unique<RecvBatch>();
    RecvBatch* batch = receiver.batch.get();
    receiver.loop->WatchFd(
        fd_, [this, batch]() { Drain(*batch); }, exclusive);
  }
  return Status::Ok();
}

void UdpTransport::Stop() {
  if (fd_ < 0) {
    return;
  }
  // Each returns only once that loop's drain callback is not running and
  // never will, so the close below races no receive.
  for (Receiver& receiver : receivers_) {
    receiver.loop->UnwatchFd(fd_);
  }
  std::lock_guard<std::mutex> lock(fd_mu_);
  ::close(fd_);
  fd_ = -1;
}

void UdpTransport::AddPeer(NodeId peer, uint16_t port) {
  std::lock_guard<std::mutex> lock(mu_);
  peers_[peer] = port;
}

std::vector<uint8_t> UdpTransport::BuildFrame(
    NodeId sender, MessageClass cls, const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> frame;
  frame.reserve(kHeaderSize + payload.size());
  uint32_t id = sender.value();
  frame.push_back(static_cast<uint8_t>(id));
  frame.push_back(static_cast<uint8_t>(id >> 8));
  frame.push_back(static_cast<uint8_t>(id >> 16));
  frame.push_back(static_cast<uint8_t>(id >> 24));
  frame.push_back(static_cast<uint8_t>(cls));
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

bool UdpTransport::ResolvePeer(NodeId dst, struct sockaddr_in* addr) {
  uint16_t port = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = peers_.find(dst);
    if (it == peers_.end()) {
      LEASES_WARN("udp %u: no peer registered for node %u", self_.value(),
                  dst.value());
      stats_.send_failures++;
      return false;
    }
    port = it->second;
  }
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr->sin_port = htons(port);
  return true;
}

void UdpTransport::CountSendFailure() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.send_failures++;
}

void UdpTransport::SendFrame(NodeId dst, MessageClass /*cls*/,
                             const std::vector<uint8_t>& frame) {
  sockaddr_in addr;
  if (!ResolvePeer(dst, &addr)) {
    return;
  }
  ssize_t sent;
  {
    std::lock_guard<std::mutex> lock(fd_mu_);
    if (fd_ < 0) {
      return;  // transport already stopped
    }
    sent = ::sendto(fd_, frame.data(), frame.size(), 0,
                    reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  }
  // A failed or partial sendto silently looks like wire loss to the
  // protocol (which survives it), but it is *local* overload, not the
  // network -- count it so operators can tell the two apart.
  if (sent < 0 || static_cast<size_t>(sent) != frame.size()) {
    CountSendFailure();
  }
}

void UdpTransport::Send(NodeId dst, MessageClass cls,
                        std::vector<uint8_t> bytes) {
  LEASES_CHECK(bytes.size() + kHeaderSize <= kMaxDatagram);
  std::vector<uint8_t> frame = BuildFrame(self_, cls, bytes);
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.sent[static_cast<int>(cls)]++;
  }
  SendFrame(dst, cls, frame);
}

void UdpTransport::Multicast(std::span<const NodeId> dst, MessageClass cls,
                             std::vector<uint8_t> bytes) {
  LEASES_CHECK(bytes.size() + kHeaderSize <= kMaxDatagram);
  std::vector<uint8_t> frame = BuildFrame(self_, cls, bytes);
  {
    // One logical send, per the paper's multicast cost model.
    std::lock_guard<std::mutex> lock(mu_);
    stats_.sent[static_cast<int>(cls)]++;
  }
  for (NodeId node : dst) {
    if (node != self_) {
      SendFrame(node, cls, frame);
    }
  }
}

void UdpTransport::BeginFrameLocked(MessageClass cls) {
  send_frame_.clear();
  uint32_t id = self_.value();
  send_frame_.push_back(static_cast<uint8_t>(id));
  send_frame_.push_back(static_cast<uint8_t>(id >> 8));
  send_frame_.push_back(static_cast<uint8_t>(id >> 16));
  send_frame_.push_back(static_cast<uint8_t>(id >> 24));
  send_frame_.push_back(static_cast<uint8_t>(cls));
}

void UdpTransport::Send(NodeId dst, MessageClass cls, Packet packet) {
  std::lock_guard<std::mutex> lock(send_mu_);
  BeginFrameLocked(cls);
  EncodePacketInto(packet, &send_frame_);
  LEASES_CHECK(send_frame_.size() <= kMaxDatagram);
  {
    std::lock_guard<std::mutex> stats_lock(mu_);
    stats_.sent[static_cast<int>(cls)]++;
  }
  SendFrame(dst, cls, send_frame_);
}

void UdpTransport::Multicast(std::span<const NodeId> dst, MessageClass cls,
                             Packet packet) {
  std::lock_guard<std::mutex> lock(send_mu_);
  BeginFrameLocked(cls);
  EncodePacketInto(packet, &send_frame_);
  LEASES_CHECK(send_frame_.size() <= kMaxDatagram);
  {
    // One logical send, per the paper's multicast cost model.
    std::lock_guard<std::mutex> stats_lock(mu_);
    stats_.sent[static_cast<int>(cls)]++;
  }
  for (NodeId node : dst) {
    if (node != self_) {
      SendFrame(node, cls, send_frame_);
    }
  }
}

bool UdpTransport::WaitReadable(
    int wake_fd, std::chrono::steady_clock::time_point deadline) {
  pollfd pfds[2] = {{fd_, POLLIN, 0}, {wake_fd, POLLIN, 0}};
  auto left = deadline - std::chrono::steady_clock::now();
  int64_t ns = std::max<int64_t>(
      0, std::chrono::duration_cast<std::chrono::nanoseconds>(left).count());
  timespec timeout{static_cast<time_t>(ns / 1000000000),
                   static_cast<long>(ns % 1000000000)};
  if (::ppoll(pfds, 2, &timeout, nullptr) <= 0) {
    return false;  // deadline reached, or EINTR
  }
  if (pfds[1].revents != 0) {
    uint64_t count;
    ssize_t n = ::read(wake_fd, &count, sizeof(count));
    (void)n;
  }
  return pfds[0].revents != 0;
}

void UdpTransport::Drain(RecvBatch& batch) {
  // One batch per call: the loop polls level-triggered, so anything left
  // queued comes back on the next pass, after due timers and tasks.
  int got = ::recvmmsg(fd_, batch.msgs, RecvBatch::kSize, MSG_DONTWAIT,
                       nullptr);
  for (int m = 0; m < got; ++m) {
    const std::vector<uint8_t>& buffer = batch.buffers[m];
    auto n = static_cast<size_t>(batch.msgs[m].msg_len);
    const bool damaged = n < kHeaderSize || buffer[4] >= kNumMessageClasses;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (damaged) {
        stats_.malformed++;
        continue;
      }
      stats_.received[buffer[4]]++;
    }
    auto cls = static_cast<MessageClass>(buffer[4]);
    uint32_t sender = static_cast<uint32_t>(buffer[0]) |
                      (static_cast<uint32_t>(buffer[1]) << 8) |
                      (static_cast<uint32_t>(buffer[2]) << 16) |
                      (static_cast<uint32_t>(buffer[3]) << 24);
    std::span<const uint8_t> payload(buffer.data() + kHeaderSize,
                                     n - kHeaderSize);
    PacketHandler* handler = handler_.load();
    if (handler != nullptr) {
      handler->HandlePacket(NodeId(sender), cls, payload);
    }
  }
}

NodeMessageStats UdpTransport::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace leases
