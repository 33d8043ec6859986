// Per-node and network-wide message accounting.
//
// The paper's server-load metric (Figure 1) is "the number of messages
// handled (sent or received) by the server", split into consistency-related
// and other traffic. These counters are maintained by the simulated network
// (and by the UDP transport) for every node.
#ifndef SRC_NET_MESSAGE_STATS_H_
#define SRC_NET_MESSAGE_STATS_H_

#include <cstdint>

#include "src/net/transport.h"

namespace leases {

struct NodeMessageStats {
  uint64_t sent[kNumMessageClasses] = {0, 0, 0};
  uint64_t received[kNumMessageClasses] = {0, 0, 0};
  uint64_t dropped_loss = 0;       // lost on the wire (independent loss)
  uint64_t dropped_partition = 0;  // blocked by a partition
  uint64_t dropped_down = 0;       // destination host was down
  uint64_t dropped_burst = 0;      // lost in a Gilbert-Elliott bad state
  uint64_t duplicated = 0;         // extra copies injected by the fault plane
  uint64_t delayed = 0;            // deliveries given extra reorder jitter
  // Local send-side failures: ::sendto/::sendmmsg errors, partial datagram
  // writes, or sends to an unregistered peer. Zero in simulation (SimNetwork
  // models loss as in-flight drops, not send failures); on the UDP runtime a
  // persistently non-zero value means ENOBUFS-style local overload that the
  // protocol otherwise mistakes for wire loss.
  uint64_t send_failures = 0;
  // Received frames dropped as damaged: shorter than the UDP transport's
  // 5-byte header, or naming a message class that does not exist. Zero in
  // simulation.
  uint64_t malformed = 0;

  uint64_t TotalSent() const {
    return sent[0] + sent[1] + sent[2];
  }
  uint64_t TotalReceived() const {
    return received[0] + received[1] + received[2];
  }
  // "Messages handled" in the paper's sense.
  uint64_t Handled() const { return TotalSent() + TotalReceived(); }
  uint64_t HandledByClass(MessageClass cls) const {
    auto i = static_cast<int>(cls);
    return sent[i] + received[i];
  }

  void Reset() { *this = NodeMessageStats{}; }
};

}  // namespace leases

#endif  // SRC_NET_MESSAGE_STATS_H_
