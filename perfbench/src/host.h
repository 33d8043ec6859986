// Host adapter: the one place the benchmark constructs a server host.
//
// Workloads see only BenchHost, so a change to how the runtime hosts are
// built (or a merge of them) touches this file and leaves the workload code
// byte-identical.
//
//   kPlain    RuntimeServer, untraced; or, for a traced run, a host
//             assembled from the same public parts RuntimeServer::Start
//             uses (EventLoop + UdpTransport + MakeServerEngine) with a
//             timing Transport and a timing PacketHandler around the engine.
//   kSharded  ShardedRuntimeServer with 2 shards; traced runs use only
//             the hooks it exposes (stats(), processed(), dropped()).
#ifndef PERFBENCH_SRC_HOST_H_
#define PERFBENCH_SRC_HOST_H_

#include <memory>
#include <vector>

#include "perfbench/src/trace.h"
#include "src/core/lease_server.h"
#include "src/fs/file_store.h"

namespace perfbench {

enum class HostKind { kPlain, kSharded };

// Server-side layer views sampled from a running host.
struct HostCounters {
  leases::ServerStats server;
  uint64_t shard_processed = 0;  // sharded host only
  uint64_t ring_drops = 0;       // sharded host only
};

// Traced-run histograms of the plain host's server loop (empty elsewhere).
struct HostTrace {
  const LatencyHistogram* handle = nullptr;
  const LatencyHistogram* send = nullptr;
  std::vector<const SpanLog*> spans;
};

class BenchHost {
 public:
  virtual ~BenchHost() = default;

  // Pre-start namespace setup; must not be touched once serving.
  virtual leases::FileStore& store() = 0;
  virtual leases::Status Start() = 0;
  virtual uint16_t port() const = 0;
  virtual void AddPeer(leases::NodeId client, uint16_t port) = 0;
  virtual HostCounters counters() = 0;
  // One timed round trip into the server's protocol thread(s): an empty
  // WithServer on the plain host (event_loop.server_runsync), the merged
  // stats() divided by the shard count on the sharded one
  // (shard_loop.runsync). Returns the nanoseconds per loop.
  virtual int64_t ProbeServerLoop() = 0;
  virtual void Stop() = 0;
  // Valid after Stop().
  virtual HostTrace trace() const { return {}; }
};

// `slots` is non-null only for a traced run: the plain host then installs
// the timing decorators, attributing server work to each client's call.
std::unique_ptr<BenchHost> MakeHost(HostKind kind, const SlotMap* slots);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HOST_H_
