// Tunable parameters of the lease protocol.
//
// The defaults correspond to the configuration Section 3.2 of the paper
// recommends for V-like file access: a 10-second term, millisecond message
// times and a clock-uncertainty allowance well under the term.
#ifndef SRC_CORE_PARAMS_H_
#define SRC_CORE_PARAMS_H_

#include <cstddef>

#include "src/common/time.h"

namespace leases {

struct ServerParams {
  // Approvals are multicast to all leaseholders ("one multicast request plus
  // S-1 approvals, for a total of S messages"). With false, approvals are
  // requested by unicast, costing 2(S-1) messages (footnote 6) -- the A2
  // ablation.
  bool multicast_approvals = true;

  // Section 4: the server "is also free to wait for a lease to expire
  // instead of seeking approval of a write". With false, no approval
  // callbacks are sent at all; every shared write simply waits out the
  // outstanding leases (saves S messages per write, costs up to a term of
  // write delay).
  bool consult_holders = true;

  // Pending-write approval requests are re-multicast at this interval until
  // every holder answers or expires, making approval robust to message loss.
  Duration approval_retry_interval = Duration::Millis(500);

  // --- Installed-file optimization (Section 4) ---
  // When enabled, keys covering directories registered via
  // LeaseServer::MarkInstalledKey are not tracked per holder; instead the
  // server periodically multicasts an InstalledExtend to every known client.
  bool installed_optimization = false;
  Duration installed_multicast_period = Duration::Seconds(2);
  Duration installed_term = Duration::Seconds(10);

  // Section 2's alternative recovery strategy: "the server can maintain a
  // more detailed record of leases on persistent storage". With true, every
  // grant/removal is written through to durable metadata; after a restart
  // the lease table is rebuilt and writes proceed immediately (no recovery
  // window) -- at the cost of one durable write per grant, "unlikely to be
  // justified unless terms of leases are much longer than the time to
  // recover". Assumes the server clock is continuous across restarts.
  bool persist_lease_records = false;

  // Writes held back for dedup replay: remembered (client, request) pairs.
  size_t write_dedup_capacity = 4096;

  // Writes arriving during the post-crash recovery window are queued and
  // drained when it ends. Beyond this many held writes the server sheds
  // load instead, rejecting with kUnavailable; clients retry with jittered
  // exponential backoff (ClientParams::unavailable_backoff_base).
  size_t recovery_queue_limit = 1024;

  // Sharded grant plane: shard index salted into bits [26,32) of the write
  // sequence counter so concurrent shards of one server draw from disjoint
  // seq ranges (clients key approval state by seq). 0 -- the plain-server
  // value -- leaves the sequence layout exactly as before. Bounds: at most
  // 64 shards, at most 2^26 writes per shard per incarnation.
  uint32_t shard_seq_salt = 0;

  // --- Grant-plane admission control ---
  // Bounded grant queue modeled as a leaky bucket over read/extend
  // arrivals: each admitted request adds one unit of backlog, drained at
  // grant_drain_rate units per second. When admitting one more request
  // would push the backlog past grant_queue_limit, the request is shed
  // with kUnavailable instead and the client retries with jittered
  // exponential backoff. 0 disables admission control (default).
  size_t grant_queue_limit = 0;
  double grant_drain_rate = 10000.0;
};

struct ClientParams {
  // The lease term received over the wire is shortened by
  // transit_allowance + epsilon before use: t_c = t_s - (m_prop + 2*m_proc)
  // - epsilon (Section 3.1). transit_allowance must upper-bound one-way
  // delivery time; epsilon bounds clock uncertainty over a term.
  //
  // EngineConfig::epsilon is the authoritative allowance for a cluster:
  // server-side policies (UncertaintyAwareTermPolicy) and the replicated
  // authority read it from there, and ClusterOptions::Validate() rejects a
  // client epsilon that disagrees with the engine's. This field exists
  // because clients are built from ClientParams alone and must shorten by
  // the same value the server sized the grant for.
  Duration transit_allowance = Duration::Millis(3);
  Duration epsilon = Duration::Millis(100);

  // Extend every held lease whenever any extension is sent (Section 3.1:
  // "a cache should extend together all leases over all files that it still
  // holds"). With false, only the file being read is extended.
  bool batch_extensions = true;

  // Renew leases before they expire so reads never stall on an extension
  // (Section 4 option; costs server load when idle -- the A4 ablation).
  bool anticipatory_extension = false;
  Duration anticipation_lead = Duration::Seconds(1);

  // De-synchronizes anticipatory extension timers across a fleet: each
  // anticipation tick is offset by a value in [-extension_jitter,
  // +extension_jitter] derived deterministically from the client id and a
  // per-client tick counter (no RNG stream is consumed, so zero-jitter
  // digests are unchanged). Without it, clients booted together extend in
  // lockstep forever -- a synchronized extension storm every lead/2.
  Duration extension_jitter = Duration::Zero();

  // Request retransmission (lost datagrams / crashed server). Every wait
  // is request_timeout with +/-25% jitter derived deterministically from
  // the request id, so a fleet re-probing a failed-over (or restarting)
  // server spreads its resends instead of stampeding in lockstep.
  Duration request_timeout = Duration::Seconds(2);
  int max_retries = 8;

  // Graceful degradation when the server answers kUnavailable (recovering
  // from a crash and shedding its write queue): instead of burning the
  // fixed request_timeout, the write is retried after an exponential
  // backoff -- base doubled per retry up to the cap, with +/-25% jitter
  // derived deterministically from the request id so a fleet of clients
  // does not stampede the recovering server in lockstep.
  Duration unavailable_backoff_base = Duration::Millis(200);
  Duration unavailable_backoff_max = Duration::Seconds(3);

  // Section 4: "The client is free in deciding ... when to approve a
  // write." A non-zero delay holds each approval for this long before
  // responding -- e.g. to finish a burst of reads over the covered datum
  // (Mirage's minimum-hold timer is this knob at larger values). The write
  // still commits no later than lease expiry.
  Duration approval_delay = Duration::Zero();

  // Maximum cached entries; 0 = unbounded. When full, the least-recently
  // accessed clean entry is evicted and its cover lease relinquished if no
  // other cached file shares it (evicted-but-leased entries would only
  // cause false sharing, Section 3).
  size_t max_cached_files = 0;

  // Non-write-through extension (Section 2 notes it is straightforward;
  // Burrows' MFS and Echo use it): writes are staged dirty and flushed
  // after write_back_delay, on lease-approval callbacks, or on Flush().
  bool write_back = false;
  Duration write_back_delay = Duration::Millis(500);

  // --- Dynamic self-invalidation (clock-health plane) ---
  // Under observed write contention a lease is a liability: every remote
  // write pays an approval round-trip to this client, and the client pays
  // extension traffic to keep a datum it keeps losing. When enabled, the
  // client tracks an exponentially-decayed per-cover-key contention score
  // (one point per approval callback served, halved every
  // contention_half_life) and sheds hot keys itself: scores at or above
  // contention_threshold drop the key from batched and anticipatory
  // extensions (the lease lapses instead of being renewed), and any
  // nonzero score shortens the locally-effective term of a fresh grant by
  // 1/(1+score) -- so conflict storms shed extension and approval load
  // before the server's policy has to. Off by default: behavior and
  // message flow are bit-identical to builds without the feature.
  bool dynamic_self_invalidation = false;
  double contention_threshold = 2.0;
  Duration contention_half_life = Duration::Seconds(10);
};

}  // namespace leases

#endif  // SRC_CORE_PARAMS_H_
