// LeaseServer: the primary storage site and lease grantor.
//
// Implements the server half of the protocol of Sections 2, 4 and 5:
//
//   * grants a lease with every read/extension; the term comes from a
//     pluggable TermPolicy (zero / fixed / infinite / adaptive);
//   * defers every write until each leaseholder has approved or its lease
//     has expired, with the writer's own approval implicit in the request;
//   * refuses new leases (grants term zero) on a cover key while a write is
//     waiting, so writes cannot be starved (footnote 1);
//   * commits writes through the durable FileStore -- the single commit
//     point -- and only then acknowledges the writer (write-through);
//   * persists the maximum term it has ever granted; on restart it honours
//     possibly-outstanding leases by holding writes for that period
//     (Section 2's recovery rule);
//   * optionally manages *installed files* with no per-client state: one
//     cover key per directory, renewed by periodic multicast; a write to an
//     installed file simply drops the key from the multicast and commits
//     once the advertised window has drained (Section 4);
//   * re-multicasts unanswered approval requests, so approval is robust to
//     message loss while never waiting past lease expiry.
//
// All correctness-critical time comparisons use the server's own clock; no
// remote clock value is ever trusted (Section 5).
#ifndef SRC_CORE_LEASE_SERVER_H_
#define SRC_CORE_LEASE_SERVER_H_

#include <deque>
#include <map>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/clock/clock.h"
#include "src/clock/timer_host.h"
#include "src/common/ids.h"
#include "src/core/lease_table.h"
#include "src/core/oracle.h"
#include "src/core/params.h"
#include "src/core/term_policy.h"
#include "src/fs/file_store.h"
#include "src/net/transport.h"
#include "src/proto/messages.h"

namespace leases {

struct ServerStats {
  uint64_t reads_served = 0;
  uint64_t not_modified_replies = 0;
  uint64_t extension_requests = 0;
  uint64_t extension_items = 0;
  uint64_t leases_granted = 0;
  uint64_t zero_term_grants = 0;
  // Requests carrying a client clock stamp, fed to the policy's estimator.
  uint64_t clock_samples = 0;

  uint64_t writes_received = 0;
  uint64_t writes_committed = 0;
  uint64_t writes_immediate = 0;   // no unexpired holder to consult
  uint64_t writes_deferred = 0;    // had to wait for approval or expiry
  uint64_t writes_expired_commit = 0;  // committed only via lease expiry
  uint64_t writes_rejected = 0;
  Duration write_wait_total;
  Duration max_write_wait;

  uint64_t approval_rounds = 0;     // multicast (or unicast batch) rounds
  uint64_t approval_retries = 0;
  uint64_t approvals_received = 0;
  uint64_t relinquishes = 0;

  uint64_t installed_multicasts = 0;
  uint64_t recovery_held_writes = 0;
  uint64_t recovery_shed_writes = 0;  // rejected kUnavailable at the limit

  // --- Grant-plane admission control (zero when disabled) ---
  uint64_t grants_shed = 0;        // reads/extends rejected kUnavailable
  uint64_t grant_backlog_peak = 0; // high-water mark of the modeled queue
  Duration recovery_window;
  uint64_t recovered_lease_records = 0;

  uint64_t dedup_replays = 0;

  // --- Durability plane (all zero when the meta store has no storage
  // backend). Mirrors StorageStats for the backend behind DurableMeta;
  // refreshed on every stats() read. ---
  uint64_t recoveries = 0;            // this incarnation found durable state
  uint64_t durability_refused_grants = 0;  // zero-term because the recovery
                                           //   record could not be persisted
  uint64_t journal_appends = 0;       // records appended (cumulative)
  uint64_t journal_replays = 0;       // replays performed (cumulative)
  uint64_t journal_replayed_records = 0;  // records in the last replay
  uint64_t journal_truncated_tails = 0;   // torn tails repaired on replay
  uint64_t journal_corrupt_dropped = 0;   // bad-CRC records dropped
  uint64_t snapshot_compactions = 0;
  Duration replay_duration;           // wall time of the last replay

  // --- Transport plane (filled in by the runtime harnesses from the UDP
  // transport's NodeMessageStats; always zero in simulation, where loss is
  // modelled in flight rather than at the sender). ---
  uint64_t send_failures = 0;
  // Datagrams a sharded runtime host dropped because the owning shard's
  // loop already had its limit of deliveries queued.
  uint64_t inbound_drops = 0;

  // --- Replicated authority plane (src/replica; zero everywhere else) ---
  uint64_t authority_rounds = 0;        // acquisition rounds started
  uint64_t authority_acquisitions = 0;  // takeovers completed on this node
  uint64_t authority_renewals = 0;      // quorum-confirmed lease renewals
  uint64_t authority_stepdowns = 0;     // confirmation lapsed; stopped serving
  uint64_t authority_warmup_waits = 0;  // restarts that paid the 1-term+2eps
                                        // acceptor warm-up silence
  uint64_t grant_cap_hits = 0;          // grants shortened to fit the
                                        // holder's confirmed authority lease
  uint64_t standby_reads_served = 0;    // reads answered by a non-holder
                                        // under delegated authority
};

// Durable-metadata keys of the server's recovery record. Exposed so the
// replicated authority (src/replica/authority.cc) can seed the recovery
// window (with the quorum-inherited grant bound) and the boot counter (with
// the monotonic quorum ballot, keeping write-seq ranges disjoint across
// failovers) before constructing an embedded LeaseServer.
inline constexpr const char kMaxTermMetaKey[] = "max_term_us";
inline constexpr const char kBootCountMetaKey[] = "boot_count";

class LeaseServer : public PacketHandler {
 public:
  // `store` and `meta` are the durable state and must outlive the server
  // (and survive its crash/restart in tests). `oracle` may be null.
  LeaseServer(NodeId id, FileStore* store, DurableMeta* meta,
              Transport* transport, Clock* clock, TimerHost* timers,
              TermPolicy* policy, ServerParams params, Oracle* oracle);
  ~LeaseServer() override;

  LeaseServer(const LeaseServer&) = delete;
  LeaseServer& operator=(const LeaseServer&) = delete;

  void HandlePacket(NodeId from, MessageClass cls,
                    std::span<const uint8_t> bytes) override;
  void HandleTyped(NodeId from, MessageClass cls,
                   const Packet& packet) override;

  // Enables the installed-file optimization for directory `dir`: re-covers
  // its installed files under the directory's key and adds the key to the
  // periodic multicast. Requires params.installed_optimization.
  Status InstallDirectory(FileId dir);

  // Pre-registers a client for installed-file multicasts (clients are also
  // learned from their first request).
  void RegisterClient(NodeId client);

  // Declares that NodeIds [base, base+count) are swarm members reachable
  // through the single multicast group address `group`: the server records
  // `group` once in its client set and never adds the members themselves,
  // so a million-client swarm costs zero per-client server state -- the
  // paper's multicast-group addressing for installed-file extension (§5).
  // Unicast replies to individual members are unaffected.
  void SetClientGroup(NodeId group, NodeId base, uint32_t count);

  const ServerStats& stats() const {
    RefreshDurabilityStats();
    return stats_;
  }
  NodeId id() const { return id_; }

  // Appends the FileIds with a write in flight (active or queued) to `out`,
  // up to `cap` entries; sets *overflow when the set was truncated. The
  // replicated authority piggybacks this on holder renewals so read-only
  // standbys refuse files a write might be racing (sorted for a canonical
  // wire image).
  void CollectWriteLocked(size_t cap, std::vector<uint64_t>* out,
                          bool* overflow) const;

  // --- Introspection for tests ---
  size_t ActiveLeaseCount(LeaseKey key) const;
  bool HasPendingWrite(FileId file) const;
  // Next write seq (pre-increment); the top 32 bits carry the durable boot
  // counter, so seq ranges of successive incarnations never collide.
  uint64_t next_write_seq() const { return next_write_seq_; }
  TimePoint recovery_until() const { return recovery_until_; }
  bool InRecovery() const { return recovering_; }
  // True when the boot counter could not be made durable: the server drops
  // every packet (equivalent to being down) rather than risk write-seq reuse.
  bool halted() const { return halted_; }
  const LeaseTable& lease_table() const { return table_; }
  size_t known_clients() const { return clients_.size(); }

 private:
  struct PendingWrite {
    uint64_t seq = 0;
    NodeId writer;
    RequestId req;
    FileId file;
    LeaseKey key;
    std::vector<uint8_t> data;
    uint64_t base_version = 0;
    std::vector<NodeId> waiting;  // holders yet to approve
    size_t holders_at_start = 0;  // S at the write (for the policy / stats)
    TimePoint deadline;           // server clock; commit no later than this
    TimerId deadline_timer;
    TimerId retry_timer;
    TimePoint arrival;
    bool installed = false;
    // Write-back flushes committed ahead of this write whose acks are held
    // until every non-flushing holder has invalidated (see
    // CommitFlushAhead / MaybeReleaseFlushAcks).
    std::set<NodeId> flushers;
    std::vector<std::pair<NodeId, WriteReply>> deferred_flush_acks;
  };

  struct QueuedWrite {
    NodeId from;
    WriteRequest request;
    TimePoint arrival;
    // Cover key blocked on admission; released when the write finishes.
    LeaseKey key;
  };

  struct InstalledKeyState {
    bool advertised = true;
    // Server-clock time the key last appeared in a multicast (or was
    // enabled). Direct grants never extend past last_advert + term, which is
    // the window a pending write waits out.
    TimePoint last_advert;
  };

  using WriteDedupKey = std::pair<uint32_t, uint64_t>;  // (node, request)

  // --- Packet handlers ---
  void OnReadRequest(NodeId from, const ReadRequest& m);
  void OnExtendRequest(NodeId from, const ExtendRequest& m);
  void OnWriteRequest(NodeId from, const WriteRequest& m);
  void OnApproveReply(NodeId from, const ApproveReply& m);
  void OnRelinquish(NodeId from, const Relinquish& m);

  // --- Write machinery ---
  void AdmitWrite(QueuedWrite write);
  void ActivateWrite(QueuedWrite write);
  // Commits a consulted holder's write-back flush ahead of the pending write
  // that is waiting on its approval (see CacheClient::OnApproveRequest).
  void CommitFlushAhead(PendingWrite& blocked, QueuedWrite write);
  // Sends deferred flush acks once only flushers remain unapproved.
  void MaybeReleaseFlushAcks(PendingWrite& pending);
  void SendApprovalRound(PendingWrite& pending, bool retry);
  void OnWriteDeadline(uint64_t seq);
  void CommitWrite(uint64_t seq, bool via_expiry);
  void FinishWrite(FileId file);
  void RejectWrite(NodeId from, const WriteRequest& m, ErrorCode code);
  void DrainRecoveryQueue();

  // --- Leases ---
  LeaseGrant GrantFor(NodeId from, const FileRecord& rec);
  // Durably records `term` as the maximum granted if it grows the maximum.
  // Returns false when the backend append fails; the caller must then not
  // acknowledge a grant of `term` (the recovery window would undershoot it).
  bool RecordMaxTerm(Duration term);
  void ForgetLeaseRecord(LeaseKey key, NodeId node);
  bool KeyBlocked(LeaseKey key) const;
  void BlockKey(LeaseKey key);
  void UnblockKey(LeaseKey key);

  // --- Installed files ---
  void InstalledMulticastTick();
  bool IsInstalledKey(LeaseKey key) const;

  // --- Admission control ---
  // Charges one unit of grant-plane work against the leaky-bucket backlog.
  // False when the queue is full: the caller sheds the request with
  // kUnavailable. Always true when grant_queue_limit == 0.
  bool AdmitGrantWork();

  // Both entry points (decoded bytes and the typed fast path) funnel here.
  void DispatchPacket(NodeId from, const Packet& packet);

  // Copies the storage-backend counters into stats_ (no-op when the meta
  // store is not backend-backed).
  void RefreshDurabilityStats() const;

  void SendTo(NodeId to, MessageClass cls, Packet packet);
  void RememberClient(NodeId from);
  void RememberWriteReply(NodeId to, const WriteReply& reply);
  const WriteReply* FindWriteReply(NodeId from, RequestId req) const;

  NodeId id_;
  FileStore* store_;
  DurableMeta* meta_;
  Transport* transport_;
  Clock* clock_;
  TimerHost* timers_;
  TermPolicy* policy_;
  ServerParams params_;
  Oracle* oracle_;

  LeaseTable table_;
  std::set<NodeId> clients_;
  // Swarm member range folded into one multicast group address (count == 0
  // when unset). Members are never inserted into clients_.
  NodeId group_addr_;
  NodeId group_base_;
  uint32_t group_count_ = 0;
  std::unordered_map<LeaseKey, InstalledKeyState> installed_keys_;
  TimerId installed_timer_;

  // Leaky-bucket grant queue (see ServerParams::grant_queue_limit).
  double grant_backlog_ = 0.0;
  TimePoint grant_drain_last_;

  uint64_t next_write_seq_ = 0;
  std::map<uint64_t, PendingWrite> pending_;
  // file -> active pending seq (0 none) and FIFO of queued writes behind it.
  std::unordered_map<FileId, uint64_t> active_write_;
  std::unordered_map<FileId, std::deque<QueuedWrite>> write_queue_;
  std::unordered_map<LeaseKey, int> blocked_keys_;

  // Committed-write replay cache keyed by (client, request id).
  std::map<WriteDedupKey, WriteReply> write_dedup_;
  std::deque<WriteDedupKey> write_dedup_order_;
  std::set<WriteDedupKey> writes_in_flight_;

  bool halted_ = false;  // boot counter not durable; serve nothing
  bool recovering_ = false;
  TimePoint recovery_until_;
  std::deque<QueuedWrite> recovery_queue_;
  TimerId recovery_timer_;
  Duration max_term_granted_;

  // Mutable so the const stats() accessor can refresh the durability-plane
  // mirror from the storage backend before returning.
  mutable ServerStats stats_;
};

}  // namespace leases

#endif  // SRC_CORE_LEASE_SERVER_H_
