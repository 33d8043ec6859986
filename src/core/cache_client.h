// CacheClient: a write-through client file cache kept consistent by leases.
//
// The client half of the protocol of Section 2:
//
//   * a read is served from the cache only while the datum is present AND
//     its cover lease is valid on the client's own clock; the term received
//     on the wire is shortened by a transit + clock-uncertainty allowance
//     (t_c = t_s - (m_prop + 2*m_proc) - epsilon, Section 3.1);
//   * a read past expiry extends the lease -- batched over every file the
//     cache still holds -- refreshing any datum that changed meanwhile;
//   * writes go through to the server and complete only when the server has
//     committed them (write-through: "no write that has been made visible to
//     any client can be lost");
//   * temporary files are handled locally and never generate traffic
//     ("analogous to using a local disk for temporary files");
//   * granting approval for another client's write invalidates the local
//     copy; if nothing else is cached under the cover key the lease is
//     relinquished with the approval;
//   * installed-file leases are renewed passively by server multicast;
//   * name-to-file bindings and permission bits are cached and leased like
//     any other datum (directories are data), so a repeated open() costs no
//     messages.
//
// Options from Section 4: anticipatory extension (renew before expiry),
// voluntary relinquish of idle leases, and -- as the straightforward
// extension the paper mentions -- a non-write-through (write-back) mode that
// stages dirty data and flushes it on a timer, on Flush(), or before
// approving another client's write.
//
// The class is not thread-safe: all calls (API, packet delivery, timers)
// must be serialized by the owning simulator or event loop -- in the runtime
// by the loop's execution lock, whichever thread they run on.
#ifndef SRC_CORE_CACHE_CLIENT_H_
#define SRC_CORE_CACHE_CLIENT_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/clock/clock.h"
#include "src/clock/timer_host.h"
#include "src/common/ids.h"
#include "src/common/result.h"
#include "src/core/oracle.h"
#include "src/core/params.h"
#include "src/net/transport.h"
#include "src/proto/messages.h"

namespace leases {

struct ReadResult {
  FileId file;
  uint64_t version = 0;
  std::vector<uint8_t> data;
  bool from_cache = false;
};

struct WriteResult {
  FileId file;
  uint64_t version = 0;
  // True when the write was only staged locally (write-back mode) and will
  // reach the server on flush.
  bool staged = false;
};

struct OpenResult {
  FileId file;
  FileClass file_class = FileClass::kNormal;
  uint32_t mode = 0;
};

using ReadCallback = std::function<void(Result<ReadResult>)>;
using WriteCallback = std::function<void(Result<WriteResult>)>;
using OpenCallback = std::function<void(Result<OpenResult>)>;

struct ClientStats {
  uint64_t reads = 0;
  uint64_t local_reads = 0;      // served from cache under a valid lease
  uint64_t remote_fetches = 0;   // ReadRequest round-trips
  uint64_t extend_requests = 0;  // ExtendRequest round-trips
  uint64_t extend_items = 0;
  uint64_t refreshed_items = 0;  // stale data refreshed by an extension

  uint64_t writes = 0;
  uint64_t temp_local_writes = 0;
  uint64_t writes_failed = 0;
  uint64_t write_back_flushes = 0;

  uint64_t approvals_granted = 0;
  uint64_t invalidations = 0;
  uint64_t keys_relinquished = 0;
  uint64_t installed_renewals = 0;
  // Grants discarded because the reply carrying them was overtaken by an
  // approval that relinquished the same cover key.
  uint64_t poisoned_grants = 0;

  uint64_t opens = 0;
  uint64_t retransmits = 0;
  uint64_t timeouts = 0;
  uint64_t evictions = 0;
  // Writes the recovering server shed with kUnavailable, retried after a
  // jittered exponential backoff rather than failed.
  uint64_t unavailable_retries = 0;

  // Dynamic self-invalidation (ClientParams::dynamic_self_invalidation):
  // extension items not sent because the cover key was write-contended, and
  // grants whose locally-effective term was shortened by contention.
  uint64_t contention_skipped_items = 0;
  uint64_t contention_shortened_leases = 0;
};

class CacheClient : public PacketHandler {
 public:
  // `root` is the server's root directory id (a well-known value, like NFS
  // file handle 2). `oracle` may be null (real-time runtime).
  // `incarnation` must differ between successive lives of the same NodeId
  // (e.g. a restart counter or a boot timestamp); it salts request ids so
  // the server's duplicate-suppression never confuses two incarnations.
  CacheClient(NodeId id, NodeId server, FileId root, Transport* transport,
              Clock* clock, TimerHost* timers, ClientParams params,
              Oracle* oracle, uint64_t incarnation = 0);
  ~CacheClient() override;

  CacheClient(const CacheClient&) = delete;
  CacheClient& operator=(const CacheClient&) = delete;

  // Resolves a '/'-separated absolute path through cached, leased directory
  // data; permission bits are checked from the cached bindings.
  void Open(const std::string& path, OpenCallback cb);
  void Read(FileId file, ReadCallback cb);
  void Write(FileId file, std::vector<uint8_t> data, WriteCallback cb);
  // Write-back mode: pushes staged data through now.
  void Flush(FileId file, WriteCallback cb);

  // Voluntarily relinquishes leases on cover keys whose every cached file
  // has been idle for `idle`; data stays cached (the next read re-extends).
  void RelinquishIdle(Duration idle);

  // Drops all cached data and leases (cache eviction / simulated crash of
  // the cache contents without a process restart).
  void DropCache();

  const ClientStats& stats() const { return stats_; }
  NodeId id() const { return id_; }

  // --- Introspection for tests ---
  bool HasCached(FileId file) const;
  bool HasValidLease(FileId file) const;
  size_t cache_size() const { return cache_.size(); }
  size_t lease_count() const { return lease_expiry_.size(); }

  void HandlePacket(NodeId from, MessageClass cls,
                    std::span<const uint8_t> bytes) override;
  void HandleTyped(NodeId from, MessageClass cls,
                   const Packet& packet) override;

 private:
  struct Entry {
    std::vector<uint8_t> data;
    uint64_t version = 0;
    FileClass file_class = FileClass::kNormal;
    LeaseKey key;
    // Set when the entry's cover lease lapsed and was later re-established
    // without this datum being revalidated: a write may have slipped into
    // the gap (the installed-files drop-from-multicast path relies on
    // exactly that). Suspect entries revalidate before being served.
    bool suspect = false;
    TimePoint last_access;
    // Write-back state.
    bool dirty = false;
    std::vector<uint8_t> dirty_data;
    TimerId flush_timer;
  };

  struct ReadWaiter {
    FileId file;
    ReadCallback cb;
    Oracle::ReadToken token;
    bool has_token = false;
  };

  struct PendingFetch {
    RequestId req;
    bool is_extend = false;
    // Resend state.
    FileId file;             // for ReadRequest
    uint64_t have_version = 0;
    std::vector<ExtendItem> items;  // for ExtendRequest
    std::vector<ReadWaiter> waiters;
    int retries = 0;
    TimerId timer;
    // Local clock reading when the request was *first* sent. The server's
    // term cannot have started counting before this instant, so it anchors
    // an upper bound on the lease expiry a (possibly delayed or reordered)
    // reply may establish -- see AcceptLease.
    TimePoint sent_at;
    // Cover keys this client relinquished while the fetch was on the wire.
    // The reply may carry a grant of such a key that the server issued
    // *before* it processed the relinquish (the approval overtook the reply
    // in the network); installing that grant would leave the client serving
    // cached reads the server no longer consults it about. Poisoned grants
    // install their data but stay `suspect` and take no lease.
    std::vector<LeaseKey> poisoned_keys;
  };

  struct PendingWriteOp {
    RequestId req;
    FileId file;
    std::vector<uint8_t> data;
    uint64_t base_version = 0;
    WriteCallback cb;
    int retries = 0;
    TimerId timer;
    bool is_flush = false;
  };

  struct OpenState {
    std::vector<std::string> parts;
    size_t index = 0;
    FileId current;
    FileClass last_class = FileClass::kNormal;
    uint32_t last_mode = 0;
    OpenCallback cb;
  };

  // --- Reads ---
  void ServeLocal(const Entry& entry, FileId file, ReadWaiter waiter);
  void StartFetch(FileId file, ReadWaiter waiter);
  void StartExtension(FileId focus, ReadWaiter waiter);
  std::vector<ExtendItem> CollectExtensionItems(FileId focus);
  void OnReadReply(const ReadReply& m);
  void OnExtendReply(const ExtendReply& m);
  void FailFetch(PendingFetch& fetch, ErrorCode code);
  void ArmFetchTimer(RequestId req);
  void ResendFetch(RequestId req);

  // --- Writes ---
  void SendWrite(FileId file, std::vector<uint8_t> data, uint64_t base_version,
                 bool is_flush, WriteCallback cb);
  void OnWriteReply(const WriteReply& m);
  void ArmWriteTimer(RequestId req);
  void ResendWrite(RequestId req);
  // Delay before the attempt after `retries` kUnavailable rejections:
  // exponential in `retries`, capped, with deterministic +/-25% jitter
  // salted by the request id.
  Duration UnavailableBackoff(int retries, uint64_t salt) const;
  // Wait before declaring the attempt after `retries` resends lost:
  // request_timeout with the same deterministic jitter.
  Duration ResendDelay(int retries, uint64_t salt) const;
  void StageWriteBack(FileId file, Entry& entry, std::vector<uint8_t> data,
                      WriteCallback cb);
  void FlushEntry(FileId file, WriteCallback cb);

  // --- Server-initiated ---
  void OnApproveRequest(const ApproveRequest& m);
  void OnInstalledExtend(const InstalledExtend& m);
  void SendApproval(uint64_t seq, FileId file, LeaseKey key);

  // --- Leases ---
  // Applies the received term with client-side shortening; records expiry on
  // the local clock. If the key's lease had lapsed, every cached entry under
  // it other than `validated` becomes suspect (see Entry::suspect).
  // `anchor`, when not TimePoint::Max(), is the local time the originating
  // request was first sent; the expiry is capped at anchor + term - epsilon
  // so a reply the network held back longer than transit_allowance can never
  // extend the lease past the server's own expiry (the cap is slack whenever
  // the round trip stayed within the allowance). Replies without a request
  // of their own (InstalledExtend) carry no anchor and rely on the
  // transit_allowance bound alone.
  void AcceptLease(const LeaseGrant& grant, FileId validated = FileId(),
                   TimePoint anchor = TimePoint::Max());
  bool LeaseValid(LeaseKey key) const;
  void MaybeScheduleAnticipation();
  void AnticipationTick();

  // --- Dynamic self-invalidation ---
  // One contention point per approval callback served for `key`,
  // exponentially decayed (ClientParams::contention_half_life). No-ops
  // unless params_.dynamic_self_invalidation.
  void NoteContention(LeaseKey key);
  // Current decayed score; 0 for untracked keys or when disabled.
  double ContentionScore(LeaseKey key) const;
  // True when the key is hot enough that extensions should stop carrying
  // it (score >= contention_threshold).
  bool KeyContended(LeaseKey key) const;
  // Local clock in microseconds for request stamping (0 stays "absent").
  uint64_t ClockStampUs() const;

  struct Contention;
  double DecayedScore(const Contention& c, TimePoint now) const;

  void StepOpen(std::shared_ptr<OpenState> state);

  // Enforces params_.max_cached_files by evicting the least-recently
  // accessed clean entry (never `keep`).
  void MaybeEvict(FileId keep);
  // Drops the key's lease and tells the server, unless another cached entry
  // still uses the key.
  void RelinquishKeyIfUnused(LeaseKey key);

  // Both entry points (decoded bytes and the typed fast path) funnel here.
  void DispatchPacket(NodeId from, const Packet& packet);

  void SendToServer(MessageClass cls, Packet packet);
  Oracle::ReadToken BeginRead(FileId file);
  void FinishRead(const ReadWaiter& waiter, const Entry& entry,
                  bool from_cache);

  NodeId id_;
  NodeId server_;
  FileId root_;
  Transport* transport_;
  Clock* clock_;
  TimerHost* timers_;
  ClientParams params_;
  Oracle* oracle_;

  std::unordered_map<FileId, Entry> cache_;
  // Cover key -> expiry on the local clock. Absent or past == invalid.
  std::unordered_map<LeaseKey, TimePoint> lease_expiry_;

  IdGenerator<RequestId> request_ids_;
  std::map<RequestId, PendingFetch> fetches_;
  std::unordered_map<FileId, RequestId> fetch_for_file_;
  std::map<RequestId, PendingWriteOp> writes_;
  // Approvals deferred behind a write-back flush: write_seq -> (file, key).
  std::map<uint64_t, std::pair<FileId, LeaseKey>> deferred_approvals_;

  TimerId anticipation_timer_;
  // Tick counter salting the deterministic extension-jitter hash.
  uint64_t anticipation_seq_ = 0;

  // Dynamic self-invalidation: decayed per-cover-key contention scores.
  struct Contention {
    double score = 0.0;
    TimePoint updated;
  };
  std::unordered_map<LeaseKey, Contention> contention_;

  ClientStats stats_;
};

}  // namespace leases

#endif  // SRC_CORE_CACHE_CLIENT_H_
