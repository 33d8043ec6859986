// ShardedLeaseServer: the FileId-partitioned grant plane.
//
// N independent LeaseServer shards stand behind one NodeId. Shard i owns
// the files whose id hashes to it (shard_router.h): its own FileStore
// partition, LeaseTable, pending-write machinery, DurableMeta and timer
// host. Because the paper's protocol has no cross-file ordering requirement,
// the grant/extend/relinquish/write path of one shard never reads or writes
// another shard's state -- there are no locks and no shared cache lines on
// the hot path. The only cross-shard structure is the extend-split
// rendezvous below, touched solely by batched extensions that happen to
// span shards.
//
// The same routing runs in both worlds:
//   * simulator -- SimCluster installs a ShardedLeaseServer as the server
//     node's PacketHandler; HandleTyped routes each message to its owning
//     shard inline (single-threaded, deterministic).
//   * runtime -- RuntimeServer calls Route() on whichever shard loop
//     drained the datagram, and DeliverToShard() under the owning shard's
//     execution lock: on that same thread when the shard is free, else on
//     the shard's own loop.
//
// Cross-shard batched extensions (Section 3.1 batches every held lease into
// one ExtendRequest) are split into per-shard sub-requests; a reply tap on
// each shard's outbound transport collects the per-shard ExtendReplies and
// sends the client one merged reply in the original item order, so
// CacheClient needs no sharding awareness at all. Relinquish batches are
// split the same way (no reply to merge).
//
// Write sequence numbers: each shard salts its seq range with its index
// (ServerParams::shard_seq_salt), so ApproveRequests from different shards
// can never collide at a client that keys approval state by seq.
//
// Constraints in sharded mode (checked):
//   * installed_optimization is refused -- a directory cover key spanning
//     many files breaks the key==file routing invariant;
//   * stats() merges per-shard counters (sums; maxima for the max/window
//     fields). extension_requests counts per-shard sub-requests, so a split
//     extend counts once per shard it touched; extension_items is exact.
#ifndef SRC_CORE_SHARDED_LEASE_SERVER_H_
#define SRC_CORE_SHARDED_LEASE_SERVER_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "src/core/lease_server.h"
#include "src/core/shard_router.h"

namespace leases {

// Folds one shard's counters into a merged view: counters sum; the
// max/window fields (max_write_wait, recovery_window, replay_duration) take
// the maximum across shards.
void MergeServerStats(ServerStats* into, const ServerStats& from);

// Everything one shard needs from its environment. In the simulator every
// shard shares the server node's clock/timers/transport (one simulated
// host); in the runtime each shard gets its own event loop as timer host,
// and all shards share the host's thread-safe transport.
struct ShardEnv {
  FileStore* store = nullptr;
  DurableMeta* meta = nullptr;
  Clock* clock = nullptr;
  TimerHost* timers = nullptr;
  Transport* transport = nullptr;
  TermPolicy* policy = nullptr;
};

class ShardedLeaseServer : public PacketHandler {
 public:
  ShardedLeaseServer(NodeId id, std::vector<ShardEnv> envs,
                     ServerParams params, Oracle* oracle);
  ~ShardedLeaseServer() override;

  ShardedLeaseServer(const ShardedLeaseServer&) = delete;
  ShardedLeaseServer& operator=(const ShardedLeaseServer&) = delete;

  size_t num_shards() const { return shards_.size(); }
  NodeId id() const { return id_; }
  size_t ShardOf(FileId file) const {
    return ShardIndexOf(file, shards_.size());
  }
  LeaseServer& shard(size_t i) { return *shards_[i]->server; }
  const LeaseServer& shard(size_t i) const { return *shards_[i]->server; }

  // --- Inline dispatch (simulator; also fine for any single thread) ---
  void HandlePacket(NodeId from, MessageClass cls,
                    std::span<const uint8_t> bytes) override;
  void HandleTyped(NodeId from, MessageClass cls,
                   const Packet& packet) override;

  // --- Two-phase dispatch (runtime) ---
  // Route() runs on a receiving thread, on several at once in the runtime
  // (the rendezvous is locked): it resolves the owning shard (splitting
  // cross-shard extend/relinquish batches and arming the merge rendezvous)
  // and hands each delivery to `sink`, which runs it or posts it to the
  // shard's loop. DeliverToShard() then runs under that shard's lock.
  using DispatchSink =
      std::function<void(size_t shard, NodeId from, MessageClass cls,
                         Packet&& packet)>;
  void Route(NodeId from, MessageClass cls, Packet&& packet,
             const DispatchSink& sink);
  void DeliverToShard(size_t shard_index, NodeId from, MessageClass cls,
                      const Packet& packet);

  // --- Partition maintenance ---
  // Copies every record of the namespace store into its owning shard's
  // partition (setup / recovery).
  void AdoptAll(const FileStore& namespace_store);
  // Mirror hook body: upserts (rec != null) or drops (rec == null) one
  // record in the owning shard. Wire it as the namespace store's mirror:
  //   ns.SetMirror([&s](FileId f, const FileRecord* r){ s.MirrorRecord(f,r); });
  void MirrorRecord(FileId file, const FileRecord* rec);

  // Looks the record up in its owning shard (partitions are authoritative
  // once traffic runs; the namespace store's data copy goes stale).
  const FileRecord* FindRecord(FileId file) const;

  // Merged per-shard counters (see the header comment for semantics).
  ServerStats stats() const;

  // Routed introspection, mirroring LeaseServer's test accessors.
  size_t ActiveLeaseCount(LeaseKey key) const;
  bool HasPendingWrite(FileId file) const;

  // Max outstanding client-grant expiry over every shard (>= now). The
  // replicated authority piggybacks this on renewals as the grant horizon.
  TimePoint GlobalMaxExpiry(TimePoint now) const;

  // Union of every shard's write-locked FileIds (see
  // LeaseServer::CollectWriteLocked), truncated to `cap` with *overflow set.
  void CollectWriteLocked(size_t cap, std::vector<uint64_t>* out,
                          bool* overflow) const;

  void RegisterClient(NodeId client);

 private:
  // One cross-shard batched extension awaiting its per-shard replies.
  struct ExtendSplit {
    std::vector<ExtendReplyItem> slots;  // original request item order
    // Per shard: which original indexes its sub-request covered, in
    // sub-request item order (reply items come back in request order).
    std::vector<std::vector<uint32_t>> index_of;
    size_t remaining = 0;  // shards yet to reply
    MessageClass cls = MessageClass::kConsistency;
  };
  using SplitKey = std::pair<uint32_t, uint64_t>;  // (client, request id)

  // Per-shard outbound transport: forwards everything to the shard's real
  // transport except ExtendReplies that belong to an active split, which it
  // collects into the rendezvous (the last shard sends the merged reply).
  class ReplyTap : public Transport {
   public:
    ReplyTap(ShardedLeaseServer* owner, size_t shard_index, Transport* inner)
        : owner_(owner), shard_(shard_index), inner_(inner) {}

    NodeId local_node() const override { return inner_->local_node(); }
    void Send(NodeId dst, MessageClass cls,
              std::vector<uint8_t> bytes) override {
      inner_->Send(dst, cls, std::move(bytes));
    }
    void Multicast(std::span<const NodeId> dst, MessageClass cls,
                   std::vector<uint8_t> bytes) override {
      inner_->Multicast(dst, cls, std::move(bytes));
    }
    void Send(NodeId dst, MessageClass cls, Packet packet) override;
    void Multicast(std::span<const NodeId> dst, MessageClass cls,
                   Packet packet) override {
      inner_->Multicast(dst, cls, std::move(packet));
    }

   private:
    ShardedLeaseServer* owner_;
    size_t shard_;
    Transport* inner_;
  };

  struct Shard {
    ShardEnv env;
    std::unique_ptr<ReplyTap> tap;
    std::unique_ptr<LeaseServer> server;
  };

  void RouteSplitExtend(NodeId from, MessageClass cls, const ExtendRequest& m,
                        const DispatchSink& sink);
  void RouteSplitRelinquish(NodeId from, MessageClass cls, const Relinquish& m,
                            const DispatchSink& sink);
  // Returns true when the reply was absorbed into a split (and, on the last
  // shard, `merged` holds the reply to forward to the client, with
  // `merged_cls` its message class).
  bool AbsorbExtendReply(size_t shard_index, NodeId dst, MessageClass cls,
                         Packet& packet, std::optional<Packet>* merged,
                         MessageClass* merged_cls);

  NodeId id_;
  ServerParams params_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Extend-split rendezvous. Only batched extensions that span shards touch
  // this; the single-shard fast path checks the atomic and moves on.
  std::atomic<uint32_t> active_splits_{0};
  std::mutex splits_mu_;
  std::map<SplitKey, ExtendSplit> splits_;
};

}  // namespace leases

#endif  // SRC_CORE_SHARDED_LEASE_SERVER_H_
