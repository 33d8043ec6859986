// Unit tests for CacheClient features: batching, anticipatory extension,
// voluntary relinquish, write-back mode, open() edge cases and cache
// management.
#include <gtest/gtest.h>

#include <optional>

#include "src/core/sim_cluster.h"
#include "src/workload/v_config.h"

namespace leases {
namespace {

ClusterOptions Base(size_t clients = 2) {
  return MakeVClusterOptions(Duration::Seconds(10), clients);
}

TEST(BatchingTest, OneExtensionCoversAllCachedFiles) {
  SimCluster cluster(Base());
  std::vector<FileId> files;
  for (int i = 0; i < 5; ++i) {
    files.push_back(*cluster.store().CreatePath(
        "/f" + std::to_string(i), FileClass::kNormal, Bytes("x")));
    ASSERT_TRUE(cluster.SyncRead(0, files.back()).ok());
  }
  cluster.RunFor(Duration::Seconds(11));  // all leases lapse
  ASSERT_TRUE(cluster.SyncRead(0, files[0]).ok());
  // A single request extended every held lease...
  EXPECT_EQ(cluster.client(0).stats().extend_requests, 1u);
  EXPECT_EQ(cluster.client(0).stats().extend_items, 5u);
  // ...so the other files are local hits again without any traffic.
  uint64_t extensions = cluster.server().stats().extension_requests;
  for (FileId f : files) {
    Result<ReadResult> r = cluster.SyncRead(0, f);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->from_cache);
  }
  EXPECT_EQ(cluster.server().stats().extension_requests, extensions);
}

TEST(BatchingTest, DisabledBatchingExtendsOnlyTheReadFile) {
  ClusterOptions options = Base();
  options.client.batch_extensions = false;
  SimCluster cluster(options);
  FileId a = *cluster.store().CreatePath("/a", FileClass::kNormal, Bytes("x"));
  FileId b = *cluster.store().CreatePath("/b", FileClass::kNormal, Bytes("x"));
  ASSERT_TRUE(cluster.SyncRead(0, a).ok());
  ASSERT_TRUE(cluster.SyncRead(0, b).ok());
  cluster.RunFor(Duration::Seconds(11));
  ASSERT_TRUE(cluster.SyncRead(0, a).ok());
  EXPECT_EQ(cluster.client(0).stats().extend_items, 1u);
  // b still has no valid lease.
  EXPECT_TRUE(cluster.client(0).HasValidLease(a));
  EXPECT_FALSE(cluster.client(0).HasValidLease(b));
}

TEST(BatchingTest, ConcurrentReadsJoinOneInFlightRequest) {
  SimCluster cluster(Base());
  FileId file = *cluster.store().CreatePath("/f", FileClass::kNormal,
                                            Bytes("x"));
  int done = 0;
  for (int i = 0; i < 5; ++i) {
    cluster.client(0).Read(file, [&](Result<ReadResult> r) {
      ASSERT_TRUE(r.ok());
      ++done;
    });
  }
  cluster.RunFor(Duration::Seconds(1));
  EXPECT_EQ(done, 5);
  // One fetch served all five concurrent readers.
  EXPECT_EQ(cluster.client(0).stats().remote_fetches, 1u);
  EXPECT_EQ(cluster.server().stats().reads_served, 1u);
}

TEST(AnticipatoryTest, RenewalPreventsReadStalls) {
  ClusterOptions options = Base();
  options.client.anticipatory_extension = true;
  options.client.anticipation_lead = Duration::Seconds(3);
  SimCluster cluster(options);
  FileId file = *cluster.store().CreatePath("/f", FileClass::kNormal,
                                            Bytes("x"));
  ASSERT_TRUE(cluster.SyncRead(0, file).ok());
  // Far past the original term: the background renewals kept it valid.
  cluster.RunFor(Duration::Seconds(60));
  EXPECT_TRUE(cluster.client(0).HasValidLease(file));
  Result<ReadResult> r = cluster.SyncRead(0, file);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->from_cache);
  // The cost: extensions happened with no reads at all (idle-client load).
  EXPECT_GE(cluster.client(0).stats().extend_requests, 5u);
}

TEST(RelinquishTest, IdleLeasesAreGivenUpAndWritesSpeedUp) {
  SimCluster cluster(Base(2));
  FileId file = *cluster.store().CreatePath("/f", FileClass::kNormal,
                                            Bytes("x"));
  ASSERT_TRUE(cluster.SyncRead(1, file).ok());
  cluster.RunFor(Duration::Seconds(5));
  cluster.client(1).RelinquishIdle(Duration::Seconds(2));
  cluster.RunFor(Duration::Millis(10));
  EXPECT_EQ(cluster.client(1).stats().keys_relinquished, 1u);
  EXPECT_EQ(cluster.server().stats().relinquishes, 1u);
  EXPECT_EQ(cluster.server().ActiveLeaseCount(
                cluster.store().CoverOf(file)), 0u);
  // A write now needs no approval at all.
  ASSERT_TRUE(cluster.SyncWrite(0, file, Bytes("y")).ok());
  EXPECT_EQ(cluster.server().stats().approval_rounds, 0u);
  // Data stayed cached; the next read only needs an extension.
  EXPECT_TRUE(cluster.client(1).HasCached(file));
}

TEST(RelinquishTest, ActiveLeasesAreKept) {
  SimCluster cluster(Base());
  FileId file = *cluster.store().CreatePath("/f", FileClass::kNormal,
                                            Bytes("x"));
  ASSERT_TRUE(cluster.SyncRead(0, file).ok());
  cluster.client(0).RelinquishIdle(Duration::Seconds(2));  // just accessed
  cluster.RunFor(Duration::Millis(10));
  EXPECT_EQ(cluster.client(0).stats().keys_relinquished, 0u);
  EXPECT_TRUE(cluster.client(0).HasValidLease(file));
}

TEST(DropCacheTest, EvictionLosesDataButNotCorrectness) {
  SimCluster cluster(Base());
  FileId file = *cluster.store().CreatePath("/f", FileClass::kNormal,
                                            Bytes("x"));
  ASSERT_TRUE(cluster.SyncRead(0, file).ok());
  cluster.client(0).DropCache();
  EXPECT_EQ(cluster.client(0).cache_size(), 0u);
  EXPECT_EQ(cluster.client(0).lease_count(), 0u);
  Result<ReadResult> r = cluster.SyncRead(0, file);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->from_cache);
  EXPECT_EQ(cluster.oracle().violations(), 0u);
}

TEST(OpenTest, ErrorsPropagate) {
  SimCluster cluster(Base());
  EXPECT_EQ(cluster.SyncOpen(0, "no-slash").code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(cluster.SyncOpen(0, "/missing/file").code(),
            ErrorCode::kNotFound);
  Result<OpenResult> root = cluster.SyncOpen(0, "/");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->file, cluster.store().root());
  EXPECT_EQ(root->file_class, FileClass::kDirectory);
}

TEST(OpenTest, ReturnsModeAndClassFromBinding) {
  SimCluster cluster(Base());
  ASSERT_TRUE(cluster.store()
                  .CreatePath("/bin/tool", FileClass::kInstalled,
                              Bytes("t"), kModeRead)
                  .ok());
  Result<OpenResult> open = cluster.SyncOpen(0, "/bin/tool");
  ASSERT_TRUE(open.ok());
  EXPECT_EQ(open->file_class, FileClass::kInstalled);
  EXPECT_EQ(open->mode, kModeRead);
}

// --- Write-back mode (the paper's non-write-through extension) ---

ClusterOptions WriteBack(size_t clients = 2) {
  ClusterOptions options = Base(clients);
  options.client.write_back = true;
  options.client.write_back_delay = Duration::Millis(500);
  return options;
}

TEST(WriteBackTest, StagedWriteIsLocalUntilFlush) {
  SimCluster cluster(WriteBack());
  FileId file = *cluster.store().CreatePath("/f", FileClass::kNormal,
                                            Bytes("v1"));
  ASSERT_TRUE(cluster.SyncRead(0, file).ok());
  Result<WriteResult> w = cluster.SyncWrite(0, file, Bytes("v2"));
  ASSERT_TRUE(w.ok());
  EXPECT_TRUE(w->staged);
  // Not at the server yet...
  EXPECT_EQ(Text(cluster.store().Find(file)->data), "v1");
  // ...but read-your-writes holds locally.
  Result<ReadResult> r = cluster.SyncRead(0, file);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Text(r->data), "v2");
  // The background flush timer pushes it through.
  cluster.RunFor(Duration::Seconds(1));
  EXPECT_EQ(Text(cluster.store().Find(file)->data), "v2");
  EXPECT_EQ(cluster.client(0).stats().write_back_flushes, 1u);
}

TEST(WriteBackTest, ExplicitFlush) {
  SimCluster cluster(WriteBack());
  FileId file = *cluster.store().CreatePath("/f", FileClass::kNormal,
                                            Bytes("v1"));
  ASSERT_TRUE(cluster.SyncRead(0, file).ok());
  ASSERT_TRUE(cluster.SyncWrite(0, file, Bytes("v2")).ok());
  bool flushed = false;
  cluster.client(0).Flush(file, [&](Result<WriteResult> r) {
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->version, 2u);
    flushed = true;
  });
  cluster.RunFor(Duration::Millis(50));
  EXPECT_TRUE(flushed);
  EXPECT_EQ(Text(cluster.store().Find(file)->data), "v2");
  // Flushing a clean entry is a no-op success.
  bool noop = false;
  cluster.client(0).Flush(file, [&](Result<WriteResult> r) {
    EXPECT_TRUE(r.ok());
    noop = true;
  });
  cluster.RunFor(Duration::Millis(10));
  EXPECT_TRUE(noop);
}

TEST(WriteBackTest, ApprovalTriggersFlushWithoutDeadlockOrLostData) {
  // The critical interaction: client 0 holds staged dirty data; client 1
  // writes the same file. Client 0 must flush BEFORE approving, the server
  // commits the flush ahead of the blocked write, and nothing deadlocks or
  // is lost: final order is (flush, then write).
  SimCluster cluster(WriteBack(2));
  FileId file = *cluster.store().CreatePath("/f", FileClass::kNormal,
                                            Bytes("v1"));
  ASSERT_TRUE(cluster.SyncRead(0, file).ok());
  ASSERT_TRUE(cluster.SyncWrite(0, file, Bytes("staged-by-0")).ok());

  TimePoint start = cluster.sim().Now();
  // Client 1 has no cached entry, so its write goes straight through.
  Result<WriteResult> w =
      cluster.SyncWrite(1, file, Bytes("written-by-1"), Duration::Seconds(5));
  ASSERT_TRUE(w.ok());
  // Resolved by a flush round-trip, not by waiting out the 10 s lease.
  EXPECT_LT(cluster.sim().Now() - start, Duration::Millis(100));
  // Both writes committed, in causal order.
  EXPECT_EQ(w->version, 3u);
  EXPECT_EQ(Text(cluster.store().Find(file)->data), "written-by-1");
  EXPECT_EQ(cluster.client(0).stats().write_back_flushes, 1u);
  EXPECT_EQ(cluster.oracle().violations(), 0u);
  // Client 0's copy was invalidated by its (post-flush) approval.
  EXPECT_FALSE(cluster.client(0).HasCached(file));
}

TEST(WriteBackTest, ReadAfterLeaseLapseFlushesFirst) {
  SimCluster cluster(WriteBack());
  // Long write-back delay so the staged data outlives the lease.
  FileId file = *cluster.store().CreatePath("/f", FileClass::kNormal,
                                            Bytes("v1"));
  ASSERT_TRUE(cluster.SyncRead(0, file).ok());
  bool staged = false;
  cluster.client(0).Write(file, Bytes("v2"), [&](Result<WriteResult> r) {
    ASSERT_TRUE(r.ok());
    staged = r->staged;
  });
  cluster.RunFor(Duration::Millis(10));
  ASSERT_TRUE(staged);
  cluster.RunFor(Duration::Seconds(12));  // lease gone; flush timer fired
  Result<ReadResult> r = cluster.SyncRead(0, file);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Text(r->data), "v2");
  EXPECT_EQ(cluster.store().Find(file)->version, 2u);
  EXPECT_EQ(cluster.oracle().violations(), 0u);
}

TEST(TimeoutTest, UnreachableServerFailsReadsAfterRetries) {
  ClusterOptions options = Base();
  options.client.request_timeout = Duration::Millis(200);
  options.client.max_retries = 3;
  SimCluster cluster(options);
  FileId file = *cluster.store().CreatePath("/f", FileClass::kNormal,
                                            Bytes("x"));
  cluster.PartitionClient(0, true);
  Result<ReadResult> r = cluster.SyncRead(0, file, Duration::Seconds(10));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kTimeout);
  EXPECT_EQ(cluster.client(0).stats().retransmits, 3u);
  EXPECT_EQ(cluster.client(0).stats().timeouts, 1u);
}

// Regression: an approval that lands while a batched extension is on the
// wire erases the cached entry. The server saw the cache's version as
// current, so its extension reply carries a version but no data. That reply
// must not resurrect the entry with empty data; the waiting read fetches the
// file afresh instead.
TEST(ExtensionRaceTest, ApprovalDuringExtensionRefetchesInsteadOfEmptyData) {
  SimCluster cluster(Base());
  FileId file = *cluster.store().CreatePath("/f", FileClass::kNormal,
                                            Bytes("payload"));
  ASSERT_TRUE(cluster.SyncRead(0, file).ok());
  cluster.RunFor(Duration::Seconds(11));  // the lease lapses, the data stays

  std::optional<Result<ReadResult>> read;
  cluster.client(0).Read(file,
                         [&](Result<ReadResult> r) { read = std::move(r); });
  ASSERT_EQ(cluster.client(0).stats().extend_requests, 1u);  // on the wire
  // The approval overtakes the extension's reply.
  cluster.client(0).HandleTyped(
      cluster.server_id(), MessageClass::kConsistency,
      ApproveRequest{/*write_seq=*/1, file, cluster.store().CoverOf(file)});
  ASSERT_FALSE(cluster.client(0).HasCached(file));

  cluster.RunFor(Duration::Seconds(1));
  ASSERT_TRUE(read.has_value());
  ASSERT_TRUE(read->ok()) << read->error().ToString();
  EXPECT_EQ((*read)->version, 1u);
  EXPECT_EQ(Text((*read)->data), "payload");
  EXPECT_FALSE((*read)->from_cache);
  EXPECT_EQ(cluster.client(0).stats().remote_fetches, 2u);  // the re-fetch
  // The re-fetched copy is cached again and serves the next read locally.
  Result<ReadResult> again = cluster.SyncRead(0, file);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(Text(again->data), "payload");
  EXPECT_EQ(cluster.oracle().violations(), 0u);
}

}  // namespace
}  // namespace leases
