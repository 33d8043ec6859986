// Output checker for the end-to-end benchmark: the paper's consistency
// invariant, checked on what the clients actually read.
//
// Every write payload encodes (file, client, per-client sequence), so a read
// can be traced back to the write that produced it. A read of file f must
//   1. return a version >= floor(f), the highest version among writes to f
//      whose ack had returned before the read was issued (no stale reads);
//   2. carry either f's seed content or a payload the benchmark issued to f,
//      and when its version was acked, exactly that write's payload (no
//      foreign payloads);
//   3. never return a lower version of f to the same client than an earlier
//      read did (monotonic reads).
// A write that timed out may still have committed, so its payload stays
// admissible. Reads of a version whose ack had not returned yet are
// re-checked once it returns.
//
// The acked history of each file is a fixed ring of the last kAckHistory
// versions, so the checker's memory does not grow with throughput. A read
// whose version has already left the ring cannot be verified and counts as
// a violation (fail-safe); with the benchmark's write rates a ring spans
// seconds while a read is checked microseconds after it returns.
#ifndef PERFBENCH_SRC_ORACLE_H_
#define PERFBENCH_SRC_ORACLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr size_t kPayloadBytes = 64;
inline constexpr size_t kAckHistory = 1024;
inline constexpr uint32_t kSeedClient = 0xffffffffu;

// Who produced a file's content: a benchmark client's numbered write, or
// the seed (client == kSeedClient).
struct PayloadId {
  uint32_t file = 0;
  uint32_t client = 0;
  uint64_t seq = 0;
  bool operator==(const PayloadId&) const = default;
};

std::vector<uint8_t> EncodePayload(const PayloadId& id);
// Null unless `data` is byte-for-byte a payload EncodePayload produces.
std::optional<PayloadId> DecodePayload(const std::vector<uint8_t>& data);

struct ReadObservation {
  uint32_t client = 0;
  uint32_t file = 0;
  uint64_t floor = 0;  // floor(file) snapshotted before the read was issued
  uint64_t version = 0;
  std::vector<uint8_t> data;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

struct Violation {
  std::string kind;
  ReadObservation read;
  std::string detail;
};

class OutputChecker {
 public:
  OutputChecker(size_t num_files, size_t num_clients, uint64_t seed_version);

  OutputChecker(const OutputChecker&) = delete;
  OutputChecker& operator=(const OutputChecker&) = delete;

  // Returns the next write payload of `client` to `file` and marks it
  // issued. Thread-safe across clients; one thread per client.
  std::vector<uint8_t> IssueWrite(uint32_t client, uint32_t file);
  // The ack of `payload` (from IssueWrite) returned with `version` at
  // `ack_ns` (reported if two acks claim one version).
  void OnWriteAck(const std::vector<uint8_t>& payload, uint64_t version,
                  int64_t ack_ns);
  // The write of `payload` failed or timed out; it may still commit.
  void OnWriteUnacked(const std::vector<uint8_t>& payload);
  uint64_t Floor(uint32_t file) const;

  // Checks one read. Client `read.client`'s state is touched only by the
  // thread that drives that client. False on a violation.
  bool CheckRead(const ReadObservation& read);
  // Re-checks reads whose version had no returned ack yet; call after the
  // load has stopped and every write has returned. False on a violation.
  bool Resolve();

  uint64_t checked_reads() const { return checked_.load(); }
  std::optional<Violation> first_violation() const;

 private:
  struct AckSlot {
    uint64_t version = 0;
    PayloadId id;
  };
  struct FileState {
    std::mutex mu;
    std::vector<AckSlot> acked;  // ring indexed by version; guarded by mu
    std::atomic<uint64_t> floor{0};
  };
  enum class Match { kSame, kDifferent, kNotYet, kEvicted };
  // A read whose version had no returned ack when it was checked.
  struct Unresolved {
    PayloadId id;
    uint64_t version = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };
  struct ClientState {
    std::vector<uint64_t> last_version;
    std::vector<Unresolved> unresolved;
  };

  void Report(const std::string& kind, const ReadObservation& read,
              const std::string& detail);
  // Compares a read of `version` carrying `id` against the acked history.
  Match MatchAcked(uint32_t file, uint64_t version, const PayloadId& id);
  // Drops `client`'s unresolved reads whose version is acked by now; false
  // (and a reported violation) when one contradicts its ack or can no
  // longer be verified. `final`: every ack has returned, so a version still
  // unacked must belong to a write that failed or timed out.
  bool ResolveClient(uint32_t client, bool final);
  bool IsUnacked(const PayloadId& id);

  std::vector<std::unique_ptr<FileState>> files_;
  std::vector<ClientState> clients_;
  std::unique_ptr<std::atomic<uint64_t>[]> issued_;
  std::atomic<uint64_t> checked_{0};
  std::mutex unacked_mu_;
  std::vector<PayloadId> unacked_;  // guarded by unacked_mu_

  mutable std::mutex violation_mu_;
  std::optional<Violation> violation_;  // guarded by violation_mu_
};

// Feeds the checker a synthetic stale read, a foreign payload, a payload
// that was never issued and a non-monotonic read, plus one valid read.
// Prints one line per case; true when every bad read was caught and the
// good one passed.
bool RunOracleSelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_ORACLE_H_
