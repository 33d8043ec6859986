// Randomized property tests: under arbitrary interleavings of reads,
// writes, message loss, partitions, client crashes and server crashes --
// with well-behaved clocks -- the oracle must observe ZERO consistency
// violations, and the system must converge once faults stop. This is the
// paper's central claim ("non-Byzantine failures affect performance, not
// correctness") checked over a parameter sweep.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/sim_cluster.h"
#include "src/sim/rng.h"
#include "src/workload/v_config.h"

namespace leases {
namespace {

struct FuzzConfig {
  uint64_t seed;
  double loss;
  int term_seconds;
  // Feature axes: exercise the optional mechanisms under the same fault mix.
  bool persist_leases = false;
  size_t max_cached_files = 0;
};

// gtest prints the parameter beside the test name (ctest's discovery puts
// it in the test's name), so print a readable label instead of raw bytes.
void PrintTo(const FuzzConfig& config, std::ostream* os) {
  *os << "seed" << config.seed << "_loss"
      << static_cast<int>(config.loss * 100) << "_term"
      << config.term_seconds << (config.persist_leases ? "_persist" : "")
      << (config.max_cached_files > 0 ? "_tinycache" : "");
}

class LeaseFuzz : public ::testing::TestWithParam<FuzzConfig> {};

constexpr size_t kClients = 5;
constexpr size_t kFiles = 4;

class FuzzHarness {
 public:
  explicit FuzzHarness(const FuzzConfig& config)
      : config_(config), rng_(config.seed * 2654435761u + 13) {
    ClusterOptions options = MakeVClusterOptions(
        Duration::Seconds(config.term_seconds), kClients, config.seed);
    options.net.loss_prob = config.loss;
    options.server.persist_lease_records = config.persist_leases;
    options.client.max_cached_files = config.max_cached_files;
    // Fast retries keep the run short relative to fault durations.
    options.client.request_timeout = Duration::Millis(500);
    options.client.max_retries = 30;
    cluster_ = std::make_unique<SimCluster>(options);
    for (size_t f = 0; f < kFiles; ++f) {
      files_.push_back(*cluster_->store().CreatePath(
          "/fuzz/f" + std::to_string(f), FileClass::kNormal, Bytes("v0")));
    }
  }

  void Run(Duration length) {
    ScheduleFaults();
    for (size_t c = 0; c < kClients; ++c) {
      ScheduleOps(c);
    }
    cluster_->RunFor(length);
    HealEverything();
    cluster_->RunFor(Duration::Seconds(90));
  }

  SimCluster& cluster() { return *cluster_; }
  uint64_t reads_ok() const { return reads_ok_; }
  uint64_t writes_ok() const { return writes_ok_; }

  // After healing: every client must read the current committed state.
  void CheckConvergence() {
    for (size_t f = 0; f < kFiles; ++f) {
      uint64_t current = cluster_->store().Find(files_[f])->version;
      for (size_t c = 0; c < kClients; ++c) {
        Result<ReadResult> r =
            cluster_->SyncRead(c, files_[f], Duration::Seconds(60));
        ASSERT_TRUE(r.ok()) << "client " << c << " file " << f;
        EXPECT_GE(r->version, current) << "client " << c << " file " << f;
      }
    }
  }

 private:
  void ScheduleOps(size_t client) {
    Duration gap = rng_.NextExponentialDuration(2.0);  // ~2 ops/s/client
    cluster_->sim().ScheduleAfter(gap, [this, client]() {
      if (cluster_->ClientUp(client)) {
        FileId file = files_[rng_.NextBounded(kFiles)];
        if (rng_.NextBernoulli(0.25)) {
          std::string payload = "w" + std::to_string(++write_seq_);
          cluster_->client(client).Write(
              file, Bytes(payload), [this](Result<WriteResult> r) {
                if (r.ok()) {
                  ++writes_ok_;
                }
              });
        } else {
          cluster_->client(client).Read(file, [this](Result<ReadResult> r) {
            if (r.ok()) {
              ++reads_ok_;
            }
          });
        }
      }
      ScheduleOps(client);
    });
  }

  void ScheduleFaults() {
    Duration gap = rng_.NextExponentialDuration(1.0 / 15.0);  // ~every 15 s
    cluster_->sim().ScheduleAfter(gap, [this]() {
      if (stop_faults_) {
        return;
      }
      InjectRandomFault();
      ScheduleFaults();
    });
  }

  void InjectRandomFault() {
    switch (rng_.NextBounded(3)) {
      case 0: {  // transient partition of one client
        size_t victim = rng_.NextBounded(kClients);
        if (!partitioned_[victim]) {
          partitioned_[victim] = true;
          cluster_->PartitionClient(victim, true);
          Duration heal = rng_.NextExponentialDuration(1.0 / 8.0);
          cluster_->sim().ScheduleAfter(heal, [this, victim]() {
            partitioned_[victim] = false;
            cluster_->PartitionClient(victim, false);
          });
        }
        break;
      }
      case 1: {  // client crash + restart
        size_t victim = rng_.NextBounded(kClients);
        if (cluster_->ClientUp(victim)) {
          cluster_->CrashClient(victim);
          Duration down = rng_.NextExponentialDuration(1.0 / 5.0);
          cluster_->sim().ScheduleAfter(down, [this, victim]() {
            if (!cluster_->ClientUp(victim)) {
              cluster_->RestartClient(victim);
            }
          });
        }
        break;
      }
      case 2: {  // server crash + restart (recovery window follows)
        if (cluster_->ServerUp()) {
          cluster_->CrashServer();
          Duration down = rng_.NextExponentialDuration(1.0 / 3.0);
          cluster_->sim().ScheduleAfter(down, [this]() {
            if (!cluster_->ServerUp()) {
              cluster_->RestartServer();
            }
          });
        }
        break;
      }
    }
  }

  void HealEverything() {
    stop_faults_ = true;
    if (!cluster_->ServerUp()) {
      cluster_->RestartServer();
    }
    for (size_t c = 0; c < kClients; ++c) {
      if (!cluster_->ClientUp(c)) {
        cluster_->RestartClient(c);
      }
      cluster_->PartitionClient(c, false);
      partitioned_[c] = false;
    }
    cluster_->network().set_loss_prob(0);
  }

  FuzzConfig config_;
  Rng rng_;
  std::unique_ptr<SimCluster> cluster_;
  std::vector<FileId> files_;
  bool partitioned_[kClients] = {};
  bool stop_faults_ = false;
  uint64_t write_seq_ = 0;
  uint64_t reads_ok_ = 0;
  uint64_t writes_ok_ = 0;
};

TEST_P(LeaseFuzz, NoViolationsUnderRandomFaults) {
  FuzzHarness harness(GetParam());
  harness.Run(Duration::Seconds(300));

  const Oracle& oracle = harness.cluster().oracle();
  EXPECT_EQ(oracle.violations(), 0u)
      << "first violations: "
      << (oracle.violation_log().empty() ? "none" : oracle.violation_log()[0]);
  // Liveness: the system made real progress despite the faults.
  EXPECT_GT(harness.reads_ok(), 100u);
  EXPECT_GT(harness.writes_ok(), 20u);
  harness.CheckConvergence();
  EXPECT_EQ(oracle.violations(), 0u);
}

// Named by seed; the label above carries the rest.
std::string FuzzName(const ::testing::TestParamInfo<FuzzConfig>& info) {
  return std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LeaseFuzz,
    ::testing::Values(FuzzConfig{1, 0.0, 10}, FuzzConfig{2, 0.0, 10},
                      FuzzConfig{3, 0.1, 10}, FuzzConfig{4, 0.1, 10},
                      FuzzConfig{5, 0.3, 10}, FuzzConfig{6, 0.3, 10},
                      FuzzConfig{7, 0.1, 2}, FuzzConfig{8, 0.1, 2},
                      FuzzConfig{9, 0.3, 2}, FuzzConfig{10, 0.0, 30},
                      FuzzConfig{11, 0.1, 30}, FuzzConfig{12, 0.2, 5},
                      // persistent lease records under crashes + loss
                      FuzzConfig{13, 0.1, 10, true, 0},
                      FuzzConfig{14, 0.3, 5, true, 0},
                      FuzzConfig{15, 0.0, 10, true, 0},
                      // tiny caches: constant eviction + relinquish churn
                      FuzzConfig{16, 0.1, 10, false, 2},
                      FuzzConfig{17, 0.2, 5, false, 1},
                      // both at once
                      FuzzConfig{18, 0.1, 10, true, 2}),
    FuzzName);

}  // namespace
}  // namespace leases
