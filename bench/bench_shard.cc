// Shard-scaling sweep for the FileId-partitioned grant plane.
//
// Runs the typed cluster-lease-op workload (bench/shard_bench.h) at 1..8
// shards and reports ops/s plus scaling efficiency against the single-shard
// baseline. On a machine with fewer hardware threads than shards the sweep
// still runs but is flagged "degraded": the shard threads time-slice one
// core, so the efficiency column measures scheduling overhead, not scaling.
//
// Usage:
//   bench_shard [--shards N] [--files N] [--ops N] [--json [path]]
//
// --shards runs one configuration instead of the sweep and prints no
// speedup or efficiency (there is no baseline to scale against); --json
// writes BENCH_SHARD.json (schema 1) for trend tracking.
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/shard_bench.h"

namespace leases {
namespace {

int Run(const std::vector<size_t>& shard_counts, size_t files, size_t ops,
        const char* json_path) {
  size_t hw = std::thread::hardware_concurrency();
  size_t max_shards = 0;
  for (size_t s : shard_counts) {
    max_shards = s > max_shards ? s : max_shards;
  }
  // The one feeder is near-idle (it posts pre-built 64-message chunks), so
  // the requirement is one core per shard; anything less and the
  // "parallel" shards time-slice.
  bool degraded = hw < max_shards;

  std::vector<ShardBenchResult> results;
  for (size_t s : shard_counts) {
    results.push_back(RunShardBenchBest(s, files, ops));
  }
  // Speedup is against the first (1-shard) configuration of a sweep.
  const bool swept = results.size() > 1;
  double base = results[0].ops_per_sec;
  auto speedup = [base](const ShardBenchResult& r) {
    return base > 0 ? r.ops_per_sec / base : 0;
  };

  std::printf("shard scaling: %zu files x %zu ops/file, hw_threads=%zu%s\n",
              files, ops, hw, degraded ? " [DEGRADED: shards > cores]" : "");
  std::printf("%8s %14s", "shards", "ops/s");
  std::printf(swept ? " %10s %12s\n" : "\n", "speedup", "efficiency");
  for (const ShardBenchResult& r : results) {
    std::printf("%8zu %14.0f", r.shards, r.ops_per_sec);
    if (swept) {
      std::printf(" %9.2fx %11.0f%%", speedup(r),
                  100.0 * speedup(r) / static_cast<double>(r.shards));
    }
    std::printf("\n");
  }

  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path);
      return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"schema\": 1,\n"
                 "  \"files\": %zu,\n"
                 "  \"ops_per_file\": %zu,\n"
                 "  \"hw_threads\": %zu,\n"
                 "  \"degraded\": %s,\n"
                 "  \"points\": [\n",
                 files, ops, hw, degraded ? "true" : "false");
    for (size_t i = 0; i < results.size(); ++i) {
      const ShardBenchResult& r = results[i];
      std::fprintf(f, "    {\"shards\": %zu, \"ops\": %llu, "
                   "\"ops_per_sec\": %.0f",
                   r.shards, static_cast<unsigned long long>(r.ops),
                   r.ops_per_sec);
      if (swept) {
        std::fprintf(f, ", \"speedup\": %.2f", speedup(r));
      }
      std::fprintf(f, "}%s\n", i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path);
  }
  return 0;
}

}  // namespace
}  // namespace leases

int main(int argc, char** argv) {
  std::vector<size_t> shard_counts = {1, 2, 4, 8};
  size_t files = 512;
  size_t ops = 400;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shard_counts = {static_cast<size_t>(std::atoi(argv[++i]))};
    } else if (std::strcmp(argv[i], "--files") == 0 && i + 1 < argc) {
      files = static_cast<size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--ops") == 0 && i + 1 < argc) {
      ops = static_cast<size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json_path = (i + 1 < argc && argv[i + 1][0] != '-') ? argv[++i]
                                                          : "BENCH_SHARD.json";
    } else {
      std::fprintf(stderr,
                   "usage: %s [--shards N] [--files N] [--ops N] "
                   "[--json [path]]\n",
                   argv[0]);
      return 1;
    }
  }
  return leases::Run(shard_counts, files, ops, json_path);
}
