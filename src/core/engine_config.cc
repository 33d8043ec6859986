#include "src/core/engine_config.h"

namespace leases {

namespace {

Status Invalid(std::string message) {
  return Status(ErrorCode::kInvalidArgument, std::move(message));
}

}  // namespace

Status EngineConfig::Validate() const {
  if (epsilon < Duration::Zero()) {
    return Invalid("epsilon must be non-negative");
  }
  if (epsilon >= term && term > Duration::Zero()) {
    return Invalid(
        "epsilon must be smaller than the lease term: clients shorten every "
        "received term by it, so epsilon >= term grants nothing");
  }
  if (num_shards == 0) {
    return Invalid("num_shards must be >= 1");
  }
  if (num_shards > 64) {
    // ServerParams::shard_seq_salt packs the shard index into 6 bits of the
    // write-seq layout.
    return Invalid("num_shards must be <= 64 (write-seq salt is 6 bits)");
  }
  if (replica.num_replicas > 7) {
    return Invalid("replica.num_replicas must be <= 7 (3-5 recommended)");
  }
  if (num_shards > 1) {
    if (server.installed_optimization) {
      return Invalid(
          "installed_optimization is incompatible with num_shards > 1: a "
          "directory cover key spans files owned by different shards, "
          "breaking the key==file routing invariant");
    }
    if (!data_dir.empty()) {
      return Invalid(
          "data_dir is incompatible with num_shards > 1: SimCluster keeps "
          "sharded recovery metadata in per-shard memory backends (a "
          "runtime host journals each shard via RuntimeServer::Start)");
    }
  }
  if (replica.num_replicas > 0) {
    if (server.persist_lease_records) {
      return Invalid(
          "persist_lease_records is a single-node recovery strategy; the "
          "replicated authority reconstructs grant bounds from the quorum "
          "instead");
    }
    if (server.installed_optimization) {
      return Invalid(
          "installed_optimization is not supported under the replicated "
          "authority: installed cover windows are advertised per "
          "incarnation and do not transfer across failover");
    }
    if (!data_dir.empty()) {
      return Invalid(
          "data_dir is incompatible with replication: SimCluster replicas "
          "are diskless, with per-node memory metadata (a runtime replica "
          "journals via RuntimeServer::Start)");
    }
    if (replica.authority_term <= Duration::Zero()) {
      return Invalid("replica.authority_term must be positive");
    }
    if (replica.renew_interval <= Duration::Zero() ||
        replica.renew_interval * 2 > replica.authority_term) {
      return Invalid(
          "replica.renew_interval must be positive and at most half the "
          "authority term (a lost renewal round must not force step-down)");
    }
    if (replica.suspect_timeout < replica.renew_interval * 2) {
      return Invalid(
          "replica.suspect_timeout must cover at least two renewal "
          "intervals, or standbys duel the live holder");
    }
    if (replica.acquire_retry <= Duration::Zero()) {
      return Invalid("replica.acquire_retry must be positive");
    }
  }
  return Status::Ok();
}

}  // namespace leases
