#include "perfbench/src/oracle.h"

#include <algorithm>
#include <cstdio>
#include <functional>

#include "src/common/codec.h"
#include "src/sim/rng.h"

namespace perfbench {
namespace {

// "LBW1" and "LBS1", little-endian.
constexpr uint32_t kWriteMagic = 0x3157424c;
constexpr uint32_t kSeedMagic = 0x3153424c;

std::string Describe(const std::vector<uint8_t>& data) {
  std::optional<PayloadId> id = DecodePayload(data);
  if (!id) {
    return "unrecognized " + std::to_string(data.size()) + "-byte content";
  }
  if (id->client == kSeedClient) {
    return "seed content of file " + std::to_string(id->file);
  }
  return "write (client " + std::to_string(id->client) + ", seq " +
         std::to_string(id->seq) + ") to file " + std::to_string(id->file);
}

}  // namespace

std::vector<uint8_t> EncodePayload(const PayloadId& id) {
  std::vector<uint8_t> out;
  out.reserve(kPayloadBytes);
  leases::Writer writer(&out);
  writer.WriteU32(id.client == kSeedClient ? kSeedMagic : kWriteMagic);
  writer.WriteU32(id.file);
  writer.WriteU32(id.client);
  writer.WriteU64(id.seq);
  // The filler is a function of the id, so a payload is checked byte for
  // byte, not just by its header.
  leases::Rng filler = leases::Rng::ForStream(
      id.seq, (static_cast<uint64_t>(id.file) << 32) | id.client);
  while (out.size() < kPayloadBytes) {
    writer.WriteU8(static_cast<uint8_t>(filler.NextU64()));
  }
  return out;
}

std::optional<PayloadId> DecodePayload(const std::vector<uint8_t>& data) {
  if (data.size() != kPayloadBytes) {
    return std::nullopt;
  }
  leases::Reader reader(data);
  reader.ReadU32();  // magic; checked by the re-encode below
  PayloadId id;
  id.file = reader.ReadU32();
  id.client = reader.ReadU32();
  id.seq = reader.ReadU64();
  if (EncodePayload(id) != data) {
    return std::nullopt;
  }
  return id;
}

OutputChecker::OutputChecker(size_t num_files, size_t num_clients,
                             uint64_t seed_version)
    : clients_(num_clients),
      issued_(std::make_unique<std::atomic<uint64_t>[]>(num_clients)) {
  for (size_t f = 0; f < num_files; ++f) {
    auto state = std::make_unique<FileState>();
    state->acked.resize(kAckHistory);
    state->acked[seed_version % kAckHistory] = {
        seed_version, PayloadId{static_cast<uint32_t>(f), kSeedClient, 0}};
    state->floor.store(seed_version);
    files_.push_back(std::move(state));
  }
  for (ClientState& c : clients_) {
    c.last_version.assign(num_files, 0);
  }
}

std::vector<uint8_t> OutputChecker::IssueWrite(uint32_t client,
                                               uint32_t file) {
  uint64_t seq = issued_[client].fetch_add(1, std::memory_order_acq_rel);
  return EncodePayload(PayloadId{file, client, seq});
}

void OutputChecker::OnWriteAck(const std::vector<uint8_t>& payload,
                               uint64_t version, int64_t ack_ns) {
  PayloadId id = *DecodePayload(payload);
  FileState& state = *files_.at(id.file);
  std::lock_guard<std::mutex> lock(state.mu);
  AckSlot& slot = state.acked[version % kAckHistory];
  if (slot.version == version && !(slot.id == id)) {
    ReadObservation ack;
    ack.client = id.client;
    ack.file = id.file;
    ack.version = version;
    ack.data = payload;
    ack.end_ns = ack_ns;
    Report("double commit", ack,
           "two writes were acked with the same version: " +
               Describe(EncodePayload(slot.id)) + " and " + Describe(payload));
    return;
  }
  if (version > slot.version) {
    slot = {version, id};
  }
  if (version > state.floor.load(std::memory_order_relaxed)) {
    state.floor.store(version, std::memory_order_release);
  }
}

void OutputChecker::OnWriteUnacked(const std::vector<uint8_t>& payload) {
  std::lock_guard<std::mutex> lock(unacked_mu_);
  unacked_.push_back(*DecodePayload(payload));
}

uint64_t OutputChecker::Floor(uint32_t file) const {
  return files_.at(file)->floor.load(std::memory_order_acquire);
}

OutputChecker::Match OutputChecker::MatchAcked(uint32_t file,
                                               uint64_t version,
                                               const PayloadId& id) {
  FileState& state = *files_[file];
  std::lock_guard<std::mutex> lock(state.mu);
  const AckSlot& slot = state.acked[version % kAckHistory];
  if (slot.version == version) {
    return slot.id == id ? Match::kSame : Match::kDifferent;
  }
  return slot.version < version ? Match::kNotYet : Match::kEvicted;
}

bool OutputChecker::CheckRead(const ReadObservation& read) {
  checked_.fetch_add(1, std::memory_order_relaxed);
  if (read.file >= files_.size() || read.client >= clients_.size()) {
    Report("foreign payload", read, "read names an unknown file or client");
    return false;
  }
  if (read.version < read.floor) {
    Report("stale read", read,
           "version is below floor " + std::to_string(read.floor) +
               " (acked before the read was issued)");
    return false;
  }
  std::optional<PayloadId> id = DecodePayload(read.data);
  if (!id || id->file != read.file) {
    Report("foreign payload", read,
           "data is not a payload issued to this file: " +
               Describe(read.data));
    return false;
  }
  if (id->client != kSeedClient &&
      (id->client >= clients_.size() ||
       id->seq >= issued_[id->client].load(std::memory_order_acquire))) {
    Report("foreign payload", read,
           "data is a payload the benchmark never issued: " +
               Describe(read.data));
    return false;
  }
  ClientState& client = clients_[read.client];
  if (read.version < client.last_version[read.file]) {
    Report("non-monotonic read", read,
           "an earlier read by this client returned version " +
               std::to_string(client.last_version[read.file]));
    return false;
  }
  client.last_version[read.file] = read.version;
  switch (MatchAcked(read.file, read.version, *id)) {
    case Match::kSame:
      break;
    case Match::kDifferent:
      Report("foreign payload", read,
             "version was acked for a different write; read " +
                 Describe(read.data));
      return false;
    case Match::kEvicted:
      Report("unverifiable read", read,
             "version left the ack history before the read was checked");
      return false;
    case Match::kNotYet:
      client.unresolved.push_back(
          {*id, read.version, read.start_ns, read.end_ns});
      break;
  }
  return ResolveClient(read.client, /*final=*/false);
}

bool OutputChecker::IsUnacked(const PayloadId& id) {
  std::lock_guard<std::mutex> lock(unacked_mu_);
  return std::find(unacked_.begin(), unacked_.end(), id) != unacked_.end();
}

bool OutputChecker::ResolveClient(uint32_t client, bool final) {
  std::vector<Unresolved>& pending = clients_[client].unresolved;
  size_t kept = 0;
  for (const Unresolved& u : pending) {
    Match match = MatchAcked(u.id.file, u.version, u.id);
    if (match == Match::kSame) {
      continue;
    }
    if (match != Match::kDifferent && IsUnacked(u.id)) {
      continue;  // a failed or timed-out write may still have committed
    }
    if (match == Match::kNotYet && !final) {
      pending[kept++] = u;
      continue;
    }
    ReadObservation read;
    read.client = client;
    read.file = u.id.file;
    read.version = u.version;
    read.data = EncodePayload(u.id);
    read.start_ns = u.start_ns;
    read.end_ns = u.end_ns;
    if (match == Match::kEvicted) {
      Report("unverifiable read", read,
             "version left the ack history before its ack was seen");
    } else if (match == Match::kNotYet) {
      Report("foreign payload", read,
             "no write was acked with this version, and the write of " +
                 Describe(read.data) + " was acked with another");
    } else {
      Report("foreign payload", read,
             "version was later acked for a different write; read " +
                 Describe(read.data));
    }
    return false;
  }
  pending.resize(kept);
  return true;
}

bool OutputChecker::Resolve() {
  for (uint32_t c = 0; c < clients_.size(); ++c) {
    ResolveClient(c, /*final=*/true);
  }
  return !first_violation().has_value();
}

void OutputChecker::Report(const std::string& kind,
                           const ReadObservation& read,
                           const std::string& detail) {
  std::lock_guard<std::mutex> lock(violation_mu_);
  if (!violation_) {
    violation_ = Violation{kind, read, detail};
  }
}

std::optional<Violation> OutputChecker::first_violation() const {
  std::lock_guard<std::mutex> lock(violation_mu_);
  return violation_;
}

bool RunOracleSelfTest() {
  // Every case runs against a fresh checker in which client 0's write to
  // file 0 was acked at version 2 and client 1's write to file 1 timed out.
  struct Fixture {
    OutputChecker checker{/*num_files=*/2, /*num_clients=*/2,
                          /*seed_version=*/1};
    std::vector<uint8_t> acked = checker.IssueWrite(0, 0);
    std::vector<uint8_t> unacked = checker.IssueWrite(1, 1);
    Fixture() {
      checker.OnWriteAck(acked, 2, 0);
      checker.OnWriteUnacked(unacked);
    }

    bool Read(uint32_t client, uint32_t file, uint64_t version,
              std::vector<uint8_t> data) {
      ReadObservation r;
      r.client = client;
      r.file = file;
      r.floor = checker.Floor(file);
      r.version = version;
      r.data = std::move(data);
      return checker.CheckRead(r);
    }
  };
  struct Case {
    const char* name;
    const char* expect;  // violation kind, or "" for a clean pass
    std::function<bool(Fixture&)> run;
  };
  const std::vector<uint8_t> seed0 = EncodePayload({0, kSeedClient, 0});
  const std::vector<Case> cases = {
      {"valid_read", "", [](Fixture& f) { return f.Read(1, 0, 2, f.acked); }},
      {"timed_out_write_payload", "",
       [](Fixture& f) { return f.Read(0, 1, 2, f.unacked); }},
      {"stale_read", "stale read",
       [&](Fixture& f) { return f.Read(1, 0, 1, seed0); }},
      {"foreign_payload", "foreign payload",
       [](Fixture& f) { return f.Read(1, 0, 3, f.unacked); }},
      {"never_issued_payload", "foreign payload",
       [](Fixture& f) {
         return f.Read(1, 0, 3, EncodePayload({0, 1, 99}));
       }},
      {"payload_at_a_version_it_was_not_acked_with", "foreign payload",
       [](Fixture& f) { return f.Read(1, 0, 3, f.acked); }},
      {"wrong_payload_at_acked_version", "foreign payload",
       [&](Fixture& f) { return f.Read(1, 0, 2, seed0); }},
      {"non_monotonic_read", "non-monotonic read",
       [](Fixture& f) {
         std::vector<uint8_t> pending = f.checker.IssueWrite(0, 0);
         return f.Read(1, 0, 3, pending) && f.Read(1, 0, 2, f.acked);
       }},
      {"later_ack_contradicts_read", "foreign payload",
       [](Fixture& f) {
         std::vector<uint8_t> read = f.checker.IssueWrite(0, 0);
         std::vector<uint8_t> acked = f.checker.IssueWrite(1, 0);
         bool ok = f.Read(1, 0, 5, read);
         f.checker.OnWriteAck(acked, 5, 0);
         return ok && f.checker.Resolve();
       }},
  };
  bool all_ok = true;
  for (const Case& c : cases) {
    Fixture fixture;
    bool passed = c.run(fixture) && fixture.checker.Resolve();
    std::optional<Violation> v = fixture.checker.first_violation();
    std::string got = v ? v->kind : "";
    bool ok = passed == (*c.expect == 0) && got == c.expect;
    all_ok = all_ok && ok;
    std::printf("selftest %-44s expect=\"%s\" got=\"%s\" %s\n", c.name,
                c.expect, got.c_str(), ok ? "ok" : "FAIL");
  }
  return all_ok;
}

}  // namespace perfbench
