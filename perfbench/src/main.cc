// End-to-end lease benchmark over real UDP.
//
// Two to four RuntimeClients, each driven by one blocking caller thread (a
// closed loop), run a seeded read/write mix against a runtime host on
// loopback. Every read is checked against the consistency invariant
// (oracle.h). An untraced run prints the end-to-end metrics; a traced run
// (--trace 1) prints the per-layer metrics from the same traffic and seed.
//
//   leases_perfbench --workload private_rw --seed 1 --seconds 10 --trace 0
//   leases_perfbench --selftest        # proves the output checker is live
//
// The last line of stdout is one JSON object:
//   {"correct":..., "attempted":..., "failed":..., "metrics":{...}}
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/src/host.h"
#include "perfbench/src/oracle.h"
#include "perfbench/src/trace.h"
#include "src/runtime/node.h"
#include "src/sim/rng.h"

namespace perfbench {
namespace {

using leases::ClientStats;
using leases::Duration;
using leases::FileId;
using leases::NodeId;
using leases::RuntimeClient;

constexpr unsigned kHwThreads = 4;  // fewer marks the run record degraded
constexpr uint32_t kFirstClient = 2;  // NodeId of client 0; the host is 1
constexpr uint64_t kSeedVersion = 1;  // FileStore's version of a new file
const Duration kOpTimeout = Duration::Seconds(5);
// A traced run issues one empty WithClient probe and one server-loop probe
// per kProbeEvery ops of each client.
constexpr uint64_t kProbeEvery = 32;
constexpr int kWatchdogSeconds = 30;
// Setups per run (set-up time is their median), spread out by a pause so
// that a burst of neighbour load hits few of them, and the untimed warm-up.
constexpr int kSetups = 21;
constexpr double kSetupPauseSeconds = 0.05;
constexpr double kWarmupSeconds = 1.0;
// The timed window is cut into slices of about kSliceSeconds. Each
// end-to-end figure is computed per slice and reported as the median over
// the slices, so neighbour load that hits part of a run does not move it.
constexpr double kSliceSeconds = 0.1;
// Only the least stolen kCalmShare of the slices (by the hypervisor's steal
// time, /proc/stat) count: when other guests take the host's CPUs, wall-clock
// figures measure them rather than the program.
constexpr double kCalmShare = 0.25;

struct Workload {
  const char* name;
  HostKind host;
  int clients;        // RuntimeClients, each with one caller thread
  bool shared;        // all clients share the file set
  uint32_t files;     // per client when private, in total when shared
  uint32_t read_pct;  // reads per 100 ops
};

// The gated workloads run 2 clients: with their loop threads and the
// host's, that keeps the busy threads within kHwThreads; 4 clients made
// the figures measure the scheduler rather than the runtime. shared_rw,
// not gated yet (README.md), keeps 4 so that writes wait on several holders.
constexpr Workload kWorkloads[] = {
    {"private_rw", HostKind::kPlain, 2, false, 64, 50},
    {"shared_rw", HostKind::kPlain, 4, true, 16, 90},
    {"private_rw_sharded", HostKind::kSharded, 2, false, 64, 50},
};

struct Options {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir;
};

// --- small utilities -------------------------------------------------------

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n == 0 ? 0 : n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

void SleepFor(double seconds) {
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

struct Usage {
  double cpu_us = 0;
  double vol_ctx = 0;
  double invol_ctx = 0;
  double max_rss_kb = 0;
};

Usage ProcessUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 +
           static_cast<double>(tv.tv_usec);
  };
  return {us(ru.ru_utime) + us(ru.ru_stime),
          static_cast<double>(ru.ru_nvcsw), static_cast<double>(ru.ru_nivcsw),
          static_cast<double>(ru.ru_maxrss)};
}

// Share of CPU time the hypervisor gave to other guests (the "steal" column
// of /proc/stat) since boot; the run record reports its change over a run.
struct StealSample {
  double steal = 0, total = 0;
};

StealSample ReadSteal() {
  StealSample s;
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) {
    return s;
  }
  double v[8] = {0};
  if (std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &v[0], &v[1],
                  &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    s.steal = v[7];
    for (double x : v) {
      s.total += x;
    }
  }
  std::fclose(f);
  return s;
}

double LoadAverage() {
  double load[1] = {0};
  return getloadavg(load, 1) == 1 ? load[0] : -1;
}

// No-progress watchdog: a stuck run ends with a message instead of hanging.
class Watchdog {
 public:
  Watchdog() : thread_([this] { Run(); }) {}
  ~Watchdog() {
    stop_.store(true);
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void Tick() { progress_.fetch_add(1, std::memory_order_relaxed); }
  void SetPhase(const char* phase) {
    phase_.store(phase);
    Tick();
  }

 private:
  void Run() {
    uint64_t last = progress_.load();
    auto last_change = std::chrono::steady_clock::now();
    while (!stop_.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      uint64_t now = progress_.load(std::memory_order_relaxed);
      auto t = std::chrono::steady_clock::now();
      if (now != last) {
        last = now;
        last_change = t;
      } else if (t - last_change > std::chrono::seconds(kWatchdogSeconds)) {
        std::fprintf(stderr,
                     "watchdog: no progress for %d s during %s; aborting\n",
                     kWatchdogSeconds, phase_.load());
        std::fflush(stderr);
        _exit(4);
      }
    }
  }

  std::atomic<uint64_t> progress_{0};
  std::atomic<const char*> phase_{"start"};
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: started after the state it reads
};

// --- one set-up of host, files and clients ---------------------------------

class Rig {
 public:
  Rig() = default;
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;
  // Clients are stopped before the host.
  ~Rig() { Stop(); }

  void Stop() {
    for (auto& client : clients) {
      client->Stop();
    }
    if (host != nullptr) {
      host->Stop();
    }
  }

  // The index into `files` of client `c`'s `i`-th file (i < w.files).
  uint32_t FileIndex(const Workload& w, int c, uint64_t i) const {
    auto n = static_cast<uint32_t>(i);
    return w.shared ? n : static_cast<uint32_t>(c) * w.files + n;
  }

  std::unique_ptr<BenchHost> host;
  std::vector<FileId> files;
  std::unique_ptr<OutputChecker> checker;
  // Declared before the clients so they outlive them.
  std::vector<std::unique_ptr<ClientTap>> taps;
  std::vector<std::unique_ptr<RuntimeClient>> clients;
};

bool Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  return false;
}

// Host start, file creation, client start and cache warm-up (one read of
// every file each client touches). `slots` is set for a traced run.
bool SetUp(const Workload& w, const SlotMap* slots, Watchdog* watchdog,
           Rig* rig) {
  rig->host = MakeHost(w.host, slots);
  auto clients = static_cast<uint32_t>(w.clients);
  uint32_t total = w.shared ? w.files : w.files * clients;
  for (uint32_t i = 0; i < total; ++i) {
    auto file = rig->host->store().CreatePath(
        "/bench/f" + std::to_string(i), leases::FileClass::kNormal,
        EncodePayload(PayloadId{i, kSeedClient, 0}));
    if (!file.ok()) {
      return Fail("create file: " + file.error().ToString());
    }
    rig->files.push_back(*file);
  }
  rig->checker = std::make_unique<OutputChecker>(total, clients, kSeedVersion);
  leases::Status started = rig->host->Start();
  if (!started.ok()) {
    return Fail("host start: " + started.ToString());
  }
  for (int c = 0; c < w.clients; ++c) {
    NodeId id(kFirstClient + c);
    auto client = std::make_unique<RuntimeClient>(
        id, NodeId(1), rig->host->store().root(), leases::ClientParams{});
    leases::Status s = client->Start(rig->host->port());
    if (!s.ok()) {
      return Fail("client start: " + s.ToString());
    }
    rig->host->AddPeer(id, client->port());
    if (slots != nullptr) {
      leases::CacheClient* inner = nullptr;
      client->WithClient([&inner](leases::CacheClient& cc) { inner = &cc; });
      rig->taps.push_back(std::make_unique<ClientTap>(inner, slots->slots[c]));
      client->transport().SetHandler(rig->taps.back().get());
    }
    rig->clients.push_back(std::move(client));
  }
  for (int c = 0; c < w.clients; ++c) {
    uint32_t n = w.files;
    for (uint32_t k = 0; k < n; ++k) {
      uint32_t fi = rig->FileIndex(w, c, k);
      auto read = rig->clients[c]->Read(rig->files[fi], kOpTimeout);
      if (!read.ok()) {
        return Fail("warm-up read: " + read.error().ToString());
      }
      ReadObservation obs;
      obs.client = static_cast<uint32_t>(c);
      obs.file = fi;
      obs.floor = kSeedVersion;
      obs.version = read->version;
      obs.data = std::move(read->data);
      if (!rig->checker->CheckRead(obs)) {
        return Fail("warm-up read failed the output check");
      }
      watchdog->Tick();
    }
  }
  return true;
}

// --- the closed loop -------------------------------------------------------

enum Phase : int { kWarm, kMeasure, kDone };

// Shared by the caller threads and the thread that times the window.
struct LoadControl {
  std::atomic<int> phase{kWarm};
  // Written before `phase` turns kMeasure.
  int64_t window_start_ns = 0;
  int64_t slice_ns = 0;
  size_t slices = 0;
};

// One caller's figures for one slice of the window. Latencies are
// nearest-rank quantiles in microseconds, NaN when the slice had no op of
// that kind.
struct SliceFigures {
  uint32_t ops = 0;
  double read_p50 = NAN, read_p99 = NAN, write_p50 = NAN, write_p99 = NAN;
};

// Collects one caller's SliceFigures. An op belongs to the slice it ended
// in; ops ending after the window are not sliced.
class SliceRecorder {
 public:
  void Record(const LoadControl& load, bool is_read, int64_t end_ns,
              int64_t latency_ns) {
    int64_t since = end_ns - load.window_start_ns;
    auto slice = static_cast<size_t>(since / load.slice_ns);
    if (since < 0 || slice >= load.slices) {
      return;
    }
    if (slice != current_) {
      Flush();
      current_ = slice;
      figures_.resize(load.slices);
    }
    ++figures_[slice].ops;
    (is_read ? read_ns_ : write_ns_).push_back(latency_ns);
  }

  // Ends the current slice; call once more after the caller has stopped.
  void Flush() {
    if (current_ < figures_.size()) {
      SliceFigures& f = figures_[current_];
      Quantiles(&read_ns_, &f.read_p50, &f.read_p99);
      Quantiles(&write_ns_, &f.write_p50, &f.write_p99);
    }
  }

  // One entry per slice (empty if no op ended in the window).
  const std::vector<SliceFigures>& figures() const { return figures_; }

 private:
  // Clears `ns` for reuse.
  static void Quantiles(std::vector<int64_t>* ns, double* p50, double* p99) {
    if (ns->empty()) {
      return;
    }
    for (auto [q, out] : {std::pair{0.50, p50}, std::pair{0.99, p99}}) {
      auto rank = static_cast<size_t>(
          std::ceil(q * static_cast<double>(ns->size())));
      auto nth = ns->begin() + static_cast<std::ptrdiff_t>(rank - 1);
      std::nth_element(ns->begin(), nth, ns->end());
      *out = static_cast<double>(*nth) / 1e3;
    }
    ns->clear();
  }

  size_t current_ = SIZE_MAX;
  std::vector<SliceFigures> figures_;
  std::vector<int64_t> read_ns_, write_ns_;  // the current slice's samples
};

struct CallerResult {
  // Timed window (kMeasure) only.
  SliceRecorder slices;
  uint64_t reads = 0, writes = 0;
  uint64_t attempted = 0, failed = 0;
  // Traced runs: completed ops started with recording on / off.
  uint64_t traced_ops = 0, untraced_ops = 0;
  LatencyHistogram client_probe, server_probe, reply_to_return, rtt;
  SpanLog spans;
};

void CallerLoop(const Workload& w, const Options& opt, int c, Rig* rig,
                CallSlot* slot, const LoadControl* load, Watchdog* watchdog,
                CallerResult* out) {
  RuntimeClient& client = *rig->clients[c];
  OutputChecker& checker = *rig->checker;
  // The seed picks only files and read/write coin flips.
  leases::Rng rng = leases::Rng::ForStream(opt.seed, static_cast<uint64_t>(c));
  for (uint64_t seq = 0;; ++seq) {
    int ph = load->phase.load(std::memory_order_acquire);
    if (ph == kDone) {
      break;
    }
    bool traced = opt.trace && ph == kMeasure && Tracing::on();
    uint64_t op = (static_cast<uint64_t>(c) << 40) | seq;
    int64_t server_before = 0;
    if (traced) {
      slot->op.store(op, std::memory_order_relaxed);
      slot->first_reply_ns.store(0, std::memory_order_relaxed);
      server_before = slot->server_handle_ns.load(std::memory_order_relaxed);
    }
    uint32_t fi = rig->FileIndex(w, c, rng.NextBounded(w.files));
    bool is_read = rng.NextBounded(100) < w.read_pct;
    bool ok = false;
    bool remote = true;
    int64_t start = 0, end = 0;
    if (is_read) {
      ReadObservation obs;
      obs.client = static_cast<uint32_t>(c);
      obs.file = fi;
      obs.floor = checker.Floor(fi);
      start = NowNs();
      auto read = client.Read(rig->files[fi], kOpTimeout);
      end = NowNs();
      if (read.ok()) {
        ok = true;
        remote = !read->from_cache;
        obs.version = read->version;
        obs.data = std::move(read->data);
        obs.start_ns = start;
        obs.end_ns = end;
        checker.CheckRead(obs);
      }
    } else {
      std::vector<uint8_t> payload = checker.IssueWrite(c, fi);
      start = NowNs();
      auto write = client.Write(rig->files[fi], payload, kOpTimeout);
      end = NowNs();
      if (write.ok()) {
        ok = true;
        checker.OnWriteAck(payload, write->version, end);
      } else {
        checker.OnWriteUnacked(payload);
      }
    }
    watchdog->Tick();
    if (ph != kMeasure) {
      continue;
    }
    ++out->attempted;
    if (!ok) {
      ++out->failed;
      continue;
    }
    ++(is_read ? out->reads : out->writes);
    out->slices.Record(*load, is_read, end, end - start);
    ++(traced ? out->traced_ops : out->untraced_ops);
    if (!traced) {
      continue;
    }
    out->spans.Add(
        {op, start, end, is_read ? SpanName::kRead : SpanName::kWrite});
    if (remote) {
      // One call in flight per client: the packets its loop handled since
      // `start` belong to this call.
      auto relaxed = std::memory_order_relaxed;
      int64_t last_reply = slot->last_reply_end_ns.load(relaxed);
      int64_t first_reply = slot->first_reply_ns.load(relaxed);
      if (last_reply >= start) {
        out->reply_to_return.Record(end - last_reply);
      }
      if (first_reply >= start) {
        int64_t server = slot->server_handle_ns.load(relaxed) - server_before;
        out->rtt.Record(first_reply - start - server);
      }
    }
    if (seq % kProbeEvery == 0) {
      int64_t t0 = NowNs();
      client.WithClient([](leases::CacheClient&) {});
      int64_t t1 = NowNs();
      out->client_probe.Record(t1 - t0);
      out->spans.Add({op, t0, t1, SpanName::kClientLoopProbe});
    } else if (seq % kProbeEvery == kProbeEvery / 2) {
      int64_t t0 = NowNs();
      int64_t per_loop = rig->host->ProbeServerLoop();
      out->server_probe.Record(per_loop);
      out->spans.Add({op, t0, NowNs(),
                      w.host == HostKind::kSharded
                          ? SpanName::kShardStatsProbe
                          : SpanName::kServerLoopProbe});
    }
  }
}

// --- layer counters --------------------------------------------------------

struct Snapshot {
  ClientStats client;  // summed over clients
  leases::NodeMessageStats transport;  // summed over client transports
  HostCounters host;
  Usage usage;
  int64_t at_ns = 0;
};

Snapshot TakeSnapshot(Rig* rig) {
  Snapshot s;
  for (auto& client : rig->clients) {
    ClientStats cs = client->stats();
    s.client.reads += cs.reads;
    s.client.local_reads += cs.local_reads;
    s.client.remote_fetches += cs.remote_fetches;
    s.client.extend_requests += cs.extend_requests;
    s.client.extend_items += cs.extend_items;
    s.client.writes += cs.writes;
    s.client.approvals_granted += cs.approvals_granted;
    s.client.invalidations += cs.invalidations;
    s.client.retransmits += cs.retransmits;
    s.client.timeouts += cs.timeouts;
    leases::NodeMessageStats ts = client->transport().stats();
    for (int i = 0; i < leases::kNumMessageClasses; ++i) {
      s.transport.sent[i] += ts.sent[i];
      s.transport.received[i] += ts.received[i];
    }
    s.transport.send_failures += ts.send_failures;
  }
  s.host = rig->host->counters();
  s.usage = ProcessUsage();
  s.at_ns = NowNs();
  return s;
}

// --- one run ---------------------------------------------------------------

// Everything a run measured, for the metric builders below.
struct Measurement {
  std::vector<double> setup_s;
  std::unique_ptr<Rig> rig;
  std::vector<CallerResult> callers;
  CallerResult all;  // callers merged (counts and probe histograms)
  Snapshot before, after;
  double slice_s = 0;
  std::vector<double> slice_cpu_us;  // process CPU time at each slice's end
  std::vector<double> slice_steal;   // share of CPU time stolen in each slice
  // Traced runs: window time spent with recording on / off.
  double traced_s = 0, untraced_s = 0;

  double ops() const {
    return static_cast<double>(all.attempted - all.failed);
  }
  // The slices whose steal is no higher than that of the kCalmShare-th
  // least stolen one. The choice looks only at the hypervisor, never at
  // the figures it selects.
  std::vector<bool> Calm() const {
    std::vector<double> sorted = slice_steal;
    std::sort(sorted.begin(), sorted.end());
    size_t k = static_cast<size_t>(
        std::ceil(kCalmShare * static_cast<double>(sorted.size())));
    double cutoff = sorted.empty() ? 0 : sorted[std::max<size_t>(k, 1) - 1];
    std::vector<bool> calm;
    for (double steal : slice_steal) {
      calm.push_back(steal <= cutoff);
    }
    return calm;
  }
};

// Sleeps through the timed window slice by slice, sampling the process CPU
// and the hypervisor's steal at each slice end. A traced run turns
// recording on for even slices and off for odd ones: both halves see the
// same machine, so their throughput difference is the cost of tracing
// rather than drift in neighbour load.
void TimeWindow(const Options& opt, const LoadControl& load, Measurement* m) {
  StealSample steal = ReadSteal();
  for (size_t i = 0; i < load.slices; ++i) {
    bool on = opt.trace && i % 2 == 0;
    Tracing::Enable(on);
    int64_t start = NowNs();
    int64_t end =
        load.window_start_ns + static_cast<int64_t>(i + 1) * load.slice_ns;
    std::this_thread::sleep_for(std::chrono::nanoseconds(end - start));
    if (opt.trace) {
      *(on ? &m->traced_s : &m->untraced_s) += Seconds(NowNs() - start);
    }
    m->slice_cpu_us.push_back(ProcessUsage().cpu_us);
    StealSample now = ReadSteal();
    m->slice_steal.push_back(
        Ratio(now.steal - steal.steal, now.total - steal.total));
    steal = now;
  }
  Tracing::Enable(false);
}

// Sets up kSetups times (keeping the last rig), warms up, and measures
// one window of closed-loop load. `slots` is set for a traced run.
bool Measure(const Options& opt, const SlotMap& slots,
             const SlotMap* trace_slots, Watchdog* watchdog,
             Measurement* m) {
  const Workload& w = *opt.workload;
  for (int i = 0; i < kSetups; ++i) {
    watchdog->SetPhase("set-up");
    m->rig.reset();  // the previous rig is torn down outside the timing
    SleepFor(kSetupPauseSeconds);
    m->rig = std::make_unique<Rig>();
    int64_t t0 = NowNs();
    if (!SetUp(w, trace_slots, watchdog, m->rig.get())) {
      return false;
    }
    m->setup_s.push_back(Seconds(NowNs() - t0));
  }

  LoadControl load;
  load.slices = std::max<size_t>(
      1, static_cast<size_t>(std::llround(opt.seconds / kSliceSeconds)));
  load.slice_ns = static_cast<int64_t>(opt.seconds * 1e9) /
                  static_cast<int64_t>(load.slices);
  m->slice_s = Seconds(load.slice_ns);
  m->callers.resize(w.clients);
  std::vector<std::thread> threads;
  watchdog->SetPhase("load");
  for (int c = 0; c < w.clients; ++c) {
    threads.emplace_back(CallerLoop, std::cref(w), std::cref(opt), c,
                         m->rig.get(), slots.slots[c], &load, watchdog,
                         &m->callers[c]);
  }
  SleepFor(kWarmupSeconds);
  m->before = TakeSnapshot(m->rig.get());
  load.window_start_ns = m->before.at_ns;
  load.phase.store(kMeasure, std::memory_order_release);
  TimeWindow(opt, load, m);
  m->after = TakeSnapshot(m->rig.get());
  load.phase.store(kDone, std::memory_order_release);
  for (auto& t : threads) {
    t.join();
  }
  watchdog->SetPhase("teardown");
  m->rig->Stop();
  m->rig->checker->Resolve();

  for (CallerResult& r : m->callers) {
    m->all.client_probe.Merge(r.client_probe);
    m->all.server_probe.Merge(r.server_probe);
    m->all.reply_to_return.Merge(r.reply_to_return);
    m->all.rtt.Merge(r.rtt);
    m->all.reads += r.reads;
    m->all.writes += r.writes;
    m->all.attempted += r.attempted;
    m->all.failed += r.failed;
    m->all.traced_ops += r.traced_ops;
    m->all.untraced_ops += r.untraced_ops;
  }
  return true;
}

// --- output ----------------------------------------------------------------

class MetricSet {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    entries_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", entries_[i].name.c_str(), entries_[i].value,
                    entries_[i].unit);
      out += buf;
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> entries_;
};

double Delta(uint64_t after, uint64_t before) {
  return static_cast<double>(after - before);
}

// Throughput, latency and CPU per op are medians over the calm slices of
// the window (Measurement::Calm): per slice for throughput and CPU, per
// caller and slice for the latency quantiles.
void AddEndToEnd(const Measurement& m, MetricSet* out) {
  std::vector<bool> calm = m.Calm();
  std::vector<double> ops_per_s, cpu_per_op;
  std::vector<double> read_p50, read_p99, write_p50, write_p99;
  auto add = [](double v, std::vector<double>* to) {
    if (!std::isnan(v)) {
      to->push_back(v);
    }
  };
  for (size_t i = 0; i < calm.size(); ++i) {
    if (!calm[i]) {
      continue;
    }
    double ops = 0;
    for (const CallerResult& r : m.callers) {
      if (i < r.slices.figures().size()) {
        const SliceFigures& f = r.slices.figures()[i];
        ops += f.ops;
        add(f.read_p50, &read_p50);
        add(f.read_p99, &read_p99);
        add(f.write_p50, &write_p50);
        add(f.write_p99, &write_p99);
      }
    }
    ops_per_s.push_back(ops / m.slice_s);
    double cpu_before =
        i == 0 ? m.before.usage.cpu_us : m.slice_cpu_us[i - 1];
    if (ops > 0) {
      cpu_per_op.push_back((m.slice_cpu_us[i] - cpu_before) / ops);
    }
  }
  out->Add("ops_per_s", Median(ops_per_s), "1/s");
  out->Add("read_p50_us", Median(read_p50), "us");
  out->Add("read_p99_us", Median(read_p99), "us");
  out->Add("write_p50_us", Median(write_p50), "us");
  out->Add("write_p99_us", Median(write_p99), "us");
  out->Add("cpu_us_per_op", Median(cpu_per_op), "us");
  const Usage& u1 = m.after.usage;
  // Every message a client sends goes to the server and every one it
  // receives came from it: the paper's server load (Fig. 1).
  out->Add("server_msgs_per_op",
           Ratio(Delta(m.after.transport.Handled(),
                       m.before.transport.Handled()),
                 m.ops()),
           "msgs/op");
  out->Add("peak_rss_mb", u1.max_rss_kb / 1024.0, "MB");
  out->Add("setup_s", Median(m.setup_s), "s");
}

// Per-layer metrics, named after the modules. Metrics of a layer the
// workload's host does not have (the traced plain-host decorators on the
// sharded host, the shard plane on the plain host) read 0.
void AddPerLayer(const Workload& w, const Measurement& m, MetricSet* out) {
  const double ops = m.ops();
  const bool sharded = w.host == HostKind::kSharded;
  const CallerResult& all = m.all;
  const Usage& u0 = m.before.usage;
  const Usage& u1 = m.after.usage;
  const ClientStats& c0 = m.before.client;
  const ClientStats& c1 = m.after.client;
  const leases::ServerStats& s0 = m.before.host.server;
  const leases::ServerStats& s1 = m.after.host.server;
  const leases::NodeMessageStats& t0 = m.before.transport;
  const leases::NodeMessageStats& t1 = m.after.transport;
  HostTrace host = m.rig->host->trace();
  LatencyHistogram client_handle;
  for (const auto& tap : m.rig->taps) {
    client_handle.Merge(tap->handle());
  }
  auto quantile = [](const LatencyHistogram* h, double q) {
    return h == nullptr ? 0 : h->QuantileUs(q);
  };
  const LatencyHistogram* server_loop = sharded ? nullptr : &all.server_probe;
  const LatencyHistogram* shard_loop = sharded ? &all.server_probe : nullptr;

  // runtime: RuntimeClient / EventLoop and the process
  out->Add("event_loop.client_runsync_us.p50",
           all.client_probe.QuantileUs(0.5), "us");
  out->Add("event_loop.client_runsync_us.p99",
           all.client_probe.QuantileUs(0.99), "us");
  out->Add("event_loop.server_runsync_us.p50", quantile(server_loop, 0.5),
           "us");
  out->Add("event_loop.server_runsync_us.p99", quantile(server_loop, 0.99),
           "us");
  out->Add("runtime_client.reply_to_return_us.p50",
           all.reply_to_return.QuantileUs(0.5), "us");
  out->Add("process.vol_ctx_switches_per_op",
           Ratio(u1.vol_ctx - u0.vol_ctx, ops), "1/op");
  out->Add("process.invol_ctx_switches_per_op",
           Ratio(u1.invol_ctx - u0.invol_ctx, ops), "1/op");

  // core/cache_client
  double client_writes = Delta(c1.writes, c0.writes);
  double extend_requests = Delta(c1.extend_requests, c0.extend_requests);
  out->Add("cache_client.hit_ratio",
           Ratio(Delta(c1.local_reads, c0.local_reads),
                 Delta(c1.reads, c0.reads)),
           "ratio");
  out->Add("cache_client.remote_fetches_per_op",
           Ratio(Delta(c1.remote_fetches, c0.remote_fetches), ops), "1/op");
  out->Add("cache_client.extend_requests_per_op", Ratio(extend_requests, ops),
           "1/op");
  out->Add("cache_client.extend_items_per_request",
           Ratio(Delta(c1.extend_items, c0.extend_items), extend_requests),
           "items/req");
  out->Add("cache_client.approvals_per_write",
           Ratio(Delta(c1.approvals_granted, c0.approvals_granted),
                 client_writes),
           "1/write");
  out->Add("cache_client.invalidations_per_write",
           Ratio(Delta(c1.invalidations, c0.invalidations), client_writes),
           "1/write");
  out->Add("cache_client.retransmits_per_op",
           Ratio(Delta(c1.retransmits, c0.retransmits), ops), "1/op");
  out->Add("cache_client.timeouts", Delta(c1.timeouts, c0.timeouts), "count");
  out->Add("cache_client.handle_us.p50", client_handle.QuantileUs(0.5), "us");
  out->Add("cache_client.handle_us.p99", client_handle.QuantileUs(0.99), "us");

  // core/lease_server (ServerStats)
  double writes = Delta(s1.writes_received, s0.writes_received);
  double deferred = Delta(s1.writes_deferred, s0.writes_deferred);
  double wait_us = static_cast<double>(
      (s1.write_wait_total - s0.write_wait_total).ToMicros());
  out->Add("lease_server.writes_deferred_ratio", Ratio(deferred, writes),
           "ratio");
  out->Add("lease_server.write_wait_us_mean", Ratio(wait_us, deferred), "us");
  // A high-water mark over the server's life, not a window delta.
  out->Add("lease_server.max_write_wait_us",
           static_cast<double>(s1.max_write_wait.ToMicros()), "us");
  out->Add("lease_server.approval_rounds_per_write",
           Ratio(Delta(s1.approval_rounds, s0.approval_rounds), writes),
           "1/write");
  out->Add("lease_server.approval_retries",
           Delta(s1.approval_retries, s0.approval_retries), "count");
  out->Add("lease_server.expired_commits",
           Delta(s1.writes_expired_commit, s0.writes_expired_commit), "count");
  out->Add("lease_server.leases_granted_per_op",
           Ratio(Delta(s1.leases_granted, s0.leases_granted), ops), "1/op");
  out->Add("lease_server.extension_items_per_request",
           Ratio(Delta(s1.extension_items, s0.extension_items),
                 Delta(s1.extension_requests, s0.extension_requests)),
           "items/req");
  out->Add("lease_server.dedup_replays",
           Delta(s1.dedup_replays, s0.dedup_replays), "count");
  out->Add("lease_server.handle_us.p50", quantile(host.handle, 0.5), "us");
  out->Add("lease_server.handle_us.p99", quantile(host.handle, 0.99), "us");

  // net / runtime/udp_transport (client side, per message class)
  auto per_op = [&](const uint64_t (&a)[leases::kNumMessageClasses],
                    const uint64_t (&b)[leases::kNumMessageClasses],
                    leases::MessageClass cls) {
    auto i = static_cast<int>(cls);
    return Ratio(Delta(a[i], b[i]), ops);
  };
  using leases::MessageClass;
  out->Add("udp_transport.client_sent_per_op.data",
           per_op(t1.sent, t0.sent, MessageClass::kData), "msgs/op");
  out->Add("udp_transport.client_sent_per_op.consistency",
           per_op(t1.sent, t0.sent, MessageClass::kConsistency), "msgs/op");
  out->Add("udp_transport.client_received_per_op.data",
           per_op(t1.received, t0.received, MessageClass::kData), "msgs/op");
  out->Add("udp_transport.client_received_per_op.consistency",
           per_op(t1.received, t0.received, MessageClass::kConsistency),
           "msgs/op");
  out->Add("udp_transport.send_failures",
           Delta(t1.send_failures, t0.send_failures) +
               Delta(s1.send_failures, s0.send_failures),
           "count");
  out->Add("udp_transport.send_us.p50", quantile(host.send, 0.5), "us");
  out->Add("wire.rtt_us.p50", all.rtt.QuantileUs(0.5), "us");
  out->Add("wire.rtt_us.p99", all.rtt.QuantileUs(0.99), "us");

  // runtime/shard_loop
  out->Add("shard_loop.processed_per_op",
           Ratio(Delta(m.after.host.shard_processed,
                       m.before.host.shard_processed),
                 ops),
           "msgs/op");
  out->Add("shard_loop.ring_drops",
           Delta(m.after.host.ring_drops, m.before.host.ring_drops), "count");
  out->Add("shard_loop.runsync_us.p50", quantile(shard_loop, 0.5), "us");
  out->Add("shard_loop.runsync_us.p99", quantile(shard_loop, 0.99), "us");

  // The run itself: failures, and what recording the spans cost.
  double traced = Ratio(static_cast<double>(all.traced_ops), m.traced_s);
  double untraced =
      Ratio(static_cast<double>(all.untraced_ops), m.untraced_s);
  out->Add("error_rate",
           Ratio(static_cast<double>(all.failed),
                 static_cast<double>(all.attempted)),
           "ratio");
  out->Add("trace.ops_per_s", traced, "1/s");
  out->Add("trace.untraced_ops_per_s", untraced, "1/s");
  out->Add("trace.overhead_pct", Ratio(100 * (untraced - traced), untraced),
           "%");
}

void WriteTrace(const Options& opt, const Measurement& m, int64_t origin) {
  std::vector<const SpanLog*> logs;
  for (const CallerResult& r : m.callers) {
    logs.push_back(&r.spans);
  }
  for (const auto& tap : m.rig->taps) {
    logs.push_back(&tap->spans());
  }
  HostTrace host = m.rig->host->trace();
  logs.insert(logs.end(), host.spans.begin(), host.spans.end());
  std::string path = opt.trace_dir + "/" + opt.workload->name + ".jsonl";
  if (!WriteSpans(path, origin, logs)) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                 path.c_str());
  }
}

void PrintViolation(const Options& opt, const Violation& v, int64_t origin) {
  const ReadObservation& r = v.read;
  std::fprintf(stderr,
               "OUTPUT CHECK FAILED: %s\n"
               "  workload=%s seed=%" PRIu64 " client=%u file=%u\n"
               "  version=%" PRIu64 " floor=%" PRIu64 "\n"
               "  read issued at +%.6f s, returned at +%.6f s\n"
               "  %s\n",
               v.kind.c_str(), opt.workload->name, opt.seed, r.client, r.file,
               r.version, r.floor, Seconds(r.start_ns - origin),
               Seconds(r.end_ns - origin), v.detail.c_str());
}

int Run(const Options& opt) {
  int64_t origin = NowNs();
  double load_start = LoadAverage();
  StealSample steal_start = ReadSteal();
  unsigned hw_threads = std::thread::hardware_concurrency();
  Watchdog watchdog;

  std::vector<std::unique_ptr<CallSlot>> slot_storage;
  SlotMap slots;
  slots.first_client = kFirstClient;
  for (int c = 0; c < opt.workload->clients; ++c) {
    slot_storage.push_back(std::make_unique<CallSlot>());
    slots.slots.push_back(slot_storage.back().get());
  }
  Measurement m;
  if (!Measure(opt, slots, opt.trace ? &slots : nullptr, &watchdog, &m)) {
    return 2;
  }
  double load_end = LoadAverage();
  StealSample steal_end = ReadSteal();
  double steal_pct = 100 * Ratio(steal_end.steal - steal_start.steal,
                                 steal_end.total - steal_start.total);
  std::vector<bool> calm = m.Calm();
  auto calm_slices =
      static_cast<size_t>(std::count(calm.begin(), calm.end(), true));
  const OutputChecker& checker = *m.rig->checker;

  // The run record: enough context to judge a drifting number.
  std::printf(
      "{\"run_record\": {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"trace\": %d, \"seconds\": %.3f, \"hw_threads\": %u, "
      "\"degraded\": %s, \"loadavg_start\": %.2f, \"loadavg_end\": %.2f, "
      "\"steal_pct\": %.2f, \"slices\": %zu, \"calm_slices\": %zu, "
      "\"reads\": %" PRIu64
      ", \"writes\": %" PRIu64 ", \"checked_reads\": %" PRIu64
      ", \"setups\": %d}}\n",
      opt.workload->name, opt.seed, opt.trace ? 1 : 0,
      Seconds(m.after.at_ns - m.before.at_ns), hw_threads,
      hw_threads < kHwThreads ? "true" : "false", load_start, load_end,
      steal_pct, m.slice_cpu_us.size(), calm_slices, m.all.reads, m.all.writes,
      checker.checked_reads(), kSetups);

  MetricSet metrics;
  if (opt.trace) {
    AddPerLayer(*opt.workload, m, &metrics);
    if (!opt.trace_dir.empty()) {
      WriteTrace(opt, m, origin);
    }
  } else {
    AddEndToEnd(m, &metrics);
  }
  std::optional<Violation> violation = checker.first_violation();
  if (violation) {
    PrintViolation(opt, *violation, origin);
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              violation ? "false" : "true", m.all.attempted, m.all.failed,
              metrics.Json().c_str());
  std::fflush(stdout);
  return violation ? 3 : 0;
}

bool ParseArgs(int argc, char** argv, Options* opt, bool* selftest) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--selftest") {
      *selftest = true;
    } else if (a == "--workload" && (v = next())) {
      for (const Workload& w : kWorkloads) {
        if (w.name == std::string(v)) {
          opt->workload = &w;
        }
      }
      if (opt->workload == nullptr) {
        return Fail(std::string("unknown workload ") + v);
      }
    } else if (a == "--seed" && (v = next())) {
      opt->seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds" && (v = next())) {
      opt->seconds = std::atof(v);
    } else if (a == "--trace" && (v = next())) {
      opt->trace = std::atoi(v) != 0;
    } else if (a == "--trace-dir" && (v = next())) {
      opt->trace_dir = v;
    } else {
      return Fail("bad argument " + a);
    }
  }
  if (!*selftest && (opt->workload == nullptr || opt->seconds <= 0)) {
    return Fail("need --workload <name> and --seconds > 0");
  }
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool selftest = false;
  if (!perfbench::ParseArgs(argc, argv, &opt, &selftest)) {
    return 2;
  }
  if (selftest) {
    return perfbench::RunOracleSelfTest() ? 0 : 1;
  }
  return perfbench::Run(opt);
}
