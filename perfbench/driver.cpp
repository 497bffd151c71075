// Closed-loop batch benchmark driver for DCART-CP and its durable stack.
//
//   perfbench_driver --workload=NAME --seed=N --seconds=S --trace=0|1
//                    --work-dir=DIR [--spans=FILE]
//   perfbench_driver --self-test --work-dir=DIR
//
// One client drives one engine built by MakeEngine(): it submits one
// 8192-op batch per Run() call and waits for it, so Run() returning is the
// acknowledgement of every op in the batch.  Each call is timed with
// steady_clock from here, outside the program.  The op stream is generated
// from the seed once and replayed in whole passes ("rounds") until the
// timed phase has lasted --seconds.
//
// Untraced (--trace=0) runs report the end-to-end metrics; traced runs
// (--trace=1) time the public entry points of each layer (art, dcartc,
// baselines, resilience, cluster) on the same stream, keep one span per
// Run() call per layer in memory and write them to --spans at exit.
//
// Every engine the driver can check is checked against an oracle computed
// here: a per-key table replayed in arrival order.  Each batch's reads_hit
// must equal the oracle's count, and at the end every key of the universe
// must hold the oracle's value (or be absent).  On stack-durable the shard
// directories are also copied and recovered from disk with Recover().
//
// The last line of standard output is one JSON result object.
#include <fcntl.h>
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "art/tree.h"
#include "baselines/cpu_engines.h"
#include "baselines/registry.h"
#include "baselines/rowex_engine.h"
#include "cluster/cluster.h"
#include "obs/metrics.h"
#include "resilience/replication.h"
#include "resilience/resilient_engine.h"
#include "workload/generators.h"

namespace dcart::perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kBatch = 8192;
constexpr std::size_t kWorkers = 4;
// A timed phase ends at a round boundary once both limits are met; 100
// batches leave at least ten above the p90.
constexpr std::size_t kMinTimedBatches = 100;
constexpr std::size_t kWindows = 20;
// Ladder layers run a fixed count: two snapshot cycles at the default
// cadence of 8 batches.
constexpr std::size_t kLadderBatches = 16;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ------------------------------------------------------------- workloads --

struct WorkloadSpec {
  const char* name;
  WorkloadKind kind;
  std::size_t keys;
  double theta;
  double write_ratio;
  double remove_ratio;
  const char* engine;
  std::size_t stream_batches;  // one round
  std::size_t shards;          // DCART-CLUSTER only
};

const WorkloadSpec kWorkloads[] = {
    {"ipgeo-read", WorkloadKind::kIPGEO, 1'000'000, 1.3, 0.05, 0.0,
     "DCART-CP", 128, 0},
    {"rs-update", WorkloadKind::kRS, 2'000'000, 0.0, 0.4, 0.1, "DCART-CP",
     256, 0},
    {"stack-durable", WorkloadKind::kIPGEO, 200'000, 1.3, 0.5, 0.0,
     "DCART-CLUSTER", 32, 3},
};

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

struct KeyHash {
  std::size_t operator()(const Key& key) const { return HashKey(key); }
};

/// The generated inputs, with every key mapped to a dense id so the oracle
/// is a pair of arrays.
struct Inputs {
  std::vector<Key> keys;  // id -> key: loaded keys, then keys only ops use
  std::vector<std::pair<Key, art::Value>> load;
  std::vector<Operation> ops;      // whole batches
  std::vector<std::uint32_t> ids;  // key id of ops[i]
  std::vector<Operation> warmup;   // batch 0 turned into reads

  std::size_t batches() const { return ops.size() / kBatch; }
  std::span<const Operation> Batch(std::size_t b) const {
    return std::span<const Operation>(ops).subspan(b * kBatch, kBatch);
  }
};

Inputs MakeInputs(const WorkloadSpec& spec, std::uint64_t seed,
                  std::size_t stream_batches) {
  WorkloadConfig cfg;
  cfg.num_keys = spec.keys;
  cfg.num_ops = stream_batches * kBatch;
  cfg.zipf_theta = spec.theta;
  cfg.write_ratio = spec.write_ratio;
  cfg.remove_ratio = spec.remove_ratio;
  cfg.seed = seed;
  Workload w = MakeWorkload(spec.kind, cfg);

  Inputs in;
  // Load() receives the keys in key order, as when a service restores an
  // ordered dump or reads an IP range table.  In generation order every
  // insert misses DRAM at each tree level, and set-up time then spread
  // 11-28 % between identical runs on a shared host.  The sort keys on a
  // packed 8-byte prefix so it does not chase a pointer per comparison.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> order;
  order.reserve(w.load_items.size());
  for (std::uint32_t i = 0; i < w.load_items.size(); ++i) {
    const Key& key = w.load_items[i].first;
    std::uint64_t prefix = 0;
    for (std::size_t b = 0; b < 8; ++b) {
      prefix = prefix << 8 | (b < key.size() ? key[b] : 0);
    }
    order.emplace_back(prefix, i);
  }
  std::sort(order.begin(), order.end(), [&](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first < b.first;
    return w.load_items[a.second].first < w.load_items[b.second].first;
  });
  in.load.reserve(order.size());
  for (const auto& entry : order) {
    in.load.push_back(std::move(w.load_items[entry.second]));
  }
  in.ops = std::move(w.ops);
  std::unordered_map<Key, std::uint32_t, KeyHash> index;
  index.reserve(spec.keys);
  const auto id_of = [&](const Key& key) {
    const auto [it, inserted] =
        index.emplace(key, static_cast<std::uint32_t>(in.keys.size()));
    if (inserted) in.keys.push_back(key);
    return it->second;
  };
  for (const auto& item : in.load) id_of(item.first);
  in.ids.reserve(in.ops.size());
  for (const Operation& op : in.ops) in.ids.push_back(id_of(op.key));
  for (const Operation& op : in.Batch(0)) {
    Operation read;
    read.key = op.key;
    in.warmup.push_back(std::move(read));
  }
  return in;
}

// ---------------------------------------------------------------- oracle --

/// Expected contents, replayed in arrival order with no code from the
/// program: value and presence per key id.
class Oracle {
 public:
  explicit Oracle(const Inputs& in)
      : value_(in.keys.size(), 0), present_(in.keys.size(), 0) {
    for (std::size_t i = 0; i < in.load.size(); ++i) {
      value_[i] = in.load[i].second;  // load keys own ids 0..load-1
      present_[i] = 1;
    }
  }

  /// Apply stream batch `b`; returns the reads that find their key.
  std::uint64_t Apply(const Inputs& in, std::size_t b) {
    std::uint64_t hits = 0;
    for (std::size_t i = b * kBatch; i < (b + 1) * kBatch; ++i) {
      const std::uint32_t id = in.ids[i];
      switch (in.ops[i].type) {
        case OpType::kRead:
          hits += present_[id];
          break;
        case OpType::kWrite:
          value_[id] = in.ops[i].value;
          present_[id] = 1;
          break;
        case OpType::kRemove:
          present_[id] = 0;
          break;
        case OpType::kScan:
          break;
      }
    }
    return hits;
  }

  std::uint64_t WarmupHits(const Inputs& in) const {
    std::uint64_t hits = 0;
    for (std::size_t i = 0; i < kBatch; ++i) hits += present_[in.ids[i]];
    return hits;
  }

  bool present(std::uint32_t id) const { return present_[id] != 0; }
  art::Value value(std::uint32_t id) const { return value_[id]; }

 private:
  std::vector<art::Value> value_;
  std::vector<std::uint8_t> present_;
};

using LookupFn = std::function<std::optional<art::Value>(KeyView)>;

/// What one engine was asked to do and what it answered.
struct Executed {
  bool warmup_ran = false;
  std::uint64_t warmup_hits = 0;
  std::vector<std::uint32_t> batches;  // stream batch index, in order
  std::vector<std::uint64_t> hits;     // reads_hit per batch
};

/// Replay `run` on a fresh oracle and compare per-batch read counts and the
/// final contents.  Returns an empty string when everything matches.
std::string CheckOutputs(const Inputs& in, const Executed& run,
                         const LookupFn& lookup, Oracle* final_state) {
  Oracle oracle(in);
  std::ostringstream err;
  if (run.warmup_ran && run.warmup_hits != oracle.WarmupHits(in)) {
    err << "warm-up batch: reads_hit " << run.warmup_hits << ", oracle "
        << oracle.WarmupHits(in) << "; ";
  }
  for (std::size_t k = 0; k < run.batches.size(); ++k) {
    const std::uint64_t want = oracle.Apply(in, run.batches[k]);
    if (run.hits[k] != want && err.tellp() < 400) {
      err << "batch " << k << ": reads_hit " << run.hits[k] << ", oracle "
          << want << "; ";
    }
  }
  std::size_t wrong = 0;
  for (std::uint32_t id = 0; id < in.keys.size(); ++id) {
    const std::optional<art::Value> got = lookup(in.keys[id]);
    const bool ok = oracle.present(id)
                        ? got.has_value() && *got == oracle.value(id)
                        : !got.has_value();
    if (!ok && ++wrong <= 3) {
      err << "key id " << id << ": "
          << (got ? "holds " + std::to_string(*got) : std::string("absent"))
          << ", oracle "
          << (oracle.present(id) ? std::to_string(oracle.value(id))
                                 : std::string("absent"))
          << "; ";
    }
  }
  if (wrong > 0) err << wrong << " keys differ from the oracle";
  if (final_state != nullptr) *final_state = std::move(oracle);
  return err.str();
}

LookupFn EngineLookup(const IndexEngine& engine) {
  return [&engine](KeyView key) { return engine.Lookup(key); };
}

// ---------------------------------------------------------- process stats --

/// Resident set size, sampled through one descriptor kept open so a sample
/// costs one pread.
class RssSampler {
 public:
  RssSampler() : fd_(::open("/proc/self/statm", O_RDONLY)) {}
  ~RssSampler() {
    if (fd_ >= 0) ::close(fd_);
  }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  std::size_t Bytes() const {
    char buf[128] = {};
    if (fd_ < 0 || ::pread(fd_, buf, sizeof(buf) - 1, 0) <= 0) return 0;
    unsigned long long size = 0, resident = 0;
    if (std::sscanf(buf, "%llu %llu", &size, &resident) != 2) return 0;
    return static_cast<std::size_t>(resident) *
           static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  }

 private:
  int fd_;
};

/// Host steal ticks, summed over all CPUs (8th field of /proc/stat's "cpu"
/// line).  A diagnostic: steal rising during a run explains a slow run.
long long StealTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  long long fields[8] = {};
  stat >> cpu;
  for (long long& f : fields) stat >> f;
  return stat ? fields[7] : -1;
}

/// Bytes this process handed to write() and friends (/proc/self/io wchar).
long long WriteChars() {
  std::ifstream io("/proc/self/io");
  std::string name;
  long long value = 0;
  while (io >> name >> value) {
    if (name == "wchar:") return value;
  }
  return -1;
}

std::uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->Value();
}

// ------------------------------------------------------------------ stats --

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

// ------------------------------------------------------------------ spans --

struct Span {
  const char* layer;
  const char* section;
  std::uint64_t batch;  // request identifier shared across layers
  double start_us;      // since process start
  double dur_us;
};

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}
  void Add(const char* layer, const char* section, std::uint64_t batch,
           Clock::time_point start, Clock::time_point end) {
    spans_.push_back({layer, section, batch,
                      Seconds(origin_, start) * 1e6, Seconds(start, end) * 1e6});
  }
  bool Write(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fprintf(out, "layer,section,batch,start_us,dur_us\n");
    for (const Span& s : spans_) {
      std::fprintf(out, "%s,%s,%llu,%.3f,%.3f\n", s.layer, s.section,
                   static_cast<unsigned long long>(s.batch), s.start_us,
                   s.dur_us);
    }
    return std::fclose(out) == 0;
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------- engines --

std::unique_ptr<IndexEngine> BuildEngine(const std::string& name,
                                         std::size_t shards,
                                         const std::string& dir) {
  EngineOptions options;
  options.resilient.dir = name == "DCART-CP-FT" ? dir : "";
  options.replication.dir = name == "DCART-CP-HA" ? dir : "";
  if (name == "DCART-CLUSTER") {
    options.cluster.shards = shards;
    options.cluster.dir = dir;
  }
  return MakeEngine(name, options);
}

RunConfig MakeRunConfig(std::size_t workers) {
  RunConfig config;
  config.batch_size = kBatch;
  config.cpu.wall_threads = workers;
  return config;
}

std::size_t Workers() {
  const std::size_t host = std::max(1u, std::thread::hardware_concurrency());
  return std::min(kWorkers, host);
}

/// One timed pass of a closed loop: what came back per batch.
struct Loop {
  Executed run;
  std::vector<double> outside_s;   // steady_clock around Run()
  std::vector<double> reported_s;  // ExecutionResult::seconds
  std::vector<PhaseBreakdown> phases;
  OpStats stats;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::string error;  // first non-ok status

  double Mops() const {
    const double s = Sum(outside_s);
    return s > 0.0 ? static_cast<double>(ops) / s / 1e6 : 0.0;
  }
};

/// Called after the k-th Run() call with the instants around it.
using AfterBatch =
    std::function<void(std::size_t k, Clock::time_point, Clock::time_point)>;

/// Drive `engine` with stream batches, cycling through the stream, until
/// `done(batches_so_far, seconds_since_start, at_round_end)` says stop.
Loop DriveLoop(IndexEngine& engine, const Inputs& in, const RunConfig& config,
               const std::function<bool(std::size_t, double, bool)>& done,
               const AfterBatch& after = nullptr) {
  Loop loop;
  const Clock::time_point begin = Clock::now();
  for (std::size_t k = 0;; ++k) {
    const std::size_t b = k % in.batches();
    const Clock::time_point t0 = Clock::now();
    ExecutionResult r = engine.Run(in.Batch(b), config);
    const Clock::time_point t1 = Clock::now();
    loop.outside_s.push_back(Seconds(t0, t1));
    loop.reported_s.push_back(r.seconds);
    loop.phases.push_back(r.phase_breakdown);
    loop.stats.Merge(r.stats);
    loop.run.batches.push_back(static_cast<std::uint32_t>(b));
    loop.run.hits.push_back(r.reads_hit);
    loop.ops += kBatch;
    if (!r.status.ok()) {
      loop.failed += kBatch;
      if (loop.error.empty()) loop.error = r.status.message();
    } else {
      loop.failed += r.unavailable_ops;
    }
    if (after) after(k, t0, t1);
    if (done(k + 1, Seconds(begin, t1), b + 1 == in.batches())) break;
  }
  return loop;
}

/// Construct + Load + one read-only warm-up batch (starts the worker pool).
struct Built {
  std::unique_ptr<IndexEngine> engine;
  std::uint64_t warm_hits = 0;
  Status warm_status;  // Load() errors surface on the first Run()
  double setup_s = 0.0;
};

Built BuildAndLoad(const std::string& name, std::size_t shards,
                   const std::string& dir, const Inputs& in,
                   const RunConfig& config) {
  Built built;
  const long long steal0 = StealTicks();
  const Clock::time_point t0 = Clock::now();
  built.engine = BuildEngine(name, shards, dir);
  const Clock::time_point t1 = Clock::now();
  built.engine->Load(in.load);
  const Clock::time_point t2 = Clock::now();
  const ExecutionResult warm = built.engine->Run(in.warmup, config);
  const Clock::time_point t3 = Clock::now();
  built.setup_s = Seconds(t0, t3);
  std::printf("setup: %.4f s = construct %.4f + load %.4f + warm-up %.4f; "
              "steal ticks %lld\n",
              built.setup_s, Seconds(t0, t1), Seconds(t1, t2), Seconds(t2, t3),
              StealTicks() - steal0);
  built.warm_hits = warm.reads_hit;
  built.warm_status = warm.status;
  return built;
}

// --------------------------------------------------------------- results --

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;

  void Add(std::string name, double value, const char* unit) {
    metrics.push_back({std::move(name), value, unit});
  }
  void Fail(const std::string& where, const std::string& what) {
    correct = false;
    errors.push_back(where + ": " + what);
  }
  void Count(const Loop& loop) {
    attempted += loop.ops;
    failed += loop.failed;
  }

  void Print() const {
    for (const std::string& e : errors) {
      std::printf("check failed: %s\n", e.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit);
    }
    std::printf("}}\n");
  }
};

void CheckLoop(const char* where, const Inputs& in, const Built& built,
               Loop& loop, Result& result, Oracle* final_state = nullptr) {
  result.attempted += kBatch;  // the warm-up batch
  if (!built.warm_status.ok()) {
    result.failed += kBatch;
    result.Fail(where, "set-up: " + built.warm_status.message());
  }
  if (!loop.error.empty()) result.Fail(where, loop.error);
  loop.run.warmup_ran = true;
  loop.run.warmup_hits = built.warm_hits;
  const std::string err =
      CheckOutputs(in, loop.run, EngineLookup(*built.engine), final_state);
  if (!err.empty()) result.Fail(where, err);
}

// ------------------------------------------------------- durability check --

/// Copy each shard's primary and replica directory, recover a fresh
/// ResilientEngine from each copy, and compare it with the oracle
/// restricted to the shard's first-byte range.
void CheckRecovery(cluster::ClusterEngine& cluster, const std::string& dir,
                   const Inputs& in, const Oracle& oracle, Result& result) {
  for (std::size_t i = 0; i < cluster.shard_count(); ++i) {
    const auto [lo, hi] = cluster.ShardRange(i);
    const std::string home = dir + "/shard-" + std::to_string(i) + "/epoch-" +
                             std::to_string(cluster.ShardTerm(i));
    for (const char* side : {"primary", "replica"}) {
      const std::string where =
          "recovery shard " + std::to_string(i) + " " + side;
      const std::string copy = dir + "/recovered-" + std::to_string(i) + "-" +
                               side;
      std::error_code ec;
      fs::copy(home + "/" + side, copy, fs::copy_options::recursive, ec);
      if (ec) {
        result.Fail(where, "copy failed: " + ec.message());
        continue;
      }
      resilience::ResilienceOptions options;
      options.dir = copy;
      resilience::ResilientEngine recovered(options);
      if (!recovered.Recover()) {
        result.Fail(where, recovered.last_recover_error().message());
        continue;
      }
      std::size_t expected = 0, wrong = 0;
      for (std::uint32_t id = 0; id < in.keys.size(); ++id) {
        const std::uint8_t first = in.keys[id].empty() ? 0 : in.keys[id][0];
        if (first < lo || first > hi || !oracle.present(id)) continue;
        ++expected;
        const std::optional<art::Value> got = recovered.Lookup(in.keys[id]);
        wrong += !got.has_value() || *got != oracle.value(id);
      }
      if (wrong > 0 || recovered.tree().size() != expected) {
        result.Fail(where, std::to_string(wrong) + " keys differ; " +
                               std::to_string(recovered.tree().size()) +
                               " keys recovered, oracle has " +
                               std::to_string(expected));
      }
      fs::remove_all(copy, ec);
    }
  }
}

// -------------------------------------------------------------- untraced --

Result RunEndToEnd(const WorkloadSpec& spec, const Inputs& in,
                   double seconds, const std::string& dir) {
  Result result;
  const RunConfig config = MakeRunConfig(Workers());
  RssSampler rss;
  // Hand the input generator's freed heap back to the kernel first, so the
  // engine's allocations show as growth instead of reusing resident pages.
  ::malloc_trim(0);
  const std::size_t rss_before = rss.Bytes();
  std::size_t rss_peak = rss_before;

  Built built = BuildAndLoad(spec.engine, spec.shards, dir, in, config);
  rss_peak = std::max(rss_peak, rss.Bytes());

  const std::uint64_t checkpoints = CounterValue("resilience.checkpoints");
  const AfterBatch sample_rss = [&](std::size_t, Clock::time_point,
                                    Clock::time_point) {
    rss_peak = std::max(rss_peak, rss.Bytes());
  };
  Loop loop = DriveLoop(
      *built.engine, in, config,
      [&](std::size_t batches, double elapsed, bool round_end) {
        return round_end && elapsed >= seconds && batches >= kMinTimedBatches;
      },
      sample_rss);
  result.Count(loop);

  // Split the timed phase into up to kWindows runs of >= 100 consecutive
  // batches and report the median across windows: a burst of host CPU
  // steal then moves one window, not the run's figure.
  const std::size_t n = loop.outside_s.size();
  const std::size_t windows =
      std::clamp<std::size_t>(n / kMinTimedBatches, 1, kWindows);
  std::vector<double> mops, p50, p90;
  for (std::size_t w = 0; w < windows; ++w) {
    const std::vector<double> part(
        loop.outside_s.begin() + static_cast<std::ptrdiff_t>(n * w / windows),
        loop.outside_s.begin() +
            static_cast<std::ptrdiff_t>(n * (w + 1) / windows));
    mops.push_back(static_cast<double>(part.size() * kBatch) / Sum(part) /
                   1e6);
    p50.push_back(Quantile(part, 0.5) * 1e3);
    p90.push_back(Quantile(part, 0.9) * 1e3);
  }
  std::printf("batch ms at p50/p75/p85/p88/p90/p92/p95/max:");
  for (double q : {0.5, 0.75, 0.85, 0.88, 0.9, 0.92, 0.95, 1.0}) {
    std::printf(" %.3f", Quantile(loop.outside_s, q) * 1e3);
  }
  std::printf("\n");
  std::printf("window Mops/s:");
  for (double m : mops) std::printf(" %.3f", m);
  std::printf("\n");
  result.Add("throughput_mops", Quantile(mops, 0.5), "Mops/s");
  result.Add("latency_p50_ms", Quantile(p50, 0.5), "ms");
  result.Add("latency_p90_ms", Quantile(p90, 0.5), "ms");
  result.Add("setup_s", built.setup_s, "s");
  result.Add("memory_mb", static_cast<double>(rss_peak - rss_before) / 1e6,
             "MB");
  std::printf("timed phase: %zu batches in %zu windows, %.2f s in Run() "
              "(%.4f Mops/s overall), %llu primary checkpoints\n",
              n, windows, Sum(loop.outside_s), loop.Mops(),
              static_cast<unsigned long long>(
                  CounterValue("resilience.checkpoints") - checkpoints));

  Oracle final_state(in);
  CheckLoop(spec.name, in, built, loop, result, &final_state);
  if (auto* cluster = dynamic_cast<cluster::ClusterEngine*>(built.engine.get());
      cluster != nullptr && !dir.empty()) {
    CheckRecovery(*cluster, dir, in, final_state, result);
  }
  return result;
}

// ---------------------------------------------------------------- traced --

class Traced {
 public:
  Traced(const Inputs& in, const Inputs& ladder, double seconds,
         const std::string& dir, SpanLog& spans)
      : in_(in),
        ladder_(ladder),
        seconds_(seconds),
        dir_(dir),
        spans_(spans) {}

  Result Run() {
    const std::size_t workers = Workers();
    RunArt();
    const double t1 = RunDcartc(1, "t1", 0.1, false);
    const double t2 =
        RunDcartc(std::min<std::size_t>(2, workers), "t2", 0.1, false);
    // The phase breakdown comes from the configuration the end-to-end
    // workloads use.
    const double t4 = RunDcartc(workers, "t4", 0.2, true);
    result_.Add("dcartc.mops_t1", t1, "Mops/s");
    result_.Add("dcartc.mops_t2", t2, "Mops/s");
    result_.Add("dcartc.mops_t4", t4, "Mops/s");
    result_.Add("dcartc.speedup_vs_serial", t4 / serial_mops_, "x");
    RunBaselines();
    RunLadder();
    return std::move(result_);
  }

 private:
  /// Budgeted section: at least 32 batches, then stop once `share` of the
  /// run length is spent.
  std::function<bool(std::size_t, double, bool)> Budget(double share) const {
    const double limit = seconds_ * share;
    return [limit](std::size_t batches, double elapsed, bool) {
      return batches >= 32 && elapsed >= limit;
    };
  }

  AfterBatch RecordSpan(const char* layer, const char* section) {
    return [this, layer, section](std::size_t k, Clock::time_point a,
                                  Clock::time_point b) {
      spans_.Add(layer, section, k, a, b);
    };
  }

  void RunArt() {
    art::Tree tree;
    for (const auto& [key, value] : in_.load) tree.Insert(key, value);
    result_.Add("art.tree_bytes_per_key",
                static_cast<double>(tree.ComputeMemoryStats().TotalBytes()) /
                    static_cast<double>(tree.size()),
                "B");
    Executed run;
    std::vector<double> outside;
    const double limit = seconds_ * 0.1;
    double elapsed = 0.0;
    for (std::size_t k = 0; k < 32 || elapsed < limit; ++k) {
      const std::size_t b = k % in_.batches();
      std::uint64_t hits = 0;
      const Clock::time_point t0 = Clock::now();
      for (const Operation& op : in_.Batch(b)) {
        switch (op.type) {
          case OpType::kRead:
            hits += tree.Get(op.key).has_value();
            break;
          case OpType::kWrite:
            tree.Insert(op.key, op.value);
            break;
          case OpType::kRemove:
            tree.Remove(op.key);
            break;
          case OpType::kScan:
            break;
        }
      }
      const Clock::time_point t1 = Clock::now();
      spans_.Add("art", "serial", k, t0, t1);
      outside.push_back(Seconds(t0, t1));
      elapsed += outside.back();
      run.batches.push_back(static_cast<std::uint32_t>(b));
      run.hits.push_back(hits);
    }
    result_.attempted += run.batches.size() * kBatch;
    serial_mops_ = static_cast<double>(run.batches.size() * kBatch) /
                   Sum(outside) / 1e6;
    result_.Add("art.serial_mops", serial_mops_, "Mops/s");
    const std::string err = CheckOutputs(
        in_, run, [&tree](KeyView key) { return tree.Get(key); }, nullptr);
    if (!err.empty()) result_.Fail("art serial", err);
  }

  double RunDcartc(std::size_t threads, const char* section, double share,
                   bool breakdown) {
    const RunConfig config = MakeRunConfig(threads);
    Built built = BuildAndLoad("DCART-CP", 0, "", in_, config);
    const std::uint64_t deferred_before = CounterValue("dcartc.deferred_ops");
    Loop loop = DriveLoop(*built.engine, in_, config, Budget(share),
                          RecordSpan("dcartc", section));
    result_.Count(loop);
    CheckLoop((std::string("dcartc ") + section).c_str(), in_, built, loop,
              result_);
    if (breakdown) {
      const double batches = static_cast<double>(loop.outside_s.size());
      std::vector<double> combine, parallel, serial, other;
      for (std::size_t k = 0; k < loop.phases.size(); ++k) {
        const PhaseBreakdown& p = loop.phases[k];
        combine.push_back(p.combine_seconds * 1e3);
        parallel.push_back(p.traverse_seconds * 1e3);
        serial.push_back(p.trigger_seconds * 1e3);
        other.push_back((loop.outside_s[k] - p.combine_seconds -
                         p.traverse_seconds - p.trigger_seconds) *
                        1e3);
      }
      result_.Add("dcartc.combine_ms", Quantile(combine, 0.5), "ms");
      result_.Add("dcartc.parallel_ms", Quantile(parallel, 0.5), "ms");
      result_.Add("dcartc.serial_ms", Quantile(serial, 0.5), "ms");
      result_.Add("dcartc.other_ms", Quantile(other, 0.5), "ms");
      result_.Add("dcartc.deferred_ops_per_batch",
                  static_cast<double>(CounterValue("dcartc.deferred_ops") -
                                      deferred_before) /
                      batches,
                  "ops");
      const double probes = static_cast<double>(loop.stats.shortcut_hits +
                                                loop.stats.shortcut_misses);
      result_.Add("dcartc.shortcut_hit_rate",
                  probes > 0.0 ? static_cast<double>(loop.stats.shortcut_hits) /
                                     probes
                               : 0.0,
                  "ratio");
    }
    return loop.Mops();
  }

  /// The paper's comparison baselines: 4 client threads, ops dealt
  /// round-robin.  Their per-key order across clients is not the arrival
  /// order, so there is no oracle to check them against.
  template <typename Engine>
  double RunThreadedBaseline(Engine& engine, const char* section) {
    engine.Load(in_.load);
    const std::size_t chunk_batches = std::min<std::size_t>(16, in_.batches());
    const double limit = seconds_ * 0.1;
    double total = 0.0;
    std::uint64_t ops = 0;
    for (std::size_t c = 0; c < 2 || total < limit; ++c) {
      const std::size_t first =
          (c * chunk_batches) % (in_.batches() - chunk_batches + 1);
      const auto span = std::span<const Operation>(in_.ops).subspan(
          first * kBatch, chunk_batches * kBatch);
      OpStats stats;
      const Clock::time_point t0 = Clock::now();
      engine.RunThreaded(span, Workers(), stats);
      const Clock::time_point t1 = Clock::now();
      spans_.Add("baselines", section, c, t0, t1);
      total += Seconds(t0, t1);
      ops += span.size();
    }
    result_.attempted += ops;
    return static_cast<double>(ops) / total / 1e6;
  }

  void RunBaselines() {
    {
      auto olc = baselines::MakeArtOlcEngine();
      result_.Add("baselines.olc_mops", RunThreadedBaseline(*olc, "olc"),
                  "Mops/s");
    }
    baselines::ArtRowexEngine rowex;
    result_.Add("baselines.rowex_mops", RunThreadedBaseline(rowex, "rowex"),
                "Mops/s");
  }

  struct Rung {
    double mops = 0.0;
    double batch_ms = 0.0;       // mean outside time per batch
    double reported_ratio = 0.0;  // summed ExecutionResult::seconds / outside
  };

  Rung RunRung(const char* engine, const char* layer, const char* section) {
    const RunConfig config = MakeRunConfig(Workers());
    const std::string dir = dir_ + "/ladder-" + section;
    Built built = BuildAndLoad(engine, 3, dir, ladder_, config);
    const long long wchar_before = WriteChars();
    std::vector<char> checkpointed;
    std::uint64_t checkpoints = CounterValue("resilience.checkpoints");
    const AfterBatch span = RecordSpan(layer, section);
    const AfterBatch after = [&](std::size_t k, Clock::time_point a,
                                 Clock::time_point b) {
      span(k, a, b);
      const std::uint64_t now = CounterValue("resilience.checkpoints");
      checkpointed.push_back(now != checkpoints);
      checkpoints = now;
    };
    Loop loop = DriveLoop(
        *built.engine, ladder_, config,
        [](std::size_t batches, double, bool) {
          return batches >= kLadderBatches;
        },
        after);
    const long long wchar_after = WriteChars();
    result_.Count(loop);
    CheckLoop((std::string("ladder ") + section).c_str(), ladder_, built, loop,
              result_);

    Rung rung;
    rung.mops = loop.Mops();
    rung.batch_ms = Sum(loop.outside_s) / static_cast<double>(kLadderBatches) *
                    1e3;
    rung.reported_ratio = Sum(loop.reported_s) / Sum(loop.outside_s);
    if (std::string(section) == "cluster") {
      std::vector<double> with, without;
      for (std::size_t k = 0; k < checkpointed.size(); ++k) {
        (checkpointed[k] ? with : without).push_back(loop.outside_s[k] * 1e3);
      }
      result_.Add("resilience.checkpoint_batch_ms", Quantile(with, 0.5), "ms");
      result_.Add("resilience.plain_batch_ms", Quantile(without, 0.5), "ms");
      result_.Add("resilience.write_bytes_per_op",
                  static_cast<double>(wchar_after - wchar_before) /
                      static_cast<double>(loop.ops),
                  "B");
    }
    if (std::string(section) == "ha") {
      auto& pair = dynamic_cast<resilience::ReplicatedEngine&>(*built.engine);
      std::vector<double> scans;
      for (int i = 0; i < 3; ++i) {
        const Clock::time_point t0 = Clock::now();
        resilience::TreeChecksum(pair.tree());
        scans.push_back(Seconds(t0, Clock::now()) * 1e3);
      }
      result_.Add("replication.checksum_scan_ms", Quantile(scans, 0.5), "ms");
    }
    built.engine.reset();
    std::error_code ec;
    fs::remove_all(dir, ec);
    return rung;
  }

  void RunLadder() {
    const Rung cp = RunRung("DCART-CP", "dcartc", "cp");
    const Rung ft = RunRung("DCART-CP-FT", "resilience", "ft");
    const Rung ha = RunRung("DCART-CP-HA", "resilience", "ha");
    const Rung cl = RunRung("DCART-CLUSTER", "cluster", "cluster");
    result_.Add("ladder.cp_mops", cp.mops, "Mops/s");
    result_.Add("ladder.ft_mops", ft.mops, "Mops/s");
    result_.Add("ladder.ha_mops", ha.mops, "Mops/s");
    result_.Add("ladder.cluster_mops", cl.mops, "Mops/s");
    result_.Add("resilience.self_ms", ft.batch_ms - cp.batch_ms, "ms");
    result_.Add("replication.self_ms", ha.batch_ms - ft.batch_ms, "ms");
    result_.Add("cluster.self_ms", cl.batch_ms - ha.batch_ms, "ms");
    result_.Add("resilience.reported_time_ratio", ft.reported_ratio, "ratio");
    result_.Add("replication.reported_time_ratio", ha.reported_ratio, "ratio");
    result_.Add("cluster.reported_time_ratio", cl.reported_ratio, "ratio");
  }

  const Inputs& in_;
  const Inputs& ladder_;  // the stack-durable stream
  double seconds_;
  std::string dir_;
  SpanLog& spans_;
  Result result_;
  double serial_mops_ = 0.0;
};

// ------------------------------------------------------------- self-test --

/// Shows the output check rejects wrong answers: a run whose recorded read
/// count is one off, and an engine missing one key the oracle holds.
int SelfTest(const std::string& dir) {
  const WorkloadSpec spec = {"self-test", WorkloadKind::kIPGEO, 20'000, 1.3,
                             0.5, 0.1, "DCART-CP", 4, 0};
  const Inputs in = MakeInputs(spec, 7, spec.stream_batches);
  const RunConfig config = MakeRunConfig(Workers());
  Built built = BuildAndLoad("DCART-CP", 0, "", in, config);
  Loop loop = DriveLoop(*built.engine, in, config,
                        [&](std::size_t batches, double, bool) {
                          return batches >= 2 * in.batches();
                        });
  loop.run.warmup_ran = true;
  loop.run.warmup_hits = built.warm_hits;
  const LookupFn lookup = EngineLookup(*built.engine);
  int failures = 0;
  const auto expect = [&](const char* what, bool want_ok, const Executed& run,
                          const LookupFn& fn) {
    const std::string err = CheckOutputs(in, run, fn, nullptr);
    const bool ok = err.empty() == want_ok;
    std::printf("%s: %s (%s)\n", ok ? "pass" : "FAIL", what,
                err.empty() ? "check accepted" : err.c_str());
    failures += !ok;
  };
  expect("true outputs are accepted", true, loop.run, lookup);

  Executed off_by_one = loop.run;
  off_by_one.hits[off_by_one.hits.size() / 2] += 1;
  expect("one read count off is rejected", false, off_by_one, lookup);

  Oracle final_state(in);
  for (std::uint32_t b : loop.run.batches) final_state.Apply(in, b);
  std::uint32_t victim = 0;
  while (!final_state.present(victim)) ++victim;
  const Key missing = in.keys[victim];
  const LookupFn without_one = [&](KeyView key) -> std::optional<art::Value> {
    if (KeysEqual(key, missing)) return std::nullopt;
    return built.engine->Lookup(key);
  };
  expect("one missing key is rejected", false, loop.run, without_one);

  // The durable path end to end on a small cluster, recovery included.
  const WorkloadSpec durable = {"self-test-durable", WorkloadKind::kIPGEO,
                                20'000, 1.3, 0.5, 0.0, "DCART-CLUSTER", 4, 3};
  const Inputs din = MakeInputs(durable, 7, durable.stream_batches);
  const Result r = RunEndToEnd(durable, din, 0.0, dir + "/self-test-durable");
  for (const std::string& e : r.errors) std::printf("  %s\n", e.c_str());
  std::printf("%s: durable cluster run and recovery pass the check\n",
              r.correct ? "pass" : "FAIL");
  failures += !r.correct;
  return failures == 0 ? 0 : 1;
}

// ------------------------------------------------------------------- main --

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool self_test = false;
  std::string work_dir;
  std::string spans;
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&](const char* flag) -> std::optional<std::string> {
      const std::string prefix = std::string(flag) + "=";
      if (a.rfind(prefix, 0) == 0) return a.substr(prefix.size());
      return std::nullopt;
    };
    if (auto v = value("--workload")) {
      args.workload = *v;
    } else if (auto v = value("--seed")) {
      args.seed = std::strtoull(v->c_str(), nullptr, 10);
    } else if (auto v = value("--seconds")) {
      args.seconds = std::strtod(v->c_str(), nullptr);
    } else if (auto v = value("--trace")) {
      args.trace = *v == "1";
    } else if (auto v = value("--work-dir")) {
      args.work_dir = *v;
    } else if (auto v = value("--spans")) {
      args.spans = *v;
    } else if (a == "--self-test") {
      args.self_test = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", a.c_str());
      return std::nullopt;
    }
  }
  if (args.work_dir.empty()) {
    std::fprintf(stderr, "--work-dir is required\n");
    return std::nullopt;
  }
  return args;
}

int Main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  const std::optional<Args> args = ParseArgs(argc, argv);
  if (!args) return 2;
  std::error_code ec;
  fs::create_directories(args->work_dir, ec);
  if (args->self_test) return SelfTest(args->work_dir);

  const WorkloadSpec* spec = FindWorkload(args->workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args->workload.c_str());
    return 2;
  }
  const long long steal_before = StealTicks();
  const Inputs in = MakeInputs(*spec, args->seed, spec->stream_batches);
  std::printf("inputs made %.4f s after process start\n",
              Seconds(process_start, Clock::now()));
  std::vector<std::size_t> first_byte(256, 0);
  for (const Operation& op : in.ops) ++first_byte[op.key.empty() ? 0 : op.key[0]];
  std::printf("%s seed %llu: %zu keys loaded, %zu in the universe, %zu ops "
              "per round (%zu batches of %zu), %zu workers, hottest first "
              "byte %.1f%% of ops\n",
              spec->name, static_cast<unsigned long long>(args->seed),
              in.load.size(), in.keys.size(), in.ops.size(), in.batches(),
              kBatch, Workers(),
              100.0 * static_cast<double>(*std::max_element(
                          first_byte.begin(), first_byte.end())) /
                  static_cast<double>(in.ops.size()));

  Result result;
  if (args->trace) {
    // The ladder always runs on the stack-durable stream of this seed, so
    // ladder.* means the same on every workload.
    const WorkloadSpec& stack = *FindWorkload("stack-durable");
    std::optional<Inputs> own_ladder;
    if (spec != &stack) {
      own_ladder = MakeInputs(stack, args->seed, stack.stream_batches);
    }
    SpanLog spans(process_start);
    result = Traced(in, own_ladder ? *own_ladder : in, args->seconds,
                    args->work_dir, spans)
                 .Run();
    if (!args->spans.empty() && !spans.Write(args->spans)) {
      std::fprintf(stderr, "cannot write spans to %s\n", args->spans.c_str());
      return 1;
    }
  } else {
    const std::string dir =
        std::string(spec->engine) == "DCART-CLUSTER" ? args->work_dir + "/data"
                                                     : "";
    result = RunEndToEnd(*spec, in, args->seconds, dir);
  }
  std::printf("steal_ticks: %lld (host steal during this run; diagnostic)\n",
              StealTicks() - steal_before);
  result.Print();
  return 0;
}

}  // namespace
}  // namespace dcart::perfbench

int main(int argc, char** argv) { return dcart::perfbench::Main(argc, argv); }
