// End-to-end benchmark of the DiffProv reproduction.
//
// Runs one of three workloads through the same public entry points the CLI
// and the daemon use, checks every answer, and prints the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run) as the last line of
// stdout, one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Workloads (see perfbench/README.md for why each exists):
//   sdn-trace    SDN scenarios with a seeded background packet trace, each
//                query on the CLI's --program/--log path (parse_problem +
//                diagnose_problem), plus the Y! query (replay + locate_tree).
//   mr-jobs      MR1-D, MR2-D, MR1-I, MR2-I via mapred::diagnose, plus Y!.
//   service-mix  an in-process DiagnosisService: two closed-loop clients and
//                an open-loop live tap appending to one ingest stream.
//
// Every run times the calls this file makes into each layer with
// stopwatches (the program is not instrumented for it). A traced run
// (--trace 1) also reads the program's public counters (MetricsRegistry,
// ServiceStats, DiagnoseProfile) at the same boundaries and times the
// engine-only replays that split replay time into runtime and provenance.
//
// Usage: dp_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                     [--small] [--wrong-expectation]
// (perfbench/run.py builds it and adds obs.trace_overhead_pct to traced
// runs.)
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "mapred/scenario.h"
#include "obs/metrics.h"
#include "sdn/scenario.h"
#include "sdn/trace.h"
#include "service/diagnose.h"
#include "service/problem.h"
#include "service/service.h"
#include "store/store.h"

namespace dp::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
double ms_since(Clock::time_point a) { return ms_between(a, Clock::now()); }

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile (p in [0, 100]).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Small inputs for the self-test (perfbench/selftest.py).
  bool small = false;
  /// Check every answer against a deliberately wrong expectation, so the
  /// self-test can prove wrong answers are counted as failures.
  bool wrong_expectation = false;
};

std::optional<Options> parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      o.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--small") {
      o.small = true;
    } else if (arg == "--wrong-expectation") {
      o.wrong_expectation = true;
    } else {
      std::fprintf(stderr, "unknown or incomplete argument: %s\n", arg.c_str());
      return std::nullopt;
    }
  }
  if (o.workload.empty() || !(o.seconds > 0)) return std::nullopt;
  return o;
}

// ---------------------------------------------------------------------------
// Results

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::string health;
  std::vector<std::string> notes;  // human-readable lines printed before JSON

  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
};

/// Answer bookkeeping shared by all workloads: a wrong or failed answer is
/// counted, never dropped, and its first few descriptions are kept.
class AnswerCheck {
 public:
  void pass() { attempted_.fetch_add(1, std::memory_order_relaxed); }
  void fail(const std::string& why) {
    attempted_.fetch_add(1, std::memory_order_relaxed);
    failed_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mutex_);
    if (reasons_.size() < 5) reasons_.push_back(why);
  }
  void check(bool ok, const std::string& why) { ok ? pass() : fail(why); }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_.load(); }
  [[nodiscard]] std::uint64_t failed() const { return failed_.load(); }
  [[nodiscard]] std::vector<std::string> reasons() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return reasons_;
  }

 private:
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  mutable std::mutex mutex_;
  std::vector<std::string> reasons_;
};

/// Runs a generator thread's body; an exception is counted as a failed
/// operation instead of ending the process.
template <typename Fn>
void run_guarded(AnswerCheck& answers, const std::string& who, Fn&& body) {
  try {
    body();
  } catch (const std::exception& e) {
    answers.fail(who + " threw: " + e.what());
  }
}

/// A wrong expectation that no real answer contains.
constexpr const char* kWrongCause = "no-such-root-cause";

/// "(R round(s), C change(s))" from the header of a DiffProv report.
bool report_header(const std::string& out, int& rounds, int& changes) {
  const auto at = out.find("DiffProv: ");
  if (at == std::string::npos) return false;
  const auto paren = out.find('(', at);
  if (paren == std::string::npos) return false;
  return std::sscanf(out.c_str() + paren, "(%d round(s), %d change(s))",
                     &rounds, &changes) == 2;
}

std::uint64_t counter(obs::MetricsRegistry& r, const std::string& name) {
  return r.counter(name).value();
}

/// Engine/store/replay counters, read as deltas across a measured window.
/// The levels (store sizes, the queue-depth high-water mark) are kept as
/// read at the later snapshot, so take one at the end of the window, before
/// any replay that is not part of the workload.
struct CounterSnapshot {
  std::uint64_t events = 0, probes = 0, scanned = 0, matched = 0;
  std::uint64_t batch_events = 0, batches = 0;
  std::uint64_t intern_hits = 0, intern_misses = 0;
  std::uint64_t replays = 0;
  TupleStore::Stats store;
  double queue_depth_max = 0;

  static CounterSnapshot take(obs::MetricsRegistry& r) {
    CounterSnapshot s;
    s.events = counter(r, "dp.runtime.events_processed");
    s.probes = counter(r, "dp.runtime.index_probes");
    s.scanned = counter(r, "dp.runtime.tuples_scanned");
    s.matched = counter(r, "dp.runtime.tuples_matched");
    s.batch_events = counter(r, "dp.engine.batch.events");
    s.batches = counter(r, "dp.engine.batch.batches");
    s.store = global_store().stats();
    s.intern_hits = s.store.hits;
    s.intern_misses = s.store.misses;
    s.replays = counter(obs::default_registry(), "dp.replay.replays");
    s.queue_depth_max =
        static_cast<double>(r.gauge("dp.runtime.queue_depth_max").value());
    return s;
  }
  CounterSnapshot minus(const CounterSnapshot& o) const {
    CounterSnapshot d = *this;
    d.events = events - o.events;
    d.probes = probes - o.probes;
    d.scanned = scanned - o.scanned;
    d.matched = matched - o.matched;
    d.batch_events = batch_events - o.batch_events;
    d.batches = batches - o.batches;
    d.intern_hits = intern_hits - o.intern_hits;
    d.intern_misses = intern_misses - o.intern_misses;
    d.replays = replays - o.replays;
    return d;
  }
};

/// Per-layer counter metrics shared by every workload (0 where the layer
/// did no work on it). `passes` normalizes counts to one query set.
void add_counter_layers(RunResult& r, const CounterSnapshot& d, double passes) {
  r.layer("runtime.queue_depth_max", d.queue_depth_max, "count");
  r.layer("runtime.batch.mean_size",
          ratio(static_cast<double>(d.batch_events),
                static_cast<double>(d.batches)),
          "events");
  r.layer("runtime.batch.share",
          ratio(static_cast<double>(d.batch_events),
                static_cast<double>(d.events)),
          "ratio");
  r.layer("runtime.index_probes",
          ratio(static_cast<double>(d.probes), passes), "count");
  r.layer("runtime.match_ratio",
          ratio(static_cast<double>(d.matched),
                static_cast<double>(d.scanned)),
          "ratio");
  r.layer("store.intern_hit_rate",
          ratio(static_cast<double>(d.intern_hits),
                static_cast<double>(d.intern_hits + d.intern_misses)),
          "ratio");
  r.layer("store.values", static_cast<double>(d.store.values), "count");
  r.layer("store.tuples", static_cast<double>(d.store.tuples), "count");
  r.layer("store.bytes", static_cast<double>(d.store.bytes), "bytes");
}

std::string health_line(const std::string& workload, const CounterSnapshot& d,
                        double replays_per_diagnosis,
                        std::optional<double> scaling_4x) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "health %s: batch.mean_size=%.3f intern_hit_rate=%.4f "
      "scanned/matched=%llu/%llu replays/diagnosis=%.2f replay.scaling_4x=%s",
      workload.c_str(),
      ratio(static_cast<double>(d.batch_events),
            static_cast<double>(d.batches)),
      ratio(static_cast<double>(d.intern_hits),
            static_cast<double>(d.intern_hits + d.intern_misses)),
      static_cast<unsigned long long>(d.scanned),
      static_cast<unsigned long long>(d.matched), replays_per_diagnosis,
      scaling_4x ? std::to_string(*scaling_4x).c_str()
                 : "n/a (traced run only)");
  return buf;
}

/// Whether another pass over a query set fits the measured window, given
/// how long the last pass took (at least one pass always runs).
bool another_pass(Clock::time_point window_start, double seconds,
                  double last_pass_ms) {
  return ms_since(window_start) + last_pass_ms <= seconds * 1e3;
}

/// "root cause NAME: <first change line>" from a DiffProv report, so runs
/// with different seeds can be compared.
std::string root_cause_note(const std::string& name, const std::string& out) {
  const auto header = out.find("DiffProv: ");
  const auto line_start =
      header == std::string::npos ? std::string::npos : out.find('\n', header);
  std::string first;
  if (line_start != std::string::npos) {
    const auto line_end = out.find('\n', line_start + 1);
    first = out.substr(line_start + 1, line_end == std::string::npos
                                           ? std::string::npos
                                           : line_end - line_start - 1);
  }
  while (!first.empty() && first.front() == ' ') first.erase(first.begin());
  return "root cause " + name + ": " + first;
}

// Set-ups per run whose median is setup_s. The Figure 7 set-ups take tens
// of ms and vary by a quarter between runs, so many are cheap and needed;
// the service's takes about 0.3 s.
constexpr int kSetupReps = 11;
constexpr int kServiceSetupReps = 5;

/// Median wall time of `reps` calls of `fn` (seconds).
template <typename Fn>
double median_setup_seconds(int reps, Fn&& fn) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const auto start = Clock::now();
    fn();
    times.push_back(ms_since(start) / 1e3);
  }
  return median(times);
}

// ---------------------------------------------------------------------------
// Layer accounting for the Figure 7 workloads (sdn-trace, mr-jobs), per pass
// over the query set.

struct PassLayers {
  double diagnose_ms = 0;     // wall, the DiffProv bar
  double provquery_ms = 0;    // wall, the Y! bar
  std::vector<double> diag_each;  // per query of the set, in order
  std::vector<double> y_each;
  double counted_replay_ms = 0;  // replays that publish to the registry
  double parse_ms = 0;        // parse_problem
  double replay_ms = 0;       // every replay (diagnoses + Y!)
  double run_only_ms = 0;     // the same replays with provenance rejected
                              // (traced runs only)
  double locate_ms = 0;       // locate_tree (diagnoses + Y!)
  double find_seed_us = 0, annotate_us = 0, divergence_us = 0,
         make_appear_us = 0;
  int rounds = 0;
  int replays = 0;  // made by the diagnoses (Y! not included)
  int diagnoses = 0;
  double vertices = 0;        // Y! replay graph sizes
  double resident_bytes = 0;  // Y! replay graph footprints
  double tree_vertices = 0;   // Y! tree sizes
};

void add_reasoning(PassLayers& p, const DiffProvTiming& t) {
  p.find_seed_us += t.find_seed_us;
  p.annotate_us += t.annotate_us;
  p.divergence_us += t.divergence_us;
  p.make_appear_us += t.make_appear_us;
}

/// The pass whose wall time is the median (the lower median for an even
/// count), so the per-layer split is one real pass that adds up.
const PassLayers& median_pass(const std::vector<PassLayers>& passes) {
  std::vector<const PassLayers*> order;
  for (const PassLayers& p : passes) order.push_back(&p);
  std::sort(order.begin(), order.end(),
            [](const PassLayers* a, const PassLayers* b) {
              return a->diagnose_ms + a->provquery_ms <
                     b->diagnose_ms + b->provquery_ms;
            });
  return *order[(order.size() - 1) / 2];
}

/// The per-layer metrics of a Figure 7 workload, from its median pass.
void add_fig7_layers(RunResult& r, const PassLayers& p) {
  r.layer("replay.ms", p.replay_ms, "ms");
  r.layer("replay.calls", ratio(p.replays, p.diagnoses), "count");
  r.layer("replay.log_parse_ms", p.parse_ms, "ms");
  r.layer("runtime.run_ms", p.run_only_ms, "ms");
  r.layer("provenance.record_ms", std::max(0.0, p.replay_ms - p.run_only_ms),
          "ms");
  r.layer("provenance.vertices", p.vertices, "count");
  r.layer("provenance.resident_bytes", p.resident_bytes, "bytes");
  r.layer("provenance.locate_ms", p.locate_ms, "ms");
  r.layer("provenance.tree_vertices", p.tree_vertices, "count");
  r.layer("diffprov.find_seed_us", p.find_seed_us, "us");
  r.layer("diffprov.annotate_us", p.annotate_us, "us");
  r.layer("diffprov.divergence_us", p.divergence_us, "us");
  r.layer("diffprov.make_appear_us", p.make_appear_us, "us");
  r.layer("diffprov.rounds", p.rounds, "count");
}

/// Prints the self-time split of a pass and returns the wall time the named
/// layers do not account for (ms).
double print_self_times(RunResult& r, const PassLayers& p) {
  const double reasoning_ms =
      (p.find_seed_us + p.annotate_us + p.divergence_us + p.make_appear_us) /
      1e3;
  const double wall = p.diagnose_ms + p.provquery_ms;
  const std::pair<const char*, double> layers[] = {
      {"replay.log_parse", p.parse_ms},
      {"runtime (engine-only replay)", p.run_only_ms},
      {"provenance.record", std::max(0.0, p.replay_ms - p.run_only_ms)},
      {"provenance.locate", p.locate_ms},
      {"diffprov reasoning", reasoning_ms}};
  double accounted = 0;
  r.notes.push_back("self times of the median pass (diagnose + Y!):");
  for (const auto& [name, ms] : layers) {
    accounted += ms;
    char line[160];
    std::snprintf(line, sizeof(line), "  %-30s %12.3f ms %6.2f%%", name, ms,
                  100 * ratio(ms, wall));
    r.notes.push_back(line);
  }
  char line[160];
  std::snprintf(line, sizeof(line), "  %-30s %12.3f ms %6.2f%%",
                "unattributed", wall - accounted,
                100 * ratio(wall - accounted, wall));
  r.notes.push_back(line);
  std::snprintf(line, sizeof(line), "  %-30s %12.3f ms", "wall", wall);
  r.notes.push_back(line);
  return wall - accounted;
}

/// Each query's median time over the passes, in query-set order.
std::vector<double> median_over_passes(const std::vector<PassLayers>& passes,
                                       std::vector<double> PassLayers::*each) {
  std::vector<std::vector<double>> per_query;
  for (const PassLayers& p : passes) {
    const std::vector<double>& times = p.*each;
    if (per_query.size() < times.size()) per_query.resize(times.size());
    for (std::size_t q = 0; q < times.size(); ++q) {
      per_query[q].push_back(times[q]);
    }
  }
  std::vector<double> out;
  for (const auto& v : per_query) out.push_back(median(v));
  return out;
}

/// Shared end-to-end reporting of a Figure 7 workload. A pass holds only a
/// handful of distinct queries, so the latency figures are over each
/// query's median over the passes (p99 of a handful is the slowest query).
void add_fig7_end_to_end(RunResult& r, const std::vector<PassLayers>& passes,
                         double setup_s) {
  const std::vector<double> diag =
      median_over_passes(passes, &PassLayers::diag_each);
  const std::vector<double> yq =
      median_over_passes(passes, &PassLayers::y_each);
  std::vector<double> all = diag;
  all.insert(all.end(), yq.begin(), yq.end());
  double diag_ms = 0, y_ms = 0;
  for (double ms : diag) diag_ms += ms;
  for (double ms : yq) y_ms += ms;
  r.e2e("setup_s", setup_s, "s");
  r.e2e("diagnose_s", diag_ms / 1e3, "s");
  r.e2e("provquery_s", y_ms / 1e3, "s");
  r.e2e("query_p50_ms", median(all), "ms");
  r.e2e("query_p99_ms", percentile(all, 99), "ms");
  r.e2e("queries_per_s",
        ratio(static_cast<double>(all.size()), (diag_ms + y_ms) / 1e3), "1/s");
  r.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  std::string per_pass = "passes " + std::to_string(passes.size()) +
                         " of " + std::to_string(all.size()) +
                         " queries; diagnose ms per pass:";
  for (const PassLayers& p : passes) {
    per_pass += " " + std::to_string(std::lround(p.diagnose_ms));
  }
  r.notes.push_back(per_pass);
}

/// The serving and ingest layers, which only service-mix exercises; the
/// Figure 7 workloads print them as 0 so every workload prints every metric.
void add_unused_service_layers(RunResult& r) {
  static const std::pair<const char*, const char*> kLayers[] = {
      {"service.queue_wait_p50_ms", "ms"}, {"service.queue_wait_p99_ms", "ms"},
      {"service.exec_p50_ms", "ms"},       {"service.exec_p99_ms", "ms"},
      {"service.cache_hit_rate", "ratio"}, {"service.warm_hit_rate", "ratio"},
      {"service.shed", "count"},           {"service.resident_bytes", "bytes"},
      {"ingest.append_ms", "ms"},          {"ingest.snapshot_ms", "ms"},
      {"ingest.live_rebuilds", "count"},   {"ingest.resident_bytes", "bytes"},
      {"ingest.lag_p99_ms", "ms"},         {"ingest.generator_late_ms", "ms"}};
  for (const auto& [name, unit] : kLayers) r.layer(name, 0, unit);
}

// ---------------------------------------------------------------------------
// sdn-trace

struct SdnQuery {
  sdn::Scenario scenario;  // carries the expectations
  std::string program_text;
  std::string log_text;
  service::Problem problem;  // parsed once for the Y! query
};

sdn::Scenario with_background(sdn::Scenario s, std::size_t packets,
                              std::uint64_t seed) {
  sdn::TraceConfig trace;
  trace.rate_mbps = 100.0;
  trace.duration_s = 10.0;
  trace.max_packets = packets;
  trace.start_time = 5000;
  trace.seed = seed;
  EventLog background;
  sdn::generate_trace(trace, background);
  for (const LogRecord& rec : background.records()) s.log.append(rec);
  return s;
}

std::vector<SdnQuery> build_sdn_queries(std::size_t packets,
                                        std::uint64_t seed) {
  std::vector<SdnQuery> out;
  for (sdn::Scenario& base : sdn::all_scenarios()) {
    // SDN1 (one round) and SDN4 (two rounds) span the paper's query shapes;
    // SDN2/SDN3 repeat SDN1's single-round replay profile.
    if (base.name != "SDN1" && base.name != "SDN4") continue;
    SdnQuery q;
    q.scenario = with_background(std::move(base), packets, seed);
    q.program_text = q.scenario.program.to_string();
    q.log_text = q.scenario.log.to_text();
    q.problem = service::parse_problem(q.program_text, q.log_text,
                                       q.scenario.topology);
    out.push_back(std::move(q));
  }
  return out;
}

ReplayOptions options_with(obs::MetricsRegistry& registry) {
  ReplayOptions options;
  options.engine_config.metrics = &registry;
  return options;
}

/// Events/s of one provenance-recording replay of `s`.
double replay_events_per_s(const sdn::Scenario& s,
                           obs::MetricsRegistry& registry) {
  const std::uint64_t before = counter(registry, "dp.runtime.events_processed");
  const auto start = Clock::now();
  LogReplayProvider provider(s.program, s.topology, s.log,
                             options_with(registry));
  (void)provider.replay_bad({});
  const double secs = ms_since(start) / 1e3;
  return static_cast<double>(
             counter(registry, "dp.runtime.events_processed") - before) /
         secs;
}

/// Wall ms of one replay that records no provenance (engine only). Traced
/// passes run one per query, next to the query's provenance-recording
/// replays, and charge every NDlog replay of the query at that cost. It
/// publishes to `side`, a registry the workload's counters do not read.
double run_only_ms(const Program& program, const Topology& topology,
                   const EventLog& log, obs::MetricsRegistry& side) {
  ReplayOptions options = options_with(side);
  options.provenance_filter = [](const Tuple&) { return false; };
  const auto start = Clock::now();
  (void)replay(program, topology, log, {}, options);
  return ms_since(start);
}

/// Events/s of the replays that publish to the registry, from the median
/// pass (every pass replays the same events).
double events_per_s(const std::vector<PassLayers>& passes,
                    const CounterSnapshot& delta) {
  const PassLayers& p = median_pass(passes);
  return ratio(static_cast<double>(delta.events) /
                   static_cast<double>(passes.size()),
               p.counted_replay_ms / 1e3);
}

/// One diagnosis on the CLI's --program/--log path.
service::DiagnoseOutcome diagnose_cli(const SdnQuery& q,
                                      const ReplayOptions& replay_options,
                                      double& parse_ms) {
  const auto parse_start = Clock::now();
  const service::Problem problem = service::parse_problem(
      q.program_text, q.log_text, q.scenario.topology);
  parse_ms += ms_since(parse_start);
  service::DiagnoseSpec spec;
  spec.good_event = q.scenario.good_event;
  spec.bad_event = q.scenario.bad_event;
  return service::diagnose_problem(problem, spec, replay_options);
}

// Background packets per SDN query. Figure 7 uses 20k; at that size one pass
// over the query set takes over 20 s here, too long to repeat within a run,
// so the set runs at a quarter of it and replay.scaling_4x replays the
// paper's size in the traced run.
constexpr std::size_t kTracePackets = 5000;
constexpr std::size_t kPaperTracePackets = 20000;

RunResult run_sdn_trace(const Options& opt) {
  RunResult r;
  AnswerCheck answers;
  obs::MetricsRegistry registry;
  obs::MetricsRegistry side;  // replays outside the workload's counters
  const std::size_t packets = opt.small ? 500 : kTracePackets;

  std::vector<SdnQuery> queries;
  const double setup_s = median_setup_seconds(
      kSetupReps, [&] { queries = build_sdn_queries(packets, opt.seed); });

  // The first large replays in a process run slower (the allocator is still
  // growing); diagnose each query once, untimed, before the window.
  const ReplayOptions replay_options = options_with(registry);
  for (const SdnQuery& q : queries) {
    double ignored = 0;
    (void)diagnose_cli(q, replay_options, ignored);
  }

  std::vector<PassLayers> passes;
  const CounterSnapshot before = CounterSnapshot::take(registry);
  const auto window_start = Clock::now();
  double last_pass_ms = 0;
  do {
    const auto pass_start = Clock::now();
    PassLayers pass;
    for (const SdnQuery& q : queries) {
      const sdn::Scenario& s = q.scenario;
      const auto start = Clock::now();
      const service::DiagnoseOutcome outcome =
          diagnose_cli(q, replay_options, pass.parse_ms);
      const double ms = ms_since(start);
      pass.diagnose_ms += ms;
      pass.diag_each.push_back(ms);
      const service::DiagnoseProfile& prof = outcome.profile;
      const double diag_replay_ms =
          (prof.initial_replay_us + prof.timing.replay_us) / 1e3;
      pass.replay_ms += diag_replay_ms;
      pass.counted_replay_ms += diag_replay_ms;
      pass.replays += 1 + prof.timing.replays;
      pass.locate_ms += prof.locate_us / 1e3;
      pass.rounds += prof.rounds;
      ++pass.diagnoses;
      add_reasoning(pass, prof.timing);

      int rounds = 0, changes = 0;
      const std::string cause =
          opt.wrong_expectation ? kWrongCause : s.expected_root_cause;
      const bool ok = outcome.ok() &&
                      outcome.out.find(cause) != std::string::npos &&
                      report_header(outcome.out, rounds, changes) &&
                      rounds == s.expected_rounds &&
                      static_cast<std::size_t>(changes) == s.expected_changes;
      answers.check(ok, s.name + " diagnosis: " + outcome.out + outcome.err);
      if (passes.empty()) {
        r.notes.push_back(root_cause_note(s.name, outcome.out));
      }

      // Y!: one replay of the recorded log plus the bad event's tree.
      const auto y_start = Clock::now();
      BadRun run;
      {
        LogReplayProvider provider(q.problem.program, q.problem.topology,
                                   q.problem.log, replay_options);
        run = provider.replay_bad({});
      }
      const double y_replay_ms = ms_since(y_start);
      const auto locate_start = Clock::now();
      const std::optional<ProvTree> tree = locate_tree(*run.graph, s.bad_event);
      pass.locate_ms += ms_since(locate_start);
      const double y_ms = ms_since(y_start);
      pass.replay_ms += y_replay_ms;
      pass.counted_replay_ms += y_replay_ms;
      pass.provquery_ms += y_ms;
      pass.y_each.push_back(y_ms);
      pass.vertices += static_cast<double>(run.graph->size());
      pass.resident_bytes += static_cast<double>(run.graph->resident_bytes());
      answers.check(tree.has_value() && tree->size() == prof.bad_tree_size &&
                        !opt.wrong_expectation,
                    s.name + " Y!: bad tree missing or of the wrong size");
      if (tree) pass.tree_vertices += static_cast<double>(tree->size());
      run = {};
      if (opt.trace) {
        // The diagnosis's NDlog replays and the Y! replay, at the engine-only
        // cost of this query's log.
        pass.run_only_ms +=
            (2 + prof.timing.replays) *
            run_only_ms(q.problem.program, q.problem.topology, q.problem.log,
                        side);
      }
    }
    passes.push_back(pass);
    last_pass_ms = ms_since(pass_start);
  } while (another_pass(window_start, opt.seconds, last_pass_ms));
  const CounterSnapshot delta = CounterSnapshot::take(registry).minus(before);

  r.attempted = answers.attempted();
  r.failed = answers.failed();
  for (const std::string& why : answers.reasons()) {
    r.notes.push_back("FAILED " + why);
  }
  add_fig7_end_to_end(r, passes, setup_s);

  const PassLayers& mid = median_pass(passes);
  const double replays_per_diag = ratio(mid.replays, mid.diagnoses);
  std::optional<double> scaling;
  if (opt.trace) {
    // Growth with trace size: SDN1's events/s with a quarter of the paper's
    // trace over its events/s with the whole of it.
    const std::size_t full = opt.small ? 2000 : kPaperTracePackets;
    const sdn::Scenario quarter =
        with_background(sdn::sdn1(), full / 4, opt.seed);
    const sdn::Scenario whole = with_background(sdn::sdn1(), full, opt.seed);
    // Best of a few replays each: the first replay at a new size pays for
    // the allocator's growth.
    double quarter_eps = 0, whole_eps = 0;
    for (int i = 0; i < 3; ++i) {
      quarter_eps = std::max(quarter_eps, replay_events_per_s(quarter, side));
    }
    for (int i = 0; i < 2; ++i) {
      whole_eps = std::max(whole_eps, replay_events_per_s(whole, side));
    }
    scaling = ratio(quarter_eps, whole_eps);

    // The binary event-log decoder, on each scenario's recorded log.
    double decode_ms = 0;
    for (const SdnQuery& q : queries) {
      std::stringstream bytes;
      q.problem.log.serialize(bytes);
      const auto start = Clock::now();
      (void)EventLog::deserialize(bytes);
      decode_ms += ms_since(start);
    }
    add_fig7_layers(r, mid);
    r.layer("replay.events_per_s", events_per_s(passes, delta), "1/s");
    r.layer("replay.scaling_4x", *scaling, "ratio");
    r.layer("replay.log_decode_ms", decode_ms, "ms");
    add_counter_layers(r, delta, static_cast<double>(passes.size()));
    add_unused_service_layers(r);
    r.layer("obs.unattributed_ms", print_self_times(r, mid), "ms");
  }
  r.health = health_line("sdn-trace", delta, replays_per_diag, scaling);
  return r;
}

// ---------------------------------------------------------------------------
// mr-jobs

RunResult run_mr_jobs(const Options& opt) {
  RunResult r;
  AnswerCheck answers;
  obs::MetricsRegistry registry;
  obs::MetricsRegistry side;  // replays outside the workload's counters
  mapred::CorpusConfig corpus;
  corpus.files = opt.small ? 2 : 8;
  corpus.lines_per_file = opt.small ? 40 : 250;
  corpus.seed = opt.seed;

  std::vector<mapred::Scenario> scenarios;
  std::vector<EventLog> bad_logs;  // the declarative bad jobs' logs, for Y!
  const double setup_s = median_setup_seconds(kSetupReps, [&] {
    scenarios = mapred::all_scenarios(corpus);
    bad_logs.clear();
    for (const mapred::Scenario& s : scenarios) {
      bad_logs.push_back(
          s.declarative ? mapred::declarative_job_log(s.store, s.bad_config)
                        : EventLog{});
    }
  });
  (void)mapred::diagnose(scenarios.front());  // warm-up

  // mapred::diagnose takes no ReplayOptions: its replays count into private
  // registries, so the runtime counters here cover the Y! replays only.
  const ReplayOptions replay_options = options_with(registry);
  std::vector<PassLayers> passes;
  const CounterSnapshot before = CounterSnapshot::take(registry);
  const auto window_start = Clock::now();
  double last_pass_ms = 0;
  do {
    const auto pass_start = Clock::now();
    PassLayers pass;
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      const mapred::Scenario& s = scenarios[i];
      const auto start = Clock::now();
      const std::uint64_t replays_before =
          counter(obs::default_registry(), "dp.replay.replays");
      std::optional<mapred::Diagnosis> d;
      std::string error;
      try {
        d = mapred::diagnose(s);
      } catch (const std::exception& e) {
        error = e.what();
      }
      const double ms = ms_since(start);
      pass.diagnose_ms += ms;
      pass.diag_each.push_back(ms);
      ++pass.diagnoses;
      const std::string cause =
          opt.wrong_expectation ? kWrongCause : s.expected_root_cause;
      if (!d) {
        answers.fail(s.name + " diagnosis threw: " + error);
        continue;
      }
      // Replays: the good job, the bad job, then diagnose()'s own (the
      // imperative provider re-runs the job without going through replay()).
      const int replays =
          s.declarative
              ? static_cast<int>(counter(obs::default_registry(),
                                         "dp.replay.replays") -
                                 replays_before)
              : 2 + d->result.timing.replays;
      pass.replays += replays;
      pass.replay_ms += d->result.timing.replay_us / 1e3;
      pass.rounds += d->result.rounds;
      add_reasoning(pass, d->result.timing);
      const std::string report = d->result.to_string();
      answers.check(d->result.ok() && report.find(cause) != std::string::npos,
                    s.name + " diagnosis: " + report);
      if (passes.empty()) r.notes.push_back(root_cause_note(s.name, report));

      // Y! on the bad job only.
      const auto y_start = Clock::now();
      BadRun run;
      if (s.declarative) {
        LogReplayProvider provider(s.model, Topology{}, bad_logs[i],
                                   replay_options);
        run = provider.replay_bad({});
      } else {
        mapred::WordCountReplayProvider provider(s.store, s.bad_config);
        run = provider.replay_bad({});
      }
      const double y_replay_ms = ms_since(y_start);
      const auto locate_start = Clock::now();
      const std::optional<ProvTree> tree = locate_tree(*run.graph, s.bad_event);
      pass.locate_ms += ms_since(locate_start);
      const double y_ms = ms_since(y_start);
      pass.replay_ms += y_replay_ms;
      if (s.declarative) pass.counted_replay_ms += y_replay_ms;
      pass.provquery_ms += y_ms;
      pass.y_each.push_back(y_ms);
      pass.vertices += static_cast<double>(run.graph->size());
      pass.resident_bytes += static_cast<double>(run.graph->resident_bytes());
      answers.check(tree.has_value() && tree->size() == d->bad_tree.size() &&
                        !opt.wrong_expectation,
                    s.name + " Y!: bad tree missing or of the wrong size");
      if (tree) pass.tree_vertices += static_cast<double>(tree->size());
      if (opt.trace && s.declarative) {
        // diagnose()'s own replays and the Y! replay, at the engine-only
        // cost of the bad job's log. The good- and bad-job replays inside
        // mapred::diagnose are not timed on their own and land in
        // obs.unattributed_ms. The imperative jobs never enter the NDlog
        // engine, so their runtime share is 0.
        pass.run_only_ms += (d->result.timing.replays + 1) *
                            run_only_ms(s.model, Topology{}, bad_logs[i], side);
      }
    }
    passes.push_back(pass);
    last_pass_ms = ms_since(pass_start);
  } while (another_pass(window_start, opt.seconds, last_pass_ms));
  const CounterSnapshot delta = CounterSnapshot::take(registry).minus(before);

  r.attempted = answers.attempted();
  r.failed = answers.failed();
  for (const std::string& why : answers.reasons()) {
    r.notes.push_back("FAILED " + why);
  }
  add_fig7_end_to_end(r, passes, setup_s);
  const PassLayers& mid = median_pass(passes);
  const double replays_per_diag = ratio(mid.replays, mid.diagnoses);

  if (opt.trace) {
    add_fig7_layers(r, mid);
    r.layer("replay.events_per_s", events_per_s(passes, delta), "1/s");
    r.layer("replay.scaling_4x", 0, "ratio");
    r.layer("replay.log_decode_ms", 0, "ms");
    add_counter_layers(r, delta, static_cast<double>(passes.size()));
    add_unused_service_layers(r);
    r.layer("obs.unattributed_ms", print_self_times(r, mid), "ms");
  }
  r.health = health_line("mr-jobs", delta, replays_per_diag, std::nullopt);
  return r;
}

// ---------------------------------------------------------------------------
// service-mix

/// One kind of request in the closed-loop mix, with its expected answer.
struct MixQuery {
  std::string label;
  service::Query query;
  service::CachedResult expected;  // byte-identity reference
};

enum class Kind : int { kCacheHit, kWarm, kStream, kStreamProv, kCold, kCount };
constexpr const char* kKindNames[] = {"cache_hit", "warm", "stream",
                                      "stream_provquery", "cold"};

/// One request drawn from the mix: its kind and, for scenario queries, which
/// scenario (index into sdn1..sdn4, mr1-d, mr2-d).
struct Draw {
  Kind kind;
  std::size_t scenario;
};

/// The mix as a deck of 100 draws, dealt in a seeded order and reshuffled
/// each round, so every run has the same composition: the rare slow kinds
/// (MR at about 100 ms, stream queries) would otherwise set throughput and
/// p99 by how many of them the seed happened to draw. The shares are chosen,
/// not measured (the repo has no recorded query mix): every kind of query
/// the service serves is present, and cache hits stay under half, so the
/// median query is a real diagnosis. A warm MR query takes about 40 times
/// a warm SDN one; with one of each MR scenario per deck, p99 is an MR
/// query's own latency, not one MR query queued behind another.
std::vector<Draw> mix_deck() {
  std::vector<Draw> deck;
  for (std::size_t i = 0; i < 30; ++i) deck.push_back({Kind::kCacheHit, i % 6});
  for (std::size_t i = 0; i < 52; ++i) deck.push_back({Kind::kWarm, i % 4});
  for (std::size_t i = 0; i < 2; ++i) deck.push_back({Kind::kWarm, 4 + i});
  for (int i = 0; i < 5; ++i) deck.push_back({Kind::kStream, 0});
  for (int i = 0; i < 5; ++i) deck.push_back({Kind::kStreamProv, 0});
  for (int i = 0; i < 6; ++i) deck.push_back({Kind::kCold, 0});
  return deck;
}

/// The explain profile (CachedResult::profile_json) of one executed query.
struct Phases {
  bool valid = false;
  double replay_us = 0;  // warm-up, cold and UpdateTree replays
  double replays = 0;
  double locate_us = 0;
  double find_seed_us = 0, annotate_us = 0, divergence_us = 0,
         make_appear_us = 0;
  double rounds = 0;
};

double json_field(const std::string& json, const std::string& key) {
  const auto at = json.find("\"" + key + "\":");
  if (at == std::string::npos) return 0;
  return std::strtod(json.c_str() + at + key.size() + 3, nullptr);
}

Phases parse_phases(const std::string& json) {
  Phases p;
  if (json.empty()) return p;
  p.valid = true;
  const double initial = json_field(json, "replay_us");
  p.replay_us = json_field(json, "warm_replay_us") + initial +
                json_field(json, "diff_replay_us");
  p.replays = json_field(json, "replays") + (initial > 0 ? 1 : 0);
  p.locate_us = json_field(json, "locate_us");
  p.find_seed_us = json_field(json, "find_seed_us");
  p.annotate_us = json_field(json, "annotate_us");
  p.divergence_us = json_field(json, "divergence_us");
  p.make_appear_us = json_field(json, "make_appear_us");
  p.rounds = json_field(json, "rounds");
  return p;
}

struct Sample {
  Kind kind;
  double ms;
  std::size_t scenario;  // index into the scenario queries (warm kind)
  double queue_us;
  double exec_us;
  Phases phases;  // traced runs only, executed (not cache-hit) queries only
  double snapshot_ms = 0, locate_ms = 0;  // stream Y! only
};

service::CachedResult expected_result(const service::Problem& problem,
                                      const service::Query& q) {
  service::DiagnoseSpec spec;
  spec.bad_event = *problem.bad_event;
  if (!q.auto_reference) spec.good_event = problem.good_event;
  const service::DiagnoseOutcome outcome =
      service::diagnose_problem(problem, spec, ReplayOptions{});
  service::CachedResult result;
  result.exit_code = outcome.exit_code;
  result.out = outcome.pre + outcome.out;
  result.err = outcome.err;
  return result;
}

/// Everything set up before the measured window.
struct ServiceFixture {
  obs::MetricsRegistry registry;
  std::unique_ptr<service::DiagnosisService> svc;
  std::vector<std::string> tap_batches;  // pre-rendered EventLog text
  std::size_t tap_batch_events = 0;
  double tap_packets_per_s = 0;
};

// Two live streams, both opened against sdn1 and fed its log once (feeding
// it again would re-insert its config). Stream queries run against kStream,
// whose history is fixed before the window: a stream diagnosis replays the
// whole stream log and every snapshot walks the whole graph, so their cost
// would otherwise grow with every append. The tap appends to kTapStream,
// beside the queries on the same service.
constexpr const char* kStream = "live";
constexpr const char* kTapStream = "tap";
constexpr std::size_t kStreamPrefill = 600;
// The tap's traffic: the lowest rate of the paper's Figure 5 (1 Mbps of
// 500-byte packets, bench/fig5_logging_rate), flushed ten times a second.
constexpr double kTapMbps = 1.0;
constexpr double kTapFlushesPerS = 10;

void setup_service(ServiceFixture& f, const std::vector<MixQuery>& scenarios,
                   const service::Problem& sdn1, std::size_t workers,
                   double seconds, std::uint64_t seed) {
  f.svc.reset();
  f.registry.reset();
  service::ServiceConfig config;
  config.shards = 1;
  config.workers = workers;
  config.metrics = &f.registry;
  config.slow_ms = -1;  // no slow-query journaling in a benchmark
  f.svc = std::make_unique<service::DiagnosisService>(config);
  // Warm every scenario session (and fill the cache for the repeats).
  for (const MixQuery& mq : scenarios) {
    service::Query q = mq.query;
    q.bypass_cache = false;
    const auto sub = f.svc->submit(q);
    if (sub.ok()) (void)f.svc->wait(sub.id);
  }
  // The sdn1 log in time order (the stream's append contract).
  std::vector<LogRecord> records = sdn1.log.records();
  std::stable_sort(
      records.begin(), records.end(),
      [](const LogRecord& a, const LogRecord& b) { return a.time < b.time; });
  EventLog sorted;
  for (const LogRecord& rec : records) sorted.append(rec);
  // Background packets, spaced wider than a packet's derivation chain so a
  // snapshot never runs the live engine past the next append (which would
  // force a full rebuild). kStream gets the first kStreamPrefill of them;
  // the tap sends the rest.
  const std::size_t tap_packets = static_cast<std::size_t>(
      kTapMbps * 1e6 / 8 / 500 * (seconds + 5));
  sdn::TraceConfig trace;
  trace.rate_mbps = kTapMbps;
  trace.packet_bytes = 500;
  trace.max_packets = kStreamPrefill + tap_packets;
  trace.duration_s = 1e4;
  trace.seed = seed;
  trace.first_packet_id = 500000;
  trace.start_time = records.back().time + 100;
  EventLog packets;
  f.tap_packets_per_s = sdn::generate_trace(trace, packets).packets_per_second;
  const auto& recs = packets.records();
  EventLog prefill;
  for (std::size_t i = 0; i < kStreamPrefill; ++i) prefill.append(recs[i]);
  for (const char* name : {kStream, kTapStream}) {
    const service::IngestOutcome opened = f.svc->open_stream(name, "sdn1");
    const service::IngestOutcome fed =
        f.svc->ingest(name, sorted.to_text(), /*seal=*/true);
    if (!opened.ok || !fed.ok) {
      throw std::runtime_error("seeding a live stream failed: " +
                               opened.error + fed.error);
    }
  }
  if (!f.svc->ingest(kStream, prefill.to_text(), /*seal=*/true).ok) {
    throw std::runtime_error("seeding the live stream failed");
  }
  const auto per_batch = static_cast<std::size_t>(
      std::lround(f.tap_packets_per_s / kTapFlushesPerS));
  f.tap_batches.clear();
  for (std::size_t i = kStreamPrefill; i + per_batch <= recs.size();
       i += per_batch) {
    EventLog batch;
    for (std::size_t j = i; j < i + per_batch; ++j) batch.append(recs[j]);
    f.tap_batches.push_back(batch.to_text());
  }
  f.tap_batch_events = per_batch;
}

RunResult run_service_mix(const Options& opt) {
  RunResult r;
  AnswerCheck answers;
  const unsigned hw = std::max(4u, std::thread::hardware_concurrency());
  // Two clients and the tap are the generator; the rest of the host's
  // threads serve.
  const std::size_t workers = std::max<std::size_t>(1, hw - 3);

  // Scenario queries and their expected (CLI-path) answers.
  std::vector<MixQuery> scenarios;
  std::optional<service::Problem> sdn1;
  for (const std::string name :
       {"sdn1", "sdn2", "sdn3", "sdn4", "mr1-d", "mr2-d"}) {
    std::ostringstream err;
    std::optional<service::Problem> problem =
        service::builtin_scenario(name, err);
    if (!problem) throw std::runtime_error(err.str());
    MixQuery mq;
    mq.label = name;
    mq.query.scenario = name;
    mq.query.auto_reference = !problem->good_event.has_value();
    mq.expected = expected_result(*problem, mq.query);
    if (opt.wrong_expectation) mq.expected.out += kWrongCause;
    r.notes.push_back(root_cause_note(name, mq.expected.out));
    if (mq.expected.exit_code != 0) {
      // Checked for byte-identity with the CLI path only; mr-jobs checks
      // the MR diagnoses themselves, with the good job as reference.
      r.notes.push_back("  (" + name +
                        " with auto_reference ends in a named failure on "
                        "the CLI path too; served results must match it)");
    }
    scenarios.push_back(std::move(mq));
    if (name == "sdn1") sdn1 = std::move(problem);
  }
  const std::string sdn1_program_text = sdn1->program.to_string();
  const sdn::Scenario sdn1_spec = sdn::sdn1();
  const std::string stream_cause =
      opt.wrong_expectation ? kWrongCause : sdn1_spec.expected_root_cause;

  ServiceFixture f;
  const double setup_s = median_setup_seconds(kServiceSetupReps, [&] {
    setup_service(f, scenarios, *sdn1, workers, opt.seconds, opt.seed);
  });
  service::DiagnosisService& svc = *f.svc;
  const auto stream = svc.ingest_streams().find(kStream);

  const CounterSnapshot before = CounterSnapshot::take(f.registry);
  const service::ServiceStats stats_before = svc.stats();
  std::mutex samples_mutex;
  std::vector<Sample> samples;
  std::vector<std::pair<service::Query, service::CachedResult>> cold_results;

  const auto window_start = Clock::now();
  const auto deadline =
      window_start + std::chrono::duration<double>(opt.seconds);

  // Live tap: open loop, kTapFlushesPerS batches a second, timed from each
  // batch's due time.
  std::vector<double> lag_ms, append_ms;
  double generator_late_ms = 0;
  std::size_t tap_failed = 0;
  const auto tap_body = [&] {
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1 / kTapFlushesPerS));
    for (std::size_t k = 0; k < f.tap_batches.size(); ++k) {
      const auto due = window_start + period * k;
      if (due >= deadline) break;
      std::this_thread::sleep_until(due);
      const auto sent = Clock::now();
      generator_late_ms = std::max(generator_late_ms, ms_between(due, sent));
      const service::IngestOutcome outcome =
          svc.ingest(kTapStream, f.tap_batches[k]);
      const auto done = Clock::now();
      append_ms.push_back(ms_between(sent, done));
      lag_ms.push_back(ms_between(due, done));
      if (!outcome.ok || outcome.accepted != f.tap_batch_events) ++tap_failed;
    }
  };

  auto client = [&](int id) {
    std::mt19937_64 rng(opt.seed * 1000003ull + static_cast<std::uint64_t>(id));
    std::vector<Sample> local;
    std::vector<std::pair<service::Query, service::CachedResult>> local_cold;
    std::uint64_t cold_seq = 0;
    std::vector<Draw> deck = mix_deck();
    std::size_t dealt = deck.size();
    while (Clock::now() < deadline) {
      if (dealt == deck.size()) {
        std::shuffle(deck.begin(), deck.end(), rng);
        dealt = 0;
      }
      const Kind kind = deck[dealt].kind;
      const std::size_t which = deck[dealt++].scenario;
      const auto start = Clock::now();
      if (kind == Kind::kStreamProv) {
        // Y! against the live stream: snapshot its graph, project the tree.
        std::optional<ProvTree> tree;
        Sample sample{kind, 0, 0, 0, 0, {}, 0, 0};
        {
          std::lock_guard<std::mutex> lock(stream->mutex());
          const std::shared_ptr<const BadRun> run = stream->ensure_current();
          const auto locate_start = Clock::now();
          tree = locate_tree(*run->graph, *stream->bad_event());
          sample.snapshot_ms = ms_between(start, locate_start);
          sample.locate_ms = ms_since(locate_start);
        }
        sample.ms = ms_since(start);
        local.push_back(sample);
        answers.check(tree.has_value() && !opt.wrong_expectation,
                      "stream Y!: bad event missing from the live graph");
        continue;
      }
      service::Query query;
      const service::CachedResult* expected = nullptr;
      switch (kind) {
        case Kind::kCacheHit:
          query = scenarios[which].query;
          expected = &scenarios[which].expected;
          break;
        case Kind::kWarm:
          query = scenarios[which].query;
          query.bypass_cache = true;
          expected = &scenarios[which].expected;
          break;
        case Kind::kStream:
          query.stream = kStream;
          query.bypass_cache = true;
          break;
        default: {
          // A cold inline problem: the sdn1 program and log plus one packet
          // no other query carries, so no session or cache entry matches.
          EventLog log = sdn1->log;
          const int pkt = 900000 + id * 100000 + static_cast<int>(cold_seq++);
          sdn::add_packet(log, "sw1", pkt, "10.1.2.3", "8.8.1.1", 4000);
          query.program_text = sdn1_program_text;
          query.log_text = log.to_text();
          query.bad = sdn1->bad_event->to_string();
          query.good = sdn1->good_event->to_string();
          break;
        }
      }
      const service::SubmitOutcome sub = svc.submit(query);
      std::optional<service::QueryStatus> status;
      if (sub.ok()) status = svc.wait(sub.id);
      const double ms = ms_since(start);
      if (!sub.ok() || !status || status->state != service::QueryState::kDone) {
        answers.fail(std::string(kKindNames[static_cast<int>(kind)]) +
                     ": shed, rejected or cancelled " + sub.error);
        continue;
      }
      local.push_back({kind, ms, which, status->queue_us, status->exec_us,
                       opt.trace && !status->cache_hit
                           ? parse_phases(status->result.profile_json)
                           : Phases{}});
      const service::CachedResult& got = status->result;
      if (expected != nullptr) {
        answers.check(got.exit_code == expected->exit_code &&
                          got.out == expected->out && got.err == expected->err,
                      scenarios[which].label + " (" +
                          kKindNames[static_cast<int>(kind)] +
                          ") differs from diagnose_problem: " + got.out);
      } else if (kind == Kind::kStream) {
        answers.check(got.exit_code == 0 &&
                          got.out.find(stream_cause) != std::string::npos,
                      "stream diagnosis: " + got.out + got.err);
      } else {
        // Checked against the CLI path after the window (not timed).
        local_cold.emplace_back(query, got);
      }
    }
    std::lock_guard<std::mutex> lock(samples_mutex);
    samples.insert(samples.end(), local.begin(), local.end());
    for (auto& c : local_cold) cold_results.push_back(std::move(c));
  };
  std::thread tap([&] { run_guarded(answers, "tap", tap_body); });
  std::thread c0([&] {
    run_guarded(answers, "client 0", [&] { client(0); });
  });
  std::thread c1([&] {
    run_guarded(answers, "client 1", [&] { client(1); });
  });
  c0.join();
  c1.join();
  tap.join();
  const double measured_s = ms_since(window_start) / 1e3;
  const CounterSnapshot delta = CounterSnapshot::take(f.registry).minus(before);
  const service::ServiceStats stats = svc.stats();

  for (std::size_t i = 0; i < tap_failed; ++i) {
    answers.fail("tap ingest failed");
  }
  for (std::size_t i = 0; i < lag_ms.size() - tap_failed; ++i) answers.pass();
  // Cold inline answers must be byte-identical to the CLI's
  // --program/--log path on the same problem.
  for (const auto& [query, got] : cold_results) {
    const service::Problem problem =
        service::parse_problem(query.program_text, query.log_text);
    service::DiagnoseSpec spec;
    spec.bad_event = *sdn1->bad_event;
    spec.good_event = sdn1->good_event;
    const service::DiagnoseOutcome want =
        service::diagnose_problem(problem, spec, ReplayOptions{});
    answers.check(got.exit_code == want.exit_code &&
                      got.out == want.pre + want.out && got.err == want.err &&
                      got.out.find(stream_cause) != std::string::npos,
                  "cold inline query differs from diagnose_problem: " +
                      got.out);
  }

  r.attempted = answers.attempted();
  r.failed = answers.failed();
  for (const std::string& why : answers.reasons()) {
    r.notes.push_back("FAILED " + why);
  }

  std::vector<double> all_ms, prov_ms, queue_ms, exec_ms;
  std::vector<std::vector<double>> warm_ms(scenarios.size());
  std::size_t per_kind[static_cast<int>(Kind::kCount)] = {};
  for (const Sample& s : samples) {
    ++per_kind[static_cast<int>(s.kind)];
    if (s.kind != Kind::kStreamProv) {
      queue_ms.push_back(s.queue_us / 1e3);
      exec_ms.push_back(s.exec_us / 1e3);
    }
    if (s.kind == Kind::kStreamProv) {
      prov_ms.push_back(s.ms);
      continue;
    }
    all_ms.push_back(s.ms);
    if (s.kind == Kind::kWarm) warm_ms[s.scenario].push_back(s.ms);
  }
  // The scenario set diagnosed once on the warm service: the sum of each
  // scenario's median bypass-cache latency.
  double diagnose_ms = 0;
  for (const auto& v : warm_ms) diagnose_ms += median(v);

  r.e2e("setup_s", setup_s, "s");
  r.e2e("diagnose_s", diagnose_ms / 1e3, "s");
  r.e2e("provquery_s", median(prov_ms) / 1e3, "s");
  r.e2e("query_p50_ms", median(all_ms), "ms");
  r.e2e("query_p99_ms", percentile(all_ms, 99), "ms");
  r.e2e("queries_per_s", static_cast<double>(all_ms.size()) / measured_s,
        "1/s");
  r.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  std::string counts = "samples " + std::to_string(all_ms.size()) + " (";
  for (int k = 0; k < static_cast<int>(Kind::kCount); ++k) {
    counts += std::string(k ? ", " : "") + kKindNames[k] + " " +
              std::to_string(per_kind[k]);
  }
  r.notes.push_back(counts + "), workers " + std::to_string(workers));
  std::string kind_p50 = "p50 ms by kind:";
  for (int k = 0; k < static_cast<int>(Kind::kCount); ++k) {
    std::vector<double> v;
    for (const Sample& s : samples) {
      if (static_cast<int>(s.kind) == k) v.push_back(s.ms);
    }
    kind_p50 +=
        std::string(" ") + kKindNames[k] + " " + std::to_string(median(v));
  }
  std::string scen_p50 = "warm p50 ms by scenario:";
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    scen_p50 += " " + scenarios[i].label + " " +
                std::to_string(median(warm_ms[i]));
  }
  r.notes.push_back(kind_p50);
  r.notes.push_back(scen_p50);
  double append_total_ms = 0;
  for (double ms : append_ms) append_total_ms += ms;
  r.notes.push_back(
      "ingest: " + std::to_string(lag_ms.size()) + " batches of " +
      std::to_string(f.tap_batch_events) + " packets (" +
      std::to_string(f.tap_packets_per_s) + " packets/s), ingest() busy " +
      std::to_string(100 * append_total_ms / (measured_s * 1e3)) +
      "% of the window, lag p99 " + std::to_string(percentile(lag_ms, 99)) +
      " ms, generator late by up to " + std::to_string(generator_late_ms) +
      " ms");

  if (opt.trace) {
    const std::uint64_t hits = stats.cache_hits - stats_before.cache_hits;
    const std::uint64_t misses = stats.cache_misses - stats_before.cache_misses;
    const std::uint64_t warm_hits =
        counter(f.registry, "dp.service.session.warm_hits");
    const std::uint64_t cold_replays =
        counter(f.registry, "dp.service.session.cold_replays");
    const auto streams = svc.ingest_streams().stats();
    double rebuilds = 0;
    for (const auto& [name, s] : streams) rebuilds += s.live_rebuilds;

    // Per executed query, from the explain profiles the service returned.
    // Stream Y! queries snapshot the stream and locate the tree themselves.
    Phases sum;
    double executed = 0, y_queries = 0, y_snapshot_ms = 0, y_locate_ms = 0;
    for (const Sample& s : samples) {
      if (s.kind == Kind::kStreamProv) {
        ++y_queries;
        y_snapshot_ms += s.snapshot_ms;
        y_locate_ms += s.locate_ms;
      }
      if (!s.phases.valid) continue;
      ++executed;
      sum.replay_us += s.phases.replay_us;
      sum.replays += s.phases.replays;
      sum.locate_us += s.phases.locate_us;
      sum.find_seed_us += s.phases.find_seed_us;
      sum.annotate_us += s.phases.annotate_us;
      sum.divergence_us += s.phases.divergence_us;
      sum.make_appear_us += s.phases.make_appear_us;
      sum.rounds += s.phases.rounds;
    }
    r.layer("replay.ms", ratio(sum.replay_us / 1e3, executed), "ms");
    r.layer("replay.calls", ratio(sum.replays, executed), "count");
    r.layer("replay.events_per_s", 0, "1/s");
    r.layer("replay.scaling_4x", 0, "ratio");
    r.layer("replay.log_parse_ms", 0, "ms");
    r.layer("replay.log_decode_ms", 0, "ms");
    r.layer("runtime.run_ms", 0, "ms");
    r.layer("provenance.record_ms", 0, "ms");
    r.layer("provenance.vertices",
            static_cast<double>(counter(f.registry, "dp.prov.vertices")),
            "count");
    r.layer("provenance.resident_bytes", 0, "bytes");
    r.layer("provenance.locate_ms",
            ratio(sum.locate_us / 1e3 + y_locate_ms, executed + y_queries),
            "ms");
    r.layer("provenance.tree_vertices", 0, "count");
    r.layer("diffprov.find_seed_us", ratio(sum.find_seed_us, executed), "us");
    r.layer("diffprov.annotate_us", ratio(sum.annotate_us, executed), "us");
    r.layer("diffprov.divergence_us", ratio(sum.divergence_us, executed),
            "us");
    r.layer("diffprov.make_appear_us", ratio(sum.make_appear_us, executed),
            "us");
    r.layer("diffprov.rounds", ratio(sum.rounds, executed), "count");
    add_counter_layers(r, delta, 1);
    r.layer("service.queue_wait_p50_ms", median(queue_ms), "ms");
    r.layer("service.queue_wait_p99_ms", percentile(queue_ms, 99), "ms");
    r.layer("service.exec_p50_ms", median(exec_ms), "ms");
    r.layer("service.exec_p99_ms", percentile(exec_ms, 99), "ms");
    r.layer("service.cache_hit_rate",
            ratio(static_cast<double>(hits),
                  static_cast<double>(hits + misses)),
            "ratio");
    r.layer("service.warm_hit_rate",
            ratio(static_cast<double>(warm_hits),
                  static_cast<double>(warm_hits + cold_replays)),
            "ratio");
    r.layer("service.shed",
            static_cast<double>(stats.shed - stats_before.shed), "count");
    r.layer("service.resident_bytes",
            static_cast<double>(stats.warm_resident_bytes), "bytes");
    r.layer("ingest.append_ms", median(append_ms), "ms");
    r.layer("ingest.snapshot_ms", ratio(y_snapshot_ms, y_queries), "ms");
    r.layer("ingest.live_rebuilds", rebuilds, "count");
    r.layer("ingest.resident_bytes",
            static_cast<double>(stats.ingest_resident_bytes), "bytes");
    r.layer("ingest.lag_p99_ms", percentile(lag_ms, 99), "ms");
    r.layer("ingest.generator_late_ms", generator_late_ms, "ms");
    r.layer("obs.unattributed_ms", 0, "ms");
  }
  r.health = health_line("service-mix", delta,
                         ratio(static_cast<double>(delta.replays),
                               static_cast<double>(per_kind[1] + per_kind[2] +
                                                   per_kind[4])),
                         std::nullopt);
  svc.shutdown();
  return r;
}

// ---------------------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_result(const RunResult& r, bool trace) {
  for (const std::string& line : r.notes) std::printf("%s\n", line.c_str());
  std::printf("%s\n", r.health.c_str());
  const std::vector<Metric>& metrics = trace ? r.per_layer : r.end_to_end;
  for (const Metric& m : metrics) {
    std::printf("  %-30s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("error_rate %.6f (%llu failed of %llu attempted)\n",
              ratio(static_cast<double>(r.failed),
                    static_cast<double>(r.attempted)),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  std::string json = "{\"correct\": ";
  json += r.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int main_impl(int argc, char** argv) {
  const std::optional<Options> opt = parse_options(argc, argv);
  if (!opt) {
    std::fprintf(stderr,
                 "usage: dp_perfbench --workload sdn-trace|mr-jobs|service-mix"
                 " --seed N --seconds S --trace 0|1 [--small]"
                 " [--wrong-expectation]\n");
    return 2;
  }
  RunResult result;
  if (opt->workload == "sdn-trace") {
    result = run_sdn_trace(*opt);
  } else if (opt->workload == "mr-jobs") {
    result = run_mr_jobs(*opt);
  } else if (opt->workload == "service-mix") {
    result = run_service_mix(*opt);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", opt->workload.c_str());
    return 2;
  }
  if (opt->trace) {
    // run.py compares it with an untraced run's to report
    // obs.trace_overhead_pct, and drops it from the traced result.
    for (const Metric& m : result.end_to_end) {
      if (m.name == "queries_per_s") result.per_layer.push_back(m);
    }
  }
  print_result(result, opt->trace);
  return 0;
}

}  // namespace
}  // namespace dp::perfbench

int main(int argc, char** argv) {
  try {
    return dp::perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
