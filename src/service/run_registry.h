// Keyed registry of resident runs (resident_run.h), with the warm-set
// budget that decides which runs keep their engine in memory.
//
// The sharded service owns one registry per shard for runs opened over
// recorded logs (built-in scenarios and inline problems) and one for live
// ingest streams, so a stream and a scenario never share a name space. The
// registry interns runs by key, keeps LRU recency, and runs the budget pass
// (measure, publish to the shared ledger, cool), the maintenance pass (segment
// truncation and compaction) and stats. Which runs a budget pass may cool
// follows from how each run was opened: a run over a recorded log cools to
// its checkpoint tier; a run fed by append is never cooled -- every later
// snapshot would replay its growing log -- but its bytes count on the same
// ledger, and pressure truncates its segments instead.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "service/resident_run.h"

namespace dp::service {

/// Canonical key for an inline problem (program + log text): "inline:<hex>"
/// over the content hash. Exposed so the sharded service can route a query
/// to its shard before (and without) creating the run.
std::string inline_session_key(const std::string& program_text,
                               const std::string& log_text);

/// Shared byte-budget ledger for the sharded warm tier. Each shard's
/// registry publishes its measured resident bytes into its `usage` slot, so
/// cooling spends one *global* budget across shards: a shard whose warm set
/// outgrows its nominal share (total/shards) keeps it for as long as the
/// other shards leave the global budget unused -- the lightweight
/// cross-shard rebalance -- and starts cooling only once the global total is
/// exceeded *and* it is above its own share. Shards never lock each other;
/// the ledger is relaxed atomics and the worst case of the race is one
/// enforcement pass of staleness.
class WarmBudgetLedger {
 public:
  /// `total_bytes` = the service-wide warm budget (0 = unlimited);
  /// `shards` = number of shard usage slots (clamped to at least 1);
  /// `extra_slots` = slots beyond the shards for registries that cool
  /// nothing (the live-stream registry publishes into slot `shards`): they
  /// hold no nominal share, but their bytes count toward global_usage(), so
  /// a growing ingest tier pushes the warm set toward cooling -- and flips
  /// over_budget(), which the stream maintenance pass reads as pressure.
  WarmBudgetLedger(std::uint64_t total_bytes, std::size_t shards,
                   std::size_t extra_slots = 0);

  [[nodiscard]] std::uint64_t total() const { return total_; }
  /// A shard's nominal slice of the budget (total/shards; 0 = unlimited).
  [[nodiscard]] std::uint64_t share() const { return share_; }
  void publish(std::size_t shard, std::uint64_t bytes);
  [[nodiscard]] std::uint64_t usage(std::size_t shard) const;
  [[nodiscard]] std::uint64_t global_usage() const;
  /// Over the global budget right now? (Always false when unlimited.)
  [[nodiscard]] bool over_budget() const {
    return total_ != 0 && global_usage() > total_;
  }

 private:
  std::uint64_t total_;
  std::uint64_t share_;
  std::vector<std::atomic<std::uint64_t>> usage_;
};

/// Keyed store of resident runs. Runs over recorded logs are cooled LRU-first
/// while the registry holds more than `max_warm` of them warm or the shared
/// ledger is over budget and this registry is past its share; the most
/// recently used one is never cooled, and neither is a run a worker is
/// inside (the pass try-locks and skips busy runs).
class RunRegistry {
 public:
  /// Standalone registry (the tests): owns a private one-slot ledger with
  /// `warm_bytes_budget` as its total.
  RunRegistry(std::size_t max_warm, std::uint64_t warm_bytes_budget,
              ReplayOptions options, ingest::IngestOptions ingest,
              obs::MetricsRegistry& registry);

  /// Service registry: budget decisions run against the shared `ledger`,
  /// publishing this registry's usage into slot `slot`.
  RunRegistry(std::size_t max_warm, std::shared_ptr<WarmBudgetLedger> ledger,
              std::size_t slot, ReplayOptions options,
              ingest::IngestOptions ingest, obs::MetricsRegistry& registry);

  /// Run over a built-in scenario's recorded log; created on first use.
  /// Unknown scenario: returns nullptr and sets `error`.
  std::shared_ptr<ResidentRun> get_scenario(const std::string& name,
                                            std::string& error);

  /// Run over an inline problem (program + log text, keyed by content
  /// hash). Malformed input: returns nullptr and sets `error`.
  std::shared_ptr<ResidentRun> get_inline(const std::string& program_text,
                                          const std::string& log_text,
                                          std::string& error);

  /// Returns the run fed by append for `name`, creating it over `problem`
  /// (its log dropped) on first open. An existing run is returned as-is
  /// (idempotent open); the problem of later opens is ignored.
  std::shared_ptr<ResidentRun> open(const std::string& name, Problem problem);

  /// The run for `key`, or nullptr.
  [[nodiscard]] std::shared_ptr<ResidentRun> find(const std::string& key) const;

  [[nodiscard]] std::size_t size() const;
  /// Runs whose engine is resident.
  [[nodiscard]] std::size_t warm_count() const;
  /// Summed resident bytes of the runs over recorded logs (the warm set).
  [[nodiscard]] std::uint64_t warm_bytes() const;
  /// Per-run stats snapshots, sorted by key. Locks each run briefly.
  [[nodiscard]] std::vector<std::pair<std::string, RunStats>> stats() const;

  /// The budget pass: re-measures every run, publishes this registry's
  /// total to the ledger (and the dp.service.session.resident_bytes /
  /// dp.ingest.resident_bytes gauges), and cools LRU runs over recorded logs
  /// while over budget. Must not be called while holding any run's mutex.
  ///
  /// Locking contract: the registry mutex is held only long enough to
  /// *snapshot* the runs in LRU order -- all footprint accounting and all
  /// cooling happen outside it, against shared_ptr-pinned runs, so
  /// submitters resolving runs never stall behind a budget pass.
  void enforce_budget();

  /// One maintenance pass over every run (segment truncation, under
  /// pressure down to the checkpoint, then compaction), then a budget pass.
  /// Runs whose mutex is busy are skipped this tick.
  void maintain(bool under_pressure);

 private:
  /// The run for `key` with its recency bumped, or nullptr.
  std::shared_ptr<ResidentRun> touch(const std::string& key);
  std::shared_ptr<ResidentRun> intern(const std::string& key, Problem problem,
                                      RunSource source);
  /// Every run, front = most recently used.
  [[nodiscard]] std::vector<std::shared_ptr<ResidentRun>> by_recency() const;

  std::size_t max_warm_;
  std::shared_ptr<WarmBudgetLedger> ledger_;
  std::size_t slot_;
  ReplayOptions options_;
  ingest::IngestOptions ingest_;
  obs::MetricsRegistry* registry_;

  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<ResidentRun>> runs_;
  std::list<std::string> recency_;  // front = most recently used
  obs::Gauge& resident_gauge_;  // dp.service.session.resident_bytes
  obs::Gauge& ingest_resident_gauge_;  // dp.ingest.resident_bytes
  /// This registry's share of dp.ingest.resident_bytes as last published
  /// (the gauge is delta-maintained across registries).
  std::atomic<std::uint64_t> published_fed_bytes_{0};
};

}  // namespace dp::service
