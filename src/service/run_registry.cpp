#include "service/run_registry.h"

#include <algorithm>
#include <iterator>
#include <optional>
#include <sstream>

#include "util/hash.h"

namespace dp::service {

std::string inline_session_key(const std::string& program_text,
                               const std::string& log_text) {
  const std::uint64_t key_hash =
      hash_mix(fnv1a(program_text), fnv1a(log_text));
  std::ostringstream key;
  key << "inline:" << std::hex << key_hash;
  return key.str();
}

WarmBudgetLedger::WarmBudgetLedger(std::uint64_t total_bytes,
                                   std::size_t shards,
                                   std::size_t extra_slots)
    : total_(total_bytes),
      share_(total_bytes == 0 ? 0
                              : total_bytes / std::max<std::size_t>(1, shards)),
      usage_(std::max<std::size_t>(1, shards) + extra_slots) {}

void WarmBudgetLedger::publish(std::size_t shard, std::uint64_t bytes) {
  usage_[shard % usage_.size()].store(bytes, std::memory_order_relaxed);
}

std::uint64_t WarmBudgetLedger::usage(std::size_t shard) const {
  return usage_[shard % usage_.size()].load(std::memory_order_relaxed);
}

std::uint64_t WarmBudgetLedger::global_usage() const {
  std::uint64_t total = 0;
  for (const auto& slot : usage_) {
    total += slot.load(std::memory_order_relaxed);
  }
  return total;
}

RunRegistry::RunRegistry(std::size_t max_warm, std::uint64_t warm_bytes_budget,
                         ReplayOptions options, ingest::IngestOptions ingest,
                         obs::MetricsRegistry& registry)
    : RunRegistry(max_warm,
                  std::make_shared<WarmBudgetLedger>(warm_bytes_budget, 1),
                  /*slot=*/0, std::move(options), ingest, registry) {}

RunRegistry::RunRegistry(std::size_t max_warm,
                         std::shared_ptr<WarmBudgetLedger> ledger,
                         std::size_t slot, ReplayOptions options,
                         ingest::IngestOptions ingest,
                         obs::MetricsRegistry& registry)
    : max_warm_(max_warm),
      ledger_(std::move(ledger)),
      slot_(slot),
      options_(std::move(options)),
      ingest_(ingest),
      registry_(&registry),
      resident_gauge_(registry.gauge("dp.service.session.resident_bytes")),
      ingest_resident_gauge_(registry.gauge("dp.ingest.resident_bytes")) {}

std::shared_ptr<ResidentRun> RunRegistry::touch(const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = runs_.find(key);
  if (it == runs_.end()) return nullptr;
  recency_.remove(key);
  recency_.push_front(key);
  return it->second;
}

std::shared_ptr<ResidentRun> RunRegistry::get_scenario(const std::string& name,
                                                       std::string& error) {
  if (auto run = touch(name)) return run;
  // Build outside the lock: scenario assembly replays nothing but does parse
  // programs and synthesize logs.
  std::ostringstream err;
  std::optional<Problem> problem = builtin_scenario(name, err);
  if (!problem) {
    error = err.str();
    if (error.empty()) error = "unknown scenario: " + name;
    return nullptr;
  }
  return intern(name, std::move(*problem), RunSource::kRecordedLog);
}

std::shared_ptr<ResidentRun> RunRegistry::get_inline(
    const std::string& program_text, const std::string& log_text,
    std::string& error) {
  const std::string key = inline_session_key(program_text, log_text);
  if (auto run = touch(key)) return run;
  try {
    return intern(key, parse_problem(program_text, log_text),
                  RunSource::kRecordedLog);
  } catch (const std::exception& e) {
    error = e.what();
    return nullptr;
  }
}

std::shared_ptr<ResidentRun> RunRegistry::open(const std::string& name,
                                               Problem problem) {
  return intern(name, std::move(problem), RunSource::kAppend);
}

std::shared_ptr<ResidentRun> RunRegistry::intern(const std::string& key,
                                                 Problem problem,
                                                 RunSource source) {
  std::shared_ptr<ResidentRun> run;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = runs_.find(key);
    if (it == runs_.end()) {
      it = runs_
               .emplace(key, std::make_shared<ResidentRun>(
                                 key, std::move(problem), source, options_,
                                 ingest_, *registry_))
               .first;
      // Delta, not absolute: with one registry per shard publishing into the
      // same metrics registry, the gauges total runs across the service.
      registry_
          ->gauge(source == RunSource::kAppend ? "dp.ingest.streams"
                                               : "dp.service.sessions")
          .add(1);
    }
    recency_.remove(key);
    recency_.push_front(key);
    run = it->second;
  }
  // A fresh run has not been measured yet, but interning bumps recency,
  // which can change which runs an over-budget pass would cool.
  enforce_budget();
  return run;
}

std::shared_ptr<ResidentRun> RunRegistry::find(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = runs_.find(key);
  return it == runs_.end() ? nullptr : it->second;
}

std::vector<std::shared_ptr<ResidentRun>> RunRegistry::by_recency() const {
  std::vector<std::shared_ptr<ResidentRun>> runs;
  std::lock_guard<std::mutex> lock(mutex_);
  runs.reserve(recency_.size());
  for (const std::string& key : recency_) runs.push_back(runs_.at(key));
  return runs;
}

void RunRegistry::enforce_budget() {
  // Snapshot the runs (shared_ptr-pinned, LRU order preserved) under the
  // registry lock, then do *all* accounting and cooling outside it: a budget
  // pass never holds the lock submitters need while it waits on a run.
  const std::vector<std::shared_ptr<ResidentRun>> runs = by_recency();

  // Measured footprints: a run over a recorded log reports 0 once cooled, so
  // the warm set is the coolable runs with nonzero bytes; fed runs are
  // billed beside it but never counted as coolable.
  std::vector<ResidentRun*> coolable;  // front = MRU
  std::uint64_t bytes = 0;
  std::uint64_t fed_bytes = 0;
  std::size_t warm = 0;
  for (const auto& run : runs) {
    const std::uint64_t b = run->resident_bytes();
    if (run->fed()) {
      fed_bytes += b;
    } else {
      coolable.push_back(run.get());
      if (b > 0) {
        ++warm;
        bytes += b;
      }
    }
  }
  const auto publish = [&] {
    ledger_->publish(slot_, bytes + fed_bytes);
    resident_gauge_.set(static_cast<std::int64_t>(ledger_->global_usage()));
  };
  publish();
  const std::uint64_t previous_fed = published_fed_bytes_.exchange(fed_bytes);
  ingest_resident_gauge_.add(static_cast<std::int64_t>(fed_bytes) -
                             static_cast<std::int64_t>(previous_fed));

  // Cool while over either budget. The byte check is two-level: this shard
  // cools only when the *global* ledger is over its total AND this shard's
  // warm set is past its nominal share -- a shard under its share never pays
  // for a neighbour's appetite, while a hot shard may run past its share for
  // as long as the others leave the global budget unused.
  const auto over_budget = [&] {
    return warm > max_warm_ ||
           (ledger_->over_budget() && bytes > ledger_->share());
  };
  // Least-recently-used first, sparing the most recently used run (cooling
  // it would defeat the warm tier entirely). try_lock so a run mid-query is
  // never torn down under a worker; it stays warm until the next pass finds
  // it idle.
  for (auto rit = coolable.rbegin();
       rit != coolable.rend() && std::next(rit) != coolable.rend() &&
       over_budget();
       ++rit) {
    ResidentRun& run = **rit;
    if (!run.mutex().try_lock()) continue;
    const std::uint64_t b = run.resident_bytes();
    if (run.is_warm()) {
      run.cool();
      --warm;
      bytes -= b;
      publish();
    }
    run.mutex().unlock();
  }
}

void RunRegistry::maintain(bool under_pressure) {
  for (const auto& run : by_recency()) {
    std::unique_lock<std::mutex> lock(run->mutex(), std::try_to_lock);
    if (!lock.owns_lock()) continue;  // appender or diagnosis active
    run->maintain(under_pressure);
  }
  enforce_budget();
}

std::uint64_t RunRegistry::warm_bytes() const {
  std::uint64_t bytes = 0;
  for (const auto& run : by_recency()) {
    if (!run->fed()) bytes += run->resident_bytes();
  }
  return bytes;
}

std::size_t RunRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return runs_.size();
}

std::size_t RunRegistry::warm_count() const {
  std::size_t warm = 0;
  for (const auto& run : by_recency()) {
    std::unique_lock<std::mutex> lock(run->mutex(), std::try_to_lock);
    // Busy implies a worker is inside, which implies warm.
    if (!lock.owns_lock() || run->is_warm()) ++warm;
  }
  return warm;
}

std::vector<std::pair<std::string, RunStats>> RunRegistry::stats() const {
  std::vector<std::pair<std::string, RunStats>> out;
  for (const auto& run : by_recency()) {
    std::lock_guard<std::mutex> lock(run->mutex());
    out.emplace_back(run->key(), run->stats());
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

}  // namespace dp::service
