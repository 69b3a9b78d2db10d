#include "service/resident_run.h"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "obs/obs.h"
#include "util/hash.h"

namespace dp::service {
namespace {

std::uint64_t now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::runtime_error out_of_order(LogicalTime time, LogicalTime watermark) {
  return std::runtime_error(
      "ingest: out-of-order event at t=" + std::to_string(time) +
      " behind stream watermark t=" + std::to_string(watermark));
}

}  // namespace

ResidentRun::ResidentRun(std::string key, Problem problem, RunSource source,
                         ReplayOptions options, ingest::IngestOptions ingest,
                         obs::MetricsRegistry& registry)
    : key_(std::move(key)),
      problem_(std::move(problem)),
      fed_(source == RunSource::kAppend),
      options_(std::move(options)),
      ingest_(ingest),
      registry_(&registry),
      warm_hits_counter_(registry.counter("dp.service.session.warm_hits")),
      cold_replays_counter_(
          registry.counter("dp.service.session.cold_replays")),
      events_counter_(registry.counter("dp.ingest.events")),
      epochs_counter_(registry.counter("dp.ingest.epochs_sealed")),
      segments_gauge_(registry.gauge("dp.ingest.segments")),
      checkpoints_counter_(registry.counter("dp.ingest.checkpoints")),
      compactions_counter_(registry.counter("dp.ingest.compactions")),
      compacted_counter_(registry.counter("dp.ingest.segments_compacted")),
      truncated_segments_counter_(
          registry.counter("dp.ingest.truncated_segments")),
      truncated_bytes_counter_(registry.counter("dp.ingest.truncated_bytes")),
      rebuilds_counter_(registry.counter("dp.ingest.live_rebuilds")),
      snapshots_counter_(registry.counter("dp.ingest.snapshots")),
      snapshot_us_(registry.histogram("dp.ingest.snapshot_us")),
      snapshot_sketch_(registry.sketch("dp.ingest.snapshot_us")) {
  if (ingest_.epoch_events == 0) ingest_.epoch_events = 1;
  if (fed_) {
    // History arrives only through append(); the engine starts empty.
    problem_.log = EventLog{};
    hash_ = hash_mix(fnv1a(key_), 0xcbf29ce484222325ull);
    ReplayResult fresh =
        begin_replay(problem_.program, problem_.topology, options_);
    engine_ = std::move(fresh.engine);
    recorder_ = std::move(fresh.recorder);
    metrics_observer_ = std::move(fresh.metrics_observer);
  } else {
    hash_ = problem_content_hash(problem_);
  }
}

std::size_t ResidentRun::append_text(std::string_view text) {
  // Validate the whole batch before applying any of it: parse errors carry
  // the line number (EventLog::from_text), order errors the offending time.
  const EventLog batch = EventLog::from_text(text);
  LogicalTime previous = watermark_.load(std::memory_order_relaxed);
  for (const LogRecord& record : batch.records()) {
    if (record.time < previous) throw out_of_order(record.time, previous);
    previous = record.time;
  }
  for (const LogRecord& record : batch.records()) append(record);
  return batch.size();
}

void ResidentRun::append(const LogRecord& record) {
  const LogicalTime watermark = watermark_.load(std::memory_order_relaxed);
  if (record.time < watermark) throw out_of_order(record.time, watermark);
  feed_live(record);
  problem_.log.append(record);
  probe_engine_.reset();  // restored before this record
  watermark_.store(record.time, std::memory_order_relaxed);
  const std::uint64_t mixed =
      hash_mix(hash_mix(hash_mix(hash_.load(std::memory_order_relaxed),
                                 static_cast<std::uint64_t>(record.op)),
                        static_cast<std::uint64_t>(record.time)),
               static_cast<std::uint64_t>(record.tuple_ref));
  hash_.store(mixed, std::memory_order_relaxed);
  ++stats_.events;
  events_counter_.inc();
  if (++open_records_ >= ingest_.epoch_events) seal_epoch();
}

void ResidentRun::feed_live(const LogRecord& record) {
  if (engine_ == nullptr) return;  // absent: the next snapshot replays
  if (quiesced_ && record.time <= engine_->now()) {
    // The snapshot ran the engine past this event's time; processing it now
    // would order it after derivations a batch replay puts behind it. Drop
    // the engine -- the next snapshot rebuilds from the log.
    drop_engine();
    stale_ = true;
    return;
  }
  // Batch equivalence (see header): advance to t-1 so every earlier event's
  // consequences with time < t are settled, then schedule at t. The
  // external seq band orders this event before any equal-time derivation.
  // Only advance when the engine is actually behind: a run of same-time
  // appends then stays queued and drains in one sweep at the next advance
  // or snapshot, instead of paying a run_until + metrics publish per append.
  if (record.time > 0 && engine_->now() < record.time - 1) {
    engine_->run_until(record.time - 1);
  }
  schedule_record(*engine_, record);
  quiesced_ = false;
}

void ResidentRun::seal() {
  if (open_records_ > 0) seal_epoch();
}

void ResidentRun::seal_epoch() {
  DP_SPAN_CAT("dp.ingest.seal", "ingest");
  EventLog epoch_log;
  const auto& records = problem_.log.records();
  for (std::size_t i = open_start_; i < records.size(); ++i) {
    epoch_log.append(records[i]);
  }
  auto segment = std::make_shared<const ingest::LogSegment>(
      sealed_epochs_, sealed_epochs_, std::move(epoch_log));
  segment_bytes_ += segment->byte_size();
  segments_.push_back(std::move(segment));
  segments_gauge_.add(1);
  ++sealed_epochs_;
  epochs_counter_.inc();
  open_start_ = records.size();
  open_records_ = 0;

  if (ingest_.checkpoint_every_epochs > 0 &&
      sealed_epochs_ % ingest_.checkpoint_every_epochs == 0 &&
      engine_ != nullptr) {
    // Capture at the live horizon: base events still in flight (time >
    // now()) are not in the tables, but a restore replays every retained
    // record behind the capture point, so they are re-scheduled there.
    capture_checkpoint();
    ++stats_.checkpoints;
    checkpoints_counter_.inc();
  }
  update_resident();
}

void ResidentRun::capture_checkpoint() {
  DP_SPAN_CAT("dp.run.checkpoint", "service");
  checkpoint_ = Checkpoint::capture(*engine_);
  checkpoint_epoch_ = sealed_epochs_;
}

std::shared_ptr<const BadRun> ResidentRun::ensure_current(bool* rebuilt) {
  DP_SPAN_CAT("dp.run.snapshot", "service");
  const std::uint64_t started = now_us();
  ++stats_.queries;
  const bool replaying = engine_ == nullptr;
  if (replaying) {
    ReplayResult replayed = replay(problem_.program, problem_.topology,
                                   problem_.log, {}, options_);
    engine_ = std::move(replayed.engine);
    recorder_ = std::move(replayed.recorder);
    metrics_observer_ = std::move(replayed.metrics_observer);
    if (stale_) {
      ++stats_.live_rebuilds;
      rebuilds_counter_.inc();
    } else {
      ++stats_.cold_replays;
      cold_replays_counter_.inc();
    }
    stale_ = false;
    // A run over a recorded log checkpoints its first warm-up: the engine
    // is quiescent, so the snapshot covers the whole history and a probe
    // after cool() restores with an empty suffix. Fed runs checkpoint on
    // their epoch cadence instead.
    if (!fed_ && !checkpoint_) capture_checkpoint();
  } else {
    engine_->run();  // drain in-flight events; O(1) when already quiescent
    ++stats_.warm_hits;
    if (!fed_) warm_hits_counter_.inc();
  }
  quiesced_ = true;
  if (run_ == nullptr) {
    auto run = std::make_shared<BadRun>();
    run->graph =
        std::shared_ptr<const ProvenanceGraph>(recorder_, &recorder_->graph());
    run->state = std::make_shared<EngineStateView>(engine_);
    run_ = std::move(run);
  }
  recorder_->graph().publish_metrics(*registry_);
  if (fed_) {
    snapshots_counter_.inc();
    const auto us = static_cast<double>(now_us() - started);
    snapshot_us_.observe(us);
    snapshot_sketch_.observe(us);
  }
  update_resident();
  if (rebuilt != nullptr) *rebuilt = replaying;
  return run_;
}

void ResidentRun::cool() {
  if (engine_ == nullptr && probe_engine_ == nullptr) return;
  drop_engine();
  probe_engine_.reset();
  registry_->counter("dp.service.session.evictions").inc();
}

void ResidentRun::drop_engine() {
  run_.reset();
  metrics_observer_.reset();
  recorder_.reset();
  engine_.reset();
  update_resident();
}

bool ResidentRun::probe_live(const Tuple& tuple) {
  ++stats_.probes;
  registry_->counter("dp.service.session.probes").inc();
  // No checkpoint to restore from: warm up fully (for a run over a recorded
  // log this also captures the checkpoint for its later cooled life).
  if (engine_ == nullptr && !checkpoint_) ensure_current();
  if (engine_ != nullptr) {
    engine_->run();
    quiesced_ = true;
    return engine_->is_live(tuple);
  }
  if (probe_engine_ == nullptr) {
    ++stats_.checkpoint_restores;
    registry_->counter("dp.service.session.checkpoint_restores").inc();
    probe_engine_ = restore_engine();
  }
  return probe_engine_->is_live(tuple);
}

std::unique_ptr<Engine> ResidentRun::restore_engine() const {
  DP_SPAN_CAT("dp.run.restore", "service");
  std::unique_ptr<Engine> engine = make_engine(
      problem_.program, problem_.topology, options_.engine_config);
  LogicalTime restored_at = 0;
  if (checkpoint_) {
    restored_at = checkpoint_->captured_at();
    checkpoint_->schedule_into(*engine, restored_at);
  }
  // Records at or before the capture point are already inside the
  // checkpoint's base state.
  for (const LogRecord& record : problem_.log.records()) {
    if (checkpoint_ && record.time <= restored_at) continue;
    schedule_record(*engine, record);
  }
  engine->run();
  return engine;
}

void ResidentRun::maintain(bool under_pressure) {
  // Truncation first: once a checkpoint covers a segment (every record at or
  // before the capture point), the segment is only needed as bootstrap
  // grace; drop from the oldest end, keeping `retain_epochs` covered epochs
  // resident (none under memory pressure). Whole segments only -- a merged
  // segment straddling the boundary stays.
  if (checkpoint_) {
    const LogicalTime covered_until = checkpoint_->captured_at();
    std::size_t covered = 0;
    for (const auto& segment : segments_) {
      if (segment->last_time() > covered_until) break;
      covered += segment->epochs();
    }
    const std::size_t keep = under_pressure ? 0 : ingest_.retain_epochs;
    std::size_t remaining = covered;
    std::size_t drop = 0;
    while (drop < segments_.size()) {
      const ingest::LogSegment& segment = *segments_[drop];
      if (segment.last_time() > covered_until) break;
      if (remaining < keep + segment.epochs()) break;  // retention floor
      remaining -= segment.epochs();
      segment_bytes_ -= segment.byte_size();
      stats_.truncated_bytes += segment.byte_size();
      truncated_bytes_counter_.inc(segment.byte_size());
      ++stats_.truncated_segments;
      truncated_segments_counter_.inc();
      ++drop;
    }
    if (drop > 0) {
      segments_.erase(segments_.begin(),
                      segments_.begin() + static_cast<std::ptrdiff_t>(drop));
      segments_gauge_.add(-static_cast<std::int64_t>(drop));
    }
  }

  // Compaction: merge the oldest adjacent pair until the resident count is
  // at the watermark. Truncation only ever removes a prefix, so the
  // remaining segments always form an adjacent epoch chain.
  if (ingest_.compact_watermark > 0 &&
      segments_.size() > ingest_.compact_watermark) {
    DP_SPAN_CAT("dp.ingest.compact", "ingest");
    while (segments_.size() > ingest_.compact_watermark &&
           segments_.size() >= 2) {
      auto merged = std::make_shared<const ingest::LogSegment>(
          ingest::LogSegment::merge(*segments_[0], *segments_[1]));
      segment_bytes_ -= segments_[0]->byte_size();
      segment_bytes_ -= segments_[1]->byte_size();
      segment_bytes_ += merged->byte_size();
      segments_[0] = std::move(merged);
      segments_.erase(segments_.begin() + 1);
      segments_gauge_.add(-1);
      ++stats_.segments_compacted;
      compacted_counter_.inc();
    }
    ++stats_.compactions;
    compactions_counter_.inc();
  }
  update_resident();
}

void ResidentRun::write_bootstrap(std::ostream& out) const {
  if (checkpoint_) {
    ingest::write_checkpoint_block(out, *checkpoint_, checkpoint_epoch_);
  }
  for (const auto& segment : segments_) segment->serialize(out);
}

RunStats ResidentRun::stats() const {
  RunStats snapshot = stats_;
  snapshot.sealed_epochs = sealed_epochs_;
  snapshot.open_records = open_records_;
  snapshot.segments = segments_.size();
  snapshot.resident_bytes = resident_bytes_.load(std::memory_order_relaxed);
  snapshot.watermark = watermark_.load(std::memory_order_relaxed);
  return snapshot;
}

void ResidentRun::update_resident() {
  const std::uint64_t graph_bytes =
      recorder_ != nullptr ? recorder_->graph().resident_bytes() : 0;
  const std::uint64_t total =
      graph_bytes + segment_bytes_ + (fed_ ? problem_.log.byte_size() : 0);
  // Floor of 1 while the engine is resident, so warm => nonzero, which is
  // what the registry's budget pass keys on.
  resident_bytes_.store(total > 0 || engine_ == nullptr ? total : 1,
                        std::memory_order_relaxed);
}

}  // namespace dp::service
