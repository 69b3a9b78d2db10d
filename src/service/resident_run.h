// A resident run: one problem's replayed execution kept in memory between
// queries (the serving-path realization of paper section 4.8).
//
// The run owns its Problem -- program, topology, default good/bad events,
// and the retained base-event log -- and a resident engine plus provenance
// recorder over that log. Every diagnosis against the run takes the graph
// from ensure_current() instead of replaying the log first; replay is
// deterministic, so the answer bytes are identical to a cold replay's.
//
// A run gets its events one of two ways, and nothing else about it depends
// on which:
//
//   * Opened over a recorded log (a built-in scenario or an inline problem):
//     the log is loaded whole and never appended. The engine starts absent;
//     the first ensure_current() builds it with one replay() and captures a
//     Checkpoint of its base state there.
//   * Opened empty and fed by append() (a live ingest stream): each arriving
//     event goes straight into the resident engine, so the graph is
//     maintained incrementally and a snapshot is a lookup, not a replay.
//     Byte-identity with a batch replay of the same prefix rests on the
//     engine's two seq bands (runtime/engine.h): an event at time t first
//     advances the engine to t-1, then schedules, so every event is
//     processed against exactly the state, and in exactly the (time, seq)
//     order, a batch replay would use; a snapshot drains the queue, which
//     equals batch replay's quiescence. An append at or before a quiesced
//     snapshot's horizon would be processed out of that order, so it drops
//     the engine instead, and the next snapshot rebuilds it by one replay
//     (dp.ingest.live_rebuilds): graceful degradation, never a wrong answer.
//     Appended records accumulate in an open epoch; epochs seal into
//     immutable LogSegments (ingest/segment.h); every K sealed epochs a
//     Checkpoint of the live engine is captured; maintenance merges small
//     segments and drops segments a checkpoint covers. The full log is
//     retained -- DiffProv's experiment replays need the whole prefix.
//
// cool() drops the engine, recorder and run and keeps the checkpoint: the
// next ensure_current() replays again (dp.service.session.cold_replays; a
// checkpoint restore would re-base vertex times and change answer bytes),
// while live-state probes are served from the checkpoint plus the retained
// log after its capture time, with no replay.
//
// Engines are single-threaded, so each run carries a mutex: appenders,
// diagnoses, probes and maintenance hold it ("caller holds mutex()" on every
// mutating call). resident_bytes(), content_hash() and watermark() are
// relaxed atomics readable without it.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "diffprov/diffprov.h"
#include "ingest/segment.h"
#include "obs/metrics.h"
#include "service/problem.h"

namespace dp::service {

/// How a run gets its events (see the file comment).
enum class RunSource : std::uint8_t { kRecordedLog, kAppend };

struct RunStats {
  std::uint64_t queries = 0;        // ensure_current calls (snapshots)
  std::uint64_t warm_hits = 0;      // served from the resident engine
  std::uint64_t cold_replays = 0;   // replays of an absent or cooled engine
  std::uint64_t live_rebuilds = 0;  // replays after a stale append
  std::uint64_t probes = 0;         // live-state probes
  std::uint64_t checkpoint_restores = 0;
  // Storage tier of a run fed by append.
  std::uint64_t events = 0;         // records appended over the run's life
  std::uint32_t sealed_epochs = 0;  // epochs sealed so far
  std::uint64_t open_records = 0;   // records in the open epoch
  std::uint64_t segments = 0;       // segments currently resident
  std::uint64_t checkpoints = 0;
  std::uint64_t compactions = 0;         // merge passes applied
  std::uint64_t segments_compacted = 0;  // segments merged away
  std::uint64_t truncated_segments = 0;
  std::uint64_t truncated_bytes = 0;
  std::uint64_t resident_bytes = 0;  // see ResidentRun::resident_bytes()
  LogicalTime watermark = 0;         // newest appended event time
};

class ResidentRun {
 public:
  /// A run over `problem`. kRecordedLog keeps the problem's log; kAppend
  /// drops it and starts an empty engine that append() feeds.
  ResidentRun(std::string key, Problem problem, RunSource source,
              ReplayOptions options, ingest::IngestOptions ingest,
              obs::MetricsRegistry& registry);

  /// Per-run serialization: hold while calling any mutating member or while
  /// diagnosing against the run returned by ensure_current().
  [[nodiscard]] std::mutex& mutex() { return mutex_; }

  [[nodiscard]] const std::string& key() const { return key_; }
  /// The program, topology, defaults and retained log (caller holds mutex()
  /// while the run is being appended to).
  [[nodiscard]] const Problem& problem() const { return problem_; }
  [[nodiscard]] const std::optional<Tuple>& bad_event() const {
    return problem_.bad_event;
  }
  /// Opened empty and fed by append()? Such a run is never cooled by the
  /// registry: cooling would make every later snapshot replay its growing
  /// log.
  [[nodiscard]] bool fed() const { return fed_; }

  /// Appends one batch of events in EventLog text form ("+ tuple @ t" per
  /// line); the whole batch is validated -- parse (line-numbered errors) and
  /// watermark order -- before any record is applied, so a bad batch never
  /// half-applies. Returns the number of records appended. Caller holds
  /// mutex().
  std::size_t append_text(std::string_view text);

  /// Appends one record (validated against the watermark). Caller holds
  /// mutex().
  void append(const LogRecord& record);

  /// Seals the open epoch now, even if short (no-op when empty). Caller
  /// holds mutex().
  void seal();

  /// The current run for diagnosis: drains the engine's in-flight events,
  /// or replays the retained log when the engine is absent, cooled or stale
  /// (`rebuilt` reports whether it replayed). The returned BadRun aliases
  /// the resident graph and engine. Caller holds mutex().
  std::shared_ptr<const BadRun> ensure_current(bool* rebuilt = nullptr);

  /// True if the engine is resident (caller holds mutex()).
  [[nodiscard]] bool is_warm() const { return engine_ != nullptr; }

  /// Drops the engine, recorder and run; the checkpoint survives. Caller
  /// holds mutex().
  void cool();

  /// Is `tuple` live at the end of the retained log? Served from the
  /// resident engine when warm, else from an engine restored from the
  /// checkpoint plus the log suffix behind it (no replay). A cold run with
  /// no checkpoint yet warms fully first. Caller holds mutex().
  bool probe_live(const Tuple& tuple);

  /// A new engine restored from the newest checkpoint (if any) plus the
  /// retained log after its capture time, run to quiescence: state
  /// reconstruction, not byte-identical provenance. Caller holds mutex().
  [[nodiscard]] std::unique_ptr<Engine> restore_engine() const;

  /// One maintenance pass: truncation (drop checkpoint-covered segments
  /// beyond the retention window; all of them under pressure), then
  /// compaction down to the segment watermark. Caller holds mutex().
  void maintain(bool under_pressure);

  /// Writes the bootstrap tier as DPS1 blocks: newest checkpoint (if any)
  /// followed by every resident segment. read_stream_file() decodes it,
  /// tolerating torn tails. Caller holds mutex().
  void write_bootstrap(std::ostream& out) const;

  [[nodiscard]] RunStats stats() const;  // caller holds mutex()
  [[nodiscard]] const std::vector<std::shared_ptr<const ingest::LogSegment>>&
  segments() const {
    return segments_;
  }

  /// Cache-key hash: the problem's content hash (log, program, links), or,
  /// for a fed run, a running hash over its key and every appended record
  /// (each append advances it, so a result cached for an older prefix is
  /// unreachable). Readable without mutex().
  [[nodiscard]] std::uint64_t content_hash() const {
    return hash_.load(std::memory_order_relaxed);
  }
  /// Newest appended event time; readable without mutex().
  [[nodiscard]] LogicalTime watermark() const {
    return watermark_.load(std::memory_order_relaxed);
  }
  /// Measured footprint: the provenance graph plus, for a fed run, the
  /// retained log and resident segments; 0 for a cooled run over a recorded
  /// log (cooling cannot drop a recorded log, so it is not billed).
  /// Refreshed at seal, snapshot and maintenance, O(1) when the graph did
  /// not change; readable without mutex() (budget passes read it from other
  /// threads).
  [[nodiscard]] std::uint64_t resident_bytes() const {
    return resident_bytes_.load(std::memory_order_relaxed);
  }

 private:
  void feed_live(const LogRecord& record);
  void drop_engine();
  void seal_epoch();
  void capture_checkpoint();
  void update_resident();

  std::string key_;
  Problem problem_;
  const bool fed_;
  ReplayOptions options_;
  ingest::IngestOptions ingest_;
  obs::MetricsRegistry* registry_;

  std::mutex mutex_;
  // Resident tier. shared_ptrs so the BadRun handed to a diagnosis can alias
  // them past a cool().
  std::shared_ptr<Engine> engine_;
  std::shared_ptr<ProvenanceRecorder> recorder_;
  std::unique_ptr<MetricsObserver> metrics_observer_;
  std::shared_ptr<const BadRun> run_;
  /// True from a snapshot's run-to-quiescence until the next append: the
  /// engine may have processed past the watermark.
  bool quiesced_ = false;
  /// The engine was dropped by a stale append (its rebuild counts as a live
  /// rebuild, not a cold replay).
  bool stale_ = false;
  // Cheap tier: base-state snapshot plus a probe engine restored from it.
  std::optional<Checkpoint> checkpoint_;
  std::uint32_t checkpoint_epoch_ = 0;  // sealed-epoch count at capture
  std::unique_ptr<Engine> probe_engine_;

  // Storage tier of a fed run: the open epoch's start index into the
  // retained log, and the sealed segments.
  std::size_t open_start_ = 0;
  std::size_t open_records_ = 0;
  std::vector<std::shared_ptr<const ingest::LogSegment>> segments_;
  std::uint64_t segment_bytes_ = 0;
  std::uint32_t sealed_epochs_ = 0;

  RunStats stats_;
  std::atomic<std::uint64_t> hash_;
  std::atomic<LogicalTime> watermark_{0};
  std::atomic<std::uint64_t> resident_bytes_{0};

  obs::Counter& warm_hits_counter_;
  obs::Counter& cold_replays_counter_;
  obs::Counter& events_counter_;
  obs::Counter& epochs_counter_;
  obs::Gauge& segments_gauge_;
  obs::Counter& checkpoints_counter_;
  obs::Counter& compactions_counter_;
  obs::Counter& compacted_counter_;
  obs::Counter& truncated_segments_counter_;
  obs::Counter& truncated_bytes_counter_;
  obs::Counter& rebuilds_counter_;
  obs::Counter& snapshots_counter_;
  obs::Histogram& snapshot_us_;
  // Quantile-sketch twin of snapshot_us_ (same series, tail quantiles).
  obs::QuantileSketch& snapshot_sketch_;
};

}  // namespace dp::service
