// Sealed log segments: the storage tier of a live ingest stream (a resident
// run fed by append, service/resident_run.h).
//
// An ingest stream groups arriving base events into *epochs*; when an epoch
// seals, its records freeze into an immutable LogSegment. Segments are what
// the stream keeps per-epoch bookkeeping on (compaction merges adjacent
// small segments, truncation drops segments once a newer checkpoint covers
// them) and what a fresh consumer bootstraps from: the newest checkpoint
// plus the segment suffix behind it reconstructs the stream's state without
// replaying the full history (paper section 4.8's "log of tuple updates
// along with some checkpoints").
//
// Wire format ("DPS1" blocks) follows the DPL2 hardening discipline of
// replay/event_log.cpp: every decode failure is a clean exception naming the
// byte offset, lengths are capped before allocation, and payloads carry an
// FNV-1a checksum so a torn tail is detected rather than half-parsed. A
// stream file is a sequence of blocks (segments and checkpoints share the
// container); read_stream_file() tolerates a torn/corrupt tail by falling
// back to the last cleanly sealed block instead of failing the stream.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "replay/checkpoint.h"
#include "replay/event_log.h"

namespace dp::ingest {

/// Tiering knobs of a live ingest stream.
struct IngestOptions {
  /// Records per epoch; the open epoch seals when it reaches this many
  /// (clamped to at least 1). seal() forces an early boundary.
  std::size_t epoch_events = 256;
  /// Capture a Checkpoint of the live engine every this many sealed epochs
  /// (0 = never checkpoint, which also disables truncation).
  std::size_t checkpoint_every_epochs = 4;
  /// Resident segments allowed before a maintenance pass merges the oldest
  /// adjacent pair, repeatedly (0 = no compaction).
  std::size_t compact_watermark = 8;
  /// Checkpoint-covered epochs kept resident for bootstrap consumers before
  /// truncation drops them; memory pressure truncates every covered epoch.
  std::size_t retain_epochs = 8;
};

/// One sealed epoch of an ingest stream -- or, after compaction, a
/// contiguous run of sealed epochs merged into one. Immutable once built.
class LogSegment {
 public:
  /// `log` must be non-empty with non-decreasing record times (the stream's
  /// append path enforces the ordering; seal never emits empty epochs).
  LogSegment(std::uint32_t first_epoch, std::uint32_t last_epoch,
             EventLog log);

  [[nodiscard]] std::uint32_t first_epoch() const { return first_epoch_; }
  [[nodiscard]] std::uint32_t last_epoch() const { return last_epoch_; }
  /// Number of sealed epochs this segment spans (1 until compacted).
  [[nodiscard]] std::uint32_t epochs() const {
    return last_epoch_ - first_epoch_ + 1;
  }
  [[nodiscard]] const EventLog& log() const { return log_; }
  [[nodiscard]] std::size_t size() const { return log_.size(); }
  [[nodiscard]] LogicalTime first_time() const { return first_time_; }
  [[nodiscard]] LogicalTime last_time() const { return last_time_; }
  /// Resident cost of keeping this segment in memory (its DPL2 byte size).
  [[nodiscard]] std::uint64_t byte_size() const { return log_.byte_size(); }

  /// Merges two *adjacent* segments (a.last_epoch + 1 == b.first_epoch) into
  /// one covering both epoch ranges. The merged record order is the
  /// concatenation, so serializing the merge of a split log is byte-equal to
  /// serializing the unsplit log. Throws std::invalid_argument otherwise.
  static LogSegment merge(const LogSegment& a, const LogSegment& b);

  /// Writes one DPS1 segment block: magic, kind, epoch range, time range,
  /// length-prefixed DPL2 payload, FNV-1a payload checksum.
  void serialize(std::ostream& out) const;
  /// Decodes one segment block. Throws std::runtime_error with the byte
  /// offset on truncation, oversized lengths, checksum mismatch, or a
  /// non-segment block.
  static LogSegment deserialize(std::istream& in);

 private:
  std::uint32_t first_epoch_;
  std::uint32_t last_epoch_;
  LogicalTime first_time_ = 0;
  LogicalTime last_time_ = 0;
  EventLog log_;
};

/// Writes a checkpoint as a DPS1 block (kind = checkpoint); `epoch` is the
/// sealed-epoch count the capture happened at, so a reader can line the
/// checkpoint up against the segment suffix.
void write_checkpoint_block(std::ostream& out, const Checkpoint& checkpoint,
                            std::uint32_t epoch);

/// A decoded stream file: the newest checkpoint seen (if any) and every
/// cleanly decoded segment, in file order. When the file ends in a torn or
/// corrupt block, `tail_error` names the failure (with its byte offset) and
/// `dropped_bytes` counts what was discarded -- the decoded prefix up to the
/// previous sealed block is still returned, so a consumer resumes from the
/// last epoch that made it to storage intact.
struct StreamFile {
  std::vector<LogSegment> segments;
  std::optional<Checkpoint> checkpoint;
  std::uint32_t checkpoint_epoch = 0;
  std::uint64_t dropped_bytes = 0;
  std::string tail_error;
};

/// Reads DPS1 blocks until EOF, tolerating a torn tail (see StreamFile).
StreamFile read_stream_file(std::istream& in);

}  // namespace dp::ingest
