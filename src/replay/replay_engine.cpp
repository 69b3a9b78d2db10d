#include "replay/replay_engine.h"

#include "obs/obs.h"

namespace dp {

std::string DeltaOp::to_string() const {
  return (kind == Kind::kInsert ? "+ " : "- ") + tuple.to_string() + " @" +
         std::to_string(at);
}

std::string delta_to_string(const Delta& delta) {
  std::string out;
  for (const DeltaOp& op : delta) {
    out += "  " + op.to_string() + "\n";
  }
  return out;
}

std::unique_ptr<Engine> make_engine(const Program& program,
                                    const Topology& topology,
                                    const EngineConfig& config) {
  auto engine = std::make_unique<Engine>(program, config);
  for (const Topology::Link& link : topology.links) {
    engine->add_link(link.a, link.b, link.delay);
  }
  return engine;
}

ReplayResult begin_replay(const Program& program, const Topology& topology,
                          const ReplayOptions& options) {
  ReplayResult result;
  result.engine = make_engine(program, topology, options.engine_config);
  result.recorder = std::make_unique<ProvenanceRecorder>();
  if (options.provenance_filter) {
    result.recorder->set_filter(options.provenance_filter);
  }
  result.engine->add_observer(result.recorder.get());
  result.metrics_observer =
      std::make_unique<MetricsObserver>(result.engine->metrics());
  result.engine->add_observer(result.metrics_observer.get());
  return result;
}

void schedule_record(Engine& engine, const LogRecord& record) {
  if (record.op == LogRecord::Op::kInsert) {
    engine.schedule_insert(record.tuple_ref, record.time);
  } else {
    engine.schedule_delete(record.tuple_ref, record.time);
  }
}

ReplayResult replay(const Program& program, const Topology& topology,
                    const EventLog& log, const Delta& delta,
                    const ReplayOptions& options) {
  DP_SPAN_CAT("dp.replay.replay", "replay");
  obs::default_registry().counter("dp.replay.replays").inc();
  ReplayResult result = begin_replay(program, topology, options);
  for (const LogRecord& record : log.records()) {
    schedule_record(*result.engine, record);
  }
  for (const DeltaOp& op : delta) {
    if (op.kind == DeltaOp::Kind::kInsert) {
      result.engine->schedule_insert(op.tuple, op.at);
    } else {
      result.engine->schedule_delete(op.tuple, op.at);
    }
  }
  result.engine->run();
  // The recorder's graph publishes alongside the engine: into the shared
  // registry when the caller wired one up, else the process-wide one.
  obs::MetricsRegistry& registry = options.engine_config.metrics != nullptr
                                       ? *options.engine_config.metrics
                                       : obs::default_registry();
  result.recorder->graph().publish_metrics(registry);
  return result;
}

}  // namespace dp
