// Interning budget of a replay: every tuple on the engine's per-event path
// is interned once -- by the log it was scheduled from, or by the firing
// that emitted it -- and carried as a ref from then on.
//
// The process-wide store is the subject here, so this suite lives in its own
// binary: the store starts empty and the absolute counts below are exact.
#include <gtest/gtest.h>

#include "replay/replay_engine.h"
#include "sdn/scenario.h"
#include "sdn/trace.h"
#include "store/store.h"

namespace dp {
namespace {

TEST(InternBudget, ReplayInternsAtMostOncePerEventAndAddsTheSameTuples) {
  // SDN1 plus 1000 background packets, the shape of the sdn-trace workload.
  sdn::Scenario s = sdn::sdn1();
  sdn::TraceConfig trace;
  trace.duration_s = 10.0;
  trace.max_packets = 1000;
  trace.seed = 1;
  EventLog background;
  sdn::generate_trace(trace, background);
  for (const LogRecord& record : background.records()) s.log.append(record);

  const TupleStore& store = global_store();
  const TupleStore::Stats before = store.stats();
  const ReplayResult result = replay(s.program, s.topology, s.log, {}, {});
  const TupleStore::Stats after = store.stats();

  const std::uint64_t events = result.engine->stats().events_processed;
  const std::uint64_t interns =
      (after.hits + after.misses) - (before.hits + before.misses);
  ASSERT_GT(events, 1000u);
  EXPECT_LE(interns, events) << "events " << events;
  // Nothing on the replay path materializes canonical tuples.
  EXPECT_EQ(after.resolved, before.resolved);
  // The same tuples and values as the per-event re-interning engine stored
  // for this workload (log plus everything the replay derived), and the
  // same provenance graph.
  EXPECT_EQ(after.tuples, 11345u);
  EXPECT_EQ(after.values, 2840u);
  EXPECT_EQ(result.graph().size(), 34035u);
}

}  // namespace
}  // namespace dp
