// Tests for the temporal provenance graph, recorder and tree projection.
#include <gtest/gtest.h>

#include "ndlog/parser.h"
#include "provenance/recorder.h"
#include "provenance/tree.h"
#include "runtime/engine.h"

namespace dp {
namespace {

Tuple make(const std::string& table, std::vector<Value> values) {
  return Tuple(table, std::move(values));
}

TEST(Graph, BaseInsertCreatesInsertAppearExistChain) {
  ProvenanceGraph graph;
  const Tuple t = make("cfg", {"n", 1});
  const VertexId exist = graph.record_base_insert(t, 10, false);
  const Vertex& ev = graph.vertex(exist);
  EXPECT_EQ(ev.kind, VertexKind::kExist);
  EXPECT_TRUE(ev.interval.open_ended());
  ASSERT_EQ(ev.children.size(), 1u);
  const Vertex& av = graph.vertex(ev.children[0]);
  EXPECT_EQ(av.kind, VertexKind::kAppear);
  ASSERT_EQ(av.children.size(), 1u);
  EXPECT_EQ(graph.vertex(av.children[0]).kind, VertexKind::kInsert);
}

TEST(Graph, EventTuplesGetInstantInterval) {
  ProvenanceGraph graph;
  const Tuple t = make("packet", {"n", 1});
  const VertexId exist = graph.record_base_insert(t, 10, true);
  EXPECT_EQ(graph.vertex(exist).interval, (TimeInterval{10, 11}));
  EXPECT_TRUE(graph.exist_at(t, 10).has_value());
  EXPECT_FALSE(graph.exist_at(t, 11).has_value());
  EXPECT_TRUE(graph.latest_exist_before(t, 50).has_value());
}

TEST(Graph, DeriveLinksBodyExists) {
  ProvenanceGraph graph;
  const Tuple b1 = make("a", {"n", 1});
  const Tuple b2 = make("b", {"n", 1, 2});
  const Tuple head = make("c", {"n", 3});
  graph.record_base_insert(b1, 1, false);
  graph.record_base_insert(b2, 2, false);
  const VertexId exist = graph.record_derive(head, "r1", {b1, b2}, 1, 3,
                                             false);
  const Vertex& ev = graph.vertex(exist);
  const Vertex& appear = graph.vertex(ev.children[0]);
  const Vertex& derive = graph.vertex(appear.children[0]);
  EXPECT_EQ(derive.kind, VertexKind::kDerive);
  EXPECT_EQ(derive.rule(), "r1");
  ASSERT_EQ(derive.children.size(), 2u);
  EXPECT_EQ(graph.vertex(derive.children[0]).tuple(), b1);
  EXPECT_EQ(graph.vertex(derive.children[1]).tuple(), b2);
  EXPECT_EQ(derive.trigger_index, 1);
}

TEST(Graph, RederivationAttachesToExistingAppear) {
  ProvenanceGraph graph;
  const Tuple b1 = make("a", {"n", 1});
  const Tuple b2 = make("a", {"n", 2});
  const Tuple head = make("c", {"n", 3});
  graph.record_base_insert(b1, 1, false);
  graph.record_base_insert(b2, 2, false);
  const VertexId e1 = graph.record_derive(head, "r1", {b1}, 0, 3, false);
  const VertexId e2 = graph.record_derive(head, "r2", {b2}, 0, 4, false);
  EXPECT_EQ(e1, e2);  // same live EXIST
  const Vertex& appear = graph.vertex(graph.vertex(e1).children[0]);
  EXPECT_EQ(appear.children.size(), 2u);  // two alternative derivations
}

TEST(Graph, DeleteClosesIntervalAndAddsNegativeVertices) {
  ProvenanceGraph graph;
  const Tuple t = make("cfg", {"n", 1});
  const VertexId exist = graph.record_base_insert(t, 10, false);
  graph.record_base_delete(t, 20);
  EXPECT_EQ(graph.vertex(exist).interval, (TimeInterval{10, 20}));
  EXPECT_FALSE(graph.exist_at(t, 25).has_value());
  EXPECT_TRUE(graph.exist_at(t, 15).has_value());
}

TEST(Graph, TriggerIndexFindsDownstreamDerivations) {
  ProvenanceGraph graph;
  const Tuple seed = make("pkt", {"n", 1});
  const Tuple head = make("out", {"n", 1});
  const VertexId seed_exist = graph.record_base_insert(seed, 1, true);
  graph.record_derive(head, "r1", {seed}, 0, 2, true);
  const auto derivations = graph.derivations_triggered_by(seed_exist);
  ASSERT_EQ(derivations.size(), 1u);
  EXPECT_EQ(graph.vertex(derivations[0]).tuple(), head);
}

TEST(Graph, ResidentBytesFollowGrowthAndTheSortedKeyCache) {
  // resident_bytes() is memoized on an unchanged graph; the memo must let
  // go when a vertex lands or the lazily built sorted-key cache grows.
  ProvenanceGraph graph;
  graph.record_base_insert(make("cfg", {"n", 1}), 1, false);
  const std::size_t one = graph.resident_bytes();
  EXPECT_EQ(graph.resident_bytes(), one);
  graph.record_base_insert(make("cfg", {"n", 2}), 2, false);
  const std::size_t two = graph.resident_bytes();
  EXPECT_GT(two, one);
  std::size_t tuples = 0;
  graph.for_each_tuple([&](const Tuple&, const std::vector<VertexId>&) {
    ++tuples;
  });
  EXPECT_EQ(tuples, 2u);
  EXPECT_GT(graph.resident_bytes(), two) << "the sorted keys are resident";
}

// ---------------------------------------------------------------- trees --

constexpr const char* kChainProgram = R"(
  table base1(2) base mutable.
  table base2(2) base mutable.
  table mid(2) derived.
  table top(2) derived.
  rule r1 mid(@N, X) :- base1(@N, X), base2(@N, X).
  rule r2 top(@N, X) :- mid(@N, X).
)";

TEST(Tree, ProjectionExpandsFullCausalChain) {
  ProvenanceRecorder recorder;
  Engine engine((parse_program(kChainProgram)));
  engine.add_observer(&recorder);
  engine.schedule_insert(make("base1", {"n", 1}), 0);
  engine.schedule_insert(make("base2", {"n", 1}), 5);
  engine.run();

  const Tuple top = make("top", {"n", 1});
  const auto exist = recorder.graph().exist_at(top, engine.now());
  ASSERT_TRUE(exist.has_value());
  const ProvTree tree = ProvTree::project(recorder.graph(), *exist);

  // EXIST(top) -> APPEAR -> DERIVE(r2) -> EXIST(mid) -> APPEAR -> DERIVE(r1)
  //   -> { EXIST(base1) -> APPEAR -> INSERT, EXIST(base2) -> APPEAR ->
  //   INSERT } : 12 vertexes total.
  EXPECT_EQ(tree.size(), 12u);
  const auto hist = tree.kind_histogram();
  EXPECT_EQ(hist.at(VertexKind::kExist), 4u);
  EXPECT_EQ(hist.at(VertexKind::kAppear), 4u);
  EXPECT_EQ(hist.at(VertexKind::kDerive), 2u);
  EXPECT_EQ(hist.at(VertexKind::kInsert), 2u);
  EXPECT_EQ(tree.depth(), 9u);
  EXPECT_EQ(tree.vertex_of(tree.root()).tuple(), top);
}

TEST(Tree, TextAndDotRenderings) {
  ProvenanceRecorder recorder;
  Engine engine((parse_program(kChainProgram)));
  engine.add_observer(&recorder);
  engine.schedule_insert(make("base1", {"n", 1}), 0);
  engine.schedule_insert(make("base2", {"n", 1}), 5);
  engine.run();
  const auto exist =
      recorder.graph().exist_at(make("top", {"n", 1}), engine.now());
  const ProvTree tree = ProvTree::project(recorder.graph(), *exist);
  const std::string text = tree.to_text();
  EXPECT_NE(text.find("DERIVE top(@n, 1) via r2"), std::string::npos);
  EXPECT_NE(text.find("INSERT base1(@n, 1)"), std::string::npos);
  const std::string dot = tree.to_dot();
  EXPECT_NE(text.find("EXIST"), std::string::npos);
  EXPECT_NE(dot.find("digraph provenance"), std::string::npos);
  // Truncated rendering.
  const std::string truncated = tree.to_text(3);
  EXPECT_NE(truncated.find("more vertexes"), std::string::npos);
}

TEST(Recorder, FilterPrunesButKeepsBoundary) {
  ProvenanceRecorder recorder;
  // Record only tuples on node "n" whose table is not base2; base2 will show
  // up as a boundary fact when referenced by a derivation.
  recorder.set_filter(
      [](const Tuple& t) { return t.table() != "base2"; });
  Engine engine((parse_program(kChainProgram)));
  engine.add_observer(&recorder);
  engine.schedule_insert(make("base1", {"n", 1}), 0);
  engine.schedule_insert(make("base2", {"n", 1}), 5);
  engine.run();
  const auto exist =
      recorder.graph().exist_at(make("top", {"n", 1}), engine.now());
  ASSERT_TRUE(exist.has_value());
  const ProvTree tree = ProvTree::project(recorder.graph(), *exist);
  // The boundary EXIST for base2 is still present (as an unexpanded fact).
  const std::string text = tree.to_text();
  EXPECT_NE(text.find("base2"), std::string::npos);
}

TEST(Recorder, DisabledRecorderStaysEmpty) {
  ProvenanceRecorder recorder;
  recorder.set_enabled(false);
  Engine engine((parse_program(kChainProgram)));
  engine.add_observer(&recorder);
  engine.schedule_insert(make("base1", {"n", 1}), 0);
  engine.run();
  EXPECT_EQ(recorder.graph().size(), 0u);
}

TEST(Recorder, RuntimeIntegrationRecordsUnderive) {
  ProvenanceRecorder recorder;
  Engine engine((parse_program(kChainProgram)));
  engine.add_observer(&recorder);
  engine.schedule_insert(make("base1", {"n", 1}), 0);
  engine.schedule_insert(make("base2", {"n", 1}), 5);
  engine.schedule_delete(make("base1", {"n", 1}), 100);
  engine.run();
  // top and mid must both have closed EXIST intervals now.
  EXPECT_FALSE(
      recorder.graph().exist_at(make("top", {"n", 1}), 200).has_value());
  EXPECT_TRUE(
      recorder.graph().exist_at(make("top", {"n", 1}), 50).has_value());
}

}  // namespace
}  // namespace dp
