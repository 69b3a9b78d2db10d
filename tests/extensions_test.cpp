// Tests for the section 4.9 extensions and tooling: ground-tuple parsing,
// the text event-log format, delta minimization, automatic reference
// selection, the DNS substrate, and the CLI debugger.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "diffprov/reference.h"
#include "dns/dns.h"
#include "ndlog/parser.h"
#include "sdn/scenario.h"
#include "tools/cli.h"

namespace dp {
namespace {

// ----------------------------------------------------------- parse_tuple --

TEST(ParseTuple, RoundTripsRenderedTuples) {
  const Tuple original("flowEntry", {Value("sw2"), Value(100),
                                     Value(*IpPrefix::parse("4.3.2.0/24")),
                                     Value("sw6")});
  EXPECT_EQ(parse_tuple(original.to_string()), original);
}

TEST(ParseTuple, AcceptsAllLiteralKinds) {
  const Tuple t = parse_tuple(
      R"(mix(@node, -3, 2.5, "text", 1.2.3.4, 10.0.0.0/8))");
  EXPECT_EQ(t.table(), "mix");
  EXPECT_EQ(t.location(), "node");
  EXPECT_EQ(t.at(1).as_int(), -3);
  EXPECT_DOUBLE_EQ(t.at(2).as_double(), 2.5);
  EXPECT_EQ(t.at(3).as_string(), "text");
  EXPECT_EQ(t.at(4).as_ip().to_string(), "1.2.3.4");
  EXPECT_EQ(t.at(5).as_prefix().to_string(), "10.0.0.0/8");
}

TEST(ParseTuple, OptionalAtAndBareLocation) {
  EXPECT_EQ(parse_tuple("a(n, 1)"), parse_tuple("a(@n, 1)"));
  EXPECT_EQ(parse_tuple(R"(a("n", 1))"), parse_tuple("a(@n, 1)"));
}

TEST(ParseTuple, RejectsMalformedInput) {
  EXPECT_THROW(parse_tuple("a(@n, X)"), ParseError);  // variable
  EXPECT_THROW(parse_tuple("a(@n, 1"), ParseError);   // unterminated
  EXPECT_THROW(parse_tuple("a(@n, 1) extra"), ParseError);
  EXPECT_THROW(parse_tuple("(@n)"), ParseError);
}

// ------------------------------------------------------- text event logs --

TEST(EventLogText, RoundTrips) {
  EventLog log;
  log.append_insert(parse_tuple("cfg(@n, \"k\", 7)"), 0);
  log.append_delete(parse_tuple("cfg(@n, \"k\", 7)"), 50);
  log.append_insert(parse_tuple("pkt(@sw1, 1, 4.3.2.1)"), 100);
  const EventLog parsed = EventLog::from_text(log.to_text());
  ASSERT_EQ(parsed.size(), log.size());
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(parsed.records()[i], log.records()[i]);
  }
}

TEST(EventLogText, SkipsCommentsAndBlankLines) {
  const EventLog log = EventLog::from_text(R"(
    # configuration
    + cfg(@n, "k", 7) @ 0

    + pkt(@sw1, 1, 4.3.2.1) @ 100   # the good packet
  )");
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log.records()[1].time, 100);
}

TEST(EventLogText, ReportsLineNumbersOnErrors) {
  try {
    EventLog::from_text("+ a(@n) @ 1\nbogus line\n");
    FAIL() << "expected an error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

// ------------------------------------------------------------- minimize --

TEST(Minimize, KeepsBothNecessaryChangesInSdn4) {
  const sdn::Scenario s = sdn::sdn4();
  LogReplayProvider query(s.program, s.topology, s.log);
  const BadRun run = query.replay_bad({});
  const auto good = locate_tree(*run.graph, s.good_event);
  LogReplayProvider provider(s.program, s.topology, s.log);
  DiffProv diffprov(s.program, provider);
  const DiffProvResult result = diffprov.diagnose(*good, s.bad_event);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.changes.size(), 2u);
  const DiffProvResult minimized = diffprov.minimize_delta(*good, result);
  // Both faults are genuine: nothing can be dropped.
  EXPECT_EQ(minimized.changes.size(), 2u);
  EXPECT_TRUE(minimized.ok());
}

TEST(Minimize, DropsARedundantInjectedChange) {
  // Inflate a successful SDN1 result with a no-op change (an unrelated
  // policy tweak): minimize_delta must discard it and keep the real fix.
  const sdn::Scenario s = sdn::sdn1();
  LogReplayProvider query(s.program, s.topology, s.log);
  const BadRun run = query.replay_bad({});
  const auto good = locate_tree(*run.graph, s.good_event);
  LogReplayProvider provider(s.program, s.topology, s.log);
  DiffProv diffprov(s.program, provider);
  DiffProvResult result = diffprov.diagnose(*good, s.bad_event);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.changes.size(), 1u);

  ChangeRecord extra;
  extra.after = parse_tuple(
      R"(policyRoute(@ctl, "sw4", 7, 99.0.0.0/8, "sw5"))");
  extra.note = "injected redundancy";
  extra.op_indices.push_back(result.delta.size());
  result.delta.push_back(
      {DeltaOp::Kind::kInsert, *extra.after, result.bad_seed_time - 1});
  result.changes.push_back(std::move(extra));

  const DiffProvResult minimized = diffprov.minimize_delta(*good, result);
  ASSERT_EQ(minimized.changes.size(), 1u) << minimized.to_string();
  EXPECT_NE(minimized.changes[0].to_string().find("4.3.2.0/23"),
            std::string::npos);
  EXPECT_NE(minimized.message.find("minimized from 2 to 1"),
            std::string::npos);
}

TEST(Minimize, DeltaAlignsRejectsEmptyDelta) {
  const sdn::Scenario s = sdn::sdn1();
  LogReplayProvider query(s.program, s.topology, s.log);
  const BadRun run = query.replay_bad({});
  const auto good = locate_tree(*run.graph, s.good_event);
  LogReplayProvider provider(s.program, s.topology, s.log);
  DiffProv diffprov(s.program, provider);
  const DiffProvResult result = diffprov.diagnose(*good, s.bad_event);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(diffprov.delta_aligns(*good, result.delta, result.repairs,
                                    *result.bad_seed));
  EXPECT_FALSE(
      diffprov.delta_aligns(*good, {}, result.repairs, *result.bad_seed));
}

// ------------------------------------------------- reference  selection --

TEST(Reference, SimilarityOrdersSensibly) {
  const Tuple bad = parse_tuple("delivered(@w2, 2, 4.3.3.1, 8.8.1.1)");
  const Tuple close = parse_tuple("delivered(@w1, 1, 4.3.2.1, 8.8.1.1)");
  const Tuple far = parse_tuple("delivered(@d1, 900, 200.1.2.3, 9.9.9.9)");
  EXPECT_GT(tuple_similarity(bad, close), tuple_similarity(bad, far));
  EXPECT_DOUBLE_EQ(tuple_similarity(bad, bad), 1.0);
  EXPECT_DOUBLE_EQ(
      tuple_similarity(bad, parse_tuple("dropped(@w2, 2, 4.3.3.1, 8.8.1.1)")),
      0.0);
}

TEST(Reference, SuggestsAndDiagnosesSdn1Automatically) {
  const sdn::Scenario s = sdn::sdn1();
  LogReplayProvider query(s.program, s.topology, s.log);
  const BadRun run = query.replay_bad({});
  const auto candidates = suggest_references(*run.graph, s.bad_event, 4);
  ASSERT_FALSE(candidates.empty());
  // The most similar delivered event is the good packet's delivery (or its
  // DPI mirror -- both share 23 prefix bits with the bad source).
  EXPECT_EQ(candidates[0].event.table(), "delivered");

  LogReplayProvider provider(s.program, s.topology, s.log);
  DiffProv diffprov(s.program, provider);
  const AutoDiagnosis result =
      diagnose_with_auto_reference(diffprov, run, s.bad_event);
  ASSERT_TRUE(result.result.ok()) << result.result.to_string();
  ASSERT_TRUE(result.reference.has_value());
  EXPECT_NE(result.result.changes[0].to_string().find("4.3.2.0/23"),
            std::string::npos);
}

TEST(Reference, ReportsFailureWhenNoCandidateWorks) {
  // A log with a single event has no candidate references at all.
  Program program = parse_program(R"(
    table a(2) base immutable event.
    table b(2) derived.
    rule r1 b(@N, X) :- a(@N, X).
  )");
  EventLog log;
  log.append_insert(parse_tuple("a(@n, 1)"), 10);
  LogReplayProvider provider(program, Topology{}, log);
  const BadRun run = provider.replay_bad({});
  DiffProv diffprov(program, provider);
  const AutoDiagnosis result = diagnose_with_auto_reference(
      diffprov, run, parse_tuple("b(@n, 1)"));
  EXPECT_FALSE(result.result.ok());
  EXPECT_FALSE(result.reference.has_value());
}

// ------------------------------------------------------------------ dns --

TEST(Dns, StaleRecordDiagnosedFromThePast) {
  const dns::Scenario s = dns::stale_record();
  LogReplayProvider query(s.program, s.topology, s.log);
  const BadRun run = query.replay_bad({});
  const auto good = locate_tree(*run.graph, s.good_event);
  ASSERT_TRUE(good.has_value());
  LogReplayProvider provider(s.program, s.topology, s.log);
  DiffProv diffprov(s.program, provider);
  const DiffProvResult result = diffprov.diagnose(*good, s.bad_event);
  ASSERT_TRUE(result.ok()) << result.to_string();
  ASSERT_EQ(result.changes.size(), 1u);
  EXPECT_NE(result.changes[0].to_string().find(s.expected_root_cause),
            std::string::npos)
      << result.to_string();
}

TEST(Dns, StaleReplicaAlignsViaTheUpstream) {
  const dns::Scenario s = dns::stale_replica();
  LogReplayProvider query(s.program, s.topology, s.log);
  const BadRun run = query.replay_bad({});
  const auto good = locate_tree(*run.graph, s.good_event);
  ASSERT_TRUE(good.has_value());
  LogReplayProvider provider(s.program, s.topology, s.log);
  DiffProv diffprov(s.program, provider);
  const DiffProvResult result = diffprov.diagnose(*good, s.bad_event);
  ASSERT_TRUE(result.ok()) << result.to_string();
  // The returned change satisfies Definition 1 (it aligns the trees) even
  // though an operator might have preferred fixing srvA's zone data -- the
  // paper's section 4.7 "no guarantee the output matches the operator's
  // intent".
  EXPECT_NE(result.changes[0].to_string().find(s.expected_root_cause),
            std::string::npos)
      << result.to_string();
}

// ------------------------------------------------------------------ cli --

int run_cli(const std::vector<std::string>& args, std::string* out_text,
            std::string* err_text = nullptr) {
  std::ostringstream out;
  std::ostringstream err;
  const int rc = cli::run(args, out, err);
  if (out_text != nullptr) *out_text = out.str();
  if (err_text != nullptr) *err_text = err.str();
  return rc;
}

TEST(Cli, DiagnosesBuiltinScenario) {
  std::string out;
  const int rc = run_cli({"--scenario", "sdn1", "--good",
                          "delivered(@w1, 1, 4.3.2.1, 8.8.1.1)", "--bad",
                          "delivered(@w2, 2, 4.3.3.1, 8.8.1.1)"},
                         &out);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("4.3.2.0/23"), std::string::npos);
}

TEST(Cli, AutoReferenceOverridesBuiltinDefault) {
  std::string out;
  const int rc = run_cli({"--scenario", "sdn1", "--auto-reference", "--bad",
                          "delivered(@w2, 2, 4.3.3.1, 8.8.1.1)"},
                         &out);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("auto-selected reference"), std::string::npos);
}

TEST(Cli, FileBasedProgramAndLog) {
  // Write the quickstart system to disk and diagnose it through the file
  // path, exercising parse_program + EventLog::from_text end to end.
  const std::string dir = ::testing::TempDir();
  const std::string program_path = dir + "/toy.ndlog";
  const std::string log_path = dir + "/toy.log";
  {
    std::ofstream program(program_path);
    program << R"(
      table request(3) base immutable event.
      table setting(2) base mutable keys(0).
      table reply(3) derived.
      rule r1 reply(@Client, Id, Value * 2 + 1) :-
          request(@Server, Client, Id), setting(@Server, Value).
    )";
    std::ofstream log(log_path);
    log << R"(
      + setting(@srv, 20) @ 0
      + request(@srv, "alice", 1) @ 100
      + setting(@srv, 99) @ 150
      + request(@srv, "bob", 2) @ 200
    )";
  }
  std::string out;
  const int rc = run_cli({"--program", program_path, "--log", log_path,
                          "--good", R"(reply(@alice, 1, 41))", "--bad",
                          R"(reply(@bob, 2, 199))"},
                         &out);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("setting(@srv, 99) -> setting(@srv, 20)"),
            std::string::npos)
      << out;
}

TEST(Cli, UsageAndErrorPaths) {
  std::string out;
  std::string err;
  EXPECT_EQ(run_cli({}, &out, &err), 2);
  EXPECT_NE(err.find("usage:"), std::string::npos);
  EXPECT_EQ(run_cli({"--scenario", "nope", "--bad", "a(@n)"}, &out, &err), 2);
  EXPECT_EQ(run_cli({"--help"}, &out, &err), 0);
  EXPECT_EQ(run_cli({"--list-scenarios"}, &out, &err), 0);
  EXPECT_NE(out.find("sdn1"), std::string::npos);
  // Missing reference.
  EXPECT_EQ(run_cli({"--scenario", "mr1-d", "--bad", "wordAt(@rd0, \"x\", "
                     "\"f\", 0, 0)"},
                    &out, &err),
            2);
  EXPECT_NE(err.find("no reference"), std::string::npos);
}

TEST(Cli, ShowTreeAndDot) {
  const std::string dot_path = ::testing::TempDir() + "/tree.dot";
  std::string out;
  const int rc =
      run_cli({"--scenario", "DNS-stale-record", "--good",
               R"(response(@c1, 1, "www.example.org", 93.184.216.34, 2))",
               "--bad",
               R"(response(@c1, 2, "www.example.org", 10.0.0.99, 1))",
               "--show-tree", "bad", "--dot", dot_path},
              &out);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("EXIST response"), std::string::npos);
  std::ifstream dot(dot_path);
  std::stringstream dot_text;
  dot_text << dot.rdbuf();
  EXPECT_NE(dot_text.str().find("digraph provenance"), std::string::npos);
}

}  // namespace
}  // namespace dp
