// DiffProv resource-limit behaviour and a few cross-module integrations
// (auto-reference on DNS, minimization on the Stanford black box).
#include <gtest/gtest.h>

#include "diffprov/reference.h"
#include "dns/dns.h"
#include "sdn/scenario.h"
#include "sdn/stanford.h"

namespace dp {
namespace {

TEST(Limits, RoundBudgetExhaustionIsReported) {
  // SDN4 needs two rounds; cap at one and expect a clean exhaustion that
  // still carries the first round's (correct) change.
  const sdn::Scenario s = sdn::sdn4();
  LogReplayProvider query(s.program, s.topology, s.log);
  const BadRun run = query.replay_bad({});
  const auto good = locate_tree(*run.graph, s.good_event);
  LogReplayProvider provider(s.program, s.topology, s.log);
  DiffProvConfig config;
  config.max_rounds = 1;
  DiffProv diffprov(s.program, provider, config);
  const DiffProvResult result = diffprov.diagnose(*good, s.bad_event);
  EXPECT_EQ(result.status, DiffProvStatus::kExhausted) << result.to_string();
  ASSERT_EQ(result.changes.size(), 1u);
  EXPECT_NE(result.changes[0].to_string().find("sw2"), std::string::npos);
}

TEST(Limits, ChangeBudgetStopsRunawayAlignments) {
  const sdn::Scenario s = sdn::sdn1();
  LogReplayProvider query(s.program, s.topology, s.log);
  const BadRun run = query.replay_bad({});
  const auto good = locate_tree(*run.graph, s.good_event);
  LogReplayProvider provider(s.program, s.topology, s.log);
  DiffProvConfig config;
  config.max_changes = 0;  // everything over budget
  DiffProv diffprov(s.program, provider, config);
  const DiffProvResult result = diffprov.diagnose(*good, s.bad_event);
  // The first change is recorded before the budget check trips on the next
  // make_appear entry -- either way the diagnosis must not claim success
  // beyond the budget.
  EXPECT_TRUE(result.status == DiffProvStatus::kExhausted || result.ok())
      << result.to_string();
  EXPECT_LE(result.changes.size(), 1u);
}

TEST(Limits, RecursionBudgetIsEnforced) {
  const sdn::Scenario s = sdn::sdn1();
  LogReplayProvider query(s.program, s.topology, s.log);
  const BadRun run = query.replay_bad({});
  const auto good = locate_tree(*run.graph, s.good_event);
  LogReplayProvider provider(s.program, s.topology, s.log);
  DiffProvConfig config;
  config.max_recursion = 0;  // the first ensure_child recursion trips
  DiffProv diffprov(s.program, provider, config);
  const DiffProvResult result = diffprov.diagnose(*good, s.bad_event);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status, DiffProvStatus::kExhausted) << result.to_string();
}

TEST(Integration, AutoReferenceWorksOnDns) {
  const dns::Scenario s = dns::stale_record();
  LogReplayProvider provider(s.program, s.topology, s.log);
  const BadRun run = provider.replay_bad({});
  DiffProv diffprov(s.program, provider);
  const AutoDiagnosis result =
      diagnose_with_auto_reference(diffprov, run, s.bad_event);
  ASSERT_TRUE(result.result.ok()) << result.result.to_string();
  ASSERT_TRUE(result.reference.has_value());
  EXPECT_EQ(result.reference->table(), "response");
  EXPECT_NE(result.result.changes[0].to_string().find("record(@srvA"),
            std::string::npos);
}

TEST(Integration, MinimizeKeepsTheStanfordFix) {
  sdn::StanfordConfig config;
  config.filler_entries_per_router = 20;
  config.acl_rules = 8;
  config.background_packets = 80;
  const sdn::StanfordNetwork net = sdn::build_stanford(config);
  const Program spec = sdn::make_stanford_spec();
  sdn::StanfordReplayProvider provider(net, spec);
  const BadRun run = provider.replay_bad({});
  const auto good = locate_tree(*run.graph, net.good_event);
  DiffProv diffprov(spec, provider);
  const DiffProvResult result = diffprov.diagnose(*good, net.bad_event);
  ASSERT_TRUE(result.ok()) << result.to_string();
  const DiffProvResult minimized = diffprov.minimize_delta(*good, result);
  ASSERT_EQ(minimized.changes.size(), 1u);
  EXPECT_EQ(*minimized.changes[0].before, net.fault_entry);
}

TEST(Integration, SuggestReferencesRanksTheStanfordSibling) {
  // The healthy sibling-subnet flow should rank at (or near) the top of the
  // candidate list for the dropped packet -- the heuristic mirrors how the
  // paper's operators picked the co-located subnet (section 6.7).
  sdn::StanfordConfig config;
  config.background_packets = 120;
  const sdn::StanfordNetwork net = sdn::build_stanford(config);
  const Program spec = sdn::make_stanford_spec();
  sdn::StanfordReplayProvider provider(net, spec);
  const BadRun run = provider.replay_bad({});
  // The bad event is a `dropped` tuple; candidates are other drops (ACL
  // hits from background traffic). For the *delivery* view, rank against
  // the would-be delivered tuple instead.
  const Tuple wanted("delivered", {Value("h2"), net.bad_event.at(1),
                                   net.bad_event.at(2), net.bad_event.at(3)});
  const auto candidates = suggest_references(*run.graph, wanted, 5);
  ASSERT_FALSE(candidates.empty());
  EXPECT_EQ(candidates[0].event, net.good_event);
}

}  // namespace
}  // namespace dp
