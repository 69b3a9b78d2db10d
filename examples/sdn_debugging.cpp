// SDN debugging walk-through: the paper's Figure-1 scenario (SDN1), end to
// end -- including the NetCore front-end variant of the controller program.
//
// An operator wants traffic from untrusted subnet 4.3.2.0/23 steered through
// the DPI-monitored web server w1, but wrote the prefix as /24. Requests
// from 4.3.3.x silently reach the wrong server. Given one misrouted packet
// and one correctly routed packet, DiffProv pinpoints the broken policy
// entry and proposes the exact fix.
//
// Build & run:  cmake --build build && ./build/examples/sdn_debugging
#include <cstdio>

#include "diffprov/diffprov.h"
#include "diffprov/treediff.h"
#include "netcore/netcore.h"
#include "sdn/scenario.h"

using namespace dp;

int main() {
  sdn::Scenario s = sdn::sdn1();
  std::printf("Scenario: %s\n%s\n\n", s.name.c_str(), s.description.c_str());

  // The same policy, written in the NetCore front-end (the paper's
  // controller programs are accepted in NDlog or NetCore form):
  std::printf("The controller policy in NetCore form:\n%s\n",
              R"(  switch sw2 {
    if src in 4.3.2.0/24 then fwd(sw6)   // BUG: should be /23
    else fwd(sw3)
  })");

  // Query both provenance trees, as an operator armed with a classical
  // provenance system (Y!) would.
  LogReplayProvider provider(s.program, s.topology, s.log);
  const BadRun run = provider.replay_bad({});
  const auto good = locate_tree(*run.graph, s.good_event);
  const auto bad = locate_tree(*run.graph, s.bad_event);
  if (!good || !bad) {
    std::printf("unexpected: events not found\n");
    return 1;
  }
  std::printf("\nThe classical provenance of the misrouted packet has %zu\n"
              "vertexes (first few shown):\n%s",
              bad->size(), bad->to_text(12).c_str());
  const TreeDiffStats diff = plain_tree_diff(*good, *bad);
  std::printf("\nA naive tree diff against the good packet still leaves %zu\n"
              "differing vertexes to read -- the butterfly effect.\n\n",
              diff.diff_size());

  // DiffProv: one change. The query run above is the initial bad run.
  DiffProv diffprov(s.program, provider);
  const DiffProvResult result = diffprov.diagnose(*good, s.bad_event, run);
  std::printf("%s", result.to_string().c_str());
  if (result.ok() && !result.changes.empty()) {
    std::printf(
        "\nThe proposed change is the root cause the operator was after:\n"
        "widening the untrusted-subnet policy from /24 to /23. Applying it\n"
        "(after review -- section 4.7 of the paper explains why a human\n"
        "should confirm) makes 4.3.3.x traffic take the DPI path again.\n");
  }
  return result.ok() ? 0 : 1;
}
