// Quickstart: the full DiffProv pipeline on a ten-line NDlog program.
//
//   1. write an NDlog model of your system (tables + derivation rules),
//   2. record its execution into an event log,
//   3. replay the log to reconstruct provenance and query a tree,
//   4. hand DiffProv a "good" reference event and the "bad" event --
//      it returns the base-tuple change that explains the difference.
//
// Build & run:  cmake --build build && ./build/examples/quickstart
#include <cstdio>

#include "diffprov/diffprov.h"
#include "ndlog/parser.h"

using namespace dp;

int main() {
  // 1. A miniature system: a server whose reply depends on a config knob.
  //    reply(@Client, Id, Answer) is derived from each request and the
  //    server's setting: Answer = Value * 2 + 1.
  const Program program = parse_program(R"(
    table request(3) base immutable event.   // request(@Server, Client, Id)
    table setting(2) base mutable keys(0).   // setting(@Server, Value)
    table reply(3) derived.                  // reply(@Client, Id, Answer)

    rule r1 reply(@Client, Id, Value * 2 + 1) :-
        request(@Server, Client, Id),
        setting(@Server, Value).
  )");
  std::printf("The system model:\n%s\n", program.to_string().c_str());

  // 2. Record an execution: the setting changes from 20 to 99 mid-run
  //    (someone fat-fingered a config push), and two requests arrive.
  EventLog log;
  log.append_insert(Tuple("setting", {Value("srv"), Value(20)}), 0);
  log.append_insert(Tuple("request", {Value("srv"), Value("alice"), Value(1)}),
                    100);
  log.append_insert(Tuple("setting", {Value("srv"), Value(99)}), 150);
  log.append_insert(Tuple("request", {Value("srv"), Value("bob"), Value(2)}),
                    200);

  // 3. Replay and query provenance. Alice got 41; Bob got the puzzling 199.
  LogReplayProvider provider(program, Topology{}, log);
  const BadRun run = provider.replay_bad({});
  const Tuple good_reply("reply", {Value("alice"), Value(1), Value(41)});
  const Tuple bad_reply("reply", {Value("bob"), Value(2), Value(199)});
  const auto good_tree = locate_tree(*run.graph, good_reply);
  const auto bad_tree = locate_tree(*run.graph, bad_reply);
  if (!good_tree || !bad_tree) {
    std::printf("unexpected: events not found\n");
    return 1;
  }
  std::printf("Provenance of Bob's bad reply (%zu vertexes):\n%s\n",
              bad_tree->size(), bad_tree->to_text().c_str());

  // 4. Ask DiffProv: why did Bob get 199 when Alice got 41? The run above
  // is the bad execution too, so diagnose() reuses it instead of replaying.
  DiffProv diffprov(program, provider);
  const DiffProvResult result = diffprov.diagnose(*good_tree, bad_reply, run);
  std::printf("%s", result.to_string().c_str());
  std::printf(
      "\nDiffProv aligned the two trees and found the one mutable base\n"
      "tuple whose change explains the difference: the setting. Note that\n"
      "it did not blame the request (immutable) or the rule math -- it\n"
      "inverted Answer = Value * 2 + 1 through the taint formulas.\n");
  return result.ok() ? 0 : 1;
}
