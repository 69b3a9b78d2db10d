// A diagnosis problem: everything needed to replay an execution and ask a
// DiffProv query against it -- the program, the topology, the recorded base
// event log, and (optionally) default good/bad events.
//
// Both front-ends assemble problems through this module so they agree on the
// built-in scenario catalogue: the one-shot CLI (src/tools/cli.cpp) and the
// diffprovd service (src/service/service.h), which keys warm sessions and
// cache entries off a problem's content hash.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>

#include "replay/replay_engine.h"

namespace dp::service {

struct Problem {
  Program program;
  Topology topology;
  EventLog log;
  std::optional<Tuple> good_event;
  std::optional<Tuple> bad_event;
};

/// Assembles a built-in scenario (sdn1..sdn4, dns1.., mr1-d, mr2-d) by its
/// CLI name. Unknown name: returns nullopt after writing a message to `err`.
std::optional<Problem> builtin_scenario(const std::string& name,
                                        std::ostream& err);

/// Prints the built-in scenario catalogue (the CLI's --list-scenarios).
void list_scenarios(std::ostream& out);

/// Assembles a problem from NDlog program text and event-log text (the
/// EventLog::to_text format). Throws std::runtime_error (with line
/// information) on malformed input -- the daemon feeds this bytes off the
/// wire.
Problem parse_problem(const std::string& program_text,
                      const std::string& log_text, Topology topology = {});

/// Content hash of a problem: FNV-1a over its log's binary serialization,
/// its program text and its links. Cache keys use this so two runs over
/// byte-identical problems share results, whatever name they arrived under,
/// while problems that share a log but not a program never do.
std::uint64_t problem_content_hash(const Problem& problem);

}  // namespace dp::service
