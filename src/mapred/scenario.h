// The paper's MapReduce diagnostic scenarios (section 6.2), in both the
// declarative (MR1-D / MR2-D, NDlog engine) and imperative (MR1-I / MR2-I,
// instrumented job) implementations:
//
//   MR1  Configuration changes: the user accidentally changed
//        mapreduce.job.reduces, so almost every word lands on a different
//        reducer than in the reference job.
//   MR2  Code changes: a new mapper version drops the first word of every
//        line, so the job output differs for a previously used input file.
//
// The reference event always comes from a *separate* (earlier, correct) job
// execution -- which is why the paper's Figure 7 counts three replays for
// the MR queries.
#pragma once

#include "mapred/wordcount.h"

namespace dp::mapred {

struct Scenario {
  std::string name;
  std::string description;
  bool declarative = true;
  Program model;
  CorpusStore store;
  JobConfig good_config;
  JobConfig bad_config;
  Tuple good_event{"wordAt", {Value("rd0"), Value(""), Value(""), Value(0), Value(0)}};
  Tuple bad_event = good_event;
  std::string expected_root_cause;
};

Scenario mr1_declarative(CorpusConfig corpus = {});
Scenario mr2_declarative(CorpusConfig corpus = {});
Scenario mr1_imperative(CorpusConfig corpus = {});
Scenario mr2_imperative(CorpusConfig corpus = {});

/// All four, in paper order (MR1-D, MR2-D, MR1-I, MR2-I).
std::vector<Scenario> all_scenarios(CorpusConfig corpus = {});

/// Queries the reference tree from the scenario's *good* job and runs the
/// diagnosis against its *bad* job, using the variant-appropriate provider.
/// The two jobs replay concurrently, and the bad job's replay is the
/// diagnosis's initial run, so a diagnosis replays 2 + its UpdateTree
/// replays (`result.timing.replays`).
struct Diagnosis {
  ProvTree good_tree;
  ProvTree bad_tree;
  DiffProvResult result;
  double job_replay_us = 0;  // wall time of the overlapped job replays
};
Diagnosis diagnose(const Scenario& scenario,
                   const DiffProvConfig& config = {});

}  // namespace dp::mapred
