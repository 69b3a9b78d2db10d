#include "runtime/engine.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <numeric>

#include "util/logging.h"

namespace dp {

namespace {

/// Never-enabled sink for spans gated off by EngineConfig::trace_rule_firings
/// (Span activates on tracer.enabled(), so pointing it here keeps the gate to
/// one branch without a second code path).
obs::Tracer& disabled_tracer() {
  static obs::Tracer off;
  return off;
}

/// Span + latency sample for one rule firing. Inert -- two relaxed loads and
/// branches -- unless the firing is actually traced; safe across the fire
/// functions' many early returns (RAII).
class FiringScope {
 public:
  FiringScope(bool want, const std::string& label, obs::Histogram* hist,
              obs::QuantileSketch* sketch)
      : span_(want ? obs::default_tracer() : disabled_tracer(), label,
              "rule") {
    if (span_.active()) {
      hist_ = hist;
      sketch_ = sketch;
      start_us_ = obs::monotonic_micros();
    }
  }
  ~FiringScope() {
    if (hist_ != nullptr) {
      const auto us = double(obs::monotonic_micros() - start_us_);
      hist_->observe(us);
      if (sketch_ != nullptr) sketch_->observe(us);
    }
  }
  FiringScope(const FiringScope&) = delete;
  FiringScope& operator=(const FiringScope&) = delete;

 private:
  obs::Span span_;
  obs::Histogram* hist_ = nullptr;
  obs::QuantileSketch* sketch_ = nullptr;
  std::uint64_t start_us_ = 0;
};

}  // namespace

Engine::Engine(Program program, EngineConfig config)
    : program_(std::move(program)), config_(config) {
  program_.validate();
  for (const auto& [name, decl] : program_.tables()) {
    listeners_.emplace(name, program_.rules_listening_to(name));
  }
  if (config_.use_join_plans) plans_ = compile_rule_plans(program_);
  if (config_.use_join_plans && config_.use_batch_exec) {
    // Batch-formation metadata: per trigger table, the set of tables its
    // plans read (probe or scan), as a bitmask over table ordinals. An event
    // whose table is in the running union of the masks of already-admitted
    // deltas cannot join the batch -- their firings must not see its tuple.
    std::uint32_t ord = 0;
    for (const auto& [name, decl] : program_.tables()) {
      table_ord_.emplace(name, ord++);
    }
    mask_words_ = (table_ord_.size() + 63) / 64;
    probe_masks_.assign(table_ord_.size() * mask_words_, 0);
    for (const auto& [trigger_table, plans] : plans_) {
      std::uint64_t* row = probe_masks_.data() +
                           table_ord_.at(trigger_table) * mask_words_;
      for (const RulePlan& plan : plans) {
        for (const JoinStep& step : plan.steps) {
          const std::uint32_t bit = table_ord_.at(step.table);
          row[bit / 64] |= std::uint64_t{1} << (bit % 64);
        }
      }
    }
    forbidden_scratch_.assign(mask_words_, 0);
  }

  metrics_ = config_.metrics;
  if (metrics_ == nullptr) {
    own_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = own_metrics_.get();
  }
  const auto& rules = program_.rules();
  rule_firings_.assign(rules.size(), 0);
  rule_firings_published_.assign(rules.size(), 0);
  rule_span_labels_.reserve(rules.size());
  rule_metric_names_.reserve(rules.size());
  for (const Rule& rule : rules) {
    rule_span_labels_.push_back("rule:" + rule.name);
    rule_metric_names_.push_back("dp.runtime.rule_firings." +
                                 obs::sanitize_metric_segment(rule.name));
  }
  fire_hist_ = &metrics_->histogram("dp.runtime.rule_fire_us");
  fire_sketch_ = &metrics_->sketch("dp.runtime.rule_fire_us");
  batch_size_hist_ = &metrics_->histogram(
      "dp.engine.batch.size",
      {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096});
}

void Engine::add_link(const NodeName& a, const NodeName& b,
                      LogicalTime delay) {
  links_[{a, b}] = delay;
  links_[{b, a}] = delay;
}

void Engine::add_observer(RuntimeObserver* observer) {
  observers_.push_back(observer);
}

LogicalTime Engine::delivery_delay(const NodeName& from,
                                   const NodeName& to) const {
  if (from == to) return config_.derive_delay;
  auto it = links_.find({from, to});
  return it == links_.end() ? config_.default_link_delay : it->second;
}

Table& Engine::table_for(const Tuple& tuple) {
  auto& node_tables = state_[tuple.location()];
  auto it = node_tables.find(tuple.table());
  if (it == node_tables.end()) {
    it = node_tables.emplace(tuple.table(), Table(program_.table(tuple.table())))
             .first;
  }
  return it->second;
}

const Table* Engine::find_table(const NodeName& node,
                                const std::string& table) const {
  auto node_it = state_.find(node);
  if (node_it == state_.end()) return nullptr;
  auto it = node_it->second.find(table);
  return it == node_it->second.end() ? nullptr : &it->second;
}

bool Engine::is_live(const Tuple& tuple) const {
  const Table* table = find_table(tuple.location(), tuple.table());
  return table != nullptr && table->is_live(tuple);
}

bool Engine::existed_at(const Tuple& tuple, LogicalTime at) const {
  const Table* table = find_table(tuple.location(), tuple.table());
  return table != nullptr && table->existed_at(tuple, at);
}

std::vector<Tuple> Engine::live_tuples(const std::string& table) const {
  std::vector<Tuple> out;
  for (const auto& [node, tables] : state_) {
    auto it = tables.find(table);
    if (it == tables.end()) continue;
    it->second.for_each_live([&out](const Tuple& t) { out.push_back(t); });
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<NodeName> Engine::nodes() const {
  std::vector<NodeName> out;
  out.reserve(state_.size());
  for (const auto& [node, tables] : state_) out.push_back(node);
  return out;
}

void Engine::push_event(Event event) {
  event.seq = kInternalSeqBand | next_seq_++;
  enqueue(std::move(event));
}

void Engine::push_external_event(Event event) {
  event.seq = next_external_seq_++;
  enqueue(std::move(event));
}

void Engine::enqueue(Event event) {
  queue_.push_back(std::move(event));
  std::push_heap(queue_.begin(), queue_.end(), std::greater<>{});
  if (queue_.size() > queue_depth_max_) queue_depth_max_ = queue_.size();
}

Engine::Event Engine::pop_event() {
  assert(!queue_.empty());
  std::pop_heap(queue_.begin(), queue_.end(), std::greater<>{});
  Event event = std::move(queue_.back());
  queue_.pop_back();
  return event;
}

void Engine::schedule_insert(Tuple tuple, LogicalTime at) {
  const TableDecl& decl = program_.table(tuple.table());
  if (decl.kind != TupleKind::kBase) {
    throw ProgramError("external insert into derived table " + tuple.table());
  }
  if (tuple.arity() != decl.arity) {
    throw ProgramError("arity mismatch inserting into " + tuple.table());
  }
  if (!tuple.values().front().is_string()) {
    throw ProgramError("tuple location (field 0) must be a node name string");
  }
  if (at < now_) throw ProgramError("insert scheduled in the past");
  Event event;
  event.time = at;
  event.kind = Event::Kind::kBaseInsert;
  event.tuple = std::move(tuple);
  push_external_event(std::move(event));
}

void Engine::schedule_delete(Tuple tuple, LogicalTime at) {
  const TableDecl& decl = program_.table(tuple.table());
  if (decl.kind != TupleKind::kBase) {
    throw ProgramError("external delete from derived table " + tuple.table());
  }
  if (decl.is_event()) {
    throw ProgramError("cannot delete event tuple " + tuple.table());
  }
  if (at < now_) throw ProgramError("delete scheduled in the past");
  Event event;
  event.time = at;
  event.kind = Event::Kind::kBaseDelete;
  event.tuple = std::move(tuple);
  push_external_event(std::move(event));
}

void Engine::run() {
  DP_SPAN_CAT("dp.runtime.run", "runtime");
  while (!queue_.empty()) {
    step_queue(/*bounded=*/false, 0);
  }
  publish_metrics();
}

void Engine::run_until(LogicalTime until) {
  DP_SPAN_CAT("dp.runtime.run_until", "runtime");
  while (!queue_.empty() && queue_.front().time <= until) {
    step_queue(/*bounded=*/true, until);
  }
  now_ = std::max(now_, until);
  publish_metrics();
}

bool Engine::batch_admissible(const Event& event, LogicalTime t,
                              const TableDecl& decl,
                              std::uint32_t ord) const {
  if (event.time != t) return false;
  if (event.kind != Event::Kind::kBaseInsert &&
      event.kind != Event::Kind::kDerivedInsert) {
    return false;  // deletes and aggregates mutate state mid-step: run solo
  }
  const Tuple& tuple = event.tuple;
  // An earlier batched delta's firings must not see this tuple (phase A
  // inserts the whole batch before phase B fires anything, but the row
  // engine would not have inserted it yet).
  const std::uint64_t* forbidden = forbidden_scratch_.data();
  if ((forbidden[ord / 64] >> (ord % 64)) & 1) return false;
  if (decl.is_event()) return true;  // never materialized: nothing to clash
  // A duplicate or key-displacing insert takes the single-event path, where
  // the existing dedup/retraction logic runs in delta order.
  std::vector<Value> key;
  if (decl.key_columns.empty()) {
    key = tuple.values();
  } else {
    key.reserve(decl.key_columns.size());
    for (const std::size_t col : decl.key_columns) key.push_back(tuple.at(col));
  }
  if (const Table* table = find_table(tuple.location(), tuple.table());
      table != nullptr && table->live_by_key(key) != nullptr) {
    return false;
  }
  return pending_keys_.count({tuple.location(), tuple.table(), key}) == 0;
}

void Engine::step_queue(bool bounded, LogicalTime until) {
  (void)bounded;
  (void)until;  // admission beyond the head is same-time, so <= until holds
  if (!config_.use_join_plans || !config_.use_batch_exec) {
    const Event event = pop_event();
    process(event);
    return;
  }

  // Try to grow batches from the queue head: maximal same-time runs of
  // insert events that can all be applied before any of them fires. Events
  // that cannot (deletes, aggregates, duplicates, displacing upserts, an
  // event whose budget crossing must throw, or a tuple an earlier delta's
  // rules probe) flush the batch and take the single-event path, which
  // preserves the row engine's semantics exactly.
  const LogicalTime t = queue_.front().time;

  // One-entry table cache: a run overwhelmingly repeats a handful of tables,
  // so the two ordered-map lookups behind every admission check collapse to
  // one string compare. The cached name must point into storage that stays
  // put between admission checks (the bulk-drained run does; the heap does
  // not -- the per-pop loop below invalidates after every pop).
  const std::string* cached_table = nullptr;
  const TableDecl* cached_decl = nullptr;
  std::uint32_t cached_ord = 0;
  const auto resolve = [&](const std::string& name) {
    if (cached_table == nullptr || *cached_table != name) {
      cached_decl = &program_.table(name);
      cached_ord = table_ord_.at(name);
      cached_table = &name;
    }
  };
  // Admits `head` into the batch being formed (`formed` deltas so far):
  // checks the budget and the admission rules, then records the pending key
  // and the tables its firings will probe. The event that crosses max_events
  // must throw from process(), so admission stops just before the budget and
  // the crossing event arrives there alone.
  const auto admit = [&](const Event& head, std::size_t formed) {
    const bool over_budget =
        config_.max_events != 0 &&
        stats_.events_processed + formed + 1 > config_.max_events;
    if (over_budget) return false;
    const Tuple& tuple = head.tuple;
    resolve(tuple.table());
    if (!batch_admissible(head, t, *cached_decl, cached_ord)) return false;
    if (!cached_decl->is_event()) {
      pending_keys_.emplace(tuple.location(), tuple.table(),
                            cached_decl->key_columns.empty()
                                ? tuple.values()
                                : [&] {
                                    std::vector<Value> key;
                                    key.reserve(cached_decl->key_columns.size());
                                    for (const std::size_t col :
                                         cached_decl->key_columns) {
                                      key.push_back(tuple.at(col));
                                    }
                                    return key;
                                  }());
    }
    const std::uint64_t* mask =
        probe_masks_.data() + cached_ord * mask_words_;
    for (std::size_t w = 0; w < mask_words_; ++w) {
      forbidden_scratch_[w] |= mask[w];
    }
    return true;
  };

  // Bulk drain: when the head's same-time run is long, extract the whole run
  // from the heap in one partition pass -- two moves per event instead of a
  // log(queue)-deep sift per pop -- and consume it right here, batch by
  // batch with ineligible events processed solo in between. Short runs keep
  // the per-pop path below: for them the scan and heap rebuild would cost
  // more than the sifts they replace.
  //
  // The run is counted without scanning the heap: t is the minimum time, so
  // every ancestor of a time-t event also has time t, and the run is a
  // subtree holding the root. A depth-first walk of that subtree stops at
  // kBulkDrainMin; each step pops one index and pushes at most two, so the
  // stack never holds more than kBulkDrainMin + 1.
  constexpr std::size_t kBulkDrainMin = 64;
  std::size_t same_time = 0;
  {
    std::array<std::size_t, kBulkDrainMin + 1> stack;
    std::size_t depth = 0;
    stack[depth++] = 0;
    while (depth > 0 && same_time < kBulkDrainMin) {
      const std::size_t node = stack[--depth];
      ++same_time;
      for (std::size_t child = 2 * node + 1;
           child <= 2 * node + 2 && child < queue_.size(); ++child) {
        if (queue_[child].time == t) stack[depth++] = child;
      }
    }
  }
  if (same_time >= kBulkDrainMin) {
    const auto mid =
        std::partition(queue_.begin(), queue_.end(),
                       [t](const Event& event) { return event.time != t; });
    // All times in the run are equal, so seq order is exactly pop order.
    // The run often comes out already in order -- a wave of schedule calls
    // or a batch's emissions heap-push in increasing seq without sifting --
    // but leftover emissions interleaved with a fresh wave do need sorting.
    // Order 16-byte (seq, position) keys and move each Event once into
    // place rather than letting std::sort shuffle the Event objects around.
    const std::size_t run_len = static_cast<std::size_t>(queue_.end() - mid);
    run_keys_.clear();
    run_keys_.reserve(run_len);
    bool run_sorted = true;
    for (std::size_t i = 0; i < run_len; ++i) {
      const std::uint64_t seq = (mid + static_cast<std::ptrdiff_t>(i))->seq;
      if (!run_keys_.empty() && seq < run_keys_.back().first) {
        run_sorted = false;
      }
      run_keys_.emplace_back(seq, static_cast<std::uint32_t>(i));
    }
    if (!run_sorted) std::sort(run_keys_.begin(), run_keys_.end());
    run_scratch_.clear();
    run_scratch_.reserve(run_len);
    for (const auto& key : run_keys_) {
      run_scratch_.push_back(
          std::move(*(mid + static_cast<std::ptrdiff_t>(key.second))));
    }
    queue_.erase(mid, queue_.end());
    std::make_heap(queue_.begin(), queue_.end(), std::greater<>{});
    std::size_t cursor = 0;
    while (cursor < run_scratch_.size()) {
      std::fill(forbidden_scratch_.begin(), forbidden_scratch_.end(), 0);
      pending_keys_.clear();
      const std::size_t begin = cursor;
      while (cursor < run_scratch_.size() &&
             admit(run_scratch_[cursor], cursor - begin)) {
        ++cursor;
      }
      if (cursor > begin) {
        process_batch(run_scratch_.data() + begin, cursor - begin);
        continue;
      }
      // Head not batchable: single-event path (also the only path that can
      // throw the event-budget error, keeping its timing identical).
      process(run_scratch_[cursor++]);
    }
    run_scratch_.clear();
    return;
  }

  std::fill(forbidden_scratch_.begin(), forbidden_scratch_.end(), 0);
  pending_keys_.clear();
  batch_scratch_.clear();
  while (!queue_.empty() && queue_.front().time == t &&
         admit(queue_.front(), batch_scratch_.size())) {
    batch_scratch_.push_back(pop_event());
    // pop_event sifts other events through the slot the cache points into;
    // unlike the stable bulk-drained run, the bytes there can become a
    // different (valid) table name while cached_decl stays stale.
    cached_table = nullptr;
  }

  if (batch_scratch_.empty()) {
    // Head not batchable: single-event path (also the only path that can
    // throw the event-budget error, keeping its timing identical).
    const Event event = pop_event();
    process(event);
    return;
  }
  process_batch(batch_scratch_.data(), batch_scratch_.size());
}

void Engine::process(const Event& event) {
  assert(event.time >= now_);
  now_ = event.time;
  ++stats_.events_processed;
  if (config_.max_events != 0 && stats_.events_processed > config_.max_events) {
    throw ProgramError(
        "event budget exceeded (" + std::to_string(config_.max_events) +
        "): the program is probably deriving forever (e.g. a forwarding "
        "loop); raise EngineConfig::max_events if the workload is genuinely "
        "this large");
  }
  switch (event.kind) {
    case Event::Kind::kBaseInsert:
    case Event::Kind::kDerivedInsert:
      process_insert(event);
      break;
    case Event::Kind::kAggregate:
      process_aggregate(event);
      break;
    case Event::Kind::kBaseDelete:
      process_delete(event.tuple, event.time);
      break;
  }
}

void Engine::process_aggregate(const Event& event) {
  const Rule* rule = program_.find_rule(event.rule);
  if (rule == nullptr || !rule->agg) return;  // defensive: validated upstream
  // Resolve the aggregate column (the head argument that is the agg var).
  std::size_t agg_index = event.tuple.arity();
  for (std::size_t i = 0; i < rule->head.args.size(); ++i) {
    if (rule->head.args[i]->kind == Expr::Kind::kVar &&
        rule->head.args[i]->var == rule->agg->var) {
      agg_index = i;
      break;
    }
  }
  if (agg_index == event.tuple.arity()) return;

  Table& table = table_for(event.tuple);
  const Tuple* previous = table.live_by_key(table.key_of(event.tuple));
  const std::int64_t old_value =
      previous != nullptr && previous->at(agg_index).is_int()
          ? previous->at(agg_index).as_int()
          : 0;

  Event resolved;
  resolved.time = event.time;
  resolved.kind = Event::Kind::kDerivedInsert;
  resolved.rule = event.rule;
  resolved.trigger_index = event.trigger_index;
  resolved.body = event.body;
  // The previous aggregate value joins the provenance as the tail of the
  // contribution chain.
  if (previous != nullptr) resolved.body.push_back(*previous);
  resolved.tuple =
      event.tuple.with_field(agg_index, Value(old_value + event.agg_delta));
  process_insert(resolved);
}

void Engine::process_insert(const Event& event) {
  const Tuple& tuple = event.tuple;
  const TableDecl& decl = program_.table(tuple.table());
  const bool is_base = event.kind == Event::Kind::kBaseInsert;
  const bool is_event = decl.is_event();

  const bool notify = !observers_.empty();
  bool newly_appeared = true;
  if (!is_event) {
    Table& table = table_for(tuple);
    const Table::InsertResult result = table.insert(tuple, event.time);
    if (result.displaced) {
      // Key upsert displaced a live row: observers see its disappearance
      // first, and its dependents are underived at the same timestamp. The
      // displaced row may legitimately be absent from the store (recorded
      // with no observers attached); then nothing can reference it either.
      ++stats_.base_deletes;
      const TupleRef displaced_ref =
          notify ? intern_tuple(*result.displaced)
                 : global_store().find(*result.displaced);
      for (RuntimeObserver* obs : observers_) {
        obs->on_base_delete(displaced_ref, event.time);
      }
      if (displaced_ref != kNoTupleRef) {
        retract_dependents_of(displaced_ref, event.time);
      }
    }
    newly_appeared = result.inserted;
  }

  // Notify observers and maintain support bookkeeping. Tuples are interned
  // once here; every observer (recorder, event log, metrics) and the support
  // maps share the resulting refs.
  if (is_base) {
    ++stats_.base_inserts;
    if (notify) {
      const TupleRef ref = intern_tuple(tuple);
      for (RuntimeObserver* obs : observers_) {
        obs->on_base_insert(ref, event.time, is_event);
      }
    }
  } else {
    ++stats_.derivations;
    // Derivations triggered by an event tuple are one-shot: the event is
    // gone the instant after, so the head is a fact about something that
    // happened (e.g. "this packet was delivered") and is not subject to
    // incremental view maintenance. Only derivations whose entire body is
    // materialized state participate in support counting.
    bool event_triggered = false;
    for (const Tuple& b : event.body) {
      if (program_.table(b.table()).is_event()) {
        event_triggered = true;
        break;
      }
    }
    const bool track_support = !is_event && !event_triggered;
    if (notify || track_support) {
      const TupleRef head_ref = intern_tuple(tuple);
      const NameRef rule_ref = intern_name(event.rule);
      body_refs_scratch_.clear();
      body_refs_scratch_.reserve(event.body.size());
      for (const Tuple& b : event.body) {
        body_refs_scratch_.push_back(intern_tuple(b));
      }
      for (RuntimeObserver* obs : observers_) {
        obs->on_derive(head_ref, rule_ref, body_refs_scratch_,
                       event.trigger_index, event.time, is_event);
      }
      if (track_support) {
        const std::size_t record_id = records_.size();
        records_.push_back(DerivRecord{head_ref, rule_ref, true});
        records_by_head_[head_ref].push_back(record_id);
        for (const TupleRef b : body_refs_scratch_) {
          records_by_body_[b].push_back(record_id);
        }
        ++support_[head_ref];
      }
    }
  }

  if (!newly_appeared && !is_event) return;  // no new appearance: no firing

  // Delta evaluation: the new tuple may trigger any rule with a body atom
  // over its table. Plans fire in (rule, atom) order -- the exact order of
  // the reference evaluator's nested loop below.
  if (config_.use_join_plans) {
    if (auto it = plans_.find(tuple.table()); it != plans_.end()) {
      for (const RulePlan& plan : it->second) {
        fire_rule_planned(plan, tuple, event.time);
      }
    }
    return;
  }
  for (std::size_t rule_index : listeners_.at(tuple.table())) {
    const Rule& rule = program_.rules()[rule_index];
    for (std::size_t i = 0; i < rule.body.size(); ++i) {
      if (rule.body[i].table == tuple.table()) {
        fire_rule(rule, i, tuple, event.time);
      }
    }
  }
}

void Engine::process_delete(const Tuple& tuple, LogicalTime t) {
  Table& table = table_for(tuple);
  if (!table.remove(tuple, t)) {
    DP_WARN << "external delete of non-live tuple " << tuple.to_string();
    return;
  }
  ++stats_.base_deletes;
  const TupleRef ref = observers_.empty() ? global_store().find(tuple)
                                          : intern_tuple(tuple);
  for (RuntimeObserver* obs : observers_) {
    obs->on_base_delete(ref, t);
  }
  // Absent from the store means nothing was ever recorded against it, so no
  // derivation record can reference it either.
  if (ref != kNoTupleRef) retract_dependents_of(ref, t);
}

void Engine::retract_dependents_of(TupleRef tuple, LogicalTime t) {
  // Deactivate this tuple's own derivation records (it is gone). Its support
  // entry is erased outright -- leaving a zero behind would grow the map by
  // one dead entry per underived tuple for the lifetime of the engine.
  if (auto it = records_by_head_.find(tuple); it != records_by_head_.end()) {
    for (std::size_t id : it->second) records_[id].active = false;
    support_.erase(tuple);
  }
  // Derivations that consumed the tuple lose one unit of support.
  auto it = records_by_body_.find(tuple);
  if (it == records_by_body_.end()) return;
  // Copy: retraction can recurse and grow/invalidate the map.
  const std::vector<std::size_t> record_ids = it->second;
  for (std::size_t id : record_ids) {
    DerivRecord& record = records_[id];
    if (!record.active) continue;
    record.active = false;
    auto support_it = support_.find(record.head);
    if (support_it == support_.end() || support_it->second <= 0) continue;
    if (--support_it->second > 0) continue;
    support_.erase(support_it);
    // Support exhausted: underive the head now (same timestamp).
    const Tuple& head = resolve_tuple(record.head);
    Table& head_table = table_for(head);
    if (!head_table.remove(head, t)) continue;
    ++stats_.underivations;
    for (RuntimeObserver* obs : observers_) {
      obs->on_underive(record.head, record.rule, tuple, t);
    }
    retract_dependents_of(record.head, t);
  }
}

bool Engine::unify(const BodyAtom& atom, const Tuple& tuple,
                   Bindings& bindings) {
  for (std::size_t i = 0; i < atom.args.size(); ++i) {
    const AtomArg& arg = atom.args[i];
    const Value& v = tuple.at(i);
    if (arg.is_var) {
      auto [it, inserted] = bindings.emplace(arg.var, v);
      if (!inserted && !(it->second == v)) return false;
    } else if (!(arg.constant == v)) {
      return false;
    }
  }
  return true;
}

void Engine::fire_rule(const Rule& rule, std::size_t atom_index,
                       const Tuple& arrival, LogicalTime t) {
  const std::size_t rule_index =
      static_cast<std::size_t>(&rule - program_.rules().data());
  FiringScope firing_scope(config_.trace_rule_firings,
                           rule_span_labels_[rule_index], fire_hist_,
                           fire_sketch_);
  const NodeName& node = arrival.location();

  // Depth-first join over the remaining body atoms, in body order.
  std::vector<Bindings> complete;
  Bindings initial;
  if (!unify(rule.body[atom_index], arrival, initial)) return;

  struct Frame {
    std::size_t atom = 0;
    Bindings bindings;
  };
  std::vector<Frame> stack = {{0, std::move(initial)}};
  std::vector<std::pair<std::string, Value>> new_bindings;
  while (!stack.empty()) {
    Frame frame = std::move(stack.back());
    stack.pop_back();
    // Skip the already-bound trigger atom.
    while (frame.atom == atom_index) ++frame.atom;
    if (frame.atom >= rule.body.size()) {
      complete.push_back(std::move(frame.bindings));
      continue;
    }
    const BodyAtom& atom = rule.body[frame.atom];
    const Table* table = find_table(node, atom.table);
    if (table == nullptr) continue;
    table->for_each_live([&](const Tuple& candidate) {
      // Two-phase unification: validate against the current bindings and
      // collect the new variable bindings *before* paying for a map copy.
      // With selective rules (e.g. constant join keys) almost every
      // candidate fails cheaply here.
      ++stats_.tuples_scanned;
      new_bindings.clear();
      bool ok = true;
      for (std::size_t i = 0; ok && i < atom.args.size(); ++i) {
        const AtomArg& arg = atom.args[i];
        const Value& v = candidate.at(i);
        if (!arg.is_var) {
          ok = arg.constant == v;
          continue;
        }
        auto bound = frame.bindings.find(arg.var);
        if (bound != frame.bindings.end()) {
          ok = bound->second == v;
          continue;
        }
        for (const auto& [var, value] : new_bindings) {
          if (var == arg.var) {
            ok = value == v;
            break;
          }
        }
        if (ok) new_bindings.emplace_back(arg.var, v);
      }
      if (!ok) return;
      ++stats_.tuples_matched;
      Bindings extended = frame.bindings;
      for (auto& [var, value] : new_bindings) {
        extended.emplace(std::move(var), std::move(value));
      }
      stack.push_back({frame.atom + 1, std::move(extended)});
    });
  }
  if (complete.empty()) return;

  // Assignments and constraints.
  std::vector<Bindings> satisfying;
  for (Bindings& bindings : complete) {
    bool ok = true;
    try {
      for (const Assignment& assign : rule.assigns) {
        bindings[assign.var] = eval_expr(*assign.expr, bindings);
      }
      for (const ExprPtr& constraint : rule.constraints) {
        if (!is_truthy(eval_expr(*constraint, bindings))) {
          ok = false;
          break;
        }
      }
    } catch (const EvalError& e) {
      if (config_.strict_eval) throw;
      DP_WARN << "rule " << rule.name << ": constraint error: " << e.what();
      ok = false;
    }
    if (ok) satisfying.push_back(std::move(bindings));
  }
  if (satisfying.empty()) return;

  // argmax selection (OpenFlow priority semantics): keep only the binding
  // maximizing the declared variable; deterministic tie-break by binding
  // content.
  if (rule.argmax_var) {
    const Bindings* best = nullptr;
    for (const Bindings& bindings : satisfying) {
      if (best == nullptr) {
        best = &bindings;
        continue;
      }
      const Value& current = bindings.at(*rule.argmax_var);
      const Value& best_value = best->at(*rule.argmax_var);
      if (best_value < current ||
          (!(current < best_value) && bindings < *best)) {
        best = &bindings;
      }
    }
    std::vector<Bindings> winner = {*best};
    satisfying = std::move(winner);
  }

  // Fire: evaluate the head and schedule its arrival. For aggregate rules
  // the aggregate column gets a placeholder; the value is resolved when the
  // event is processed (serialized, so contributions never race).
  for (const Bindings& bindings : satisfying) {
    std::vector<Value> head_values;
    head_values.reserve(rule.head.args.size());
    try {
      for (const ExprPtr& arg : rule.head.args) {
        if (rule.agg && arg->kind == Expr::Kind::kVar &&
            arg->var == rule.agg->var) {
          head_values.emplace_back(std::int64_t{0});  // placeholder
          continue;
        }
        head_values.push_back(eval_expr(*arg, bindings));
      }
    } catch (const EvalError& e) {
      if (config_.strict_eval) throw;
      DP_WARN << "rule " << rule.name << ": head error: " << e.what();
      continue;
    }
    if (!head_values.front().is_string()) {
      DP_WARN << "rule " << rule.name << ": head location is not a node name";
      continue;
    }
    Tuple head(rule.head.table, std::move(head_values));
    const NodeName& target = head.location();
    if (target != node) {
      ++stats_.remote_messages;
      ++remote_by_node_[target];
    }
    ++rule_firings_[rule_index];

    // Reconstruct the body instantiation, in body order, for provenance.
    Event event;
    event.time = t + delivery_delay(node, target);
    event.kind = rule.agg ? Event::Kind::kAggregate
                          : Event::Kind::kDerivedInsert;
    if (rule.agg) {
      event.agg_delta =
          rule.agg->kind == AggSpec::Kind::kCount
              ? 1
              : bindings.at(rule.agg->sum_var).as_int();
    }
    event.rule = rule.name;
    event.trigger_index = atom_index;
    event.body.reserve(rule.body.size());
    for (std::size_t i = 0; i < rule.body.size(); ++i) {
      if (i == atom_index) {
        event.body.push_back(arrival);
        continue;
      }
      std::vector<Value> values;
      values.reserve(rule.body[i].args.size());
      for (const AtomArg& arg : rule.body[i].args) {
        values.push_back(arg.is_var ? bindings.at(arg.var) : arg.constant);
      }
      event.body.emplace_back(rule.body[i].table, std::move(values));
    }
    event.tuple = std::move(head);
    push_event(std::move(event));
  }
}

void Engine::fire_rule_planned(const RulePlan& plan, const Tuple& arrival,
                               LogicalTime t) {
  const Rule& rule = program_.rules()[plan.rule_index];
  FiringScope firing_scope(config_.trace_rule_firings,
                           rule_span_labels_[plan.rule_index], fire_hist_,
                           fire_sketch_);
  const NodeName& node = arrival.location();

  // Unify the arriving tuple against the trigger atom.
  Regs regs(plan.slot_count);
  for (const ColOp& op : plan.trigger_ops) {
    const Value& v = arrival.at(op.col);
    switch (op.kind) {
      case ColOp::Kind::kConst:
        if (!(op.constant == v)) return;
        break;
      case ColOp::Kind::kCheck:
        if (!(regs[op.slot] == v)) return;
        break;
      case ColOp::Kind::kBind:
        regs[op.slot] = v;
        break;
    }
  }

  // Depth-first join over the planned steps. Registers are written exactly
  // once per root-to-leaf path before any read (static binding discipline),
  // so backtracking needs no save/restore; complete matches snapshot the
  // register file.
  std::vector<PlanMatch> matches;
  std::vector<const Tuple*> chosen(rule.body.size(), nullptr);
  chosen[plan.trigger_atom] = &arrival;

  auto descend = [&](auto&& self, std::size_t depth) -> void {
    if (depth == plan.steps.size()) {
      matches.push_back(PlanMatch{regs, chosen});
      return;
    }
    const JoinStep& step = plan.steps[depth];
    const Table* table = find_table(node, step.table);
    if (table == nullptr) return;
    const auto try_candidate = [&](const Tuple& candidate,
                                   const std::vector<ColOp>& ops) {
      ++stats_.tuples_scanned;
      for (const ColOp& op : ops) {
        const Value& v = candidate.at(op.col);
        switch (op.kind) {
          case ColOp::Kind::kConst:
            if (!(op.constant == v)) return;
            break;
          case ColOp::Kind::kCheck:
            if (!(regs[op.slot] == v)) return;
            break;
          case ColOp::Kind::kBind:
            regs[op.slot] = v;
            break;
        }
      }
      ++stats_.tuples_matched;
      chosen[step.body_index] = &candidate;
      self(self, depth + 1);
    };
    if (step.probe_cols.empty()) {
      // Nothing bound: full scan (rare -- a cross join).
      table->for_each_live(
          [&](const Tuple& candidate) { try_candidate(candidate, step.ops); });
      return;
    }
    // Indexed probe: build the key from constants and bound registers, then
    // enumerate only the matching bucket. Residual ops cover the columns the
    // key does not pin (fresh variables, intra-atom repeats).
    std::vector<Value> probe_key;
    probe_key.reserve(plan.steps[depth].probe.size());
    for (const ColOp& op : step.probe) {
      probe_key.push_back(op.kind == ColOp::Kind::kConst ? op.constant
                                                         : regs[op.slot]);
    }
    ++stats_.index_probes;
    table->for_each_live_matching(step.probe_cols, probe_key,
                                  [&](const Tuple& candidate) {
                                    try_candidate(candidate, step.residual);
                                  });
  };
  descend(descend, 0);
  if (matches.empty()) return;
  finish_scratch_.clear();
  finish_planned_matches(plan, matches.data(), matches.size(), t,
                         finish_scratch_);
  for (Event& event : finish_scratch_) {
    push_event(std::move(event));
  }
  finish_scratch_.clear();
}

void Engine::finish_planned_matches(const RulePlan& plan, PlanMatch* matches,
                                    std::size_t count, LogicalTime t,
                                    std::vector<Event>& out) {
  const Rule& rule = program_.rules()[plan.rule_index];
  // Every match in the set descends from one trigger arrival, so the firing
  // node is shared.
  const NodeName& node = matches[0].chosen[plan.trigger_atom]->location();

  // Restore the reference evaluator's enumeration order. The reference DFS
  // (fire_rule) expands body atoms in body order and pops candidates from a
  // stack, which yields matches in reverse-lexicographic order of the
  // chosen rows' scan positions (= their key projections) per body atom.
  // Sorting the reordered join's matches by that same key, descending,
  // makes both evaluators fire identical event sequences. The sort is total
  // -- distinct matches differ in some chosen row, and rows of one table
  // differ in their key projection -- so the callers' enumeration order
  // (row DFS or batch BFS) never shows through.
  if (count > 1) {
    std::vector<std::vector<Value>> sort_keys(count);
    for (std::size_t m = 0; m < count; ++m) {
      std::vector<Value>& key = sort_keys[m];
      for (std::size_t i = 0; i < rule.body.size(); ++i) {
        if (i == plan.trigger_atom) continue;
        const Tuple& row = *matches[m].chosen[i];
        const ColumnSet& cols = plan.body_key_cols[i];
        if (cols.empty()) {
          key.insert(key.end(), row.values().begin(), row.values().end());
        } else {
          for (std::size_t col : cols) key.push_back(row.at(col));
        }
      }
    }
    std::vector<std::size_t> order(count);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&sort_keys](std::size_t a, std::size_t b) {
                return sort_keys[b] < sort_keys[a];  // descending
              });
    std::vector<PlanMatch> sorted;
    sorted.reserve(count);
    for (std::size_t m : order) sorted.push_back(std::move(matches[m]));
    std::move(sorted.begin(), sorted.end(), matches);
  }

  // Assignments and constraints (slot-compiled). `satisfying_scratch_` is a
  // member so the per-firing hot path does not allocate (finish runs once
  // per firing on the row path, once per delta run on the batch path).
  std::vector<std::size_t>& satisfying = satisfying_scratch_;
  satisfying.clear();
  for (std::size_t m = 0; m < count; ++m) {
    Regs& r = matches[m].regs;
    bool ok = true;
    try {
      for (const RulePlan::CompiledAssign& assign : plan.assigns) {
        r[assign.slot] = eval_expr(assign.expr, r);
      }
      for (const SlotExpr& constraint : plan.constraints) {
        if (!is_truthy(eval_expr(constraint, r))) {
          ok = false;
          break;
        }
      }
    } catch (const EvalError& e) {
      if (config_.strict_eval) throw;
      DP_WARN << "rule " << rule.name << ": constraint error: " << e.what();
      ok = false;
    }
    if (ok) satisfying.push_back(m);
  }
  if (satisfying.empty()) return;

  // argmax selection; ties break exactly like the reference evaluator's
  // Bindings-map comparison (register values in variable-name order).
  if (plan.argmax_slot) {
    const auto regs_less = [&plan](const Regs& a, const Regs& b) {
      for (std::size_t slot : plan.slots_by_name) {
        if (a[slot] < b[slot]) return true;
        if (b[slot] < a[slot]) return false;
      }
      return false;
    };
    std::size_t best = satisfying.front();
    for (std::size_t i = 1; i < satisfying.size(); ++i) {
      const Regs& current = matches[satisfying[i]].regs;
      const Regs& best_regs = matches[best].regs;
      const Value& current_value = current[*plan.argmax_slot];
      const Value& best_value = best_regs[*plan.argmax_slot];
      if (best_value < current_value ||
          (!(current_value < best_value) && regs_less(current, best_regs))) {
        best = satisfying[i];
      }
    }
    satisfying = {best};
  }

  // Fire: evaluate the head and schedule its arrival. The provenance body
  // is the chosen rows themselves, in original body order.
  for (std::size_t m : satisfying) {
    const PlanMatch& match = matches[m];
    std::vector<Value> head_values;
    head_values.reserve(plan.head_args.size());
    try {
      for (const SlotExpr& arg : plan.head_args) {
        head_values.push_back(eval_expr(arg, match.regs));
      }
    } catch (const EvalError& e) {
      if (config_.strict_eval) throw;
      DP_WARN << "rule " << rule.name << ": head error: " << e.what();
      continue;
    }
    if (!head_values.front().is_string()) {
      DP_WARN << "rule " << rule.name << ": head location is not a node name";
      continue;
    }
    Tuple head(rule.head.table, std::move(head_values));
    const NodeName& target = head.location();
    if (target != node) {
      ++stats_.remote_messages;
      ++remote_by_node_[target];
    }
    ++rule_firings_[plan.rule_index];

    Event event;
    event.time = t + delivery_delay(node, target);
    event.kind = rule.agg ? Event::Kind::kAggregate
                          : Event::Kind::kDerivedInsert;
    if (rule.agg) {
      event.agg_delta = rule.agg->kind == AggSpec::Kind::kCount
                            ? 1
                            : match.regs[*plan.agg_sum_slot].as_int();
    }
    event.rule = rule.name;
    event.trigger_index = plan.trigger_atom;
    event.body.reserve(rule.body.size());
    for (std::size_t i = 0; i < rule.body.size(); ++i) {
      event.body.push_back(*match.chosen[i]);
    }
    event.tuple = std::move(head);
    out.push_back(std::move(event));
  }
}

void Engine::process_batch(const Event* batch, std::size_t count) {
  const LogicalTime t = batch[0].time;
  assert(t >= now_);
  now_ = t;
  stats_.events_processed += count;
  ++batch_stats_.batches;
  batch_stats_.events += count;
  batch_size_hist_->observe(static_cast<double>(count));

  const bool notify = !observers_.empty();

  // One-entry declaration cache (same rationale as admission: batches repeat
  // a handful of tables, and the batch slice's storage stays put).
  const std::string* cached_table = nullptr;
  const TableDecl* cached_decl = nullptr;
  const auto decl_of = [&](const std::string& name) -> const TableDecl& {
    if (cached_table == nullptr || *cached_table != name) {
      cached_decl = &program_.table(name);
      cached_table = &name;
    }
    return *cached_decl;
  };

  // Phase A: apply every delta to its table and collect the tuples that need
  // interning -- then intern them through one store batch. Refs layout per
  // delta: base -> [tuple], derived -> [head, body...]. The relative intern
  // order matches the row path's; either way refs are hash-consed in the
  // process-global store, so a tuple's ref is whatever its first-ever intern
  // said, identically across variants.
  struct DeltaInfo {
    bool is_base = false;
    bool is_event = false;
    bool needs_refs = false;
    bool track_support = false;
    std::uint32_t ref_begin = 0;
  };
  std::vector<DeltaInfo> info(count);
  std::vector<const Tuple*> to_intern;
  std::vector<TupleRef> refs;
  for (std::size_t i = 0; i < count; ++i) {
    const Event& event = batch[i];
    const Tuple& tuple = event.tuple;
    DeltaInfo& d = info[i];
    d.is_base = event.kind == Event::Kind::kBaseInsert;
    d.is_event = decl_of(tuple.table()).is_event();
    if (!d.is_event) {
      [[maybe_unused]] const Table::InsertResult result =
          table_for(tuple).insert(tuple, t);
      assert(result.inserted && !result.displaced &&
             "batch formation admitted a duplicate or displacing insert");
    }
    if (d.is_base) {
      d.needs_refs = notify;
      if (d.needs_refs) {
        d.ref_begin = static_cast<std::uint32_t>(to_intern.size());
        to_intern.push_back(&tuple);
      }
      continue;
    }
    // Derivations triggered by an event tuple are one-shot (see
    // process_insert); only all-materialized bodies join support counting.
    bool event_triggered = false;
    for (const Tuple& b : event.body) {
      if (decl_of(b.table()).is_event()) {
        event_triggered = true;
        break;
      }
    }
    d.track_support = !d.is_event && !event_triggered;
    d.needs_refs = notify || d.track_support;
    if (d.needs_refs) {
      d.ref_begin = static_cast<std::uint32_t>(to_intern.size());
      to_intern.push_back(&tuple);
      for (const Tuple& b : event.body) to_intern.push_back(&b);
    }
  }
  global_store().intern_batch(to_intern.data(), to_intern.size(), refs);

  // Observer notification + support bookkeeping, in delta order -- exactly
  // the sequence the row engine would have produced.
  for (std::size_t i = 0; i < count; ++i) {
    const Event& event = batch[i];
    const DeltaInfo& d = info[i];
    if (d.is_base) {
      ++stats_.base_inserts;
      if (d.needs_refs) {
        const TupleRef ref = refs[d.ref_begin];
        for (RuntimeObserver* obs : observers_) {
          obs->on_base_insert(ref, t, d.is_event);
        }
      }
      continue;
    }
    ++stats_.derivations;
    if (!d.needs_refs) continue;
    const TupleRef head_ref = refs[d.ref_begin];
    const NameRef rule_ref = intern_name(event.rule);
    body_refs_scratch_.assign(
        refs.begin() + d.ref_begin + 1,
        refs.begin() + d.ref_begin + 1 +
            static_cast<std::ptrdiff_t>(event.body.size()));
    for (RuntimeObserver* obs : observers_) {
      obs->on_derive(head_ref, rule_ref, body_refs_scratch_,
                     event.trigger_index, t, d.is_event);
    }
    if (d.track_support) {
      const std::size_t record_id = records_.size();
      records_.push_back(DerivRecord{head_ref, rule_ref, true});
      records_by_head_[head_ref].push_back(record_id);
      for (const TupleRef b : body_refs_scratch_) {
        records_by_body_[b].push_back(record_id);
      }
      ++support_[head_ref];
    }
  }

  // Phase B: fire each (rule, trigger) once over all its deltas. Grouping by
  // trigger table (first-appearance order) only changes evaluation order;
  // the emissions are tagged and sorted below, so the scheduling order --
  // and with it every internal sequence number -- matches the row loop's.
  emission_scratch_.clear();
  struct Group {
    const std::string* table;
    const std::vector<RulePlan>* plans;
    std::vector<std::uint32_t> deltas;
  };
  std::vector<Group> groups;
  Group* last_group = nullptr;  // consecutive deltas share a table
  for (std::size_t i = 0; i < count; ++i) {
    const std::string& table = batch[i].tuple.table();
    if (last_group == nullptr || *last_group->table != table) {
      last_group = nullptr;
      for (Group& g : groups) {
        if (*g.table == table) {
          last_group = &g;
          break;
        }
      }
      if (last_group == nullptr) {
        const auto plan_it = plans_.find(table);
        if (plan_it == plans_.end()) {
          // No plans for this table: remember that with a null plans list so
          // a long untriggering run still hits the one-entry check above.
          groups.push_back(Group{&table, nullptr, {}});
        } else {
          groups.push_back(Group{&plan_it->first, &plan_it->second, {}});
        }
        last_group = &groups.back();
      }
    }
    if (last_group->plans != nullptr) {
      last_group->deltas.push_back(static_cast<std::uint32_t>(i));
    }
  }
  for (const Group& group : groups) {
    if (group.plans == nullptr) continue;
    for (std::size_t p = 0; p < group.plans->size(); ++p) {
      fire_rule_batch((*group.plans)[p], static_cast<std::uint32_t>(p), batch,
                      group.deltas, t, emission_scratch_);
    }
  }
  std::stable_sort(emission_scratch_.begin(), emission_scratch_.end(),
                   [](const BufferedEmission& a, const BufferedEmission& b) {
                     if (a.delta != b.delta) return a.delta < b.delta;
                     return a.plan_ordinal < b.plan_ordinal;
                   });
  for (BufferedEmission& emission : emission_scratch_) {
    push_event(std::move(emission.event));
  }
  emission_scratch_.clear();
}

void Engine::fire_rule_batch(const RulePlan& plan, std::uint32_t plan_ordinal,
                             const Event* batch,
                             const std::vector<std::uint32_t>& deltas,
                             LogicalTime t,
                             std::vector<BufferedEmission>& out) {
  const Rule& rule = program_.rules()[plan.rule_index];
  FiringScope firing_scope(config_.trace_rule_firings,
                           rule_span_labels_[plan.rule_index], fire_hist_,
                           fire_sketch_);

  regs_matrix_.reset(plan.slot_count);
  if (stage_rows_.size() < plan.steps.size() + 1) {
    stage_rows_.resize(plan.steps.size() + 1);
  }
  for (auto& stage : stage_rows_) stage.clear();

  // Stage 0: unify every delta's arrival against the trigger atom. Failing
  // rows simply never enter the frontier (no stats, as in the row path).
  std::vector<FrontierRow>& roots = stage_rows_[0];
  for (const std::uint32_t delta : deltas) {
    const Tuple& arrival = batch[delta].tuple;
    const std::size_t row = regs_matrix_.add_row();
    Value* regs = regs_matrix_.row(row);
    bool ok = true;
    for (const ColOp& op : plan.trigger_ops) {
      const Value& v = arrival.at(op.col);
      switch (op.kind) {
        case ColOp::Kind::kConst:
          ok = op.constant == v;
          break;
        case ColOp::Kind::kCheck:
          ok = regs[op.slot] == v;
          break;
        case ColOp::Kind::kBind:
          regs[op.slot] = v;
          break;
      }
      if (!ok) break;
    }
    if (!ok) continue;
    roots.push_back(
        FrontierRow{static_cast<std::uint32_t>(row), delta, 0, &arrival});
  }

  // Advance the whole frontier one join step at a time: gather probe keys
  // into dense scratch, hash them as a group, prefetch every slot cluster,
  // then look up and verify. Counter discipline matches the row DFS: one
  // index probe per frontier row, one scanned per candidate enumerated, one
  // matched per candidate surviving verification.
  bool prev_had_bind = true;  // stage-0 roots each own a fresh register row
  for (std::size_t s = 0; s < plan.steps.size() && !stage_rows_[s].empty();
       ++s) {
    const JoinStep& step = plan.steps[s];
    const std::vector<FrontierRow>& in = stage_rows_[s];
    std::vector<FrontierRow>& survivors = stage_rows_[s + 1];
    batch_stats_.rows_in += in.size();

    bool has_bind = false;
    for (const ColOp& op : step.residual) {
      if (op.kind == ColOp::Kind::kBind) {
        has_bind = true;
        break;
      }
    }
    // Whether every frontier row exclusively owns its register row: true
    // after a binding step (each survivor copied or took over a row), false
    // after a check-only step (survivors share the parent's row). Only an
    // exclusively owned row can hand its registers to its last candidate.
    const bool exclusive_rows = prev_had_bind;
    prev_had_bind = has_bind;
    // Verification reads the candidate (and, for cross-step checks, the
    // parent registers) without writing anything, so a failing candidate
    // costs no register-row copy.
    const auto verify = [&step](const Tuple& candidate, const Value* regs) {
      for (std::size_t i = 0; i < step.residual.size(); ++i) {
        const ColOp& op = step.residual[i];
        const Value& v = candidate.at(op.col);
        switch (op.kind) {
          case ColOp::Kind::kConst:
            if (!(op.constant == v)) return false;
            break;
          case ColOp::Kind::kCheck: {
            const int src = step.residual_src[i];
            const Value& expect =
                src >= 0 ? candidate.at(static_cast<std::size_t>(src))
                         : regs[op.slot];
            if (!(expect == v)) return false;
            break;
          }
          case ColOp::Kind::kBind:
            break;
        }
      }
      return true;
    };
    const auto materialize = [&](std::uint32_t parent_pos,
                                 const Tuple& candidate, bool take_row) {
      ++stats_.tuples_matched;
      const FrontierRow& parent = in[parent_pos];
      std::uint32_t regs_row = parent.regs_row;
      if (has_bind) {
        // Only a binding step pays for a register-row copy (check-only steps
        // share the parent's row -- registers are write-once per path), and
        // only while the parent row can still be read: the last candidate of
        // an exclusively owned row takes the row over and binds in place,
        // which makes fanout-1 joins copy nothing at all.
        if (!take_row) {
          regs_row = static_cast<std::uint32_t>(
              regs_matrix_.add_row_copy(parent.regs_row));
        }
        Value* regs = regs_matrix_.row(regs_row);
        for (const ColOp& op : step.residual) {
          if (op.kind == ColOp::Kind::kBind) {
            regs[op.slot] = candidate.at(op.col);
          }
        }
      }
      survivors.push_back(
          FrontierRow{regs_row, parent.delta, parent_pos, &candidate});
    };

    if (step.probe_cols.empty()) {
      // Nothing bound at probe time: per-row full scan (rare; a cross join).
      for (std::uint32_t r = 0; r < in.size(); ++r) {
        const Table* table =
            find_table(batch[in[r].delta].tuple.location(), step.table);
        if (table == nullptr) continue;
        table->for_each_live([&](const Tuple& candidate) {
          ++stats_.tuples_scanned;
          if (verify(candidate, regs_matrix_.row(in[r].regs_row))) {
            // Scan enumeration gives no last-candidate signal: always copy.
            materialize(r, candidate, /*take_row=*/false);
          }
        });
      }
      batch_stats_.rows_out += survivors.size();
      continue;
    }

    // Per-node table/index resolution, cached (deltas cluster on few nodes).
    struct NodeTables {
      const NodeName* node;
      const Table::JoinIndex* index;
    };
    std::vector<NodeTables> node_cache;
    const auto index_for_node =
        [&](const NodeName& node) -> const Table::JoinIndex* {
      for (const NodeTables& entry : node_cache) {
        if (*entry.node == node) return entry.index;
      }
      const Table* table = find_table(node, step.table);
      node_cache.push_back(NodeTables{
          &node,
          table != nullptr ? &table->index_for(step.probe_cols) : nullptr});
      return node_cache.back().index;
    };

    // Gather + hash.
    if (probe_key_scratch_.size() < in.size()) {
      probe_key_scratch_.resize(in.size());
    }
    probe_hash_scratch_.resize(in.size());
    std::vector<const Table::JoinIndex*> row_index(in.size(), nullptr);
    for (std::size_t r = 0; r < in.size(); ++r) {
      std::vector<Value>& key = probe_key_scratch_[r];
      key.clear();
      const Value* regs = regs_matrix_.row(in[r].regs_row);
      for (const ColOp& op : step.probe) {
        key.push_back(op.kind == ColOp::Kind::kConst ? op.constant
                                                     : regs[op.slot]);
      }
      probe_hash_scratch_[r] = Table::JoinIndex::hash_key(key);
      row_index[r] = index_for_node(batch[in[r].delta].tuple.location());
    }
    // Prefetch every slot cluster before the first lookup touches one, then
    // chase each (now cached) slot to its bucket and start that line too.
    for (std::size_t r = 0; r < in.size(); ++r) {
      if (row_index[r] != nullptr) {
        row_index[r]->prefetch(probe_hash_scratch_[r]);
      }
    }
    for (std::size_t r = 0; r < in.size(); ++r) {
      if (row_index[r] != nullptr) {
        row_index[r]->prefetch_bucket(probe_hash_scratch_[r]);
      }
    }
    // Lookup pass: resolve every row's candidate list before verifying any
    // of them. A hit dereferences a slot -> entry array -> tuple -> values
    // chain of dependent loads; resolving the whole frontier first and
    // prefetching each link lets those misses overlap across rows instead
    // of serializing within each row.
    entries_scratch_.resize(in.size());
    for (std::uint32_t r = 0; r < in.size(); ++r) {
      if (row_index[r] == nullptr) {
        entries_scratch_[r] = nullptr;  // node has no such table
        continue;
      }
      ++stats_.index_probes;
      const auto* entries =
          row_index[r]->lookup(probe_hash_scratch_[r], probe_key_scratch_[r]);
      entries_scratch_[r] = entries;
      if (entries == nullptr) {
        ++batch_stats_.probe_misses;
        continue;
      }
      ++batch_stats_.probe_hits;
      __builtin_prefetch(entries->data());
    }
    for (const std::vector<Table::JoinIndex::Entry>* entries :
         entries_scratch_) {
      if (entries == nullptr) continue;
      for (const Table::JoinIndex::Entry& entry : *entries) {
        __builtin_prefetch(entry.tuple);
      }
    }
    for (const std::vector<Table::JoinIndex::Entry>* entries :
         entries_scratch_) {
      if (entries == nullptr) continue;
      for (const Table::JoinIndex::Entry& entry : *entries) {
        __builtin_prefetch(entry.tuple->values().data());
      }
    }
    // Verify pass.
    for (std::uint32_t r = 0; r < in.size(); ++r) {
      const std::vector<Table::JoinIndex::Entry>* entries =
          entries_scratch_[r];
      if (entries == nullptr) continue;
      const std::size_t n_entries = entries->size();
      std::size_t e = 0;
      for (const Table::JoinIndex::Entry& entry : *entries) {
        ++e;
        ++stats_.tuples_scanned;
        // Re-fetch the register row each iteration: materialize() may grow
        // the matrix and move its storage.
        if (verify(*entry.tuple, regs_matrix_.row(in[r].regs_row))) {
          materialize(r, *entry.tuple,
                      /*take_row=*/exclusive_rows && e == n_entries);
        }
      }
    }
    batch_stats_.rows_out += survivors.size();
  }

  const std::vector<FrontierRow>& finals = stage_rows_[plan.steps.size()];
  if (finals.empty()) return;

  // Complete matches, bucketed by delta. Expansion preserves relative root
  // order stage over stage, so finals is non-decreasing in delta; one linear
  // sweep recovers the per-delta runs. Within a run the order is arbitrary
  // as far as correctness goes -- finish_planned_matches' order-restoring
  // sort is total -- but stats and sort input stay deterministic.
  std::size_t begin = 0;
  while (begin < finals.size()) {
    const std::uint32_t delta = finals[begin].delta;
    std::size_t end = begin;
    while (end < finals.size() && finals[end].delta == delta) ++end;
    const std::size_t match_count = end - begin;
    // Assign into the pool in place: steady-state firings reuse the regs
    // and chosen capacity left behind by earlier ones.
    if (match_pool_.size() < match_count) match_pool_.resize(match_count);
    for (std::size_t f = begin; f < end; ++f) {
      const FrontierRow& final_row = finals[f];
      PlanMatch& match = match_pool_[f - begin];
      const Value* regs = regs_matrix_.row(final_row.regs_row);
      match.regs.assign(regs, regs + plan.slot_count);
      match.chosen.assign(rule.body.size(), nullptr);
      // Walk the parent chain to recover the chosen row per step.
      const FrontierRow* cursor = &final_row;
      for (std::size_t stage = plan.steps.size(); stage > 0; --stage) {
        match.chosen[plan.steps[stage - 1].body_index] = cursor->chosen;
        cursor = &stage_rows_[stage - 1][cursor->parent];
      }
      match.chosen[plan.trigger_atom] = cursor->chosen;
    }
    finish_scratch_.clear();
    finish_planned_matches(plan, match_pool_.data(), match_count, t,
                           finish_scratch_);
    for (Event& event : finish_scratch_) {
      out.push_back(BufferedEmission{delta, plan_ordinal, std::move(event)});
    }
    finish_scratch_.clear();
    begin = end;
  }
}

void Engine::publish_metrics() {
  // Delta-publish: only the growth since the last publish reaches the
  // registry, so a shared registry (EngineConfig::metrics) aggregates
  // correctly across engines and repeated runs.
  const auto publish =
      [this](const char* name, std::uint64_t cur, std::uint64_t& seen) {
        if (cur > seen) {
          metrics_->counter(name).inc(cur - seen);
          seen = cur;
        }
      };
  publish("dp.runtime.base_inserts", stats_.base_inserts,
          published_.base_inserts);
  publish("dp.runtime.base_deletes", stats_.base_deletes,
          published_.base_deletes);
  publish("dp.runtime.derivations", stats_.derivations,
          published_.derivations);
  publish("dp.runtime.underivations", stats_.underivations,
          published_.underivations);
  publish("dp.runtime.remote_messages", stats_.remote_messages,
          published_.remote_messages);
  publish("dp.runtime.events_processed", stats_.events_processed,
          published_.events_processed);
  publish("dp.runtime.index_probes", stats_.index_probes,
          published_.index_probes);
  publish("dp.runtime.tuples_scanned", stats_.tuples_scanned,
          published_.tuples_scanned);
  publish("dp.runtime.tuples_matched", stats_.tuples_matched,
          published_.tuples_matched);
  for (std::size_t i = 0; i < rule_firings_.size(); ++i) {
    if (rule_firings_[i] > rule_firings_published_[i]) {
      metrics_->counter(rule_metric_names_[i])
          .inc(rule_firings_[i] - rule_firings_published_[i]);
      rule_firings_published_[i] = rule_firings_[i];
    }
  }
  for (const auto& [node, count] : remote_by_node_) {
    std::uint64_t& seen = remote_by_node_published_[node];
    if (count > seen) {
      metrics_
          ->counter("dp.runtime.remote_messages_to." +
                    obs::sanitize_metric_segment(node))
          .inc(count - seen);
      seen = count;
    }
  }
  metrics_->gauge("dp.runtime.queue_depth")
      .set(static_cast<std::int64_t>(queue_.size()));
  metrics_->gauge("dp.runtime.queue_depth_max")
      .set_max(static_cast<std::int64_t>(queue_depth_max_));
  publish("dp.engine.batch.batches", batch_stats_.batches,
          batch_published_.batches);
  publish("dp.engine.batch.events", batch_stats_.events,
          batch_published_.events);
  publish("dp.engine.batch.probe_hits", batch_stats_.probe_hits,
          batch_published_.probe_hits);
  publish("dp.engine.batch.probe_misses", batch_stats_.probe_misses,
          batch_published_.probe_misses);
  publish("dp.engine.batch.rows_in", batch_stats_.rows_in,
          batch_published_.rows_in);
  publish("dp.engine.batch.rows_out", batch_stats_.rows_out,
          batch_published_.rows_out);
  if (batch_stats_.rows_in != 0) {
    metrics_->gauge("dp.engine.batch.survival_ratio_ppm")
        .set(static_cast<std::int64_t>(batch_stats_.rows_out * 1'000'000 /
                                       batch_stats_.rows_in));
  }
}

void Engine::reset_stats() {
  stats_ = Stats{};
  published_ = Stats{};
  batch_stats_ = BatchStats{};
  batch_published_ = BatchStats{};
  std::fill(rule_firings_.begin(), rule_firings_.end(), 0);
  std::fill(rule_firings_published_.begin(), rule_firings_published_.end(), 0);
  remote_by_node_.clear();
  remote_by_node_published_.clear();
  queue_depth_max_ = queue_.size();
  // A private registry belongs to this engine alone, so wipe it too; a
  // shared one keeps its cumulative totals (the published_ baselines above
  // make sure this engine re-contributes from zero, not negatively).
  if (own_metrics_ != nullptr) own_metrics_->reset();
}

}  // namespace dp
