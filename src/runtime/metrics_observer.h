// Per-table activity metrics through the RuntimeObserver interface: counts
// base inserts/deletes and derive/underive events per table into a
// MetricsRegistry as `dp.runtime.table.<table>.<action>`.
//
// This complements the engine's built-in counters (which are per rule, not
// per table) and demonstrates the observer route for attaching metrics to an
// engine one does not own. replay() attaches one to every engine it builds,
// so CLI metrics dumps include the per-table breakdown.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "runtime/observer.h"
#include "store/store.h"
#include "util/flat_map.h"

namespace dp {

class MetricsObserver final : public RuntimeObserver {
 public:
  explicit MetricsObserver(obs::MetricsRegistry& registry)
      : registry_(registry) {}

  void on_base_insert(TupleRef tuple, LogicalTime /*t*/,
                      bool /*is_event*/) override {
    cell(tuple, kInserts).inc();
  }
  void on_base_delete(TupleRef tuple, LogicalTime /*t*/) override {
    cell(tuple, kDeletes).inc();
  }
  void on_derive(TupleRef head, NameRef /*rule*/,
                 const std::vector<TupleRef>& /*body*/,
                 std::size_t /*trigger_index*/, LogicalTime /*t*/,
                 bool /*is_event*/) override {
    cell(head, kDerives).inc();
  }
  void on_underive(TupleRef head, NameRef /*rule*/, TupleRef /*cause*/,
                   LogicalTime /*t*/) override {
    cell(head, kUnderives).inc();
  }

 private:
  enum Action { kInserts, kDeletes, kDerives, kUnderives };

  // Counter lookups take the registry mutex; cache the resolved pointers,
  // keyed by the interned table id in a flat map (no string compare, no
  // node chase), so steady-state cost is one probe + one relaxed add.
  obs::Counter& cell(TupleRef tuple, Action action) {
    static constexpr const char* kActionName[] = {"inserts", "deletes",
                                                  "derives", "underives"};
    const NameRef table = global_store().table_id(tuple);
    obs::Counter*& slot = cache_[table][action];
    if (slot == nullptr) {
      slot = &registry_.counter(
          "dp.runtime.table." +
          obs::sanitize_metric_segment(global_store().table_name(tuple)) +
          "." + kActionName[action]);
    }
    return *slot;
  }

  obs::MetricsRegistry& registry_;
  FlatMap32<std::array<obs::Counter*, 4>> cache_;
};

}  // namespace dp
