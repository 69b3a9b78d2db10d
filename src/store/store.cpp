#include "store/store.h"

#include <cassert>
#include <mutex>

#include "util/hash.h"

namespace dp {

namespace {

/// Bucket key of a 64-bit hash: its folded low word, off the empty-slot
/// marker. Chains check full equality, so folding only merges chains.
std::uint32_t fold_hash(std::uint64_t hash) {
  const auto folded = static_cast<std::uint32_t>(hash ^ (hash >> 32));
  return folded == FlatMap32<ValueRef>::kEmptyKey ? 0 : folded;
}

/// Heap bytes behind a value beyond its inline footprint (string storage).
std::uint64_t value_heap_bytes(const Value& v) {
  if (!v.is_string()) return 0;
  const std::string& s = v.as_string();
  // Small strings live inline in libstdc++/libc++; only counted when the
  // buffer is actually heap-allocated.
  return s.capacity() + 1 > sizeof(std::string) ? s.capacity() + 1 : 0;
}

}  // namespace

// ---------------------------------------------------------------------------
// ValuePool

ValueRef ValuePool::find_locked(std::uint64_t hash, const Value& v) const {
  const ValueRef* head = buckets_.find(fold_hash(hash));
  if (head == nullptr) return kNoValueRef;
  for (ValueRef r = *head; r != kNoValueRef; r = next_[r]) {
    if (values_[r] == v) return r;
  }
  return kNoValueRef;
}

ValueRef ValuePool::intern_locked(std::uint64_t hash, const Value& v) {
  // Re-probe: another thread may have interned v since the shared probe.
  const ValueRef existing = find_locked(hash, v);
  if (existing != kNoValueRef) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return existing;
  }
  const auto r = static_cast<ValueRef>(values_.push_back(v));
  auto [head, inserted] = buckets_.try_emplace(fold_hash(hash));
  next_.push_back(inserted ? kNoValueRef : *head);  // chain old head
  *head = r;
  string_bytes_ += value_heap_bytes(values_[r]);
  misses_.fetch_add(1, std::memory_order_relaxed);
  return r;
}

ValueRef ValuePool::intern(const Value& v) {
  const std::uint64_t hash = hash_of(v);
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    const ValueRef r = find_locked(hash, v);
    if (r != kNoValueRef) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return r;
    }
  }
  std::unique_lock<std::shared_mutex> lock(mutex_);
  return intern_locked(hash, v);
}

ValueRef ValuePool::find(const Value& v) const {
  const std::uint64_t hash = hash_of(v);
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return find_locked(hash, v);
}

ValuePool::Stats ValuePool::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  std::shared_lock<std::shared_mutex> lock(mutex_);
  s.values = values_.size();
  s.bytes = values_.allocated_bytes() + next_.allocated_bytes() +
            string_bytes_ + buckets_.allocated_bytes();
  return s;
}

// ---------------------------------------------------------------------------
// NamePool

NameRef NamePool::find_locked(std::string_view name) const {
  auto it = index_.find(name);
  return it == index_.end() ? kNoName : it->second;
}

NameRef NamePool::intern_locked(std::string_view name) {
  const NameRef existing = find_locked(name);
  if (existing != kNoName) return existing;
  const auto r = static_cast<NameRef>(names_.push_back(std::string(name)));
  index_.emplace(std::string_view(names_[r]), r);
  return r;
}

NameRef NamePool::intern(std::string_view name) {
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    const NameRef r = find_locked(name);
    if (r != kNoName) return r;
  }
  std::unique_lock<std::shared_mutex> lock(mutex_);
  return intern_locked(name);
}

NameRef NamePool::find(std::string_view name) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return find_locked(name);
}

// ---------------------------------------------------------------------------
// TupleStore

namespace {
/// Scratch for a tuple's value refs and value hashes during intern/find;
/// thread-local so the hot path never allocates once warmed up.
thread_local std::vector<ValueRef> t_scratch_refs;
thread_local std::vector<std::uint64_t> t_scratch_hashes;
}  // namespace

TupleStore::~TupleStore() {
  const std::size_t n = canonical_.size();
  for (std::size_t i = 0; i < n; ++i) {
    delete canonical_[i].load(std::memory_order_relaxed);
  }
}

std::uint64_t TupleStore::hash_of(const Tuple& t, NameRef table,
                                  const ValueRef* refs, std::size_t n) const {
  if (tuple_hash_ != nullptr) return tuple_hash_(t);
  // Interned refs identify values, so hashing the refs is hashing the
  // tuple's content -- without touching a Value again.
  std::uint64_t h = hash_mix(0xcbf29ce484222325ULL, table);
  for (std::size_t i = 0; i < n; ++i) h = hash_mix(h, refs[i]);
  return h;
}

bool TupleStore::find_refs_locked(const Tuple& t,
                                  const std::uint64_t* value_hashes,
                                  NameRef& table,
                                  std::vector<ValueRef>& refs) const {
  table = names_.find_locked(t.table());
  bool complete = table != kNoName;
  for (std::size_t i = 0; i < t.arity(); ++i) {
    refs[i] = pool_.find_locked(value_hashes[i], t.at(i));
    complete = complete && refs[i] != kNoValueRef;
  }
  return complete;
}

TupleRef TupleStore::find_in_chain(std::uint64_t hash, NameRef table,
                                   const ValueRef* refs, std::size_t n) const {
  const TupleRef* head = buckets_.find(fold_hash(hash));
  if (head == nullptr) return kNoTupleRef;
  for (TupleRef r = *head; r != kNoTupleRef; r = headers_[r].next) {
    const Header& h = headers_[r];
    if (h.table != table || h.arity != n) continue;
    bool equal = true;
    for (std::size_t i = 0; i < n; ++i) {
      // Value refs are themselves interned, so ref equality is value
      // equality -- no value comparisons on the tuple probe path.
      if (refs_[h.begin + i] != refs[i]) {
        equal = false;
        break;
      }
    }
    if (equal) return r;
  }
  return kNoTupleRef;
}

TupleRef TupleStore::insert_locked(std::uint64_t hash, NameRef table,
                                   const ValueRef* refs, std::size_t n,
                                   [[maybe_unused]] const Tuple& t) {
  Header header;
  header.table = table;
  header.begin = static_cast<std::uint32_t>(refs_.size());
  header.arity = static_cast<std::uint16_t>(n);
  for (std::size_t i = 0; i < n; ++i) refs_.push_back(refs[i]);
  auto [head, inserted] = buckets_.try_emplace(fold_hash(hash));
  header.next = inserted ? kNoTupleRef : *head;
  const auto r = static_cast<TupleRef>(headers_.push_back(header));
  *head = r;
  canonical_.publish(canonical_.emplace_default() + 1);
  misses_.fetch_add(1, std::memory_order_relaxed);
#ifndef NDEBUG
  // The no-second-copy invariant: the record just written must round-trip to
  // a tuple structurally equal to the input, and re-interning must find it
  // (i.e. the store never ends up with two records for one tuple).
  assert(find_in_chain(hash, table, refs, n) == r &&
         "TupleStore: duplicate record for one tuple");
  assert(table_name(r) == t.table() && arity(r) == t.arity());
  for (std::size_t i = 0; i < t.arity(); ++i) {
    assert(value(r, i) == t.at(i) &&
           "TupleStore: interned record does not match input tuple");
  }
#endif
  return r;
}

TupleRef TupleStore::intern(const Tuple& t) {
  const std::size_t n = t.arity();
  std::vector<ValueRef>& refs = t_scratch_refs;
  std::vector<std::uint64_t>& value_hashes = t_scratch_hashes;
  refs.resize(n);
  value_hashes.resize(n);
  for (std::size_t i = 0; i < n; ++i) value_hashes[i] = pool_.hash_of(t.at(i));

  // Fast path, one shared lock: the name, every value and the record itself
  // are already interned (the overwhelmingly common case on a replay).
  NameRef table = kNoName;
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    if (find_refs_locked(t, value_hashes.data(), table, refs)) {
      const TupleRef r =
          find_in_chain(hash_of(t, table, refs.data(), n), table,
                        refs.data(), n);
      if (r != kNoTupleRef) {
        pool_.hits_.fetch_add(n, std::memory_order_relaxed);
        hits_.fetch_add(1, std::memory_order_relaxed);
        return r;
      }
    }
  }
  // Slow path: intern what is missing, then the record, under one unique
  // lock (re-probing everything another thread may have added meanwhile).
  std::unique_lock<std::shared_mutex> lock(mutex_);
  if (table == kNoName) table = names_.intern_locked(t.table());
  for (std::size_t i = 0; i < n; ++i) {
    if (refs[i] == kNoValueRef) {
      refs[i] = pool_.intern_locked(value_hashes[i], t.at(i));
    } else {
      pool_.hits_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  const std::uint64_t hash = hash_of(t, table, refs.data(), n);
  const TupleRef existing = find_in_chain(hash, table, refs.data(), n);
  if (existing != kNoTupleRef) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return existing;
  }
  return insert_locked(hash, table, refs.data(), n, t);
}

TupleRef TupleStore::find(const Tuple& t) const {
  const std::size_t n = t.arity();
  std::vector<ValueRef>& refs = t_scratch_refs;
  std::vector<std::uint64_t>& value_hashes = t_scratch_hashes;
  refs.resize(n);
  value_hashes.resize(n);
  for (std::size_t i = 0; i < n; ++i) value_hashes[i] = pool_.hash_of(t.at(i));
  NameRef table = kNoName;
  std::shared_lock<std::shared_mutex> lock(mutex_);
  // An unseen name or value means an unseen tuple.
  if (!find_refs_locked(t, value_hashes.data(), table, refs)) {
    return kNoTupleRef;
  }
  return find_in_chain(hash_of(t, table, refs.data(), n), table, refs.data(),
                       n);
}

const Tuple& TupleStore::resolve(TupleRef ref) const {
  const Tuple* cached = canonical_[ref].load(std::memory_order_acquire);
  if (cached != nullptr) return *cached;

  // First resolve of this record: materialize one canonical copy under the
  // store lock (double-checked so concurrent resolvers share it).
  std::unique_lock<std::shared_mutex> lock(mutex_);
  std::atomic<const Tuple*>& slot = canonical_.mutable_at(ref);
  cached = slot.load(std::memory_order_relaxed);
  if (cached != nullptr) return *cached;

  auto* fresh = new Tuple(copy_out(ref));
  slot.store(fresh, std::memory_order_release);
  resolved_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t bytes = sizeof(Tuple) + fresh->table().capacity() +
                        fresh->arity() * sizeof(Value);
  for (const Value& v : fresh->values()) bytes += value_heap_bytes(v);
  resolved_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  return *fresh;
}

Tuple TupleStore::copy_out(TupleRef ref) const {
  const Header& h = headers_[ref];
  std::vector<Value> values;
  values.reserve(h.arity);
  for (std::size_t i = 0; i < h.arity; ++i) {
    values.push_back(pool_.value(refs_[h.begin + i]));
  }
  return Tuple(names_.name(h.table), std::move(values));
}

bool TupleStore::less(TupleRef a, TupleRef b) const {
  if (a == b) return false;
  // Mirrors Tuple::operator<: table name, then values lexicographically.
  const std::string& ta = table_name(a);
  const std::string& tb = table_name(b);
  if (ta != tb) return ta < tb;
  const std::size_t na = arity(a);
  const std::size_t nb = arity(b);
  const std::size_t n = na < nb ? na : nb;
  for (std::size_t i = 0; i < n; ++i) {
    const ValueRef ra = value_ref(a, i);
    const ValueRef rb = value_ref(b, i);
    if (ra == rb) continue;  // interned: same ref <=> equal value
    const Value& va = pool_.value(ra);
    const Value& vb = pool_.value(rb);
    if (va < vb) return true;
    if (vb < va) return false;
  }
  return na < nb;
}

TupleStore::Stats TupleStore::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.resolved = resolved_.load(std::memory_order_relaxed);
  const ValuePool::Stats vs = pool_.stats();
  s.values = vs.values;
  std::shared_lock<std::shared_mutex> lock(mutex_);
  s.tuples = headers_.size();
  s.bytes = vs.bytes + headers_.allocated_bytes() + refs_.allocated_bytes() + canonical_.allocated_bytes() +
            resolved_bytes_.load(std::memory_order_relaxed) +
            buckets_.allocated_bytes();
  return s;
}

void TupleStore::publish_metrics(obs::MetricsRegistry& registry) const {
  const Stats s = stats();
  registry.gauge("dp.store.values").set(static_cast<std::int64_t>(s.values));
  registry.gauge("dp.store.tuples").set(static_cast<std::int64_t>(s.tuples));
  registry.gauge("dp.store.names")
      .set(static_cast<std::int64_t>(names_.size()));
  registry.gauge("dp.store.resolved")
      .set(static_cast<std::int64_t>(s.resolved));
  registry.gauge("dp.store.bytes").set(static_cast<std::int64_t>(s.bytes));
  registry.gauge("dp.store.hit_rate_ppm")
      .set(static_cast<std::int64_t>(s.hit_rate() * 1e6));
  // Counters are cumulative; publish the delta since the last call so
  // repeated publishes don't double-count.
  static_assert(sizeof(std::uint64_t) == 8);
  const std::uint64_t hits_prev =
      published_hits_.exchange(s.hits, std::memory_order_relaxed);
  const std::uint64_t misses_prev =
      published_misses_.exchange(s.misses, std::memory_order_relaxed);
  if (s.hits > hits_prev) {
    registry.counter("dp.store.intern_hits").inc(s.hits - hits_prev);
  }
  if (s.misses > misses_prev) {
    registry.counter("dp.store.intern_misses").inc(s.misses - misses_prev);
  }
}

TupleStore& global_store() {
  static TupleStore* store = new TupleStore();  // never destroyed: refs held
                                                // at exit must stay valid
  return *store;
}

}  // namespace dp
