// Open-addressing hash map keyed by 32-bit ids.
//
// The replay's hot indexes are all keyed by dense 32-bit ids -- TupleRefs,
// VertexIds, folded 64-bit hashes -- and a node-based std::unordered_map
// pays a heap node per entry, a pointer chase per probe, and a free per
// entry at teardown for them. FlatMap32 keeps keys in one flat array and
// values in a parallel one (linear probing, Fibonacci slot spreading,
// backward-shift erase, so no tombstones), sized by the number of entries
// rather than by the id range.
//
// Differences from std::unordered_map callers must respect: growth (an
// insert of a new key) and erase move values, so a pointer or reference
// obtained from find()/operator[] is valid only until the next insert or
// erase; and the key 0xffffffff (kNoTupleRef, kNoVertex, ...) is reserved
// as the empty-slot marker. Iteration order is unspecified.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace dp {

/// Default slot hash: the key itself; FlatMap32 spreads it multiplicatively.
struct IdentityHash32 {
  std::uint64_t operator()(std::uint32_t key) const { return key; }
};

template <typename V, typename Hash = IdentityHash32>
class FlatMap32 {
 public:
  static constexpr std::uint32_t kEmptyKey = 0xffffffffu;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// Slot count (a power of two, or 0 before the first insert).
  [[nodiscard]] std::size_t capacity() const { return keys_.size(); }

  [[nodiscard]] V* find(std::uint32_t key) {
    const std::size_t slot = find_slot(key);
    return slot == kNotFound ? nullptr : &values_[slot];
  }
  [[nodiscard]] const V* find(std::uint32_t key) const {
    const std::size_t slot = find_slot(key);
    return slot == kNotFound ? nullptr : &values_[slot];
  }

  /// The value for `key`, default-constructed if absent.
  V& operator[](std::uint32_t key) { return *try_emplace(key).first; }

  /// The value for `key` and whether it was inserted (default-constructed).
  std::pair<V*, bool> try_emplace(std::uint32_t key) {
    assert(key != kEmptyKey);
    if ((size_ + 1) * 4 > keys_.size() * 3) grow();
    const std::size_t mask = keys_.size() - 1;
    for (std::size_t i = home(key);; i = (i + 1) & mask) {
      if (keys_[i] == key) return {&values_[i], false};
      if (keys_[i] == kEmptyKey) {
        keys_[i] = key;
        ++size_;
        return {&values_[i], true};
      }
    }
  }

  /// Removes `key`; returns false if it was absent. Later entries of the
  /// probe run shift back into the hole, so lookups never meet tombstones.
  bool erase(std::uint32_t key) {
    std::size_t hole = find_slot(key);
    if (hole == kNotFound) return false;
    const std::size_t mask = keys_.size() - 1;
    for (std::size_t j = (hole + 1) & mask; keys_[j] != kEmptyKey;
         j = (j + 1) & mask) {
      // The entry at j may fill the hole only if its home slot does not lie
      // cyclically within (hole, j]: otherwise a probe for it would stop at
      // the hole before reaching it.
      const std::size_t h = home(keys_[j]);
      const bool stays = hole < j ? (hole < h && h <= j) : (hole < h || h <= j);
      if (stays) continue;
      keys_[hole] = keys_[j];
      values_[hole] = std::move(values_[j]);
      hole = j;
    }
    keys_[hole] = kEmptyKey;
    values_[hole] = V{};
    --size_;
    return true;
  }

  /// Visits every (key, value) pair, in slot order.
  template <typename F>
  void for_each(F&& fn) const {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] != kEmptyKey) fn(keys_[i], values_[i]);
    }
  }

  /// Bytes of the slot arrays (not of anything the values own).
  [[nodiscard]] std::size_t allocated_bytes() const {
    return keys_.capacity() * sizeof(std::uint32_t) +
           values_.capacity() * sizeof(V);
  }

 private:
  static constexpr std::size_t kNotFound = ~std::size_t{0};

  [[nodiscard]] std::size_t home(std::uint32_t key) const {
    return static_cast<std::size_t>((hash_(key) * 0x9e3779b97f4a7c15ULL) >>
                                    shift_);
  }

  [[nodiscard]] std::size_t find_slot(std::uint32_t key) const {
    if (size_ == 0) return kNotFound;
    const std::size_t mask = keys_.size() - 1;
    for (std::size_t i = home(key);; i = (i + 1) & mask) {
      if (keys_[i] == key) return i;
      if (keys_[i] == kEmptyKey) return kNotFound;
    }
  }

  void grow() {
    const std::size_t fresh = keys_.empty() ? 8 : keys_.size() * 2;
    std::vector<std::uint32_t> old_keys(fresh, kEmptyKey);
    std::vector<V> old_values(fresh);
    old_keys.swap(keys_);
    old_values.swap(values_);
    shift_ = 64;
    for (std::size_t n = fresh; n > 1; n >>= 1) --shift_;
    const std::size_t mask = fresh - 1;
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] == kEmptyKey) continue;
      std::size_t j = home(old_keys[i]);
      while (keys_[j] != kEmptyKey) j = (j + 1) & mask;
      keys_[j] = old_keys[i];
      values_[j] = std::move(old_values[i]);
    }
  }

  std::vector<std::uint32_t> keys_;
  std::vector<V> values_;
  std::size_t size_ = 0;
  unsigned shift_ = 64;  // 64 - log2(capacity)
  [[no_unique_address]] Hash hash_{};
};

}  // namespace dp
