// Open-addressing hash map keyed by 64-bit integers.
//
// The hot lookup structures in the messaging layer (tag-match buckets, the
// posted-receive index, the collective-schedule cache) all key by small
// packed integers and sit on per-message paths where std::unordered_map's
// per-node allocation and pointer chasing dominate.  FlatMap64 stores
// {key, value} pairs inline in one power-of-two array with linear probing
// and backward-shift deletion (no tombstones), so steady-state insert /
// find / erase never touch the allocator.
//
// Contracts:
//  - Keys are arbitrary 64-bit values (the full key space is valid; a
//    separate occupancy byte marks empty slots).
//  - Pointers returned by find() and references from operator[] are valid
//    only until the next insert or erase (rehash / backward shift move
//    entries).
//  - Value type must be movable; it is moved on rehash and erase-shift.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "polaris/support/check.hpp"

namespace polaris::support {

template <typename V>
class FlatMap64 {
 public:
  FlatMap64() = default;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Slots in the backing array (allocation observability: unchanged
  /// capacity across a workload means the map allocated nothing).
  std::size_t bucket_capacity() const { return slots_.size(); }

  /// Pointer to the value for `key`, or nullptr.  Invalidated by the next
  /// insert or erase.
  V* find(std::uint64_t key) {
    // Testing the array rather than size_ lets the optimizer see that an
    // empty map never indexes its (unallocated) slots.
    if (size_ == 0 || slots_.empty()) return nullptr;
    std::size_t i = probe_start(key);
    while (used_[i]) {
      if (slots_[i].key == key) return &slots_[i].value;
      i = (i + 1) & mask_;
    }
    return nullptr;
  }
  const V* find(std::uint64_t key) const {
    return const_cast<FlatMap64*>(this)->find(key);
  }

  /// Find-or-default-insert.  The reference is invalidated by the next
  /// insert or erase.
  V& operator[](std::uint64_t key) {
    if (slots_.empty() || (size_ + 1) * 8 > slots_.size() * 7) {
      rehash(slots_.empty() ? kMinCapacity : slots_.size() * 2);
    }
    std::size_t i = probe_start(key);
    while (used_[i]) {
      if (slots_[i].key == key) return slots_[i].value;
      i = (i + 1) & mask_;
    }
    used_[i] = 1;
    slots_[i].key = key;
    slots_[i].value = V{};
    ++size_;
    return slots_[i].value;
  }

  /// Removes `key`; false if absent.  Backward-shift deletion keeps probe
  /// chains contiguous without tombstones.
  bool erase(std::uint64_t key) {
    if (size_ == 0) return false;
    std::size_t i = probe_start(key);
    while (used_[i]) {
      if (slots_[i].key == key) {
        shift_out(i);
        --size_;
        return true;
      }
      i = (i + 1) & mask_;
    }
    return false;
  }

  void clear() {
    std::fill(used_.begin(), used_.end(), std::uint8_t{0});
    size_ = 0;
  }

  /// Visits every (key, value&) pair in unspecified order.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (used_[i]) fn(slots_[i].key, slots_[i].value);
    }
  }

 private:
  static constexpr std::size_t kMinCapacity = 16;

  struct Slot {
    std::uint64_t key;
    V value;
  };

  /// splitmix64 finalizer: full-avalanche mix so packed sequential keys
  /// spread across the table.
  static std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  std::size_t probe_start(std::uint64_t key) const {
    return static_cast<std::size_t>(mix(key)) & mask_;
  }

  void rehash(std::size_t new_capacity) {
    std::vector<Slot> old_slots = std::move(slots_);
    std::vector<std::uint8_t> old_used = std::move(used_);
    slots_.clear();
    slots_.resize(new_capacity);
    used_.assign(new_capacity, 0);
    mask_ = new_capacity - 1;
    size_ = 0;
    for (std::size_t i = 0; i < old_slots.size(); ++i) {
      if (!old_used[i]) continue;
      std::size_t j = probe_start(old_slots[i].key);
      while (used_[j]) j = (j + 1) & mask_;
      used_[j] = 1;
      slots_[j].key = old_slots[i].key;
      slots_[j].value = std::move(old_slots[i].value);
      ++size_;
    }
  }

  /// Empties slot `i`, then walks the chain after it moving back any entry
  /// whose home position no longer reaches it through occupied slots.
  void shift_out(std::size_t i) {
    std::size_t j = i;
    for (;;) {
      j = (j + 1) & mask_;
      if (!used_[j]) break;
      const std::size_t home = probe_start(slots_[j].key);
      // Move j into the hole at i iff the hole lies between j's home and j
      // (circularly); otherwise j still probes correctly past the hole.
      if (((j - home) & mask_) >= ((j - i) & mask_)) {
        slots_[i].key = slots_[j].key;
        slots_[i].value = std::move(slots_[j].value);
        i = j;
      }
    }
    used_[i] = 0;
  }

  std::vector<Slot> slots_;
  std::vector<std::uint8_t> used_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace polaris::support
