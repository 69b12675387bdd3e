#pragma once
// Insert-or-accumulate open-addressing hash map over TableKey.
//
// Section 7: "All the tables are maintained as distributed hash tables
// which use open addressing to resolve collisions." This is the
// shared-memory equivalent: a power-of-two slot array of indices into a
// dense entry vector. Only insertion and accumulation are needed during a
// join; afterwards the entries are sealed (sorted) for merge joins.
//
// Packed layout (à la Malík et al.): while every inserted key is packable
// (two boundary slots, signature < 256 — see pack_key), entries are held
// as 16-byte packed rows (PackedFlatRow, the flat rows' row), halving the
// probe bandwidth against the 32-byte wide row. The first unpackable key
// migrates the map to the wide layout transparently. take_entries()
// always yields wide rows, so sealing is unaffected.

#include <cstddef>
#include <utility>
#include <vector>

#include "ccbt/table/table_key.hpp"

namespace ccbt {

class AccumMap {
 public:
  explicit AccumMap(std::size_t expected = 16) { rehash_for(expected); }

  /// Add `cnt` to the entry for `key`, creating it if absent.
  void add(const TableKey& key, Count cnt) {
    if (size() + 1 > grow_at_) rehash_for(size() * 2 + 16);
    if (packed_mode_) {
      if (packable_key(key)) {
        add_packed(pack_key(key), cnt);
        return;
      }
      migrate_to_wide();
    }
    add_wide(key, cnt);
  }

  std::size_t size() const {
    return packed_mode_ ? packed_.size() : entries_.size();
  }
  bool empty() const { return size() == 0; }

  /// Whether the map currently holds packed 16-byte rows.
  bool packed() const { return packed_mode_; }

  /// Pre-size the slot array for `expected` total entries so a bulk merge
  /// (e.g. reducing per-thread maps) runs without intermediate rehashes.
  void reserve(std::size_t expected) {
    if (expected > size()) {
      if (packed_mode_) {
        packed_.reserve(expected);
      } else {
        entries_.reserve(expected);
      }
      rehash_for(expected);
    }
  }

  /// Visit every (key, count) pair; layout-independent.
  template <typename F>
  void for_each(F&& f) const {
    if (packed_mode_) {
      for (const PackedFlatRow& e : packed_) f(unpack_key(e.k), e.c);
      return;
    }
    for (const TableEntry& e : entries_) f(e.key, e.cnt);
  }

  /// Move the dense entries out (unpacking if needed); the map is left
  /// empty but keeps its slot capacity.
  std::vector<TableEntry> take_entries() {
    std::vector<TableEntry> out;
    if (packed_mode_) {
      out.reserve(packed_.size());
      for (const PackedFlatRow& e : packed_) {
        out.push_back({unpack_key(e.k), e.c});
      }
      packed_.clear();
    } else {
      out = std::move(entries_);
      entries_.clear();
    }
    slots_.assign(slots_.size(), kEmpty);
    return out;
  }

 private:
  static constexpr std::uint32_t kEmpty = 0xFFFFFFFFu;

  void add_wide(const TableKey& key, Count cnt) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t pos = hash_key(key) & mask;
    while (true) {
      const std::uint32_t idx = slots_[pos];
      if (idx == kEmpty) {
        slots_[pos] = static_cast<std::uint32_t>(entries_.size());
        entries_.push_back({key, cnt});
        return;
      }
      if (entries_[idx].key == key) {
        entries_[idx].cnt += cnt;
        return;
      }
      pos = (pos + 1) & mask;
    }
  }

  void add_packed(std::uint64_t pkey, Count cnt) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t pos = hash_packed_key(pkey) & mask;
    while (true) {
      const std::uint32_t idx = slots_[pos];
      if (idx == kEmpty) {
        slots_[pos] = static_cast<std::uint32_t>(packed_.size());
        packed_.push_back({pkey, cnt});
        return;
      }
      if (packed_[idx].k == pkey) {
        packed_[idx].c += cnt;
        return;
      }
      pos = (pos + 1) & mask;
    }
  }

  /// One-time fallback: unpack every row into the wide layout and rebuild
  /// the slot array under hash_key (the two hashes disagree, so the old
  /// probe table cannot be reused).
  void migrate_to_wide() {
    entries_.reserve(packed_.size() + 1);
    for (const PackedFlatRow& e : packed_) {
      entries_.push_back({unpack_key(e.k), e.c});
    }
    packed_.clear();
    packed_.shrink_to_fit();
    packed_mode_ = false;
    reindex();
  }

  void reindex() {
    const std::size_t mask = slots_.size() - 1;
    slots_.assign(slots_.size(), kEmpty);
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      std::size_t pos = hash_key(entries_[i].key) & mask;
      while (slots_[pos] != kEmpty) pos = (pos + 1) & mask;
      slots_[pos] = static_cast<std::uint32_t>(i);
    }
  }

  void rehash_for(std::size_t expected) {
    std::size_t cap = 32;
    while (cap * 3 / 5 < expected) cap <<= 1;  // keep load factor <= 0.6
    if (!slots_.empty() && cap <= slots_.size()) {
      grow_at_ = slots_.size() * 3 / 5;
      return;
    }
    slots_.assign(cap, kEmpty);
    grow_at_ = cap * 3 / 5;
    const std::size_t mask = cap - 1;
    const auto place = [&](std::uint64_t hash, std::size_t i) {
      std::size_t pos = hash & mask;
      while (slots_[pos] != kEmpty) pos = (pos + 1) & mask;
      slots_[pos] = static_cast<std::uint32_t>(i);
    };
    if (packed_mode_) {
      for (std::size_t i = 0; i < packed_.size(); ++i) {
        place(hash_packed_key(packed_[i].k), i);
      }
    } else {
      for (std::size_t i = 0; i < entries_.size(); ++i) {
        place(hash_key(entries_[i].key), i);
      }
    }
  }

  std::vector<std::uint32_t> slots_;
  std::vector<TableEntry> entries_;
  std::vector<PackedFlatRow> packed_;  // active only in packed mode
  std::size_t grow_at_ = 0;
  bool packed_mode_ = true;
};

}  // namespace ccbt
