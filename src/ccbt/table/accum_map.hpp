#pragma once
// Insert-or-accumulate open-addressing hash map over TableKey.
//
// Section 7: "All the tables are maintained as distributed hash tables
// which use open addressing to resolve collisions." This is the
// shared-memory equivalent: a power-of-two slot array of indices into a
// dense entry vector. Only insertion and accumulation are needed during a
// join; afterwards the entries are sealed (sorted) for merge joins.
//
// The map is parameterized on the batch width B (counts are per-lane
// vectors; see table_key.hpp). Two compact storage modes cut the
// bandwidth of the accumulation probes:
//
//   * B = 1 (à la Malík et al.): while every inserted key is packable
//     (two boundary slots, signature < 256 — see pack_key), entries are
//     held as 16-byte (uint64 key, count) rows, halving the probe
//     bandwidth against the 32-byte wide row. The first unpackable key
//     migrates the map to the wide layout transparently.
//
//   * B > 1: counts are held as narrow u32 lanes —
//     (key, u32[B]) rows, 56 instead of 88 bytes at B = 8 — with a u64
//     overflow escape: the first add that would push any lane past
//     2^32 - 1 migrates every row to the wide u64 layout. Keys hash the
//     same in both layouts, so migration rewrites the rows but keeps the
//     probe table.
//
// take_entries() always yields wide rows, so sealing is unaffected.

#include <array>
#include <cstddef>
#include <utility>
#include <vector>

#include "ccbt/table/table_key.hpp"
#include "ccbt/util/error.hpp"

namespace ccbt {

template <int B>
class AccumMapT {
 public:
  using Vec = typename LaneOps<B>::Vec;
  using Entry = TableEntryT<B>;

  /// `compact` requests the bandwidth-reduced layout: packed 16-byte rows
  /// at B = 1, narrow u32 lane rows at B > 1.
  explicit AccumMapT(std::size_t expected = 16, bool compact = false) {
    if constexpr (B == 1) {
      packed_mode_ = compact;
    } else {
      narrow_mode_ = compact;
    }
    rehash_for(expected);
  }

  /// Add `cnt` to the entry for `key`, creating it if absent.
  void add(const TableKey& key, const Vec& cnt) {
    if (size() + 1 > grow_at_) rehash_for(size() * 2 + 16);
    if constexpr (B == 1) {
      if (packed_mode_) {
        if (!packable_key(key)) {
          migrate_to_wide();
        } else {
          add_packed(pack_key(key), cnt);
          return;
        }
      }
    } else {
      if (narrow_mode_) {
        if (add_narrow(key, cnt)) return;
        migrate_narrow_to_wide();  // overflow escape: widen, then add
      }
    }
    add_wide(key, cnt);
  }

  std::size_t size() const {
    if constexpr (B == 1) {
      if (packed_mode_) return packed_.size();
    } else {
      if (narrow_mode_) return narrow_.size();
    }
    return entries_.size();
  }
  bool empty() const { return size() == 0; }

  /// Whether the map currently holds packed 16-byte rows (B = 1).
  bool packed() const { return packed_mode_; }

  /// Whether the map currently holds narrow u32 lane rows (B > 1).
  bool narrow() const { return narrow_mode_; }

  /// Pre-size the slot array for `expected` total entries so a bulk merge
  /// (e.g. reducing per-thread maps) runs without intermediate rehashes.
  void reserve(std::size_t expected) {
    if (expected > size()) {
      if constexpr (B == 1) {
        if (packed_mode_) {
          packed_.reserve(expected);
        } else {
          entries_.reserve(expected);
        }
      } else {
        if (narrow_mode_) {
          narrow_.reserve(expected);
        } else {
          entries_.reserve(expected);
        }
      }
      rehash_for(expected);
    }
  }

  /// Visit every (key, counts) pair; layout-independent.
  template <typename F>
  void for_each(F&& f) const {
    if constexpr (B == 1) {
      if (packed_mode_) {
        for (const PackedEntry& e : packed_) f(unpack_key(e.key), e.cnt);
        return;
      }
    } else {
      if (narrow_mode_) {
        for (const NarrowEntry& e : narrow_) f(e.key, widen(e.cnt));
        return;
      }
    }
    for (const Entry& e : entries_) f(e.key, e.cnt);
  }

  /// Move the dense entries out (unpacking / widening if needed); the map
  /// is left empty but keeps its slot capacity.
  std::vector<Entry> take_entries() {
    std::vector<Entry> out;
    if constexpr (B == 1) {
      if (packed_mode_) {
        out.reserve(packed_.size());
        for (const PackedEntry& e : packed_) {
          out.push_back({unpack_key(e.key), e.cnt});
        }
        packed_.clear();
        slots_.assign(slots_.size(), kEmpty);
        return out;
      }
    } else {
      if (narrow_mode_) {
        out.reserve(narrow_.size());
        for (const NarrowEntry& e : narrow_) {
          out.push_back({e.key, widen(e.cnt)});
        }
        narrow_.clear();
        slots_.assign(slots_.size(), kEmpty);
        return out;
      }
    }
    out = std::move(entries_);
    entries_.clear();
    slots_.assign(slots_.size(), kEmpty);
    return out;
  }

  /// Dense wide rows; only valid outside the compact modes (tests and
  /// callers that construct the map without `compact`). Engine code
  /// iterates through for_each instead.
  const std::vector<Entry>& entries() const {
    if (packed_mode_ || narrow_mode_) {
      throw Error("AccumMap::entries(): map is in a compact layout");
    }
    return entries_;
  }

 private:
  static constexpr std::uint32_t kEmpty = 0xFFFFFFFFu;
  static constexpr std::uint64_t kNarrowMax = 0xFFFFFFFFull;

  struct PackedEntry {
    std::uint64_t key;
    Count cnt;
  };

  struct NarrowEntry {
    TableKey key;
    std::array<std::uint32_t, B> cnt;
  };

  static Vec widen(const std::array<std::uint32_t, B>& c) {
    Vec v = LaneOps<B>::zero();
    for (int l = 0; l < B; ++l) LaneOps<B>::set_lane(v, l, c[l]);
    return v;
  }

  void add_wide(const TableKey& key, const Vec& cnt) {
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
        LaneOps<B>::add(entries_[idx].cnt, cnt);
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
      if (packed_[idx].key == pkey) {
        packed_[idx].cnt += cnt;
        return;
      }
      pos = (pos + 1) & mask;
    }
  }

  /// Accumulate into the narrow layout; false when any lane would
  /// overflow u32 (nothing is modified in that case — the caller widens
  /// the map and re-adds).
  bool add_narrow(const TableKey& key, const Vec& cnt) {
    for (int l = 0; l < B; ++l) {
      if (LaneOps<B>::lane(cnt, l) > kNarrowMax) return false;
    }
    const std::size_t mask = slots_.size() - 1;
    std::size_t pos = hash_key(key) & mask;
    while (true) {
      const std::uint32_t idx = slots_[pos];
      if (idx == kEmpty) {
        NarrowEntry e;
        e.key = key;
        for (int l = 0; l < B; ++l) {
          e.cnt[l] = static_cast<std::uint32_t>(LaneOps<B>::lane(cnt, l));
        }
        slots_[pos] = static_cast<std::uint32_t>(narrow_.size());
        narrow_.push_back(e);
        return true;
      }
      if (narrow_[idx].key == key) {
        NarrowEntry& e = narrow_[idx];
        std::array<std::uint64_t, B> sum;
        for (int l = 0; l < B; ++l) {
          sum[l] = std::uint64_t{e.cnt[l]} + LaneOps<B>::lane(cnt, l);
          if (sum[l] > kNarrowMax) return false;
        }
        for (int l = 0; l < B; ++l) {
          e.cnt[l] = static_cast<std::uint32_t>(sum[l]);
        }
        return true;
      }
      pos = (pos + 1) & mask;
    }
  }

  /// One-time fallback (B = 1): unpack every row into the wide layout and
  /// rebuild the slot array under hash_key (the two hashes disagree, so
  /// the old probe table cannot be reused).
  void migrate_to_wide() {
    entries_.reserve(packed_.size() + 1);
    for (const PackedEntry& e : packed_) {
      entries_.push_back({unpack_key(e.key), e.cnt});
    }
    packed_.clear();
    packed_.shrink_to_fit();
    packed_mode_ = false;
    reindex();
  }

  /// u64 overflow escape (B > 1): widen every narrow row in place. Rows
  /// keep their indices and keys hash identically in both layouts, so
  /// the probe table stays valid — no rehash.
  void migrate_narrow_to_wide() {
    entries_.reserve(narrow_.size() + 1);
    for (const NarrowEntry& e : narrow_) {
      entries_.push_back({e.key, widen(e.cnt)});
    }
    narrow_.clear();
    narrow_.shrink_to_fit();
    narrow_mode_ = false;
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
    if constexpr (B == 1) {
      if (packed_mode_) {
        for (std::size_t i = 0; i < packed_.size(); ++i) {
          std::size_t pos = hash_packed_key(packed_[i].key) & mask;
          while (slots_[pos] != kEmpty) pos = (pos + 1) & mask;
          slots_[pos] = static_cast<std::uint32_t>(i);
        }
        return;
      }
    } else {
      if (narrow_mode_) {
        for (std::size_t i = 0; i < narrow_.size(); ++i) {
          std::size_t pos = hash_key(narrow_[i].key) & mask;
          while (slots_[pos] != kEmpty) pos = (pos + 1) & mask;
          slots_[pos] = static_cast<std::uint32_t>(i);
        }
        return;
      }
    }
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      std::size_t pos = hash_key(entries_[i].key) & mask;
      while (slots_[pos] != kEmpty) pos = (pos + 1) & mask;
      slots_[pos] = static_cast<std::uint32_t>(i);
    }
  }

  std::vector<std::uint32_t> slots_;
  std::vector<Entry> entries_;
  std::vector<PackedEntry> packed_;  // active only in packed mode (B = 1)
  std::vector<NarrowEntry> narrow_;  // active only in narrow mode (B > 1)
  std::size_t grow_at_ = 0;
  bool packed_mode_ = false;
  bool narrow_mode_ = false;
};

using AccumMap = AccumMapT<1>;

}  // namespace ccbt
