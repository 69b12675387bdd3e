#pragma once
// Rows with unique keys, the input ProjTable::from_flat takes: tests that
// draw rows at random sum equal keys here before adopting them.

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "ccbt/table/table_key.hpp"

namespace ccbt {

/// `rows` with each key once, in the order the keys first occur, each
/// carrying the sum of its counts (mod 2^64).
inline std::vector<TableEntry> sum_equal_keys(
    const std::vector<TableEntry>& rows) {
  std::map<std::array<std::uint32_t, 5>, std::size_t> at;
  std::vector<TableEntry> out;
  for (const TableEntry& e : rows) {
    const auto [it, fresh] = at.try_emplace(
        {e.key.v[0], e.key.v[1], e.key.v[2], e.key.v[3], e.key.sig},
        out.size());
    if (fresh) {
      out.push_back(e);
    } else {
      out[it->second].cnt += e.cnt;
    }
  }
  return out;
}

}  // namespace ccbt
