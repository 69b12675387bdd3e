#pragma once
// Superstep checkpoints for the fault-tolerant distributed engine.
//
// A checkpoint is a byte-level snapshot of the sealed-shard state that
// persists across supersteps: every child-block table the DistPool has
// stored so far, plus the position (next block, transport superstep) the
// engine replays from. Shard images use the row encoding of
// table/lane_payload.hpp — [key | mask | width | count], the count in the
// narrowest of u16/u32/u64 that holds it and left out when it is zero —
// so an image costs what its counts need.
//
// Restore rebuilds each table from its decoded row multiset and re-seals
// with the storage convention (kByV0, dense). Because serialization
// iterates the sealed row order, the decoded rows are already sorted with
// unique keys: the seal's counting partition is stable and each bucket's
// sort orders unique keys totally — so a restored table is bit-identical
// to the one checkpointed, the property behind the "replayed run equals
// fault-free run" guarantee.
//
// Integrity: every shard image carries a magic word and its row count;
// truncated, oversized, or misparsed images throw CheckpointCorrupt
// (a *fatal* code — a corrupt snapshot cannot be retried away).

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "ccbt/table/lane_payload.hpp"
#include "ccbt/table/proj_table.hpp"
#include "ccbt/util/error.hpp"

namespace ccbt {

inline constexpr std::uint32_t kCheckpointMagic = 0x54504B43u;  // "CKPT" LE

/// Serialize one sealed shard: [magic u32][rows u64][wire-encoded rows].
inline std::vector<std::uint8_t> checkpoint_encode_shard(
    const ProjTable& shard) {
  std::vector<std::uint8_t> out;
  out.reserve(sizeof(std::uint32_t) + sizeof(std::uint64_t) +
              shard.size() * (kWireKeyBytes + 2 + sizeof(Count)));
  out.resize(sizeof(std::uint32_t) + sizeof(std::uint64_t));
  std::memcpy(out.data(), &kCheckpointMagic, sizeof(std::uint32_t));
  const std::uint64_t rows = shard.size();
  std::memcpy(out.data() + sizeof(std::uint32_t), &rows,
              sizeof(std::uint64_t));
  shard.for_each_entry([&](const TableEntry& e) { wire_encode<1>(e, out); });
  return out;
}

/// Decode a shard image back into its row sequence (sealed order).
/// Throws CheckpointCorrupt on any framing violation.
inline std::vector<TableEntry> checkpoint_decode_shard(
    const std::vector<std::uint8_t>& bytes) {
  const std::uint8_t* p = bytes.data();
  const std::uint8_t* const end = p + bytes.size();
  if (bytes.size() < sizeof(std::uint32_t) + sizeof(std::uint64_t)) {
    throw CheckpointCorrupt("shard image shorter than its header");
  }
  std::uint32_t magic = 0;
  std::memcpy(&magic, p, sizeof(std::uint32_t));
  p += sizeof(std::uint32_t);
  if (magic != kCheckpointMagic) {
    throw CheckpointCorrupt("shard image has a bad magic word");
  }
  std::uint64_t rows = 0;
  std::memcpy(&rows, p, sizeof(std::uint64_t));
  p += sizeof(std::uint64_t);
  // Every row takes at least its key and mask/width frame: a count the
  // image cannot hold is corrupt, and must not size the reservation.
  if (rows > static_cast<std::uint64_t>(end - p) / (kWireKeyBytes + 2)) {
    throw CheckpointCorrupt("shard image claims " + std::to_string(rows) +
                            " rows, more than its bytes can hold");
  }

  std::vector<TableEntry> out;
  out.reserve(rows);
  for (std::uint64_t i = 0; i < rows; ++i) {
    // Frame check before handing the cursor to wire_decode (which trusts
    // its input): fixed prefix, then the mask/width-implied payload.
    if (end - p < static_cast<std::ptrdiff_t>(kWireKeyBytes + 2)) {
      throw CheckpointCorrupt("shard image truncated at row " +
                              std::to_string(i));
    }
    const LaneMask mask = p[kWireKeyBytes];
    const int width_code = p[kWireKeyBytes + 1];
    if (width_code > 2 || mask > 1) {
      throw CheckpointCorrupt("shard image row " + std::to_string(i) +
                              " has a bad mask/width frame");
    }
    const std::ptrdiff_t payload =
        std::popcount(mask) *
        payload_width_bytes(payload_width_from_code(width_code));
    if (end - p < static_cast<std::ptrdiff_t>(kWireKeyBytes + 2) + payload) {
      throw CheckpointCorrupt("shard image truncated at row " +
                              std::to_string(i));
    }
    TableEntry e;
    p = wire_decode<1>(p, e);
    out.push_back(e);
  }
  if (p != end) {
    throw CheckpointCorrupt("shard image has trailing bytes");
  }
  return out;
}

/// One stored table's snapshot plus the replay position.
struct CheckpointImage {
  struct TableImage {
    int block = 0;
    int arity = 0;
    int home_slot = 0;
    std::vector<std::vector<std::uint8_t>> shards;
  };

  std::vector<TableImage> tables;
  std::size_t next_block = 0;    // first block to (re-)execute on restore
  std::uint64_t supersteps = 0;  // transport position when taken

  std::uint64_t bytes() const {
    std::uint64_t sum = 0;
    for (const TableImage& t : tables) {
      for (const auto& s : t.shards) sum += s.size();
    }
    return sum;
  }
};

}  // namespace ccbt
