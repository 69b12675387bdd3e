#pragma once
// Superstep checkpoints for the fault-tolerant distributed engine.
//
// A checkpoint is a byte-level snapshot of the sealed-shard state that
// persists across supersteps: every child-block table the DistPool has
// stored so far, plus the position (next block, transport superstep) the
// engine replays from. A shard image is a 12-byte header followed by one
// fixed 28-byte record per row, the row the transport moves
// (kWireRowBytes in comm.hpp), all words little-endian:
//
//   magic u32 | rows u64 | rows x (v0 v1 v2 v3 sig : u32, count : u64)
//
// Restore rebuilds each shard from its decoded rows as a summed sink,
// which arrives in the storage convention (kByV0, dense). Because
// serialization iterates the kByV0 row order, the decoded rows are
// already sorted with unique keys: the sum orders unique keys totally and
// adds nothing — so a restored table is bit-identical to the one
// checkpointed, the property behind the "replayed run equals fault-free
// run" guarantee.
//
// Integrity: an image whose magic word is wrong, or whose size is not
// exactly 12 + 28 x rows bytes, throws CheckpointCorrupt (a *fatal* code
// — a corrupt snapshot cannot be retried away).

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "ccbt/dist/comm.hpp"
#include "ccbt/table/proj_table.hpp"
#include "ccbt/util/error.hpp"

namespace ccbt {

inline constexpr std::uint32_t kCheckpointMagic = 0x54504B43u;  // "CKPT" LE
inline constexpr std::uint64_t kCheckpointHeaderBytes =
    sizeof(std::uint32_t) + sizeof(std::uint64_t);

/// Serialize one stored shard: the header, then its rows' records in
/// kByV0 order.
inline std::vector<std::uint8_t> checkpoint_encode_shard(
    const ProjTable& shard) {
  const std::uint64_t rows = shard.size();
  std::vector<std::uint8_t> out(kCheckpointHeaderBytes +
                                rows * kWireRowBytes);
  std::uint8_t* p = out.data();
  const auto put = [&p](const auto& word) {
    std::memcpy(p, &word, sizeof(word));
    p += sizeof(word);
  };
  put(kCheckpointMagic);
  put(rows);
  shard.for_each_entry([&](const TableEntry& e) {
    for (const VertexId v : e.key.v) put(v);
    put(e.key.sig);
    put(e.cnt);
  });
  return out;
}

/// Decode a shard image back into its row sequence (kByV0 order).
/// Throws CheckpointCorrupt on any framing violation.
inline std::vector<TableEntry> checkpoint_decode_shard(
    const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < kCheckpointHeaderBytes) {
    throw CheckpointCorrupt("shard image shorter than its header");
  }
  const std::uint8_t* p = bytes.data();
  const auto get = [&p](auto& word) {
    std::memcpy(&word, p, sizeof(word));
    p += sizeof(word);
  };
  std::uint32_t magic = 0;
  get(magic);
  if (magic != kCheckpointMagic) {
    throw CheckpointCorrupt("shard image has a bad magic word");
  }
  std::uint64_t rows = 0;
  get(rows);
  // A row count the bytes cannot hold is corrupt, and must not size the
  // reservation.
  const std::uint64_t body = bytes.size() - kCheckpointHeaderBytes;
  if (rows > body / kWireRowBytes) {
    throw CheckpointCorrupt("shard image claims " + std::to_string(rows) +
                            " rows, more than its " + std::to_string(body) +
                            " bytes hold");
  }
  if (body != rows * kWireRowBytes) {
    throw CheckpointCorrupt("shard image has trailing bytes");
  }

  std::vector<TableEntry> out(rows);
  for (TableEntry& e : out) {
    for (VertexId& v : e.key.v) get(v);
    get(e.key.sig);
    get(e.cnt);
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
