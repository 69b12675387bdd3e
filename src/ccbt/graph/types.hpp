#pragma once
// Fundamental scalar types shared across the library.

#include <cstdint>

namespace ccbt {

/// Data-graph vertex identifier.
using VertexId = std::uint32_t;

/// Sentinel for "no vertex" (unused key slots in projection tables).
inline constexpr VertexId kNoVertex = 0xFFFFFFFFu;

/// Query-graph node identifier (queries have at most kMaxQueryNodes nodes).
using QNode = std::uint8_t;

/// Match counts. Colorful counts on million-edge graphs with 10-node
/// queries stay far below 2^64.
using Count = std::uint64_t;

/// Color signature: bit i set <=> color i used by the partial match.
using Signature = std::uint32_t;

/// Signature width limit; queries may have at most this many nodes.
inline constexpr int kMaxQueryNodes = 16;

/// Maximum number of colorings one plan execution can process (the batch
/// width B; an execution runs its colorings one after another).
inline constexpr int kMaxBatchLanes = 8;

}  // namespace ccbt
