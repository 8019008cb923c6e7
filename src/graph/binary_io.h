// Binary CSR graph cache.
//
// Parsing multi-gigabyte DIMACS text (the real USA graph is ~58M arcs)
// dominates bench startup, so graphs are saved to / loaded from a
// compact binary format once.
//
// Format v2 (current): a 64-byte alignment-padded header (magic,
// version, flags, |V|, |E|), then the CSR arrays verbatim — offsets
// ((V+1) x u64), adjacency (E x {u32 to, u32 weight}), and an optional
// coordinates block (V x f64 x, V x f64 y). Every section starts
// 8-byte-aligned, so a v2 file can be memory-mapped and used in place:
// load_binary_graph_mmap() maps the file MAP_PRIVATE and the graph
// pages in on first traversal instead of being parsed or copied. Files
// of any other version (the retired v1 edge-list format included) are
// rejected; the graph cache never meets them because its key includes
// kBinaryFormatVersion (see GraphRegistry::create_cached).
//
// All readers bound every on-disk count by the remaining input size
// before allocating, so a corrupt header fails fast instead of
// attempting a multi-exabyte allocation.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "graph/graph.h"

namespace smq {

/// Current on-disk format version; folded into the graph cache key so a
/// format bump invalidates stale cache entries instead of misreading
/// them.
inline constexpr std::uint32_t kBinaryFormatVersion = 2;

/// Write the current (v2, direct-CSR) format.
void write_binary_graph(std::ostream& out, const Graph& graph);
void save_binary_graph(const std::string& path, const Graph& graph);

/// Read the current format. Throws std::runtime_error on bad
/// magic/version/truncation/oversized counts and std::invalid_argument
/// on inconsistent CSR offsets.
Graph read_binary_graph(std::istream& in);
Graph load_binary_graph(const std::string& path);

/// Memory-map `path` (MAP_PRIVATE) and return a graph whose CSR arrays
/// alias the mapping — load is page-in, not parse. Falls back to the
/// ifstream reader when the platform has no mmap, the mapping fails, or
/// the file is shorter than a header. Structural corruption throws,
/// exactly like the stream reader.
Graph load_binary_graph_mmap(const std::string& path);

}  // namespace smq
