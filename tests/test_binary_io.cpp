// Tests for the binary CSR graph cache: v2 (direct-CSR, mmap-able)
// round-trips, rejection of the retired v1 format, and the corruption
// fixtures a trusted-on-disk format must reject — bad magic, bad version,
// truncated arrays, oversized counts (which must throw, not attempt a
// multi-exabyte allocation), and inconsistent CSR offsets.
#include "graph/binary_io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "graph/generators.h"

namespace smq {
namespace {

void expect_graphs_equal(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    ASSERT_EQ(na.size(), nb.size()) << "degree differs at " << v;
    for (std::size_t i = 0; i < na.size(); ++i) {
      EXPECT_EQ(na[i].to, nb[i].to);
      EXPECT_EQ(na[i].weight, nb[i].weight);
    }
  }
}

std::string serialized(const Graph& g) {
  std::stringstream buffer;
  write_binary_graph(buffer, g);
  return buffer.str();
}

/// Write `bytes` to a temp file and return its path.
std::string temp_file(const std::string& name, const std::string& bytes) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return path;
}

/// Patch 8 little-endian bytes at `offset`.
void patch_u64(std::string& bytes, std::size_t offset, std::uint64_t value) {
  ASSERT_LE(offset + 8, bytes.size());
  std::memcpy(bytes.data() + offset, &value, 8);
}

// v2 layout constants mirrored by the corruption fixtures below.
constexpr std::size_t kHeaderSize = 64;
constexpr std::size_t kVerticesOffset = 16;
constexpr std::size_t kEdgesOffset = 24;

TEST(BinaryIo, RoundTripPlainGraph) {
  const Graph g = make_erdos_renyi(200, 1500, 9);
  std::stringstream buffer;
  write_binary_graph(buffer, g);
  const Graph back = read_binary_graph(buffer);
  expect_graphs_equal(g, back);
  EXPECT_TRUE(back.coordinates().empty());
}

TEST(BinaryIo, RoundTripWithCoordinates) {
  const Graph g = make_road_like(400, {.seed = 10});
  std::stringstream buffer;
  write_binary_graph(buffer, g);
  const Graph back = read_binary_graph(buffer);
  expect_graphs_equal(g, back);
  ASSERT_FALSE(back.coordinates().empty());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_DOUBLE_EQ(back.coordinates().x[v], g.coordinates().x[v]);
    EXPECT_DOUBLE_EQ(back.coordinates().y[v], g.coordinates().y[v]);
  }
}

TEST(BinaryIo, RoundTripEmptyGraph) {
  const Graph g = Graph::from_edges(3, {});
  std::stringstream buffer;
  write_binary_graph(buffer, g);
  const Graph back = read_binary_graph(buffer);
  EXPECT_EQ(back.num_vertices(), 3u);
  EXPECT_EQ(back.num_edges(), 0u);
}

TEST(BinaryIo, V2HeaderIsAlignmentPadded) {
  // The offsets section must start at byte 64 so an mmap of the file
  // yields 8-aligned arrays; |V|=0,|E|=0, no coords => exactly the
  // header plus one u64 offset entry.
  const Graph g = Graph::from_edges(0, {});
  EXPECT_EQ(serialized(g).size(), kHeaderSize + 8);
}

/// A file stamped with the retired format version 1. `padded` keeps the
/// v2 payload after the stamp, so the file is long enough for the mmap
/// reader to map it; otherwise it is the complete v1 encoding of an
/// edgeless 3-vertex graph (magic, version, |V|, three empty edge
/// arrays, no coordinates), shorter than a v2 header.
std::string v1_stamped(bool padded) {
  const std::uint32_t version = 1;
  if (padded) {
    std::string bytes = serialized(make_erdos_renyi(20, 40, 2));
    std::memcpy(bytes.data() + 8, &version, 4);
    return bytes;
  }
  std::string bytes = serialized(Graph::from_edges(0, {})).substr(0, 8);  // magic
  const std::uint32_t vertices = 3;
  const std::uint64_t empty = 0;
  bytes.append(reinterpret_cast<const char*>(&version), 4);
  bytes.append(reinterpret_cast<const char*>(&vertices), 4);
  for (int array = 0; array < 3; ++array) {
    bytes.append(reinterpret_cast<const char*>(&empty), 8);
  }
  bytes.push_back('\0');
  return bytes;
}

TEST(BinaryIo, StreamAndMmapReadersRejectV1Header) {
  for (const bool padded : {false, true}) {
    SCOPED_TRACE(padded ? "v1 stamp on a v2-sized file" : "complete v1 file");
    const std::string bytes = v1_stamped(padded);
    std::stringstream in(bytes);
    EXPECT_THROW(read_binary_graph(in), std::runtime_error);
    const std::string path = temp_file("smq_v1.bin", bytes);
    EXPECT_THROW(load_binary_graph_mmap(path), std::runtime_error);
    std::remove(path.c_str());
  }
}

TEST(BinaryIo, RejectsBadMagic) {
  std::stringstream buffer;
  buffer << "not a graph file at all";
  EXPECT_THROW(read_binary_graph(buffer), std::runtime_error);
}

TEST(BinaryIo, RejectsBadVersion) {
  std::string bytes = serialized(make_erdos_renyi(20, 40, 2));
  const std::uint32_t version = 99;
  std::memcpy(bytes.data() + 8, &version, 4);
  std::stringstream in(bytes);
  EXPECT_THROW(read_binary_graph(in), std::runtime_error);
}

TEST(BinaryIo, RejectsTruncation) {
  const std::string full = serialized(make_erdos_renyi(50, 100, 11));
  // Every cut point must throw: inside the header, inside the offsets
  // array, inside the adjacency array.
  for (const std::size_t cut : {std::size_t{10}, kHeaderSize + 7,
                                full.size() / 2, full.size() - 1}) {
    std::stringstream truncated(full.substr(0, cut));
    EXPECT_THROW(read_binary_graph(truncated), std::runtime_error)
        << "cut at " << cut;
  }
}

TEST(BinaryIo, RejectsOversizedVertexCount) {
  // A corrupt header claiming 2^60 vertices must fail fast on the
  // remaining-bytes bound, not allocate an 8-exabyte offsets array.
  std::string bytes = serialized(make_erdos_renyi(20, 40, 2));
  patch_u64(bytes, kVerticesOffset, 1ull << 60);
  std::stringstream in(bytes);
  EXPECT_THROW(read_binary_graph(in), std::runtime_error);
}

TEST(BinaryIo, RejectsOversizedEdgeCount) {
  std::string bytes = serialized(make_erdos_renyi(20, 40, 2));
  patch_u64(bytes, kEdgesOffset, 1ull << 60);
  std::stringstream in(bytes);
  EXPECT_THROW(read_binary_graph(in), std::runtime_error);
}

TEST(BinaryIo, RejectsInconsistentCsrOffsets) {
  std::string bytes = serialized(make_erdos_renyi(30, 90, 3));
  // offsets[1] lives at header+8; pushing it past offsets[2] breaks
  // monotonicity, which from_csr must reject.
  patch_u64(bytes, kHeaderSize + 8, 1ull << 40);
  std::stringstream in(bytes);
  EXPECT_THROW(read_binary_graph(in), std::invalid_argument);
}

TEST(BinaryIo, RejectsOutOfRangeTarget) {
  std::string bytes = serialized(make_erdos_renyi(30, 90, 3));
  // First adjacency entry's `to` field, after the 31-entry offsets
  // array: patch to a vertex id far beyond |V|.
  const std::size_t adjacency_start = kHeaderSize + 31 * 8;
  const std::uint32_t bogus = 1u << 20;
  ASSERT_LE(adjacency_start + 4, bytes.size());
  std::memcpy(bytes.data() + adjacency_start, &bogus, 4);
  std::stringstream in(bytes);
  EXPECT_THROW(read_binary_graph(in), std::invalid_argument);
}

TEST(BinaryIo, FileRoundTrip) {
  const Graph g = make_rmat(8, {.seed = 12});
  const std::string path = ::testing::TempDir() + "/smq_graph_test.bin";
  save_binary_graph(path, g);
  const Graph back = load_binary_graph(path);
  expect_graphs_equal(g, back);
  std::remove(path.c_str());
}

TEST(BinaryIo, MissingFileThrows) {
  EXPECT_THROW(load_binary_graph("/nonexistent/nope.bin"),
               std::runtime_error);
  EXPECT_THROW(load_binary_graph_mmap("/nonexistent/nope.bin"),
               std::runtime_error);
}

// ---- mmap path -------------------------------------------------------------

TEST(BinaryIoMmap, EquivalentToStreamLoad) {
  const Graph g = make_road_like(500, {.seed = 21});
  const std::string path = temp_file("smq_mmap_eq.bin", serialized(g));

  const Graph streamed = load_binary_graph(path);
  const Graph mapped = load_binary_graph_mmap(path);
  expect_graphs_equal(streamed, mapped);
  expect_graphs_equal(g, mapped);

  ASSERT_FALSE(mapped.coordinates().empty());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_DOUBLE_EQ(mapped.coordinates().x[v], g.coordinates().x[v]);
    EXPECT_DOUBLE_EQ(mapped.coordinates().y[v], g.coordinates().y[v]);
  }
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_TRUE(mapped.is_mapped());
  EXPECT_FALSE(streamed.is_mapped());
#endif
  std::remove(path.c_str());
}

TEST(BinaryIoMmap, CopiesShareMappingAndOutliveOriginal) {
  const Graph g = make_erdos_renyi(100, 400, 5);
  const std::string path = temp_file("smq_mmap_copy.bin", serialized(g));
  Graph copy;
  {
    const Graph mapped = load_binary_graph_mmap(path);
    copy = mapped;  // shares the mapping's backing handle
  }
  // The original is gone; the copy's backing keeps the mapping alive.
  expect_graphs_equal(g, copy);
  std::remove(path.c_str());
}

TEST(BinaryIoMmap, RejectsCorruptFiles) {
  const std::string good = serialized(make_erdos_renyi(30, 90, 3));

  std::string bad_version = good;
  const std::uint32_t version = 99;
  std::memcpy(bad_version.data() + 8, &version, 4);

  std::string oversized = good;
  patch_u64(oversized, kEdgesOffset, 1ull << 60);

  std::string bad_offsets = good;
  patch_u64(bad_offsets, kHeaderSize + 8, 1ull << 40);

  const struct {
    const char* name;
    const std::string& bytes;
  } cases[] = {
      {"bad_magic", std::string("garbage-not-a-graph-file-012345678901234567"
                                "8901234567890123456789012345678901234567")},
      {"bad_version", bad_version},
      {"oversized_count", oversized},
      {"inconsistent_offsets", bad_offsets},
      {"truncated", good.substr(0, good.size() - 9)},
  };
  for (const auto& c : cases) {
    const std::string path =
        temp_file(std::string("smq_mmap_corrupt_") + c.name + ".bin", c.bytes);
    EXPECT_ANY_THROW(load_binary_graph_mmap(path)) << c.name;
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace smq
