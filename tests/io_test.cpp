#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "gen/generators.hpp"
#include "graph/builder.hpp"
#include "graph/io.hpp"
#include "graph/transforms.hpp"

namespace eclp::graph {
namespace {

void expect_same_graph(const Csr& a, const Csr& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.directed(), b.directed());
  EXPECT_EQ(a.weighted(), b.weighted());
  for (vidx v = 0; v < a.num_vertices(); ++v) {
    const auto an = a.neighbors(v), bn = b.neighbors(v);
    ASSERT_TRUE(std::equal(an.begin(), an.end(), bn.begin(), bn.end()))
        << "vertex " << v;
    if (a.weighted()) {
      const auto aw = a.weights_of(v), bw = b.weights_of(v);
      ASSERT_TRUE(std::equal(aw.begin(), aw.end(), bw.begin(), bw.end()));
    }
  }
}

TEST(BinaryIo, RoundtripUnweighted) {
  const auto g = gen::grid2d_torus(8);
  std::stringstream ss;
  write_binary(g, ss);
  expect_same_graph(g, read_binary(ss));
}

TEST(BinaryIo, RoundtripWeightedDirected) {
  BuildOptions opt;
  opt.directed = true;
  opt.weighted = true;
  const auto g = from_edges(4, {{0, 1, 9}, {1, 2, 8}, {3, 0, 7}}, opt);
  std::stringstream ss;
  write_binary(g, ss);
  expect_same_graph(g, read_binary(ss));
}

TEST(BinaryIo, BadMagicRejected) {
  std::stringstream ss;
  ss << "this is not a graph file at all, definitely not";
  EXPECT_THROW(read_binary(ss), CheckFailure);
}

TEST(BinaryIo, TruncatedStreamRejected) {
  const auto g = gen::grid2d_torus(8);
  std::stringstream ss;
  write_binary(g, ss);
  const std::string full = ss.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_THROW(read_binary(truncated), CheckFailure);
}

TEST(BinaryIo, FileRoundtrip) {
  const auto g = gen::uniform_random(100, 300, 5);
  const auto path =
      (std::filesystem::temp_directory_path() / "eclp_io_test.eclg").string();
  save_binary(g, path);
  expect_same_graph(g, load_binary(path));
  std::remove(path.c_str());
}

TEST(BinaryIo, LengthPrefixBeyondTheFileIsRejectedBeforeAllocating) {
  const auto g = gen::grid2d_torus(4);
  const auto path =
      (std::filesystem::temp_directory_path() / "eclp_io_length.eclg")
          .string();
  save_binary(g, path);
  // The row-offset array's u64 length prefix follows the 18-byte header
  // (magic, version, directed, weighted, vertex count).
  constexpr std::streamoff kPrefix = 8 + 4 + 1 + 1 + 4;
  const u64 file_bytes = std::filesystem::file_size(path);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(kPrefix);
    const u64 length = (u64{1} << 32) - 1;
    f.write(reinterpret_cast<const char*>(&length), sizeof length);
  }
  const u64 left = file_bytes - kPrefix - sizeof(u64);
  try {
    load_binary(path);
    ADD_FAILURE() << "a length prefix of 2^32 - 1 was accepted";
  } catch (const CheckFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("array length 4294967295 (x 4 bytes) exceeds the " +
                        std::to_string(left) + " bytes left"),
              std::string::npos)
        << what;
  }
  std::remove(path.c_str());
}

TEST(BinaryIo, MissingFileThrows) {
  EXPECT_THROW(load_binary("/nonexistent/path/graph.eclg"), CheckFailure);
}

TEST(MatrixMarket, RoundtripSymmetricPattern) {
  const auto g = gen::grid2d_torus(6);
  std::stringstream ss;
  write_matrix_market(g, ss);
  expect_same_graph(g, read_matrix_market(ss));
}

TEST(MatrixMarket, RoundtripGeneralInteger) {
  BuildOptions opt;
  opt.directed = true;
  opt.weighted = true;
  const auto g = from_edges(5, {{0, 1, 3}, {2, 4, 11}, {4, 0, 1}}, opt);
  std::stringstream ss;
  write_matrix_market(g, ss);
  expect_same_graph(g, read_matrix_market(ss));
}

TEST(MatrixMarket, ReadsHandWrittenFixture) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "% a comment line\n"
      "3 3 2\n"
      "2 1\n"
      "3 2\n");
  const auto g = read_matrix_market(ss);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 4u);  // two undirected edges
  EXPECT_EQ(g.degree(1), 2u);
}

TEST(MatrixMarket, RejectsNonSquare) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "3 4 1\n"
      "1 1\n");
  EXPECT_THROW(read_matrix_market(ss), CheckFailure);
}

TEST(MatrixMarket, RejectsBadBanner) {
  std::stringstream ss("%%NotMatrixMarket whatever\n");
  EXPECT_THROW(read_matrix_market(ss), CheckFailure);
}

TEST(MatrixMarket, RejectsOutOfRangeIndex) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 1\n"
      "3 1\n");
  EXPECT_THROW(read_matrix_market(ss), CheckFailure);
}

TEST(EdgeList, ReadsSnapStyleInput) {
  std::stringstream ss(
      "# SNAP-style comment\n"
      "0 1\n"
      "1 2\n"
      "\n"
      "2 0\n");
  const auto g = read_edge_list(ss);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 6u);
}

TEST(EdgeList, ReadsWeights) {
  std::stringstream ss("0 1 5\n1 2 7\n");
  const auto g = read_edge_list(ss);
  ASSERT_TRUE(g.weighted());
  EXPECT_EQ(g.weights_of(0)[0], 5u);
}

TEST(EdgeList, RoundtripUndirected) {
  const auto g = gen::uniform_random(60, 150, 3);
  std::stringstream ss;
  write_edge_list(g, ss);
  expect_same_graph(g, read_edge_list(ss, false, g.num_vertices()));
}

TEST(EdgeList, RoundtripDirectedWeighted) {
  BuildOptions opt;
  opt.directed = true;
  opt.weighted = true;
  const auto g = from_edges(6, {{0, 5, 2}, {5, 1, 3}, {2, 2, 4}, {4, 3, 9}},
                            opt);
  std::stringstream ss;
  write_edge_list(g, ss);
  expect_same_graph(g, read_edge_list(ss, true, g.num_vertices()));
}

TEST(EdgeList, MalformedLineThrows) {
  std::stringstream ss("0 not-a-number\n");
  EXPECT_THROW(read_edge_list(ss), CheckFailure);
}

TEST(EdgeList, ForcedVertexCountTooSmallThrows) {
  std::stringstream ss("0 9\n");
  EXPECT_THROW(read_edge_list(ss, false, 5), CheckFailure);
}

}  // namespace
}  // namespace eclp::graph
