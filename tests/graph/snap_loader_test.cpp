#include "graph/snap_loader.h"

#include <gtest/gtest.h>

#include <sstream>

#include "graph/generator.h"
#include "random/xoshiro.h"
#include "tests/util/byte_mutator.h"
#include "util/error.h"

namespace scd::graph {
namespace {

TEST(SnapLoaderTest, ParsesCommentsAndEdges) {
  std::istringstream in(
      "# Undirected graph: example\n"
      "# Nodes: 4 Edges: 3\n"
      "1000\t2000\n"
      "2000\t3000\n"
      "1000\t4000\n");
  const SnapLoadResult result = load_snap_stream(in);
  EXPECT_EQ(result.graph.num_vertices(), 4u);
  EXPECT_EQ(result.graph.num_edges(), 3u);
  // First-seen order remap: 1000 -> 0, 2000 -> 1, 3000 -> 2, 4000 -> 3.
  EXPECT_EQ(result.original_ids[0], 1000u);
  EXPECT_EQ(result.original_ids[3], 4000u);
  EXPECT_TRUE(result.graph.has_edge(0, 1));
  EXPECT_TRUE(result.graph.has_edge(0, 3));
  EXPECT_FALSE(result.graph.has_edge(1, 3));
}

TEST(SnapLoaderTest, SkipsSelfLoopsAndDuplicates) {
  std::istringstream in(
      "5 5\n"
      "5 6\n"
      "6 5\n");
  const SnapLoadResult result = load_snap_stream(in);
  EXPECT_EQ(result.graph.num_edges(), 1u);
}

TEST(SnapLoaderTest, HandlesSpacesTabsBlankLinesAndCrLf) {
  std::istringstream in(
      "\n"
      "  1 2\r\n"
      "\t3\t4\r\n"
      "% percent comments too\n");
  const SnapLoadResult result = load_snap_stream(in);
  EXPECT_EQ(result.graph.num_edges(), 2u);
}

TEST(SnapLoaderTest, MalformedLineThrowsWithLineNumber) {
  std::istringstream in("1 2\nfoo bar\n");
  try {
    load_snap_stream(in);
    FAIL() << "expected DataError";
  } catch (const scd::DataError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(SnapLoaderTest, MissingEndpointThrows) {
  std::istringstream in("1\n");
  EXPECT_THROW(load_snap_stream(in), scd::DataError);
}

// A character glued to either endpoint is refused with the line number,
// not read as the integer prefix ("1 2x" used to load as edge (1, 2)).
TEST(SnapLoaderTest, JunkAfterAnEndpointThrowsWithLineNumber) {
  for (const char* bad :
       {"1 2x", "1 2.5", "1 0x10", "1x 2", "1 2,3", "1 2#c", "1,2"}) {
    std::istringstream in(std::string("3 4\n") + bad + "\n");
    try {
      load_snap_stream(in);
      FAIL() << "expected DataError for '" << bad << "'";
    } catch (const scd::DataError& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
          << e.what();
    }
  }
}

TEST(SnapLoaderTest, ExtraWhitespaceSeparatedColumnsAreIgnored) {
  std::istringstream in(
      "1 2 0.5\n"
      "2\t3\t17 extra words\n"
      "3 4 \r\n");
  const SnapLoadResult result = load_snap_stream(in);
  EXPECT_EQ(result.graph.num_vertices(), 4u);
  EXPECT_EQ(result.graph.num_edges(), 3u);
  EXPECT_TRUE(result.graph.has_edge(0, 1));
  EXPECT_TRUE(result.graph.has_edge(1, 2));
  EXPECT_TRUE(result.graph.has_edge(2, 3));
}

TEST(SnapLoaderTest, WriterOutputLoadsBackAsTheSameGraph) {
  rng::Xoshiro256 rng(3302);
  const GeneratedGraph g = generate_planted(
      rng, planted_config_for_degree(60, 3, 6.0, 0.2, 0.0));
  std::ostringstream out;
  write_snap_stream(out, g.graph, "planted: 60 vertices");
  std::istringstream in(out.str());
  const SnapLoadResult loaded = load_snap_stream(in);
  // Same edge count, and every loaded edge maps back to an edge.
  ASSERT_EQ(loaded.graph.num_edges(), g.graph.num_edges());
  for (Vertex d = 0; d < loaded.graph.num_vertices(); ++d) {
    for (Vertex e : loaded.graph.neighbors(d)) {
      ASSERT_TRUE(g.graph.has_edge(
          static_cast<Vertex>(loaded.original_ids[d]),
          static_cast<Vertex>(loaded.original_ids[e])));
    }
  }
}

// 4000 mutants of an edge list from the writer (fixed seed, 1-3 byte
// edits each) either load or throw DataError: no other exception, and
// no memory error in the asan pass.
TEST(SnapLoaderTest, MutatedEdgeListsLoadOrThrowDataError) {
  rng::Xoshiro256 rng(3303);
  const GeneratedGraph g = generate_planted(
      rng, planted_config_for_degree(40, 3, 4.0, 0.2, 0.0));
  std::ostringstream out;
  write_snap_stream(out, g.graph, "planted: 40 vertices");
  const std::string seed_text = out.str();
  int loaded = 0;
  int refused = 0;
  for (int i = 0; i < 4000; ++i) {
    std::istringstream in(testing::mutate_bytes(rng, seed_text));
    try {
      (void)load_snap_stream(in);
      ++loaded;
    } catch (const DataError&) {
      ++refused;
    } catch (const std::exception& e) {
      FAIL() << "mutant " << i << " threw " << e.what() << ":\n"
             << in.str();
    }
  }
  EXPECT_GT(loaded, 100);
  EXPECT_GT(refused, 100);
}

TEST(SnapLoaderTest, MissingFileThrows) {
  EXPECT_THROW(load_snap_file("/no/such/file.txt"), scd::DataError);
}

TEST(SnapLoaderTest, EmptyInputGivesEmptyGraph) {
  std::istringstream in("# nothing here\n");
  const SnapLoadResult result = load_snap_stream(in);
  EXPECT_EQ(result.graph.num_vertices(), 0u);
}

}  // namespace
}  // namespace scd::graph
