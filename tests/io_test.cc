#include "graph/io.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "dynamic/delta_io.h"

namespace dgc {
namespace {

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("dgc_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  void WriteFile(const std::string& name, const std::string& content) {
    std::ofstream out(Path(name));
    out << content;
  }

  std::filesystem::path dir_;
};

TEST_F(IoTest, EdgeListRoundTrip) {
  auto g = Digraph::FromEdges(4, {{0, 1, 1.0}, {1, 2, 2.5}, {3, 0, 1.0}});
  ASSERT_TRUE(g.ok());
  ASSERT_TRUE(WriteEdgeList(*g, Path("g.txt")).ok());
  auto back = ReadEdgeList(Path("g.txt"), 4);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->NumEdges(), 3);
  EXPECT_DOUBLE_EQ(back->adjacency().At(1, 2), 2.5);
}

TEST_F(IoTest, EdgeListInfersSize) {
  WriteFile("infer.txt", "# comment\n0 5\n2 3\n");
  auto g = ReadEdgeList(Path("infer.txt"));
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumVertices(), 6);
}

TEST_F(IoTest, EdgeListRejectsOutOfRangeIds) {
  WriteFile("bad.txt", "0 9\n");
  EXPECT_FALSE(ReadEdgeList(Path("bad.txt"), 5).ok());
}

TEST_F(IoTest, EdgeListRejectsMalformedLine) {
  WriteFile("bad2.txt", "0\n");
  EXPECT_FALSE(ReadEdgeList(Path("bad2.txt")).ok());
}

TEST_F(IoTest, EdgeListMissingFile) {
  auto result = ReadEdgeList(Path("missing.txt"));
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError());
}

TEST_F(IoTest, MetisRoundTrip) {
  auto g = UGraph::FromEdges(4, {{0, 1, 2.0}, {1, 2, 3.0}, {2, 3, 1.0}});
  ASSERT_TRUE(g.ok());
  ASSERT_TRUE(WriteMetisGraph(*g, Path("g.metis")).ok());
  auto back = ReadMetisGraph(Path("g.metis"));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->NumVertices(), 4);
  EXPECT_EQ(back->NumEdges(), 3);
  EXPECT_DOUBLE_EQ(back->adjacency().At(1, 2), 3.0);
}

TEST_F(IoTest, MetisWeightScaleRoundsFractionalWeights) {
  auto g = UGraph::FromEdges(2, {{0, 1, 0.25}});
  ASSERT_TRUE(g.ok());
  ASSERT_TRUE(WriteMetisGraph(*g, Path("f.metis"), 100.0).ok());
  auto back = ReadMetisGraph(Path("f.metis"));
  ASSERT_TRUE(back.ok());
  EXPECT_DOUBLE_EQ(back->adjacency().At(0, 1), 25.0);
}

TEST_F(IoTest, MetisRejectsBadNeighborIds) {
  WriteFile("bad.metis", "2 1 001\n5 1\n\n");
  EXPECT_FALSE(ReadMetisGraph(Path("bad.metis")).ok());
}

TEST_F(IoTest, GroundTruthRoundTrip) {
  GroundTruth truth;
  truth.categories = {{0, 2}, {1}, {0, 1, 3}};
  ASSERT_TRUE(WriteGroundTruth(truth, Path("gt.txt")).ok());
  auto back = ReadGroundTruth(Path("gt.txt"), 4);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->NumCategories(), 3);
  EXPECT_EQ(back->categories[0], (std::vector<Index>{0, 2}));
  EXPECT_EQ(back->categories[2], (std::vector<Index>{0, 1, 3}));
}

TEST_F(IoTest, GroundTruthRejectsOutOfRangeVertex) {
  WriteFile("gt_bad.txt", "9 0\n");
  EXPECT_FALSE(ReadGroundTruth(Path("gt_bad.txt"), 5).ok());
}

// Regression: ids at or beyond a declared num_vertices must be rejected
// during the scan with a file:line:column diagnostic — never clamped or used
// to index out of bounds.
TEST_F(IoTest, EdgeListRejectsIdAtDeclaredBound) {
  WriteFile("bound.txt", "0 1\n1 5\n");
  auto result = ReadEdgeList(Path("bound.txt"), 5);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsOutOfRange());
  EXPECT_NE(result.status().message().find("bound.txt:2:3"),
            std::string::npos)
      << result.status().message();
  EXPECT_NE(result.status().message().find("declared num_vertices"),
            std::string::npos);
}

// Regression: an id that overflows int64 (or Index) must be a clean error,
// not an implementation-defined narrowing cast.
TEST_F(IoTest, EdgeListRejectsOverflowingIds) {
  WriteFile("huge.txt", "0 99999999999999999999999999\n");
  auto result = ReadEdgeList(Path("huge.txt"));
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsOutOfRange());

  WriteFile("huge32.txt", "0 4294967296\n");  // > Index (int32) max
  auto r32 = ReadEdgeList(Path("huge32.txt"));
  ASSERT_FALSE(r32.ok());
  EXPECT_TRUE(r32.status().IsOutOfRange());
}

TEST_F(IoTest, EdgeListRejectsBadWeights) {
  WriteFile("nan.txt", "0 1 nan\n");
  EXPECT_FALSE(ReadEdgeList(Path("nan.txt")).ok());
  WriteFile("inf.txt", "0 1 inf\n");
  EXPECT_FALSE(ReadEdgeList(Path("inf.txt")).ok());
  WriteFile("neg.txt", "0 1 -2.5\n");
  EXPECT_FALSE(ReadEdgeList(Path("neg.txt")).ok());
  WriteFile("junk.txt", "0 1 1.5x\n");
  EXPECT_FALSE(ReadEdgeList(Path("junk.txt")).ok());
  WriteFile("trail.txt", "0 1 1.5 7\n");
  EXPECT_FALSE(ReadEdgeList(Path("trail.txt")).ok());
}

TEST_F(IoTest, EdgeListHonorsCrlfAndComments) {
  WriteFile("crlf.txt", "# header\r\n0 1 2.0\r\n% also comment\r\n1 2\r\n");
  auto g = ReadEdgeList(Path("crlf.txt"));
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumVertices(), 3);
  EXPECT_EQ(g->NumEdges(), 2);
  EXPECT_DOUBLE_EQ(g->adjacency().At(0, 1), 2.0);
}

TEST_F(IoTest, EdgeListEnforcesIoLimits) {
  WriteFile("lim.txt", "0 1\n1 2\n2 3\n");
  IoLimits limits;
  limits.max_edges = 2;
  auto capped = ReadEdgeList(Path("lim.txt"), 0, limits);
  ASSERT_FALSE(capped.ok());
  EXPECT_TRUE(capped.status().IsOutOfRange());

  IoLimits vlimits;
  vlimits.max_vertices = 3;
  auto vcapped = ReadEdgeList(Path("lim.txt"), 0, vlimits);
  ASSERT_FALSE(vcapped.ok());
  EXPECT_TRUE(vcapped.status().IsOutOfRange());

  IoLimits line_limits;
  line_limits.max_line_bytes = 2;
  auto lcapped = ReadEdgeList(Path("lim.txt"), 0, line_limits);
  EXPECT_FALSE(lcapped.ok());
}

// Regression: a weight that rounds to zero under the chosen scale must be
// reported, not silently clamped to 1 (which would misrepresent the graph).
TEST_F(IoTest, MetisWriteRejectsWeightRoundingToZero) {
  auto g = UGraph::FromEdges(2, {{0, 1, 0.25}});
  ASSERT_TRUE(g.ok());
  auto status = WriteMetisGraph(*g, Path("zero.metis"), 1.0);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("weight_scale"), std::string::npos);
  EXPECT_NE(status.message().find("(0,1)"), std::string::npos);
}

TEST_F(IoTest, MetisRejectsHeaderBodyMismatch) {
  // Header claims 2 edges but the body only lists one (both endpoints).
  WriteFile("short.metis", "3 2 001\n2 5\n1 5\n\n");
  auto result = ReadMetisGraph(Path("short.metis"));
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("endpoint"), std::string::npos);

  // Truncated body: fewer adjacency lines than the header's n.
  WriteFile("trunc.metis", "3 1 001\n2 5\n");
  EXPECT_FALSE(ReadMetisGraph(Path("trunc.metis")).ok());
}

TEST_F(IoTest, MetisRejectsUnsupportedFmt) {
  WriteFile("vw.metis", "2 1 011\n2 1 1\n1 1 1\n");
  auto result = ReadMetisGraph(Path("vw.metis"));
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("not supported"),
            std::string::npos);
}

TEST_F(IoTest, MetisRejectsSelfLoopInBody) {
  WriteFile("self.metis", "2 1 \n1\n1\n");
  EXPECT_FALSE(ReadMetisGraph(Path("self.metis")).ok());
}

// Regression: a huge category id used to drive an unbounded resize (OOM on
// hostile input); it must now be rejected against IoLimits.max_categories.
TEST_F(IoTest, GroundTruthBoundsCategoryIds) {
  WriteFile("gt_huge.txt", "0 99999999999999999999\n");
  auto overflow = ReadGroundTruth(Path("gt_huge.txt"), 5);
  ASSERT_FALSE(overflow.ok());
  EXPECT_TRUE(overflow.status().IsOutOfRange());

  WriteFile("gt_big.txt", "0 1000000\n");
  IoLimits limits;
  limits.max_categories = 100;
  auto capped = ReadGroundTruth(Path("gt_big.txt"), 5, limits);
  ASSERT_FALSE(capped.ok());
  EXPECT_TRUE(capped.status().IsOutOfRange());
  EXPECT_NE(capped.status().message().find("max_categories"),
            std::string::npos);
}

TEST_F(IoTest, ClusteringRejectsGarbageLabels) {
  WriteFile("c_bad.txt", "0\nxyz\n");
  auto result = ReadClustering(Path("c_bad.txt"));
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("c_bad.txt:2:1"),
            std::string::npos)
      << result.status().message();

  WriteFile("c_neg.txt", "0\n-5\n");
  EXPECT_FALSE(ReadClustering(Path("c_neg.txt")).ok());

  WriteFile("c_trail.txt", "0 junk\n");
  EXPECT_FALSE(ReadClustering(Path("c_trail.txt")).ok());
}

// One malformed line and the exact Status::ToString() it must produce. `{}`
// in `expected` stands for the file path, so the path:line:column anchor is
// pinned too.
struct DiagnosticCase {
  const char* line;
  const char* expected;
};

std::string Expand(const std::string& pattern, const std::string& path) {
  std::string out = pattern;
  const size_t at = out.find("{}");
  if (at != std::string::npos) out.replace(at, 2, path);
  return out;
}

// Every diagnostic of the delta-stream reader, byte for byte. Each case is
// the second line of its file (after a comment) so the line count is pinned.
TEST_F(IoTest, DeltaReaderDiagnosticsArePinned) {
  const std::vector<DiagnosticCase> cases = {
      {"* 1 2",
       "IOError: {}:2:1: unknown delta op '*' (expected '+', '-', or "
       "'---')"},
      {"+", "IOError: {}:2:2: missing source vertex"},
      {"- 1", "IOError: {}:2:4: missing destination vertex"},
      {"+ -1 2", "IOError: {}:2:3: negative source vertex -1"},
      {"- 3 -7", "IOError: {}:2:5: negative destination vertex -7"},
      {"+ 10 2", "OutOfRange: {}:2:3: source vertex 10 outside [0, 10)"},
      {"+ 9 10", "OutOfRange: {}:2:5: destination vertex 10 outside [0, 10)"},
      {"+ 1 99999999999999999999",
       "OutOfRange: {}:2:5: destination vertex '99999999999999999999' "
       "overflows a 64-bit integer"},
      {"+ x 2", "IOError: {}:2:3: malformed source vertex 'x'"},
      {"+ 1 2 inf",
       "IOError: {}:2:7: weight must be finite and positive, got 'inf'"},
      {"+ 1 2 0",
       "IOError: {}:2:7: weight must be finite and positive, got '0'"},
      {"+ 1 2 -1",
       "IOError: {}:2:7: weight must be finite and positive, got '-1'"},
      {"+ 1 2 1e999",
       "OutOfRange: {}:2:7: weight '1e999' is out of double range"},
      {"+ 1 2 1.5x", "IOError: {}:2:7: malformed weight '1.5x'"},
      {"+ 1 2 3 x", "IOError: {}:2:9: trailing junk after insert"},
      {"- 1 2 x", "IOError: {}:2:7: trailing junk after delete"},
      {"--- x", "IOError: {}:2:5: trailing junk after batch separator"},
      {"+ 1 2 0.5 # comment",
       "IOError: {}:2:11: trailing junk after insert"},
      {"+ 1 2 1.0 # far too long for the limit",
       "OutOfRange: {}:2:33: line exceeds IoLimits.max_line_bytes = 32"},
  };
  IoLimits limits;
  limits.max_line_bytes = 32;
  for (size_t i = 0; i < cases.size(); ++i) {
    const std::string name = "delta_" + std::to_string(i) + ".txt";
    WriteFile(name, std::string("# header\n") + cases[i].line + "\n");
    auto result = ReadDeltaBatches(Path(name), 10, limits);
    ASSERT_FALSE(result.ok()) << cases[i].line;
    EXPECT_EQ(result.status().ToString(),
              Expand(cases[i].expected, Path(name)))
        << cases[i].line;
  }
}

// The edge-list reader's diagnostics for the same classes of bad line;
// "OK" marks a line the edge-list format accepts.
TEST_F(IoTest, EdgeListReaderDiagnosticsArePinned) {
  const std::vector<DiagnosticCase> cases = {
      {"1",
       "IOError: {}:2:2: expected 'src dst [weight]': missing destination "
       "vertex id"},
      {"x 2", "IOError: {}:2:1: malformed source vertex id 'x'"},
      {"-1 2", "OutOfRange: {}:2:1: negative vertex id -1"},
      {"3 -7", "OutOfRange: {}:2:3: negative vertex id -7"},
      {"10 2",
       "OutOfRange: {}:2:1: vertex id 10 >= declared num_vertices 10"},
      {"1 99999999999999999999",
       "OutOfRange: {}:2:3: destination vertex id '99999999999999999999' "
       "overflows a 64-bit integer"},
      {"1 2 inf", "IOError: {}:2:5: non-finite edge weight 'inf'"},
      {"1 2 0", "OK"},
      {"1 2 -1", "IOError: {}:2:5: negative edge weight '-1'"},
      {"1 2 1e999",
       "OutOfRange: {}:2:5: edge weight '1e999' is out of double range"},
      {"1 2 1.5x", "IOError: {}:2:5: malformed edge weight '1.5x'"},
      {"1 2 3 x",
       "IOError: {}:2:7: unexpected trailing content after 'src dst "
       "weight'"},
      {"1 2 1.0 # far too long for the limit",
       "OutOfRange: {}:2:33: line exceeds IoLimits.max_line_bytes = 32"},
  };
  IoLimits limits;
  limits.max_line_bytes = 32;
  for (size_t i = 0; i < cases.size(); ++i) {
    const std::string name = "edges_" + std::to_string(i) + ".txt";
    WriteFile(name, std::string("# header\n") + cases[i].line + "\n");
    auto result = ReadEdgeList(Path(name), 10, limits);
    EXPECT_EQ(result.status().ToString(),
              Expand(cases[i].expected, Path(name)))
        << cases[i].line;
  }

  // Without a declared size the id cap is IoLimits.max_vertices.
  WriteFile("edges_cap.txt", "# header\n2147483647 0\n");
  EXPECT_EQ(ReadEdgeList(Path("edges_cap.txt")).status().ToString(),
            "OutOfRange: " + Path("edges_cap.txt") +
                ":2:1: vertex id 2147483647 >= IoLimits.max_vertices "
                "2147483647");
}

TEST_F(IoTest, ClusteringRoundTrip) {
  Clustering c(std::vector<Index>{0, 1, -1, 1});
  ASSERT_TRUE(WriteClustering(c, Path("c.txt")).ok());
  auto back = ReadClustering(Path("c.txt"));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->labels(), c.labels());
}

}  // namespace
}  // namespace dgc
