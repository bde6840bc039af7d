#include "graph/io.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "dynamic/delta_io.h"
#include "graph/text_scan.h"

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

// --- Block boundaries -------------------------------------------------
//
// The readers fetch the file in fixed blocks and the writers flush a
// buffer of the same size, so every case below is placed across a block
// boundary (a multiple of kBlock in file offsets). The fuzz mutants are
// all smaller than one block and never reach one.

constexpr size_t kBlock = text_scan::kIoBlockBytes;

// Builds a text file line by line, tracking its byte size and line count.
struct TextBuilder {
  std::string text;
  int64_t lines = 0;

  void Line(const std::string& body, const char* eol = "\n") {
    text += body;
    text += eol;
    ++lines;
  }
  // Comment lines of at most 66 bytes that end exactly at byte `target`.
  void PadTo(size_t target, char comment) {
    ASSERT_GE(target, text.size() + 2);
    while (target - text.size() > 66) Line(comment + std::string(62, 'x'));
    Line(comment + std::string(target - text.size() - 2, 'x'));
  }
};

bool SameCsr(const CsrMatrix& a, const CsrMatrix& b) {
  auto eq = [](auto x, auto y) {
    return std::equal(x.begin(), x.end(), y.begin(), y.end());
  };
  return a.rows() == b.rows() && eq(a.row_ptr(), b.row_ptr()) &&
         eq(a.col_idx(), b.col_idx()) && eq(a.values(), b.values());
}

// An edge list of a little over four blocks: a plain line across the first
// boundary, a "\r\n" pair split by the second, a comment line across the
// third, and a last line without '\n' across the fourth.
TEST_F(IoTest, EdgeListLinesAcrossBlockBoundaries) {
  TextBuilder b;
  std::vector<Edge> edges;
  auto edge_line = [&](Index u, Index v, double w, const char* eol = "\n") {
    b.Line(std::to_string(u) + " " + std::to_string(v) + " " +
               std::to_string(w),
           eol);
    edges.push_back(Edge{u, v, w});
  };
  // Edge lines up to `target` minus room for one padding comment.
  auto fill_to = [&](size_t target) {
    while (b.text.size() + 64 < target) {
      const auto i = static_cast<Index>(edges.size());
      edge_line(i % 997, (i * 31 + 7) % 1009, 0.25 * (i % 8 + 1));
    }
    b.PadTo(target, '#');
  };
  b.Line("# edge list across block boundaries");

  // Filler edges leave from vertices below 997, these from 1000 and up.
  fill_to(kBlock - 7);
  edge_line(1000, 345, 0.5);  // "1000 345 0.500000": the boundary is in "345"

  const std::string crlf_body = "1001 8 2.500000";
  fill_to(2 * kBlock - crlf_body.size() - 1);
  edge_line(1001, 8, 2.5, "\r\n");
  ASSERT_EQ(b.text[2 * kBlock - 1], '\r');
  ASSERT_EQ(b.text[2 * kBlock], '\n');

  fill_to(3 * kBlock - 10);
  b.Line("# a comment line that crosses the third block boundary 1 2 3");

  fill_to(4 * kBlock - 4);
  const size_t last = b.text.size();
  edge_line(1002, 100, 4.25, "");
  ASSERT_LT(last, 4 * kBlock);
  ASSERT_GT(b.text.size(), 4 * kBlock);

  WriteFile("blocks.txt", b.text);
  auto g = ReadEdgeList(Path("blocks.txt"), 1010);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  auto expected = Digraph::FromEdges(1010, edges);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(g->NumEdges(), expected->NumEdges());
  EXPECT_TRUE(SameCsr(g->adjacency(), expected->adjacency()));
  EXPECT_DOUBLE_EQ(g->adjacency().At(1000, 345), 0.5);
  EXPECT_DOUBLE_EQ(g->adjacency().At(1001, 8), 2.5);
  EXPECT_DOUBLE_EQ(g->adjacency().At(1002, 100), 4.25);
}

// The line cap holds across a block boundary: a line of exactly
// max_line_bytes parses, and one a byte longer, starting in the block
// before, fails with the exact diagnostic.
TEST_F(IoTest, EdgeListLineCapAcrossBlockBoundaries) {
  IoLimits limits;
  limits.max_line_bytes = 100;
  TextBuilder b;
  b.PadTo(kBlock - 50, '#');
  std::string at_cap = "1 2 0.5";
  at_cap.resize(100, ' ');
  b.Line(at_cap);
  b.PadTo(2 * kBlock - 50, '#');
  const int64_t long_line = b.lines + 1;
  b.Line(std::string(101, 'x'));
  b.Line("3 4");

  WriteFile("cap_ok.txt", b.text.substr(0, b.text.size() - 106));
  auto ok = ReadEdgeList(Path("cap_ok.txt"), 0, limits);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  ASSERT_EQ(ok->NumEdges(), 1);
  EXPECT_DOUBLE_EQ(ok->adjacency().At(1, 2), 0.5);

  WriteFile("cap.txt", b.text);
  EXPECT_EQ(ReadEdgeList(Path("cap.txt"), 0, limits).status().ToString(),
            "OutOfRange: " + Path("cap.txt") + ":" +
                std::to_string(long_line) +
                ":101: line exceeds IoLimits.max_line_bytes = 100");
}

// A METIS file built the same way: vertex v is paired with v ^ 1.
TEST_F(IoTest, MetisLinesAcrossBlockBoundaries) {
  const Index n = 15000;
  auto weight = [](Index v) { return (v / 2) % 9 + 1; };
  auto body = [&](Index v) {
    return std::to_string((v ^ 1) + 1) + " " + std::to_string(weight(v));
  };
  TextBuilder b;
  b.Line(std::to_string(n) + " " + std::to_string(n / 2) + " 001");
  Index v = 0;
  auto lines_to = [&](Index stop) {
    for (; v < stop; ++v) b.Line(body(v));
  };
  lines_to(n / 5);
  b.PadTo(kBlock - 3, '%');
  b.Line(body(v++));  // the boundary is inside this vertex's line
  lines_to(2 * n / 5);
  b.PadTo(2 * kBlock - body(v).size() - 1, '%');
  b.Line(body(v++), "\r\n");
  ASSERT_EQ(b.text[2 * kBlock], '\n');
  lines_to(3 * n / 5);
  b.PadTo(3 * kBlock - 10, '%');
  b.Line("% a comment line that crosses the third block boundary");
  lines_to(n - 1);
  b.PadTo(4 * kBlock - 3, '%');
  b.Line(body(v++), "");
  ASSERT_GT(b.text.size(), 4 * kBlock);

  WriteFile("blocks.metis", b.text);
  auto g = ReadMetisGraph(Path("blocks.metis"));
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  std::vector<std::tuple<Index, Index, Scalar>> pairs;
  for (Index u = 0; u < n; u += 2) pairs.emplace_back(u, u + 1, weight(u));
  auto expected = UGraph::FromEdges(n, pairs);
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(SameCsr(g->adjacency(), expected->adjacency()));
}

// A delta stream built the same way.
TEST_F(IoTest, DeltaStreamLinesAcrossBlockBoundaries) {
  TextBuilder b;
  std::vector<EdgeDeltaBatch> expected(1);
  int64_t op = 0;
  auto op_line = [&](const char* eol = "\n") {
    const auto u = static_cast<Index>(op % 1000);
    const auto v = static_cast<Index>((op * 13 + 1) % 1000);
    if (op % 3 == 2) {
      b.Line("- " + std::to_string(u) + " " + std::to_string(v), eol);
      expected.back().deletes.push_back(EdgeKey{u, v});
    } else {
      b.Line("+ " + std::to_string(u) + " " + std::to_string(v) + " 1.5",
             eol);
      expected.back().inserts.push_back(Edge{u, v, 1.5});
    }
    if (++op % 500 == 0) {
      b.Line("---");
      expected.emplace_back();
    }
  };
  auto fill_to = [&](size_t target) {
    while (b.text.size() + 64 < target) op_line();
    b.PadTo(target, '#');
  };
  fill_to(kBlock - 6);
  op_line();
  fill_to(2 * kBlock - 15);
  b.Line("+ 998 999 2.25", "\r\n");  // '\r' ends block 2, '\n' opens 3
  expected.back().inserts.push_back(Edge{998, 999, 2.25});
  ASSERT_EQ(b.text[2 * kBlock], '\n');
  fill_to(3 * kBlock - 10);
  b.Line("# a comment line that crosses the third block boundary");
  fill_to(4 * kBlock - 4);
  op_line("");
  ASSERT_GT(b.text.size(), 4 * kBlock);
  if (expected.back().empty()) expected.pop_back();

  WriteFile("blocks.delta", b.text);
  auto batches = ReadDeltaBatches(Path("blocks.delta"), 1000);
  ASSERT_TRUE(batches.ok()) << batches.status().ToString();
  ASSERT_EQ(batches->size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ((*batches)[i].inserts, expected[i].inserts) << i;
    EXPECT_EQ((*batches)[i].deletes, expected[i].deletes) << i;
  }
}

// --- Writer bytes ---------------------------------------------------------
//
// The exact bytes each writer produced before it moved to the block
// writer, weights included: doubles print as `std::ostream << double`
// does by default (%g at precision 6).

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST_F(IoTest, WriterBytesArePinned) {
  auto g = Digraph::FromEdges(5, {{0, 1, 0.1},
                                  {0, 2, 1e-7},
                                  {1, 0, 2.5e-300},
                                  {1, 4, 123456789},
                                  {2, 3, 1e21},
                                  {4, 0, 3}});
  ASSERT_TRUE(g.ok());
  ASSERT_TRUE(WriteEdgeList(*g, Path("pin.txt")).ok());
  EXPECT_EQ(ReadAll(Path("pin.txt")),
            "# directed edge list: src dst weight\n"
            "# vertices=5 edges=6\n"
            "0 1 0.1\n"
            "0 2 1e-07\n"
            "1 0 2.5e-300\n"
            "1 4 1.23457e+08\n"
            "2 3 1e+21\n"
            "4 0 3\n");

  // METIS weights are integers after scaling; 1e10 puts the largest at 19
  // digits. Vertex 4 has no neighbor, so its line is empty.
  auto u = UGraph::FromEdges(
      5, {{0, 1, 0.1}, {0, 2, 1e-7}, {1, 2, 123456789}, {2, 4, 3}});
  ASSERT_TRUE(u.ok());
  ASSERT_TRUE(WriteMetisGraph(*u, Path("pin.metis"), 1e10).ok());
  EXPECT_EQ(ReadAll(Path("pin.metis")),
            "5 4 001\n"
            "2 1000000000 3 1000\n"
            "1 1000000000 3 1234567890000000000\n"
            "1 1000 2 1234567890000000000 5 30000000000\n"
            "\n"
            "3 30000000000\n");

  GroundTruth truth;
  truth.categories = {{0, 2}, {1}, {0, 1, 5}, {}, {70000}};
  ASSERT_TRUE(WriteGroundTruth(truth, Path("pin_truth.txt")).ok());
  EXPECT_EQ(ReadAll(Path("pin_truth.txt")),
            "0 0 2\n1 1 2\n2 0\n5 2\n70000 4\n");

  Clustering c(std::vector<Index>{0, 1, -1, 2147483647, 3});
  ASSERT_TRUE(WriteClustering(c, Path("pin_labels.txt")).ok());
  EXPECT_EQ(ReadAll(Path("pin_labels.txt")), "0\n1\n-1\n2147483647\n3\n");
}

// Over several buffer flushes the edge-list bytes still match
// `std::ostream <<`, the formatting the writer replaced.
TEST_F(IoTest, EdgeListWriterMatchesOstreamAcrossFlushes) {
  std::vector<Edge> edges;
  for (Index i = 0; i < 40000; ++i) {
    edges.push_back(Edge{i % 4000, (i * 7919 + 13) % 4001,
                         1.0 / (i + 1) + i * 1e-3});
  }
  auto g = Digraph::FromEdges(4001, edges);
  ASSERT_TRUE(g.ok());
  std::ostringstream oracle;
  oracle << "# directed edge list: src dst weight\n"
         << "# vertices=" << g->NumVertices() << " edges=" << g->NumEdges()
         << "\n";
  const CsrMatrix& a = g->adjacency();
  for (Index r = 0; r < a.rows(); ++r) {
    for (size_t i = 0; i < a.RowCols(r).size(); ++i) {
      oracle << r << ' ' << a.RowCols(r)[i] << ' ' << a.RowValues(r)[i]
             << '\n';
    }
  }
  ASSERT_GT(oracle.str().size(), 3 * kBlock);
  ASSERT_TRUE(WriteEdgeList(*g, Path("big.txt")).ok());
  EXPECT_EQ(ReadAll(Path("big.txt")), oracle.str());
}

// A failed write must not pass for success: on /dev/full every writer's
// Status names the path, even when all its bytes sit in the buffer until
// the file is closed.
TEST_F(IoTest, WritersReportAFullDevice) {
  const std::string full = "/dev/full";
  if (!std::filesystem::exists(full)) GTEST_SKIP() << "no /dev/full";
  auto g = Digraph::FromEdges(3, {{0, 1, 1.0}, {1, 2, 2.0}});
  ASSERT_TRUE(g.ok());
  auto u = UGraph::FromEdges(3, {{0, 1, 1.0}, {1, 2, 2.0}});
  ASSERT_TRUE(u.ok());
  GroundTruth truth;
  truth.categories = {{0, 1}, {2}};
  const Clustering c(std::vector<Index>{0, 0, 1});
  const Status statuses[] = {WriteEdgeList(*g, full),
                             WriteUndirectedEdgeList(*u, full),
                             WriteMetisGraph(*u, full),
                             WriteGroundTruth(truth, full),
                             WriteClustering(c, full)};
  for (const Status& status : statuses) {
    EXPECT_EQ(status.ToString(), "IOError: write failed for /dev/full");
  }
}

// The undirected writer's bytes are those of the `std::ofstream` copies
// it replaced in dgc_symmetrize and dgc_update: each edge once (u < v),
// weights as `std::ostream <<` prints them.
TEST_F(IoTest, UndirectedWriterBytesArePinned) {
  auto u = UGraph::FromEdges(
      5, {{0, 1, 0.1}, {0, 2, 1e-7}, {1, 2, 123456789}, {2, 4, 3}});
  ASSERT_TRUE(u.ok());
  ASSERT_TRUE(WriteUndirectedEdgeList(*u, Path("pin_u.txt")).ok());
  EXPECT_EQ(ReadAll(Path("pin_u.txt")),
            "# undirected weighted edge list: u v weight (u < v)\n"
            "0 1 0.1\n"
            "0 2 1e-07\n"
            "1 2 1.23457e+08\n"
            "2 4 3\n");
}

// A failed read must not pass for end of file: every reader opened on a
// directory (fopen succeeds, fread fails) reports an IOError naming the
// path instead of an empty result.
TEST_F(IoTest, ReadersReportAReadError) {
  const std::string dir = dir_.string();
  const std::string expected = "IOError: read failed for " + dir;
  EXPECT_EQ(ReadEdgeList(dir).status().ToString(), expected);
  EXPECT_EQ(ReadMetisGraph(dir).status().ToString(), expected);
  EXPECT_EQ(ReadGroundTruth(dir, 4).status().ToString(), expected);
  EXPECT_EQ(ReadClustering(dir).status().ToString(), expected);
  EXPECT_EQ(ReadDeltaBatches(dir, 4).status().ToString(), expected);
}

}  // namespace
}  // namespace dgc
