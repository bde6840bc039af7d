// Tests for binary serialization (v2 format + MappedCsr + v1 compat).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "graph/serialize.h"
#include "util/rng.h"

namespace dgc {
namespace {

class SerializeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("dgc_ser_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

CsrMatrix RandomMatrix(Index rows, Index cols, int nnz, uint64_t seed) {
  Rng rng(seed);
  std::vector<Triplet> t;
  for (int i = 0; i < nnz; ++i) {
    t.push_back(
        Triplet{static_cast<Index>(rng.UniformU64(static_cast<uint64_t>(rows))),
                static_cast<Index>(rng.UniformU64(static_cast<uint64_t>(cols))),
                rng.UniformDouble()});
  }
  return std::move(CsrMatrix::FromTriplets(rows, cols, t)).ValueOrDie();
}

TEST_F(SerializeTest, MatrixRoundTrip) {
  CsrMatrix m = RandomMatrix(50, 40, 400, 1);
  ASSERT_TRUE(SaveMatrix(m, Path("m.dgcm")).ok());
  auto back = LoadMatrix(Path("m.dgcm"));
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(*back, m);
}

TEST_F(SerializeTest, EmptyMatrixRoundTrip) {
  CsrMatrix m = CsrMatrix::Zero(7, 3);
  ASSERT_TRUE(SaveMatrix(m, Path("z.dgcm")).ok());
  auto back = LoadMatrix(Path("z.dgcm"));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, m);
}

TEST_F(SerializeTest, RejectsGarbage) {
  {
    std::ofstream out(Path("bad.dgcm"), std::ios::binary);
    out << "this is not a matrix";
  }
  EXPECT_FALSE(LoadMatrix(Path("bad.dgcm")).ok());
  EXPECT_TRUE(LoadMatrix(Path("missing.dgcm")).status().IsIOError());
}

TEST_F(SerializeTest, RejectsTruncatedFile) {
  CsrMatrix m = RandomMatrix(30, 30, 200, 2);
  ASSERT_TRUE(SaveMatrix(m, Path("full.dgcm")).ok());
  // Truncate to half.
  const auto size = std::filesystem::file_size(Path("full.dgcm"));
  std::filesystem::resize_file(Path("full.dgcm"), size / 2);
  EXPECT_FALSE(LoadMatrix(Path("full.dgcm")).ok());
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Patches `width` bytes at `offset` inside the file (header corruption
/// helper for the negative tests below).
void PatchFile(const std::string& path, size_t offset, const void* bytes,
               size_t width) {
  std::string content = ReadAll(path);
  ASSERT_GE(content.size(), offset + width);
  std::memcpy(content.data() + offset, bytes, width);
  WriteAll(path, content);
}

TEST_F(SerializeTest, WritesVersionedV2Header) {
  CsrMatrix m = RandomMatrix(10, 10, 30, 3);
  ASSERT_TRUE(SaveMatrix(m, Path("h.dgcm")).ok());
  const std::string bytes = ReadAll(Path("h.dgcm"));
  ASSERT_GE(bytes.size(), kBinaryCsrHeaderBytes);
  EXPECT_EQ(bytes.substr(0, 4), "DGCM");
  uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 4, sizeof(version));
  EXPECT_EQ(version, kBinaryCsrVersion);
  uint32_t endian = 0;
  std::memcpy(&endian, bytes.data() + 8, sizeof(endian));
  EXPECT_EQ(endian, 0x01020304u);
  // Section offsets (header bytes 40/48/56) must be 8-aligned so the mmap
  // view indexes the arrays in place.
  for (size_t off : {size_t{40}, size_t{48}, size_t{56}}) {
    uint64_t section = 0;
    std::memcpy(&section, bytes.data() + off, sizeof(section));
    EXPECT_EQ(section % 8, 0u) << "section offset at header byte " << off;
    EXPECT_GE(section, kBinaryCsrHeaderBytes);
  }
}

TEST_F(SerializeTest, MappedViewMatchesMatrix) {
  CsrMatrix m = RandomMatrix(60, 45, 500, 4);
  ASSERT_TRUE(SaveMatrix(m, Path("map.dgcm")).ok());
  auto view = MappedCsr::Open(Path("map.dgcm"));
  ASSERT_TRUE(view.ok()) << view.status();
  EXPECT_EQ(view->rows(), m.rows());
  EXPECT_EQ(view->cols(), m.cols());
  EXPECT_EQ(view->nnz(), m.nnz());
  for (Index r = 0; r < m.rows(); ++r) {
    auto mc = m.RowCols(r);
    auto vc = view->RowCols(r);
    ASSERT_EQ(mc.size(), vc.size()) << "row " << r;
    for (size_t i = 0; i < mc.size(); ++i) {
      EXPECT_EQ(mc[i], vc[i]);
      EXPECT_EQ(m.RowValues(r)[i], view->RowValues(r)[i]);
    }
  }
  EXPECT_EQ(view->Materialize(), m);
  EXPECT_EQ(view->path(), Path("map.dgcm"));
}

TEST_F(SerializeTest, MappedViewOfEmptyMatrix) {
  CsrMatrix m = CsrMatrix::Zero(5, 9);
  ASSERT_TRUE(SaveMatrix(m, Path("mz.dgcm")).ok());
  auto view = MappedCsr::Open(Path("mz.dgcm"));
  ASSERT_TRUE(view.ok()) << view.status();
  EXPECT_EQ(view->nnz(), 0);
  EXPECT_EQ(view->Materialize(), m);
}

TEST_F(SerializeTest, MappedCsrIsMovable) {
  CsrMatrix m = RandomMatrix(20, 20, 80, 5);
  ASSERT_TRUE(SaveMatrix(m, Path("mv.dgcm")).ok());
  auto view = MappedCsr::Open(Path("mv.dgcm"));
  ASSERT_TRUE(view.ok());
  MappedCsr moved(std::move(*view));
  EXPECT_EQ(moved.Materialize(), m);
  MappedCsr assigned;
  assigned = std::move(moved);
  EXPECT_EQ(assigned.Materialize(), m);
}

TEST_F(SerializeTest, MmapOfDirectoryFailsWithPath) {
  const std::string dir = (dir_ / "subdir").string();
  std::filesystem::create_directories(dir);
  auto view = MappedCsr::Open(dir);
  ASSERT_FALSE(view.ok());
  EXPECT_NE(view.status().message().find(dir), std::string::npos)
      << view.status();
}

TEST_F(SerializeTest, MmapRejectsTruncation) {
  CsrMatrix m = RandomMatrix(40, 40, 300, 6);
  const std::string path = Path("tr.dgcm");
  ASSERT_TRUE(SaveMatrix(m, path).ok());
  const std::string full = ReadAll(path);
  // Cuts inside the header, at its edge, and inside each section: every
  // one must fail cleanly with the path in the message.
  for (size_t cut : {size_t{0}, size_t{4}, size_t{40},
                     kBinaryCsrHeaderBytes - 1, kBinaryCsrHeaderBytes + 3,
                     full.size() / 2, full.size() - 1}) {
    WriteAll(path, full.substr(0, cut));
    auto view = MappedCsr::Open(path);
    ASSERT_FALSE(view.ok()) << "cut at " << cut;
    EXPECT_NE(view.status().message().find(path), std::string::npos);
    auto loaded = LoadMatrix(path);
    ASSERT_FALSE(loaded.ok()) << "cut at " << cut;
    EXPECT_NE(loaded.status().message().find(path), std::string::npos);
  }
}

TEST_F(SerializeTest, RejectsForeignEndianness) {
  CsrMatrix m = RandomMatrix(8, 8, 20, 7);
  const std::string path = Path("endian.dgcm");
  ASSERT_TRUE(SaveMatrix(m, path).ok());
  const uint32_t reversed = 0x04030201u;
  PatchFile(path, 8, &reversed, sizeof(reversed));
  EXPECT_FALSE(LoadMatrix(path).ok());
  auto view = MappedCsr::Open(path);
  ASSERT_FALSE(view.ok());
  EXPECT_NE(view.status().message().find("endian"), std::string::npos)
      << view.status();
}

TEST_F(SerializeTest, RejectsUnsupportedVersion) {
  CsrMatrix m = RandomMatrix(8, 8, 20, 8);
  const std::string path = Path("v9.dgcm");
  ASSERT_TRUE(SaveMatrix(m, path).ok());
  const uint32_t v9 = 9;
  PatchFile(path, 4, &v9, sizeof(v9));
  EXPECT_FALSE(LoadMatrix(path).ok());
  EXPECT_FALSE(MappedCsr::Open(path).ok());
}

TEST_F(SerializeTest, RejectsOverflowingSectionExtents) {
  CsrMatrix m = RandomMatrix(16, 16, 60, 9);
  const std::string path = Path("ovf.dgcm");
  ASSERT_TRUE(SaveMatrix(m, path).ok());
  const std::string pristine = ReadAll(path);
  // A forged nnz near 2^63 must be rejected by the division-based extent
  // check — without a huge allocation and without overflow UB.
  const int64_t huge_nnz = INT64_MAX / 2;
  PatchFile(path, 32, &huge_nnz, sizeof(huge_nnz));
  EXPECT_FALSE(LoadMatrix(path).ok());
  EXPECT_FALSE(MappedCsr::Open(path).ok());
  // An offset past EOF.
  WriteAll(path, pristine);
  const uint64_t far_offset = uint64_t{1} << 62;
  PatchFile(path, 56, &far_offset, sizeof(far_offset));
  EXPECT_FALSE(LoadMatrix(path).ok());
  EXPECT_FALSE(MappedCsr::Open(path).ok());
  // A misaligned (non-multiple-of-8) section offset.
  WriteAll(path, pristine);
  const uint64_t misaligned = kBinaryCsrHeaderBytes + 4;
  PatchFile(path, 40, &misaligned, sizeof(misaligned));
  EXPECT_FALSE(LoadMatrix(path).ok());
  EXPECT_FALSE(MappedCsr::Open(path).ok());
}

TEST_F(SerializeTest, LoadsLegacyV1Files) {
  // Hand-written v1 file (PR 4's streaming format): 24-byte header with
  // 32-bit dims, then row_ptr / col_idx / values packed unaligned.
  const int32_t rows = 3, cols = 3;
  const std::vector<Offset> row_ptr = {0, 2, 2, 3};
  const std::vector<Index> col_idx = {0, 2, 1};
  const std::vector<Scalar> values = {1.5, 2.5, -0.5};
  const int64_t nnz = 3;
  std::string bytes;
  bytes.append("DGCM", 4);
  const uint32_t v1 = 1;
  bytes.append(reinterpret_cast<const char*>(&v1), 4);
  bytes.append(reinterpret_cast<const char*>(&rows), 4);
  bytes.append(reinterpret_cast<const char*>(&cols), 4);
  bytes.append(reinterpret_cast<const char*>(&nnz), 8);
  bytes.append(reinterpret_cast<const char*>(row_ptr.data()),
               row_ptr.size() * sizeof(Offset));
  bytes.append(reinterpret_cast<const char*>(col_idx.data()),
               col_idx.size() * sizeof(Index));
  bytes.append(reinterpret_cast<const char*>(values.data()),
               values.size() * sizeof(Scalar));
  const std::string path = Path("legacy.dgcm");
  WriteAll(path, bytes);
  auto m = LoadMatrix(path);
  ASSERT_TRUE(m.ok()) << m.status();
  EXPECT_EQ(m->rows(), 3);
  EXPECT_EQ(m->nnz(), 3);
  EXPECT_EQ(m->RowCols(0)[1], 2);
  EXPECT_EQ(m->RowValues(2)[0], -0.5);
  // v1 cannot be mmapped (unaligned arrays); the error says how to fix it.
  auto view = MappedCsr::Open(path);
  ASSERT_FALSE(view.ok());
  EXPECT_NE(view.status().message().find("re-save"), std::string::npos)
      << view.status();
  // A truncated v1 payload with a huge forged nnz must fail without a
  // multi-terabyte resize.
  const int64_t forged = INT64_MAX / 4;
  PatchFile(path, 16, &forged, sizeof(forged));
  EXPECT_FALSE(LoadMatrix(path).ok());
}

TEST_F(SerializeTest, DigraphRoundTrip) {
  auto g = Digraph::FromEdges(5, {{0, 1, 2.0}, {3, 2, 1.5}});
  ASSERT_TRUE(g.ok());
  ASSERT_TRUE(SaveDigraph(*g, Path("g.dgcm")).ok());
  auto back = LoadDigraph(Path("g.dgcm"));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->adjacency(), g->adjacency());
}

TEST_F(SerializeTest, UGraphRoundTripValidatesSymmetry) {
  auto g = UGraph::FromEdges(4, {{0, 1, 1.0}, {2, 3, 0.5}});
  ASSERT_TRUE(g.ok());
  ASSERT_TRUE(SaveUGraph(*g, Path("u.dgcm")).ok());
  auto back = LoadUGraph(Path("u.dgcm"));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->adjacency(), g->adjacency());
  // An asymmetric matrix saved as-is must be rejected by LoadUGraph.
  auto asym = Digraph::FromEdges(3, {{0, 1, 1.0}});
  ASSERT_TRUE(asym.ok());
  ASSERT_TRUE(SaveMatrix(asym->adjacency(), Path("a.dgcm")).ok());
  EXPECT_FALSE(LoadUGraph(Path("a.dgcm")).ok());
}

}  // namespace
}  // namespace dgc
