// dgc_update: offline replay of an edge-delta stream against a directed
// graph, maintaining the symmetrization incrementally (docs/DYNAMIC.md).
//
//   $ ./dgc_update --graph=graph.txt --deltas=stream.txt --method=dd
//         [--threshold=0.01] [--alpha=0.5] [--beta=0.5] [--self-loops]
//         [--threads=1] [--verify] [--out=sym.txt] [--max-edges=N]
//
// The delta file is batches of `+ u v [w]` / `- u v` lines separated by
// `---` lines (src/dynamic/delta_io.h). Each batch is applied atomically;
// the per-batch affected-row counts (the quantity the serve counters
// export) print to stdout. --verify re-symmetrizes from scratch after
// every batch and memcmp-compares the CSR arrays — the differential
// harness of tests/incremental_diff_test.cc as a field tool.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/symmetrize.h"
#include "dynamic/delta_io.h"
#include "dynamic/incremental.h"
#include "graph/io.h"
#include "util/options.h"
#include "util/timer.h"

namespace {

/// Byte-level equality of two CSR matrices (the incremental correctness
/// contract is bit-identity, not numeric closeness).
bool SameBytes(const dgc::CsrMatrix& a, const dgc::CsrMatrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols() || a.nnz() != b.nnz()) {
    return false;
  }
  const auto ap = a.row_ptr();
  const auto bp = b.row_ptr();
  const auto ac = a.col_idx();
  const auto bc = b.col_idx();
  const auto av = a.values();
  const auto bv = b.values();
  return std::memcmp(ap.data(), bp.data(), ap.size_bytes()) == 0 &&
         std::memcmp(ac.data(), bc.data(), ac.size_bytes()) == 0 &&
         std::memcmp(av.data(), bv.data(), av.size_bytes()) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dgc;
  auto opts = Options::Parse(argc, argv);
  if (!opts.ok()) {
    std::fprintf(stderr, "%s\n", opts.status().ToString().c_str());
    return 2;
  }
  const std::string graph_path = opts->GetString("graph", "");
  const std::string delta_path = opts->GetString("deltas", "");
  if (graph_path.empty() || delta_path.empty()) {
    std::fprintf(stderr,
                 "usage: dgc_update --graph=<edge-list> --deltas=<delta-file> "
                 "[--method=dd] [--threshold=0] [--alpha=0.5] [--beta=0.5] "
                 "[--self-loops] [--threads=1] [--verify] [--out=sym.txt] "
                 "[--max-edges=N]\n");
    return 2;
  }
  IoLimits limits;
  const int64_t max_edges = opts->GetInt("max-edges", 0);
  if (max_edges > 0) limits.max_edges = max_edges;
  auto method = ParseSymmetrizationMethod(opts->GetString("method", "dd"));
  if (!method.ok()) {
    std::fprintf(stderr, "%s\n", method.status().ToString().c_str());
    return 2;
  }
  SymmetrizationOptions sym;
  sym.out_discount = DiscountSpec::Power(opts->GetDouble("alpha", 0.5));
  sym.in_discount = DiscountSpec::Power(opts->GetDouble("beta", 0.5));
  sym.prune_threshold = opts->GetDouble("threshold", 0.0);
  sym.add_self_loops = opts->GetBool("self-loops", false);
  sym.num_threads = static_cast<int>(opts->GetInt("threads", 1));
  const bool verify = opts->GetBool("verify", false);
  const std::string out = opts->GetString("out", "");
  const Status flags = opts->CheckAllRead();
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.ToString().c_str());
    return 1;
  }

  auto graph = ReadEdgeList(graph_path, /*num_vertices=*/0, limits);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  auto batches = ReadDeltaBatches(delta_path, graph->NumVertices(), limits);
  if (!batches.ok()) {
    std::fprintf(stderr, "%s\n", batches.status().ToString().c_str());
    return 1;
  }

  WallTimer timer;
  auto inc = IncrementalSymmetrizer::Create(*graph, *method, sym);
  if (!inc.ok()) {
    std::fprintf(stderr, "%s\n", inc.status().ToString().c_str());
    return 1;
  }
  std::printf("seeded %s over %lld vertices / %lld arcs in %.2fs\n",
              SymmetrizationMethodName(*method).data(),
              static_cast<long long>(graph->NumVertices()),
              static_cast<long long>(graph->NumEdges()),
              timer.ElapsedSeconds());

  int64_t total_recomputed = 0;
  for (size_t i = 0; i < batches->size(); ++i) {
    const EdgeDeltaBatch& batch = (*batches)[i];
    WallTimer batch_timer;
    Status status = inc->ApplyDelta(batch);
    if (!status.ok()) {
      std::fprintf(stderr, "batch %zu: %s\n", i + 1,
                   status.ToString().c_str());
      return 1;
    }
    const IncrementalStats& stats = inc->last_stats();
    total_recomputed += stats.rows_recomputed;
    std::printf("batch %zu: +%zu -%zu edges, rows recomputed %lld/%lld "
                "(%.1f%%) in %.3fs\n",
                i + 1, batch.inserts.size(), batch.deletes.size(),
                static_cast<long long>(stats.rows_recomputed),
                static_cast<long long>(stats.rows_total),
                100.0 * static_cast<double>(stats.rows_recomputed) /
                    static_cast<double>(stats.rows_total),
                batch_timer.ElapsedSeconds());
    if (verify) {
      auto current = inc->graph().ToDigraph();
      if (!current.ok()) {
        std::fprintf(stderr, "batch %zu verify: %s\n", i + 1,
                     current.status().ToString().c_str());
        return 1;
      }
      auto scratch = Symmetrize(*current, *method, sym);
      if (!scratch.ok()) {
        std::fprintf(stderr, "batch %zu verify: %s\n", i + 1,
                     scratch.status().ToString().c_str());
        return 1;
      }
      if (!SameBytes(inc->symmetrized().adjacency(), scratch->adjacency())) {
        std::fprintf(stderr,
                     "batch %zu verify: incremental result diverged from "
                     "from-scratch symmetrization\n",
                     i + 1);
        return 1;
      }
      std::printf("batch %zu: verified byte-identical to from-scratch\n",
                  i + 1);
    }
  }
  std::printf("replayed %zu batches in %.2fs; %lld rows recomputed total\n",
              batches->size(), timer.ElapsedSeconds(),
              static_cast<long long>(total_recomputed));

  if (!out.empty()) {
    auto status = WriteUndirectedEdgeList(inc->symmetrized(), out);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote undirected edge list to %s\n", out.c_str());
  }
  return 0;
}
