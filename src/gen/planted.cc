#include "gen/planted.h"

#include <string>
#include <utility>

#include "util/rng.h"

namespace dgc {

Result<Dataset> GeneratePlanted(const PlantedOptions& options) {
  if (options.num_clusters <= 0 || options.cluster_size <= 0) {
    return Status::InvalidArgument(
        "num_clusters and cluster_size must be positive");
  }
  for (double p : {options.p_member_to_target, options.p_source_to_member,
                   options.p_intra}) {
    if (p < 0.0 || p > 1.0) {
      return Status::InvalidArgument("probabilities must be in [0, 1]");
    }
  }
  if (options.targets_per_cluster < 0 || options.sources_per_cluster < 0 ||
      options.noise_per_vertex < 0.0) {
    return Status::InvalidArgument("counts must be non-negative");
  }

  if (options.target_pool > 0 &&
      options.target_pool < options.targets_per_cluster) {
    return Status::InvalidArgument(
        "target_pool must be >= targets_per_cluster");
  }
  if (options.source_pool > 0 &&
      options.source_pool < options.sources_per_cluster) {
    return Status::InvalidArgument(
        "source_pool must be >= sources_per_cluster");
  }

  const Index num_members = options.num_clusters * options.cluster_size;
  const Index num_targets =
      options.target_pool > 0
          ? options.target_pool
          : options.num_clusters * options.targets_per_cluster;
  const Index num_sources =
      options.source_pool > 0
          ? options.source_pool
          : options.num_clusters * options.sources_per_cluster;
  const Index n = num_members + num_targets + num_sources;
  Rng rng(options.seed);

  Dataset dataset;
  dataset.name = "planted";
  dataset.truth.categories.resize(
      static_cast<size_t>(options.num_clusters));
  dataset.node_names.resize(static_cast<size_t>(n));

  const Index target_begin = num_members;
  const Index source_begin = num_members + num_targets;
  for (Index t = 0; t < num_targets; ++t) {
    dataset.node_names[static_cast<size_t>(target_begin + t)] =
        "target" + std::to_string(t);
  }
  for (Index s = 0; s < num_sources; ++s) {
    dataset.node_names[static_cast<size_t>(source_begin + s)] =
        "source" + std::to_string(s);
  }

  // Picks the cluster's context set: a private contiguous block, or a
  // random subset of the shared pool.
  auto pick_context = [&rng](Index cluster, Index per_cluster, Index pool,
                             Index begin) {
    std::vector<Index> picked;
    picked.reserve(static_cast<size_t>(per_cluster));
    if (pool > 0) {
      for (uint64_t idx : rng.SampleWithoutReplacement(
               static_cast<uint64_t>(pool),
               static_cast<uint64_t>(per_cluster))) {
        picked.push_back(begin + static_cast<Index>(idx));
      }
    } else {
      for (Index t = 0; t < per_cluster; ++t) {
        picked.push_back(begin + cluster * per_cluster + t);
      }
    }
    return picked;
  };

  std::vector<Edge> edges;
  for (Index c = 0; c < options.num_clusters; ++c) {
    const Index member_begin = c * options.cluster_size;
    const Index member_end = member_begin + options.cluster_size;
    for (Index m = member_begin; m < member_end; ++m) {
      dataset.truth.categories[static_cast<size_t>(c)].push_back(m);
      // Appended piecewise: GCC 12 raises a -Wrestrict false positive on
      // "literal" + std::to_string(...), which fails -Werror builds.
      std::string name("C");
      name += std::to_string(c);
      name += "-member";
      name += std::to_string(m - member_begin);
      dataset.node_names[static_cast<size_t>(m)] = std::move(name);
    }
    // Shared targets: every member points to them.
    for (Index target : pick_context(c, options.targets_per_cluster,
                                     options.target_pool, target_begin)) {
      for (Index m = member_begin; m < member_end; ++m) {
        if (rng.Bernoulli(options.p_member_to_target)) {
          edges.push_back(Edge{m, target, 1.0});
        }
      }
    }
    // Shared sources: they point to every member.
    for (Index source : pick_context(c, options.sources_per_cluster,
                                     options.source_pool, source_begin)) {
      for (Index m = member_begin; m < member_end; ++m) {
        if (rng.Bernoulli(options.p_source_to_member)) {
          edges.push_back(Edge{source, m, 1.0});
        }
      }
    }
    // Optional direct member -> member edges.
    if (options.p_intra > 0.0) {
      for (Index u = member_begin; u < member_end; ++u) {
        for (Index v = member_begin; v < member_end; ++v) {
          if (u != v && rng.Bernoulli(options.p_intra)) {
            edges.push_back(Edge{u, v, 1.0});
          }
        }
      }
    }
  }
  // Uniform background noise.
  const int64_t noise_edges = static_cast<int64_t>(
      options.noise_per_vertex * static_cast<double>(n));
  for (int64_t e = 0; e < noise_edges; ++e) {
    const Index u = static_cast<Index>(rng.UniformU64(
        static_cast<uint64_t>(n)));
    const Index v = static_cast<Index>(rng.UniformU64(
        static_cast<uint64_t>(n)));
    if (u != v) edges.push_back(Edge{u, v, 1.0});
  }

  DedupEdges(&edges);
  DGC_ASSIGN_OR_RETURN(dataset.graph, Digraph::FromEdges(n, edges));
  return dataset;
}

}  // namespace dgc
