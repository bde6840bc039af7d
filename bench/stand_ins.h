// The four synthetic stand-ins for the paper's datasets (Section 4.1),
// shared by the experiment registry (experiments.cc) and the kernel
// microbenchmarks (bench_kernels.cc). The paper's datasets range from 17.6k
// (Cora) to 5.3M (LiveJournal) vertices; the default sizes here keep the
// hubs, reciprocity and overlapping categories the experiments measure,
// and `scale` multiplies them.
#pragma once

#include "gen/citation.h"
#include "gen/dataset.h"
#include "gen/hyperlink.h"
#include "gen/social.h"
#include "util/logging.h"

namespace dgc {
namespace bench {

/// Cora stand-in: ~6k papers, 70 subfield categories.
inline Dataset MakeCora(double scale) {
  CitationOptions options;
  options.num_papers = static_cast<Index>(6000 * scale);
  auto dataset = GenerateCitation(options);
  DGC_CHECK(dataset.ok()) << dataset.status();
  dataset->name = "cora-syn";
  return std::move(dataset).ValueOrDie();
}

/// Wikipedia stand-in: ~20k articles, hubs, overlapping categories.
inline Dataset MakeWiki(double scale) {
  HyperlinkOptions options;
  options.num_articles = static_cast<Index>(20000 * scale);
  options.num_categories = static_cast<Index>(250 * scale);
  auto dataset = GenerateHyperlink(options);
  DGC_CHECK(dataset.ok()) << dataset.status();
  dataset->name = "wiki-syn";
  return std::move(dataset).ValueOrDie();
}

/// Social stand-ins: Flickr (~60k users, 62% reciprocity in the paper) and
/// LiveJournal (~100k users, 73%).
inline Dataset MakeSocial(const char* name, Index users, double out_degree,
                          double p_reciprocal, uint64_t seed) {
  SocialOptions options;
  options.num_users = users;
  options.avg_out_degree = out_degree;
  options.p_reciprocal = p_reciprocal;
  options.seed = seed;
  auto dataset = GenerateSocial(options);
  DGC_CHECK(dataset.ok()) << dataset.status();
  dataset->name = name;
  return std::move(dataset).ValueOrDie();
}
inline Dataset MakeFlickr(double scale) {
  return MakeSocial("flickr-syn", static_cast<Index>(60000 * scale), 10.0,
                    0.5, 1001);
}
inline Dataset MakeLivejournal(double scale) {
  return MakeSocial("livejournal-syn", static_cast<Index>(100000 * scale),
                    12.0, 0.65, 1002);
}

}  // namespace bench
}  // namespace dgc
