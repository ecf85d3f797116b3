// Table II — distribution of collusive-community sizes on the full-scale
// synthetic Amazon trace, via the paper's same-target clustering rule.
//
// Paper-reported row (47 communities, 212 collusive workers):
//   size:        2     3    4    5    6   >=10
//   percent:  51.2  22.0  7.3  2.4  9.8   4.9
//
// Usage: bench_table2_communities [scale=full|medium|small]
#include <cstdio>

#include "data/generator.hpp"
#include "detect/collusion.hpp"
#include "util/config.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"
#include "bench_main.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace ccd;
  const util::ParamMap params = util::ParamMap::from_args(argc, argv);
  const std::string scale = params.get_string("scale", "full");
  params.assert_all_consumed();

  data::GeneratorParams gen = data::GeneratorParams::amazon2015();
  if (scale == "medium") gen = data::GeneratorParams::medium();
  else if (scale == "small") gen = data::GeneratorParams::small();

  std::printf("== Table II: collusive community size distribution ==\n");
  const data::ReviewTrace trace = data::generate_trace(gen);
  std::printf("trace: %s\n\n", trace.stats().to_string().c_str());

  const detect::CollusionResult result =
      detect::cluster_ground_truth_malicious(trace);
  const detect::CommunityCensus c = detect::census(result);

  util::TextTable table(
      {"source", "communities", "workers", "2", "3", "4", "5", "6", ">=10"});
  if (scale == "full") {
    table.add_row({"paper (Table II)", "47", "212", "51.2", "22.0", "7.3",
                   "2.4", "9.8", "4.9"});
  }
  table.add_row({"measured", std::to_string(c.communities),
                 std::to_string(c.workers),
                 util::format_double(c.pct_size2, 1),
                 util::format_double(c.pct_size3, 1),
                 util::format_double(c.pct_size4, 1),
                 util::format_double(c.pct_size5, 1),
                 util::format_double(c.pct_size6, 1),
                 util::format_double(c.pct_size10plus, 1)});
  std::printf("%s", table.render().c_str());
  std::printf("(sizes 7-9, unreported by the paper: %.1f%%)\n\n",
              c.pct_size7to9);

  // Cross-check: the DFS auxiliary-graph backend must agree.
  const detect::CollusionResult dfs = detect::cluster_ground_truth_malicious(
      trace, detect::ClusterBackend::kDfsGraph);
  std::printf("DFS backend cross-check: %zu communities, %zu workers (%s)\n",
              dfs.communities.size(), detect::census(dfs).workers,
              dfs.communities.size() == result.communities.size()
                  ? "agrees"
                  : "MISMATCH");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ccd::bench::run_main("bench_table2_communities", run, argc, argv);
}
