// Extension — the §VII classification generalization, swept over the
// adversarial fraction of the pool: aggregate label quality and requester
// utility for dynamic contracts vs the flat-pay baseline.
//
// Shape: contracts hold aggregate accuracy high as adversaries increase
// (suspects get near-zero-pay contracts and down-weighted votes), while the
// flat-pay baseline's quality decays.
#include <cstdio>

#include "tasks/campaign.hpp"
#include "util/config.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"
#include "bench_main.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace ccd;
  const util::ParamMap params = util::ParamMap::from_args(argc, argv);
  const auto pool_size = static_cast<std::size_t>(params.get_int("pool", 12));
  params.assert_all_consumed();

  std::printf("== Extension: classification campaign vs adversarial share ==\n\n");

  util::TextTable table({"adversaries", "acc majority", "acc weighted",
                         "acc flat-pay", "utility ours", "utility flat"});
  for (const std::size_t adversaries : {0ul, 1ul, 2ul, 3ul, 4ul, 5ul}) {
    std::vector<tasks::LabelerSpec> pool;
    for (std::size_t i = 0; i + adversaries < pool_size; ++i) {
      tasks::LabelerSpec s;
      s.name = std::string("d").append(std::to_string(i));
      s.accuracy.cap = 0.9 + 0.01 * static_cast<double>(i % 5);
      pool.push_back(s);
    }
    for (std::size_t i = 0; i < adversaries; ++i) {
      tasks::LabelerSpec s;
      s.name = std::string("a").append(std::to_string(i));
      s.type = tasks::LabelerType::kAdversarial;
      s.omega = 0.5;
      s.target_label = true;
      pool.push_back(s);
    }
    tasks::CampaignConfig config;
    config.seed = 17 + adversaries;
    const tasks::CampaignResult r = tasks::run_campaign(pool, config);
    table.add_row({std::to_string(adversaries),
                   util::format_double(r.accuracy_majority, 4),
                   util::format_double(r.accuracy_weighted, 4),
                   util::format_double(r.baseline_accuracy_majority, 4),
                   util::format_double(r.requester_utility, 1),
                   util::format_double(r.baseline_requester_utility, 1)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("shape check: weighted-vote accuracy stays high as the "
              "adversarial share grows; the flat-pay baseline degrades and "
              "its utility can go negative.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ccd::bench::run_main("bench_ext_classification", run, argc, argv);
}
