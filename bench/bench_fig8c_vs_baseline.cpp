// Fig. 8(c) — requester utility of the dynamic contract vs the baseline
// that simply excludes all suspected malicious workers, across mu.
//
// Paper shape: the dynamic contract strictly beats exclusion, because it
// extracts value from malicious workers whose reviews are biased yet still
// accurate enough to carry a positive weight, while zero-weight workers are
// eliminated automatically.
//
// Usage: bench_fig8c_vs_baseline [scale=full|medium|small]
#include <cstdio>

#include "core/pipeline.hpp"
#include "data/generator.hpp"
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

  std::printf("== Fig. 8(c): dynamic contract vs exclude-all-malicious ==\n");
  const data::ReviewTrace trace = data::generate_trace(gen);
  std::printf("trace: %s\n\n", trace.stats().to_string().c_str());

  util::TextTable table({"mu", "dynamic (ours)", "exclusion", "fixed-pay",
                         "gain over exclusion %"});
  for (const double mu : {1.0, 0.9, 0.8}) {
    core::PipelineConfig dynamic;
    dynamic.requester.mu = mu;
    core::PipelineConfig exclusion = dynamic;
    exclusion.strategy = core::PricingStrategy::kExcludeMalicious;
    core::PipelineConfig fixed = dynamic;
    fixed.strategy = core::PricingStrategy::kFixedPayment;
    fixed.fixed_payment = 2.0;
    fixed.fixed_threshold_effort = 1.0;

    const double u_dynamic =
        core::run_pipeline(trace, dynamic).total_requester_utility;
    const double u_exclusion =
        core::run_pipeline(trace, exclusion).total_requester_utility;
    const double u_fixed =
        core::run_pipeline(trace, fixed).total_requester_utility;
    table.add_row({util::format_double(mu, 1),
                   util::format_double(u_dynamic, 1),
                   util::format_double(u_exclusion, 1),
                   util::format_double(u_fixed, 1),
                   util::format_double(
                       100.0 * (u_dynamic - u_exclusion) / u_exclusion, 2)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("paper shape check: ours > exclusion for every mu.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ccd::bench::run_main("bench_fig8c_vs_baseline", run, argc, argv);
}
