// Fig. 8(b) — mean / 5th / 95th percentile compensation per worker class for
// mu in {1.0, 0.9, 0.8} (the requester's weight on compensation), from the
// full pipeline.
//
// Paper shape: (1) compensation rises as mu falls (a "generous" requester);
// (2) honest workers are paid more than non-collusive malicious workers,
// who are paid more than collusive malicious workers.
//
// Usage: bench_fig8b_mu_sweep [scale=full|medium|small]
#include <cstdio>

#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "data/generator.hpp"
#include "util/config.hpp"
#include "util/string_util.hpp"
#include "util/stats.hpp"
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

  std::printf("== Fig. 8(b): compensation by class for mu in {1.0,0.9,0.8} ==\n");
  const data::ReviewTrace trace = data::generate_trace(gen);
  std::printf("trace: %s\n\n", trace.stats().to_string().c_str());

  util::TextTable table(
      {"mu", "class", "count", "mean", "p5", "p95"});
  for (const double mu : {1.0, 0.9, 0.8}) {
    core::PipelineConfig config;
    config.requester.mu = mu;
    const core::PipelineResult result = core::run_pipeline(trace, config);
    const std::pair<data::WorkerClass, const char*> classes[] = {
        {data::WorkerClass::kHonest, "honest"},
        {data::WorkerClass::kNonCollusiveMalicious, "ncm"},
        {data::WorkerClass::kCollusiveMalicious, "cm"},
    };
    for (const auto& [cls, label] : classes) {
      const util::Summary s =
          util::summarize(result.compensations_of_class(cls));
      table.add_row({util::format_double(mu, 1), label,
                     std::to_string(s.count), util::format_double(s.mean, 4),
                     util::format_double(s.p5, 4),
                     util::format_double(s.p95, 4)});
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("paper shape checks: mean pay rises as mu falls; honest mean "
              "> ncm mean and honest mean > cm mean for every mu.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ccd::bench::run_main("bench_fig8b_mu_sweep", run, argc, argv);
}
