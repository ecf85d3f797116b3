// Ablation — sensitivity of the pipeline to the Eq. 5 penalty coefficients
// (kappa: maliciousness, gamma: partners) and to the assumed malicious
// feedback motive omega (which the paper leaves unspecified).
//
// Usage: bench_ablation_sensitivity [scale=medium|small]
#include <cstdio>

#include "core/pipeline.hpp"
#include "data/generator.hpp"
#include "util/config.hpp"
#include "util/string_util.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "bench_main.hpp"

namespace {

double mean_comp(const ccd::core::PipelineResult& r,
                 ccd::data::WorkerClass cls) {
  const auto v = r.compensations_of_class(cls);
  double total = 0.0;
  for (const double x : v) total += x;
  return v.empty() ? 0.0 : total / static_cast<double>(v.size());
}

int run(int argc, char** argv) {
  using namespace ccd;
  const util::ParamMap params = util::ParamMap::from_args(argc, argv);
  const std::string scale = params.get_string("scale", "medium");
  params.assert_all_consumed();

  data::GeneratorParams gen = data::GeneratorParams::medium();
  if (scale == "small") gen = data::GeneratorParams::small();

  std::printf("== Ablation: sensitivity to kappa, gamma, omega ==\n");
  const data::ReviewTrace trace = data::generate_trace(gen);
  std::printf("trace: %s\n\n", trace.stats().to_string().c_str());

  const auto run_with = [&](double kappa, double gamma, double omega) {
    core::PipelineConfig config;
    config.requester.kappa = kappa;
    config.requester.gamma = gamma;
    config.requester.omega_malicious = omega;
    return core::run_pipeline(trace, config);
  };

  std::printf("-- kappa sweep (gamma=0.1, omega=0.5) --\n");
  {
    util::TextTable table({"kappa", "utility", "excluded", "honest comp",
                           "ncm comp", "cm comp"});
    for (const double kappa : {0.0, 0.1, 0.3, 0.6, 1.0}) {
      const core::PipelineResult r = run_with(kappa, 0.1, 0.5);
      table.add_row({util::format_double(kappa, 2),
                     util::format_double(r.total_requester_utility, 1),
                     std::to_string(r.excluded_workers),
                     util::format_double(
                         mean_comp(r, data::WorkerClass::kHonest), 3),
                     util::format_double(
                         mean_comp(r, data::WorkerClass::kNonCollusiveMalicious), 3),
                     util::format_double(
                         mean_comp(r, data::WorkerClass::kCollusiveMalicious), 3)});
    }
    std::printf("%s\n", table.render().c_str());
  }

  std::printf("-- gamma sweep (kappa=0.1, omega=0.5) --\n");
  {
    util::TextTable table({"gamma", "utility", "excluded", "cm comp"});
    for (const double gamma : {0.0, 0.1, 0.3, 0.6, 1.0}) {
      const core::PipelineResult r = run_with(0.1, gamma, 0.5);
      table.add_row({util::format_double(gamma, 2),
                     util::format_double(r.total_requester_utility, 1),
                     std::to_string(r.excluded_workers),
                     util::format_double(
                         mean_comp(r, data::WorkerClass::kCollusiveMalicious), 3)});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("shape check: a larger partner penalty gamma squeezes CM "
                "pay toward zero.\n\n");
  }

  std::printf("-- omega sweep (kappa=gamma=0.1) --\n");
  {
    util::TextTable table({"omega", "utility", "ncm comp", "cm comp"});
    for (const double omega : {0.0, 0.25, 0.5, 1.0, 2.0}) {
      const core::PipelineResult r = run_with(0.1, 0.1, omega);
      table.add_row({util::format_double(omega, 2),
                     util::format_double(r.total_requester_utility, 1),
                     util::format_double(
                         mean_comp(r, data::WorkerClass::kNonCollusiveMalicious), 3),
                     util::format_double(
                         mean_comp(r, data::WorkerClass::kCollusiveMalicious), 3)});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("shape check: the more self-motivated the requester assumes "
                "malicious workers are (larger omega), the less it pays "
                "them.\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ccd::bench::run_main("bench_ablation_sensitivity", run, argc, argv);
}
