// Fig. 7 — comparison of the three worker classes: average effort level and
// average feedback per review.
//
// Paper shape: the three classes expend *similar* average effort, but
// collusive malicious workers collect much higher feedback (their
// communities upvote each other's reviews).
//
// Usage: bench_fig7_worker_classes [scale=full|medium|small]
#include <cstdio>

#include "data/generator.hpp"
#include "data/metrics.hpp"
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

  std::printf("== Fig. 7: per-class average effort and feedback ==\n");
  const data::ReviewTrace trace = data::generate_trace(gen);
  const data::WorkerMetrics metrics(trace);

  util::TextTable table({"class", "reviews", "mean effort", "sd effort",
                         "mean feedback", "sd feedback"});
  double honest_feedback = 0.0;
  double cm_feedback = 0.0;
  double honest_effort = 0.0;
  double cm_effort = 0.0;

  const std::pair<data::WorkerClass, const char*> classes[] = {
      {data::WorkerClass::kHonest, "honest"},
      {data::WorkerClass::kNonCollusiveMalicious, "ncm"},
      {data::WorkerClass::kCollusiveMalicious, "cm"},
  };
  for (const auto& [cls, label] : classes) {
    util::Accumulator effort;
    util::Accumulator feedback;
    for (const data::EffortSample& s : metrics.samples_of_class(cls)) {
      effort.add(s.effort);
      feedback.add(s.feedback);
    }
    table.add_row({label, std::to_string(effort.count()),
                   util::format_double(effort.mean(), 3),
                   util::format_double(effort.stddev(), 3),
                   util::format_double(feedback.mean(), 3),
                   util::format_double(feedback.stddev(), 3)});
    if (cls == data::WorkerClass::kHonest) {
      honest_feedback = feedback.mean();
      honest_effort = effort.mean();
    }
    if (cls == data::WorkerClass::kCollusiveMalicious) {
      cm_feedback = feedback.mean();
      cm_effort = effort.mean();
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("paper shape check: effort ratio cm/honest = %.2f (paper: ~1),"
              " feedback ratio cm/honest = %.2f (paper: >> 1)\n",
              cm_effort / honest_effort, cm_feedback / honest_feedback);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ccd::bench::run_main("bench_fig7_worker_classes", run, argc, argv);
}
