// Fig. 8(a) — compensation paid to 200 active honest workers (those with at
// least 20 reviews) under the designed contract, against the Lemma 4.3
// compensation lower bound, for m = 10, 20, 40 effort intervals.
//
// Paper shape: the gap between each worker's compensation and its lower
// bound shrinks as m increases (the contract converges to the cheapest
// incentive-compatible one).
//
// Usage: bench_fig8a_compensation [workers=200] [min_reviews=20]
//        [scale=full|medium]
#include <cstdio>
#include <vector>

#include "core/requester.hpp"
#include "contract/bounds.hpp"
#include "contract/design_cache.hpp"
#include "contract/designer.hpp"
#include "data/generator.hpp"
#include "data/metrics.hpp"
#include "detect/expert.hpp"
#include "detect/malicious.hpp"
#include "effort/fitting.hpp"
#include "util/config.hpp"
#include "util/string_util.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "bench_main.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace ccd;
  const util::ParamMap params = util::ParamMap::from_args(argc, argv);
  const std::size_t want_workers =
      static_cast<std::size_t>(params.get_int("workers", 200));
  const std::size_t min_reviews =
      static_cast<std::size_t>(params.get_int("min_reviews", 20));
  const std::string scale = params.get_string("scale", "full");
  params.assert_all_consumed();

  data::GeneratorParams gen = data::GeneratorParams::amazon2015();
  if (scale == "medium") gen = data::GeneratorParams::medium();

  std::printf("== Fig. 8(a): compensation vs Lemma 4.3 lower bound ==\n");
  const data::ReviewTrace trace = data::generate_trace(gen);
  const data::WorkerMetrics metrics(trace);
  const detect::ExpertPanel experts(trace, metrics);
  const detect::MaliciousDetector detector(trace, experts);
  const effort::ClassFits fits = effort::fit_all_classes(metrics);

  // Select the paper's cohort: active honest workers.
  std::vector<data::WorkerId> cohort;
  for (const data::Worker& w : trace.workers()) {
    if (w.true_class != data::WorkerClass::kHonest) continue;
    if (trace.reviews_of_worker(w.id).size() < min_reviews) continue;
    cohort.push_back(w.id);
    if (cohort.size() == want_workers) break;
  }
  std::printf("cohort: %zu honest workers with >= %zu reviews\n\n",
              cohort.size(), min_reviews);

  const core::RequesterConfig requester;
  util::TextTable table({"m", "mean comp", "mean bound", "mean gap",
                         "max gap", "gap/comp %"});
  for (const std::size_t m : {10ul, 20ul, 40ul}) {
    // The whole cohort shares (psi, beta, mu, m) and differs only in the
    // Eq. 5 weight — exactly the sharing design_contracts_batch exploits
    // (one k-sweep for all 200 workers).
    std::vector<contract::SubproblemSpec> specs;
    specs.reserve(cohort.size());
    for (const data::WorkerId id : cohort) {
      // Per-worker accuracy drives the weight (Eq. 5); honest workers have
      // no partners and a low detector score.
      contract::SubproblemSpec spec;
      spec.psi = fits.honest.model;
      spec.incentives = {requester.beta, 0.0};
      spec.weight = core::feedback_weight(requester,
                                          detector.accuracy_distance(id),
                                          detector.probability(id), 0);
      spec.mu = requester.mu;
      spec.intervals = m;
      specs.push_back(spec);
    }
    const std::vector<contract::DesignResult> designs =
        contract::design_contracts_batch(specs);

    std::vector<double> comps;
    std::vector<double> gaps;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const contract::DesignResult& d = designs[i];
      if (d.excluded) continue;
      const double bound = contract::lemma43_compensation_lower(
          specs[i].psi, requester.beta, specs[i].delta(), d.k_opt);
      comps.push_back(d.response.compensation);
      gaps.push_back(d.response.compensation - bound);
    }
    const util::Summary comp_summary = util::summarize(comps);
    const util::Summary gap_summary = util::summarize(gaps);
    table.add_row(
        {std::to_string(m), util::format_double(comp_summary.mean, 4),
         util::format_double(comp_summary.mean - gap_summary.mean, 4),
         util::format_double(gap_summary.mean, 4),
         util::format_double(gap_summary.max, 4),
         util::format_double(100.0 * gap_summary.mean / comp_summary.mean,
                             2)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("paper shape check: the compensation-vs-bound gap shrinks as "
              "m grows (10 -> 20 -> 40).\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ccd::bench::run_main("bench_fig8a_compensation", run, argc, argv);
}
