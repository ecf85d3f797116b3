// Fig. 6 — requester utility of the designed contract vs the Theorem 4.1
// upper and lower bounds, for a single honest worker, as the number of
// effort intervals m grows. The paper's claim: the utility converges to the
// upper bound (and hence to the optimum) as the partition densifies.
//
// Usage: bench_fig6_bounds [mu=1.0] [beta=1.0] [w=1.0]
//        [r2=-1.0] [r1=8.0] [r0=2.0]
#include <cstdio>

#include "contract/baselines.hpp"
#include "contract/designer.hpp"
#include "util/config.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"
#include "bench_main.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace ccd;
  const util::ParamMap params = util::ParamMap::from_args(argc, argv);
  const double mu = params.get_double("mu", 1.0);
  const double beta = params.get_double("beta", 1.0);
  const double w = params.get_double("w", 1.0);
  const double r2 = params.get_double("r2", -1.0);
  const double r1 = params.get_double("r1", 8.0);
  const double r0 = params.get_double("r0", 2.0);
  params.assert_all_consumed();

  const effort::QuadraticEffort psi(r2, r1, r0);

  std::printf("== Fig. 6: requester utility vs Theorem 4.1 bounds ==\n");
  std::printf("single honest worker, %s, beta=%.2f mu=%.2f w=%.2f\n\n",
              psi.to_string(2).c_str(), beta, mu, w);

  contract::SubproblemSpec spec;
  spec.psi = psi;
  spec.incentives = {beta, 0.0};
  spec.weight = w;
  spec.mu = mu;

  const contract::OracleOutcome oracle = contract::oracle_optimal(spec);

  util::TextTable table({"m", "designed utility", "lower bound",
                         "upper bound", "gap to UB", "k_opt"});
  for (const std::size_t m :
       {2ul, 4ul, 6ul, 8ul, 10ul, 16ul, 24ul, 32ul, 48ul, 64ul, 96ul,
        128ul}) {
    spec.intervals = m;
    const contract::DesignResult d = contract::design_contract(spec);
    table.add_row({std::to_string(m),
                   util::format_double(d.requester_utility, 4),
                   util::format_double(d.lower_bound, 4),
                   util::format_double(d.upper_bound, 4),
                   util::format_double(d.upper_bound - d.requester_utility, 4),
                   std::to_string(d.k_opt)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("oracle (unrestricted contract shape): utility=%.4f at "
              "effort=%.4f, pay=%.4f\n\n",
              oracle.requester_utility, oracle.effort, oracle.compensation);
  std::printf("paper shape check: utility approaches the upper bound as m "
              "grows; the optimum lies inside the shrinking gap.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ccd::bench::run_main("bench_fig6_bounds", run, argc, argv);
}
