// Ablation — near-optimality beyond the analytic bound: the designed
// piecewise-linear contract vs a fine-grid oracle that may use any contract
// shape, across effort-function shapes, omega, and partition density.
//
// The Theorem 4.1 bound certifies convergence analytically; this bench
// quantifies the actual optimality ratio the candidate-selection algorithm
// achieves at practical m.
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
  params.assert_all_consumed();

  std::printf("== Ablation: designed contract vs unrestricted oracle ==\n\n");

  struct Shape {
    const char* name;
    double r2, r1, r0;
  };
  const Shape shapes[] = {
      {"steep (-1, 8, 2)", -1.0, 8.0, 2.0},
      {"gentle (-0.5, 4, 0.5)", -0.5, 4.0, 0.5},
      {"sharp (-2.5, 14, 4)", -2.5, 14.0, 4.0},
      {"flat (-0.08, 1.2, 0.1)", -0.08, 1.2, 0.1},
  };

  util::TextTable table({"psi", "omega", "m", "designed", "oracle",
                         "ratio %"});
  for (const Shape& shape : shapes) {
    for (const double omega : {0.0, 0.25, 0.5}) {
      for (const std::size_t m : {10ul, 20ul, 40ul, 80ul}) {
        contract::SubproblemSpec spec;
        spec.psi = effort::QuadraticEffort(shape.r2, shape.r1, shape.r0);
        spec.incentives = {1.0, omega};
        spec.weight = 1.0;
        spec.mu = 1.0;
        spec.intervals = m;
        const contract::DesignResult d = contract::design_contract(spec);
        const contract::OracleOutcome oracle = contract::oracle_optimal(spec);
        table.add_row(
            {shape.name, util::format_double(omega, 2), std::to_string(m),
             util::format_double(d.requester_utility, 4),
             util::format_double(oracle.requester_utility, 4),
             util::format_double(
                 100.0 * d.requester_utility / oracle.requester_utility, 2)});
      }
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("shape check: the ratio climbs toward 100%% as m grows, for "
              "every psi and omega.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ccd::bench::run_main("bench_ablation_oracle", run, argc, argv);
}
