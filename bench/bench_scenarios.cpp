// Scenario matrix — every designer policy against every adversarial
// scenario (ROADMAP item 5; see src/scenario/scenario.hpp).
//
// Runs the full preset catalog (paper, sybil, adaptive, misreport,
// churn, mixed) x every policy column (dynamic, static, fixed, exclude),
// scoring each cell on requester utility, planted-adversary detection
// precision/recall, planted-community recovery, and quarantine counts.
// Per-cell invariants are asserted, not just reported: every score must
// be finite, detector recall on planted adversaries must clear
// `recall_floor`, and the dynamic designer must beat the fixed-contract
// baseline under every adversary. Any violation is a non-zero exit, so
// the matrix doubles as a regression gate for the designer's robustness
// trajectory.
//
// Writes the machine-readable cell dump to `out=` (default
// BENCH_scenarios.json) for the perf/quality tracking pipeline.
//
// Usage: bench_scenarios [seed=99] [rounds=24] [threads=0]
//                        [recall_floor=0.5] [out=BENCH_scenarios.json]
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "scenario/scenario.hpp"
#include "util/config.hpp"
#include "bench_main.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace ccd;
  const util::ParamMap params = util::ParamMap::from_args(argc, argv);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(params.get_int("seed", 99));
  const std::size_t rounds =
      static_cast<std::size_t>(params.get_int("rounds", 24));
  const double recall_floor = params.get_double("recall_floor", 0.5);
  scenario::RunOptions options;
  options.threads = static_cast<std::size_t>(params.get_int("threads", 0));
  const std::string out = params.get_string("out", "BENCH_scenarios.json");
  params.assert_all_consumed();

  std::vector<scenario::ScenarioSpec> specs = scenario::ScenarioSpec::matrix();
  for (scenario::ScenarioSpec& spec : specs) {
    spec.seed = seed;
    spec.rounds = rounds;
  }

  std::printf("== Scenario matrix: %zu scenarios x %zu policies "
              "(seed %llu, %zu rounds) ==\n\n",
              specs.size(), scenario::all_policies().size(),
              static_cast<unsigned long long>(seed), rounds);

  const auto t0 = std::chrono::steady_clock::now();
  const scenario::MatrixResult result = scenario::run_matrix(specs, options);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::printf("%-10s %-8s %12s %12s %9s %9s %9s %5s %5s\n", "scenario",
              "policy", "utility", "comp", "det_prec", "det_rec", "comm_rec",
              "quar", "excl");
  for (const scenario::ScenarioCell& cell : result.cells) {
    std::printf("%-10s %-8s %12.1f %12.1f %9.2f %9.2f %9.2f %5zu %5zu\n",
                cell.scenario.c_str(), scenario::to_string(cell.policy),
                cell.score.requester_utility, cell.score.total_compensation,
                cell.score.detector_precision, cell.score.detector_recall,
                cell.score.community_recall, cell.score.quarantined,
                cell.score.excluded);
  }
  std::printf("\nmatrix: %zu cells in %.2fs\n", result.cells.size(), elapsed);

  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_scenarios: cannot open %s\n", out.c_str());
    return 1;
  }
  const std::string json = result.to_json();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", out.c_str());

  const std::vector<std::string> violations = result.violations(recall_floor);
  if (!violations.empty()) {
    for (const std::string& v : violations) {
      std::fprintf(stderr, "INVARIANT VIOLATED: %s\n", v.c_str());
    }
    return 1;
  }
  std::printf("all invariants hold (%zu cells, recall floor %.2f)\n",
              result.cells.size(), recall_floor);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ccd::bench::run_main("bench_scenarios", run, argc, argv);
}
