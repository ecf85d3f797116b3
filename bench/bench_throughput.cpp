// Fleet design throughput gate: workers designed per second by
// design_contracts_batch — the one fleet-design path every caller runs —
// on a steady-state fleet whose class tables are already cached (the
// serve/stackelberg redesign hot path), on one thread.
//
// This binary *refuses to publish numbers from non-Release builds*
// (release_gate.hpp): Debug or RelWithDebInfo throughput is not comparable,
// so exit code 3 makes CI fail loudly instead. `force=1` overrides for
// local poking; the JSON still records the real build type so a forced run
// can never masquerade as a gate.
//
// The gate also checks bits: on a subsample, every DesignResult field must
// equal design_contract's, and the subsample's budget_menus must equal the
// per-k columns of each spec's own k-sweep (build_design_table).
//
// Exit codes: 0 gate passed, 1 gate failed (floor or bitwise check),
// 2 bad usage, 3 non-release build.
//
// Usage: bench_throughput [workers=20000] [classes=6] [intervals=20]
//                         [min_wps=0] [out=BENCH_throughput.json] [force=0]
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "contract/budget.hpp"
#include "contract/design_cache.hpp"
#include "contract/designer.hpp"
#include "contract/ksweep.hpp"
#include "util/thread_pool.hpp"
#include "release_gate.hpp"
#include "bench_main.hpp"

namespace {

using namespace ccd;

std::vector<contract::SubproblemSpec> fleet_specs(std::size_t n,
                                                  std::size_t classes,
                                                  std::size_t intervals) {
  std::vector<contract::SubproblemSpec> specs;
  specs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = i % classes;
    const double t = static_cast<double>(c);
    contract::SubproblemSpec spec;
    spec.psi = effort::QuadraticEffort(-1.0 - 0.1 * t, 8.0 - 0.5 * t,
                                       2.0 + 0.25 * t);
    spec.incentives.beta = 1.0 + 0.05 * t;
    spec.incentives.omega = (c % 2 == 0) ? 0.0 : 0.1 * t;
    spec.weight =
        0.2 + 0.8 * static_cast<double>(i) / static_cast<double>(n);
    spec.mu = 1.0;
    spec.intervals = intervals;
    specs.push_back(spec);
  }
  return specs;
}

/// Best workers/second over repeated runs (>= 3 reps and >= 0.3 s total).
template <typename Fn>
double best_wps(std::size_t workers, Fn&& run) {
  double best = 0.0;
  double total_seconds = 0.0;
  for (int rep = 0; rep < 3 || total_seconds < 0.3; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    run();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    total_seconds += elapsed.count();
    best = std::max(best,
                    static_cast<double>(workers) / elapsed.count());
    if (rep > 100) break;
  }
  return best;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(),
                    [](double x, double y) { return same_bits(x, y); });
}

bool same_contract(const contract::Contract& a, const contract::Contract& b) {
  if (a.intervals() != b.intervals() || !same_bits(a.delta(), b.delta())) {
    return false;
  }
  for (std::size_t l = 0; !a.is_zero() && l <= a.intervals(); ++l) {
    if (!same_bits(a.knot(l), b.knot(l)) ||
        !same_bits(a.payment(l), b.payment(l))) {
      return false;
    }
  }
  return true;
}

/// Every DesignResult field, compared by bit pattern.
bool bitwise_equal(const contract::DesignResult& a,
                   const contract::DesignResult& b) {
  return same_contract(a.contract, b.contract) && a.k_opt == b.k_opt &&
         same_bits(a.response.effort, b.response.effort) &&
         same_bits(a.response.utility, b.response.utility) &&
         same_bits(a.response.feedback, b.response.feedback) &&
         same_bits(a.response.compensation, b.response.compensation) &&
         a.response.interval == b.response.interval &&
         same_bits(a.requester_utility, b.requester_utility) &&
         same_bits(a.upper_bound, b.upper_bound) &&
         same_bits(a.lower_bound, b.lower_bound) && a.excluded == b.excluded;
}

/// A budget menu against the per-k columns of the spec's own k-sweep.
bool menu_matches_sweep(const contract::BudgetMenu& menu,
                        const contract::SubproblemSpec& spec) {
  if (spec.weight <= 0.0) return menu.pay.empty() && menu.utility.empty();
  const contract::DesignTable table = contract::build_design_table(spec);
  std::vector<double> pay;
  std::vector<double> utility;
  for (const contract::BestResponse& response : table.responses) {
    pay.push_back(response.compensation);
    utility.push_back(contract::requester_utility(spec, response));
  }
  return same_bits(menu.pay, pay) && same_bits(menu.utility, utility);
}

int run(int argc, char** argv) {
  std::size_t workers = 20000;
  std::size_t classes = 6;
  std::size_t intervals = 20;
  double min_wps = 0.0;
  std::string out_path = "BENCH_throughput.json";
  bool force = false;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    const auto eq = arg.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "bad argument (want key=value): %s\n", argv[a]);
      return 2;
    }
    const std::string key = arg.substr(0, eq);
    const std::string value = arg.substr(eq + 1);
    if (key == "workers") workers = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "classes") classes = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "intervals") intervals = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "min_wps") min_wps = std::strtod(value.c_str(), nullptr);
    else if (key == "out") out_path = value;
    else if (key == "force") force = value != "0";
    else { std::fprintf(stderr, "unknown key: %s\n", key.c_str()); return 2; }
  }

  if (!bench::release_gate("bench_throughput", force)) {
    return bench::kNonReleaseExit;
  }
  const std::string build_type = bench::library_build_type();

  const std::vector<contract::SubproblemSpec> specs =
      fleet_specs(workers, classes, intervals);
  util::ThreadPool pool(1);  // single-thread numbers: gate kernel speed,
                             // not core count
  contract::DesignCache cache;

  // Steady state: all class tables cached before any timed run.
  for (std::size_t c = 0; c < classes && c < workers; ++c) {
    cache.table_for(specs[c]);
  }

  contract::BatchOptions options;
  options.pool = &pool;
  options.cache = &cache;
  std::vector<contract::DesignResult> results;
  const double wps = best_wps(workers, [&] {
    results = contract::design_contracts_batch(specs, options);
  });

  // Self-check on a subsample: every field of the batch result must be
  // bitwise-identical to the uncached design_contract reference, and the
  // subsample's budget menus to each spec's own k-sweep.
  bool bitwise = true;
  const std::size_t stride = std::max<std::size_t>(1, workers / 64);
  std::vector<contract::SubproblemSpec> sample;
  for (std::size_t i = 0; i < workers; i += stride) {
    bitwise = bitwise &&
              bitwise_equal(results[i], contract::design_contract(specs[i]));
    sample.push_back(specs[i]);
  }
  const std::vector<contract::BudgetMenu> menus =
      contract::budget_menus(sample);
  for (std::size_t j = 0; j < sample.size(); ++j) {
    bitwise = bitwise && menu_matches_sweep(menus[j], sample[j]);
  }

  const bool floor_ok = wps >= min_wps;
  const bool release = build_type == "release";
  const bool pass = release && floor_ok && bitwise;

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 2;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"library_build_type\": \"%s\",\n", build_type.c_str());
  std::fprintf(out, "  \"simd_kernel\": \"%s\",\n",
               contract::simd_kernel_name().c_str());
  std::fprintf(out, "  \"workers\": %zu,\n", workers);
  std::fprintf(out, "  \"classes\": %zu,\n", classes);
  std::fprintf(out, "  \"intervals\": %zu,\n", intervals);
  std::fprintf(out, "  \"batch_wps\": %.1f,\n", wps);
  std::fprintf(out, "  \"min_wps\": %.1f,\n", min_wps);
  std::fprintf(out, "  \"bitwise_vs_reference\": %s,\n",
               bitwise ? "true" : "false");
  std::fprintf(out, "  \"pass\": %s\n", pass ? "true" : "false");
  std::fprintf(out, "}\n");
  std::fclose(out);

  std::printf(
      "bench_throughput (%s, simd=%s): batch %.0f w/s (need >= %.0f), "
      "bitwise %s -> %s\n",
      build_type.c_str(), contract::simd_kernel_name().c_str(), wps, min_wps,
      bitwise ? "ok" : "FAIL", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return ccd::bench::run_main("bench_throughput", run, argc, argv);
}
