// Ablation — the Eq. 40 epsilon on coarse grids: the paper's raw value vs
// our window-capped value (DESIGN.md "Paper typos we correct" /
// EXPERIMENTS.md "Known deviations").
//
// Eq. 40's epsilon scales like delta^2 / psi'(m delta). On fine grids it is
// tiny and the two variants coincide; on coarse grids the raw value fills
// the whole Case-III window, pushing slopes to the expensive Case-II edge —
// the worker gets overpaid, Lemma 4.2's compensation cap breaks, and the
// requester's utility drops (below even the Theorem 4.1 *lower* bound's
// assumptions). The cap (5% of the remaining window) preserves the strict
// preference of Eq. 36 and restores the lemma at every m.
#include <cstdio>

#include "contract/bounds.hpp"
#include "contract/candidate.hpp"
#include "contract/worker_response.hpp"
#include "util/config.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"
#include "bench_main.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace ccd;
  const util::ParamMap params = util::ParamMap::from_args(argc, argv);
  params.assert_all_consumed();

  const effort::QuadraticEffort psi(-1.0, 8.0, 2.0);
  const contract::WorkerIncentives honest{1.0, 0.0};
  const double w = 1.0;

  std::printf("== Ablation: raw Eq. 40 epsilon vs window-capped (k = m) ==\n");
  std::printf("single honest worker, %s, beta=1, mu=1\n\n",
              psi.to_string(2).c_str());

  util::TextTable table({"m", "pay (raw eq40)", "pay (capped)",
                         "Lemma 4.2 cap", "raw breaks cap?",
                         "utility (raw)", "utility (capped)"});
  for (const std::size_t m : {1ul, 2ul, 4ul, 8ul, 16ul, 32ul, 64ul}) {
    const double delta = psi.usable_domain() / static_cast<double>(m);
    const contract::Contract raw =
        contract::build_candidate(psi, delta, m, m, honest, nullptr, false);
    const contract::Contract capped =
        contract::build_candidate(psi, delta, m, m, honest, nullptr, true);
    const contract::BestResponse raw_br =
        contract::best_response(raw, psi, honest);
    const contract::BestResponse capped_br =
        contract::best_response(capped, psi, honest);
    const double cap =
        contract::lemma42_compensation_upper(psi, 1.0, delta, m);
    table.add_row(
        {std::to_string(m), util::format_double(raw_br.compensation, 4),
         util::format_double(capped_br.compensation, 4),
         util::format_double(cap, 4),
         raw_br.compensation > cap + 1e-9 ? "YES" : "no",
         util::format_double(w * raw_br.feedback - raw_br.compensation, 4),
         util::format_double(w * capped_br.feedback - capped_br.compensation,
                             4)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("shape check: the raw Eq. 40 epsilon violates Lemma 4.2's pay "
              "cap on coarse grids (small m) and tanks the requester's "
              "utility there; the capped variant obeys the cap at every m, "
              "and the two coincide as m grows (epsilon -> 0).\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ccd::bench::run_main("bench_ablation_epsilon", run, argc, argv);
}
