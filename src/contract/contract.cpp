#include "contract/contract.hpp"

#include <algorithm>
#include <sstream>

#include "util/error.hpp"
#include "util/string_util.hpp"

namespace ccd::contract {

Contract::Contract(double delta, const std::vector<double>& feedback_knots,
                   const std::vector<double>& payments)
    : delta_(delta) {
  CCD_CHECK_MSG(delta_ > 0.0, "contract delta must be positive");
  CCD_CHECK_MSG(feedback_knots.size() == payments.size(),
                "contract knots/payments size mismatch");
  CCD_CHECK_MSG(feedback_knots.size() >= 2,
                "contract needs at least two knots");
  for (std::size_t i = 1; i < feedback_knots.size(); ++i) {
    CCD_CHECK_MSG(feedback_knots[i] > feedback_knots[i - 1],
                  "contract feedback knots must be strictly increasing");
  }
  for (std::size_t i = 0; i < payments.size(); ++i) {
    CCD_CHECK_MSG(payments[i] >= 0.0, "contract payments must be >= 0");
    if (i > 0) {
      CCD_CHECK_MSG(payments[i] >= payments[i - 1],
                    "contract payments must be non-decreasing (Eq. 9)");
    }
  }
  points_ = feedback_knots.size();
  std::shared_ptr<double[]> block =
      std::make_shared_for_overwrite<double[]>(2 * points_);
  std::copy(feedback_knots.begin(), feedback_knots.end(), block.get());
  std::copy(payments.begin(), payments.end(), block.get() + points_);
  block_ = std::move(block);
}

Contract Contract::on_effort_grid(const effort::QuadraticEffort& psi,
                                  double delta,
                                  const std::vector<double>& payments) {
  CCD_CHECK_MSG(payments.size() >= 2,
                "on_effort_grid needs at least two payments (m >= 1)");
  const std::size_t m = payments.size() - 1;
  CCD_CHECK_MSG(psi.increasing_on(delta * static_cast<double>(m)),
                "effort grid extends past the peak of psi");
  std::vector<double> knots(m + 1);
  for (std::size_t l = 0; l <= m; ++l) {
    knots[l] = psi(delta * static_cast<double>(l));
  }
  return Contract(delta, knots, payments);
}

double Contract::pay(double feedback) const {
  if (is_zero()) return 0.0;
  const double* d = knots();
  const double* x = payments();
  if (feedback <= d[0]) return x[0];
  if (feedback >= d[points_ - 1]) return x[points_ - 1];
  // Find the interval [d_{l-1}, d_l) containing the feedback.
  const double* it = std::upper_bound(d, d + points_, feedback);
  const std::size_t l = static_cast<std::size_t>(it - d);
  const double t = (feedback - d[l - 1]) / (d[l] - d[l - 1]);
  return x[l - 1] * (1.0 - t) + x[l] * t;
}

double Contract::slope(std::size_t l) const {
  CCD_CHECK_MSG(l >= 1 && l <= intervals(), "contract slope index out of range");
  return (payments()[l] - payments()[l - 1]) / (knots()[l] - knots()[l - 1]);
}

double Contract::payment(std::size_t l) const {
  CCD_CHECK_MSG(l < points_, "contract payment index out of range");
  return payments()[l];
}

double Contract::knot(std::size_t l) const {
  CCD_CHECK_MSG(l < points_, "contract knot index out of range");
  return knots()[l];
}

double Contract::max_payment() const {
  return is_zero() ? 0.0 : payments()[points_ - 1];
}

std::string Contract::to_string(int precision) const {
  if (is_zero()) return "Contract{zero}";
  std::ostringstream os;
  os << "Contract{delta=" << util::format_double(delta_, precision) << ", ";
  for (std::size_t i = 0; i < points_; ++i) {
    if (i > 0) os << " ";
    os << '(' << util::format_double(knots()[i], precision) << "->"
       << util::format_double(payments()[i], precision) << ')';
  }
  os << '}';
  return os.str();
}

}  // namespace ccd::contract
