#include "hermes/predictor.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

namespace hermes::core {

namespace {

double clamp_forecast(double v) {
  if (!std::isfinite(v) || v < 0) return 0;
  return v;
}

}  // namespace

// --- EWMA -------------------------------------------------------------------

EwmaPredictor::EwmaPredictor(double alpha) : alpha_(alpha) {
  assert(alpha > 0 && alpha <= 1);
}

double EwmaPredictor::predict(std::span<const double> history) const {
  if (history.empty()) return 0;
  double s = history.front();
  for (std::size_t i = 1; i < history.size(); ++i)
    s = alpha_ * history[i] + (1 - alpha_) * s;
  return clamp_forecast(s);
}

// --- Cubic spline ------------------------------------------------------------

CubicSplinePredictor::CubicSplinePredictor(int window) : window_(window) {
  assert(window >= 3);
}

double CubicSplinePredictor::predict(std::span<const double> history) const {
  if (history.empty()) return 0;
  if (history.size() == 1) return clamp_forecast(history[0]);
  // Use the last `window_` samples at abscissae 0..n-1.
  std::size_t n = std::min(history.size(), static_cast<std::size_t>(window_));
  std::span<const double> y = history.subspan(history.size() - n);
  if (n == 2) {
    // Linear extrapolation.
    return clamp_forecast(y[1] + (y[1] - y[0]));
  }

  // Natural cubic spline: solve the tridiagonal system for the second
  // derivatives M_i (M_0 = M_{n-1} = 0), knot spacing h = 1, by the
  // Thomas algorithm with unit off-diagonals. The extrapolation below
  // needs only M_{n-2} and M_{n-1}, and back substitution yields M_{n-2}
  // first (the last row's rhs over its pivot), so the forward sweep
  // keeps just the current row and nothing is allocated.
  double diag = 4.0;
  double rhs = 6.0 * (y[2] - 2 * y[1] + y[0]);
  for (std::size_t i = 1; i + 2 < n; ++i) {
    double w = 1.0 / diag;
    diag = 4.0 - w;
    rhs = 6.0 * (y[i + 2] - 2 * y[i + 1] + y[i]) - w * rhs;
  }

  // Extrapolate one step past the last knot using the final segment's
  // cubic: on [n-2, n-1] with t = x - (n-2),
  //   S(t) = y0 (1-t) + y1 t + (M0 ((1-t)^3-(1-t)) + M1 (t^3-t)) / 6.
  // At x = n, t = 2.
  double y0 = y[n - 2], y1 = y[n - 1];
  double m0 = rhs / diag, m1 = 0.0;
  double t = 2.0;
  double omt = 1.0 - t;  // = -1
  double value = y0 * omt + y1 * t +
                 (m0 * (omt * omt * omt - omt) + m1 * (t * t * t - t)) / 6.0;
  return clamp_forecast(value);
}

// --- ARMA (AR(p) via Yule-Walker / Levinson-Durbin) --------------------------

ArmaPredictor::ArmaPredictor(int order, int window)
    : order_(order), window_(window) {
  assert(order >= 1 && window > order * 2);
}

double ArmaPredictor::predict(std::span<const double> history) const {
  if (history.empty()) return 0;
  std::size_t n = std::min(history.size(), static_cast<std::size_t>(window_));
  std::span<const double> x = history.subspan(history.size() - n);
  int p = std::min<int>(order_, static_cast<int>(n) - 1);
  if (p < 1) return clamp_forecast(x.back());

  double mean = std::accumulate(x.begin(), x.end(), 0.0) /
                static_cast<double>(n);

  // Sample autocovariances r_0..r_p.
  std::vector<double> r(static_cast<std::size_t>(p) + 1, 0.0);
  for (int lag = 0; lag <= p; ++lag) {
    double acc = 0;
    for (std::size_t i = static_cast<std::size_t>(lag); i < n; ++i)
      acc += (x[i] - mean) * (x[i - static_cast<std::size_t>(lag)] - mean);
    r[static_cast<std::size_t>(lag)] = acc / static_cast<double>(n);
  }
  if (r[0] <= 1e-12) return clamp_forecast(mean);  // constant series

  // Levinson-Durbin recursion for the AR coefficients phi_1..phi_p.
  std::vector<double> phi(static_cast<std::size_t>(p) + 1, 0.0);
  std::vector<double> prev(static_cast<std::size_t>(p) + 1, 0.0);
  double err = r[0];
  for (int k = 1; k <= p; ++k) {
    double acc = r[static_cast<std::size_t>(k)];
    for (int j = 1; j < k; ++j)
      acc -= phi[static_cast<std::size_t>(j)] *
             r[static_cast<std::size_t>(k - j)];
    double reflection = acc / err;
    prev = phi;
    phi[static_cast<std::size_t>(k)] = reflection;
    for (int j = 1; j < k; ++j)
      phi[static_cast<std::size_t>(j)] =
          prev[static_cast<std::size_t>(j)] -
          reflection * prev[static_cast<std::size_t>(k - j)];
    err *= (1 - reflection * reflection);
    if (err <= 1e-12) break;
  }

  // One-step-ahead forecast around the mean. The MA innovation term has
  // zero expectation, so ARMA(p, q) and AR(p) forecasts coincide here.
  double forecast = mean;
  for (int j = 1; j <= p; ++j)
    forecast += phi[static_cast<std::size_t>(j)] *
                (x[n - static_cast<std::size_t>(j)] - mean);
  return clamp_forecast(forecast);
}

// --- Correctors ---------------------------------------------------------------

SlackCorrector::SlackCorrector(double factor) : factor_(factor) {
  assert(factor >= 0);
}
double SlackCorrector::correct(double predicted) const {
  return predicted * (1 + factor_);
}

DeadzoneCorrector::DeadzoneCorrector(double constant) : constant_(constant) {
  assert(constant >= 0);
}
double DeadzoneCorrector::correct(double predicted) const {
  return predicted + constant_;
}

// --- GrowthEstimator -----------------------------------------------------------

GrowthEstimator::GrowthEstimator(std::unique_ptr<Predictor> predictor,
                                 std::unique_ptr<Corrector> corrector,
                                 std::size_t max_history)
    : predictor_(std::move(predictor)),
      corrector_(std::move(corrector)),
      max_history_(max_history) {
  assert(predictor_ && corrector_ && max_history_ > 0);
}

void GrowthEstimator::observe(double count) {
  // Score the forecast this history WOULD have produced for the epoch
  // that just closed (guarded: predict() is not free, so only pay for it
  // when a registry is actually collecting).
  if (obs_samples_.attached() && !history().empty()) {
    obs_samples_.inc();
    obs_abs_error_.record(static_cast<std::uint64_t>(
        std::abs(raw_prediction() - count) + 0.5));
  }
  history_.push_back(count);
  if (history_.size() - first_ > max_history_) ++first_;
  if (first_ == max_history_) {
    history_.erase(history_.begin(),
                   history_.begin() + static_cast<std::ptrdiff_t>(first_));
    first_ = 0;
  }
  forecast_.reset();
}

void GrowthEstimator::reset() {
  history_.clear();
  first_ = 0;
  forecast_.reset();
}

double GrowthEstimator::raw_prediction() const {
  if (!forecast_) forecast_ = predictor_->predict(history());
  return *forecast_;
}

double GrowthEstimator::predicted_next() const {
  return corrector_->correct(raw_prediction());
}

// --- Factories -----------------------------------------------------------------

std::unique_ptr<Predictor> make_predictor(std::string_view name) {
  if (name == "EWMA" || name == "ewma") return std::make_unique<EwmaPredictor>();
  if (name == "CubicSpline" || name == "cubic" || name == "spline")
    return std::make_unique<CubicSplinePredictor>();
  if (name == "ARMA" || name == "arma") return std::make_unique<ArmaPredictor>();
  return nullptr;
}

std::unique_ptr<Corrector> make_corrector(std::string_view name,
                                          double parameter) {
  if (name == "Slack" || name == "slack")
    return std::make_unique<SlackCorrector>(parameter);
  if (name == "Deadzone" || name == "deadzone")
    return std::make_unique<DeadzoneCorrector>(parameter);
  return nullptr;
}

}  // namespace hermes::core
