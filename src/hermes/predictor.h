// Shadow-table growth prediction (Section 5.1).
//
// The Rule Manager forecasts the next epoch's rule-arrival count from the
// recent history and triggers migration pre-emptively when the forecast
// says the shadow table would overflow. The paper explores three
// predictors — EWMA, Cubic Spline and ARMA — and two control-theoretic
// error-correction mechanisms — Slack (multiplicative inflation) and
// Deadzone (additive inflation) — and settles on Cubic Spline + Slack.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace hermes::core {

/// Forecasts the next value of a (non-negative) time series.
class Predictor {
 public:
  virtual ~Predictor() = default;

  /// Predicts the value following `history` (oldest first). With an empty
  /// history returns 0; implementations must never return a negative or
  /// non-finite value.
  virtual double predict(std::span<const double> history) const = 0;

  virtual std::string_view name() const = 0;
};

/// Exponentially Weighted Moving Average: s_t = a*x_t + (1-a)*s_{t-1}.
class EwmaPredictor final : public Predictor {
 public:
  explicit EwmaPredictor(double alpha = 0.3);
  double predict(std::span<const double> history) const override;
  std::string_view name() const override { return "EWMA"; }

 private:
  double alpha_;
};

/// Natural cubic spline through the last `window` samples, extrapolated
/// one step past the end using the final polynomial segment.
///
/// That forecast is a linear extrapolation of the last two samples,
/// exactly max(0, 2*y[n-1] - y[n-2]): at the extrapolation point t = 2
/// the weight of the second derivative M_{n-2}, (1-t)^3 - (1-t), is 0,
/// and the natural end condition makes M_{n-1} = 0. So whenever the
/// tridiagonal solve stays finite (every integer-valued count history
/// the Rule Manager feeds it), neither it nor the window changes the
/// forecast; CubicSpline.ForecastIsLinearExtrapolation pins this.
class CubicSplinePredictor final : public Predictor {
 public:
  explicit CubicSplinePredictor(int window = 8);
  double predict(std::span<const double> history) const override;
  std::string_view name() const override { return "CubicSpline"; }

 private:
  int window_;
};

/// Autoregressive moving-average forecaster. The AR coefficients are fit
/// by Yule-Walker / Levinson-Durbin over the last `window` samples; the
/// MA component reduces to the innovation mean, which is ~0 for a
/// well-fit AR, so this is effectively ARMA(p, 0).
class ArmaPredictor final : public Predictor {
 public:
  explicit ArmaPredictor(int order = 3, int window = 32);
  double predict(std::span<const double> history) const override;
  std::string_view name() const override { return "ARMA"; }

 private:
  int order_;
  int window_;
};

/// Inflates a prediction to compensate for forecast error (Section 5.1).
class Corrector {
 public:
  virtual ~Corrector() = default;
  virtual double correct(double predicted) const = 0;
  virtual std::string_view name() const = 0;
};

/// Multiplicative inflation: a slack of 0.4 turns 1000 into 1400.
class SlackCorrector final : public Corrector {
 public:
  explicit SlackCorrector(double factor);
  double correct(double predicted) const override;
  std::string_view name() const override { return "Slack"; }

 private:
  double factor_;
};

/// Additive inflation: a deadzone of 100 turns 1000 into 1100.
class DeadzoneCorrector final : public Corrector {
 public:
  explicit DeadzoneCorrector(double constant);
  double correct(double predicted) const override;
  std::string_view name() const override { return "Deadzone"; }

 private:
  double constant_;
};

/// Bounded arrival-count history + predictor + corrector, packaged for the
/// Rule Manager. Counts are recorded per fixed epoch by the caller.
class GrowthEstimator {
 public:
  GrowthEstimator(std::unique_ptr<Predictor> predictor,
                  std::unique_ptr<Corrector> corrector,
                  std::size_t max_history = 256);

  /// Records the arrival count observed in the epoch that just closed.
  void observe(double count);

  /// Corrected forecast of next epoch's arrivals.
  double predicted_next() const;
  /// Uncorrected forecast (for error analysis). Computed on the first
  /// read after an observe() or reset(), then served from memory: a
  /// forecast is a pure function of the history.
  double raw_prediction() const;

  /// The last min(n, max_history) observed counts, oldest first.
  std::span<const double> history() const {
    return std::span<const double>(history_).subspan(first_);
  }
  void reset();

 private:
  std::unique_ptr<Predictor> predictor_;
  std::unique_ptr<Corrector> corrector_;
  std::size_t max_history_;
  // The history is history_[first_..]. Dropped samples stay in front
  // until there are max_history_ of them, then go in one erase, so
  // dropping the oldest sample costs O(1) amortized.
  std::vector<double> history_;
  std::size_t first_ = 0;
  mutable std::optional<double> forecast_;  // raw forecast of history()

  // Forecast-accuracy aggregates (process-attached registry; detached
  // no-op handles otherwise). The error histogram records |raw forecast -
  // actual| in whole rules, not nanoseconds.
  obs::Counter obs_samples_ = obs::attached_counter("predictor.samples");
  obs::Histogram obs_abs_error_ =
      obs::attached_histogram("predictor.abs_error");
};

/// Factory helpers for the configuration matrix of Section 8.6.
std::unique_ptr<Predictor> make_predictor(std::string_view name);
std::unique_ptr<Corrector> make_corrector(std::string_view name,
                                          double parameter);

}  // namespace hermes::core
