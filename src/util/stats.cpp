#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace smerge::util {

void RunningStats::add(double x) noexcept {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  if (x < min_) min_ = x;
  if (x > max_) max_ = x;
}

double RunningStats::variance() const noexcept {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const noexcept {
  return std::sqrt(variance());
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  if (other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
}

P2Quantile::P2Quantile(double q) : q_(q) {
  if (!(q > 0.0) || !(q < 1.0)) {
    throw std::invalid_argument("P2Quantile: q must lie in (0, 1)");
  }
}

P2Quantile::P2Quantile(const P2State& state) : q_(state.q), n_(state.n) {
  if (!(state.q > 0.0) || !(state.q < 1.0)) {
    throw std::invalid_argument("P2Quantile: q must lie in (0, 1)");
  }
  std::copy(state.heights, state.heights + 5, heights_);
  std::copy(state.positions, state.positions + 5, positions_);
  std::copy(state.desired, state.desired + 5, desired_);
  std::copy(state.increments, state.increments + 5, increments_);
}

P2State P2Quantile::state() const noexcept {
  P2State s;
  s.q = q_;
  s.n = n_;
  std::copy(heights_, heights_ + 5, s.heights);
  std::copy(positions_, positions_ + 5, s.positions);
  std::copy(desired_, desired_ + 5, s.desired);
  std::copy(increments_, increments_ + 5, s.increments);
  return s;
}

void P2Quantile::add(double x) noexcept {
  if (n_ < 5) {
    heights_[n_] = x;
    ++n_;
    if (n_ == 5) {
      std::sort(heights_, heights_ + 5);
      for (int i = 0; i < 5; ++i) positions_[i] = static_cast<double>(i + 1);
      desired_[0] = 1.0;
      desired_[1] = 1.0 + 2.0 * q_;
      desired_[2] = 1.0 + 4.0 * q_;
      desired_[3] = 3.0 + 2.0 * q_;
      desired_[4] = 5.0;
      increments_[0] = 0.0;
      increments_[1] = q_ / 2.0;
      increments_[2] = q_;
      increments_[3] = (1.0 + q_) / 2.0;
      increments_[4] = 1.0;
    }
    return;
  }
  ++n_;

  // Locate the cell the observation falls into; the extreme markers
  // absorb out-of-range observations.
  int k;
  if (x < heights_[0]) {
    heights_[0] = x;
    k = 0;
  } else if (x >= heights_[4]) {
    heights_[4] = x;
    k = 3;
  } else {
    k = 0;
    while (k < 3 && x >= heights_[k + 1]) ++k;
  }
  for (int i = k + 1; i < 5; ++i) positions_[i] += 1.0;
  for (int i = 0; i < 5; ++i) desired_[i] += increments_[i];

  // Nudge the three interior markers toward their desired positions,
  // adjusting heights by the piecewise-parabolic (P²) prediction and
  // falling back to linear when the parabola would leave the bracket.
  for (int i = 1; i <= 3; ++i) {
    const double d = desired_[i] - positions_[i];
    const double right = positions_[i + 1] - positions_[i];
    const double left = positions_[i - 1] - positions_[i];
    if ((d >= 1.0 && right > 1.0) || (d <= -1.0 && left < -1.0)) {
      const double sign = d >= 1.0 ? 1.0 : -1.0;
      const double parabolic =
          heights_[i] +
          sign / (positions_[i + 1] - positions_[i - 1]) *
              ((positions_[i] - positions_[i - 1] + sign) *
                   (heights_[i + 1] - heights_[i]) / right +
               (positions_[i + 1] - positions_[i] - sign) *
                   (heights_[i] - heights_[i - 1]) / (-left));
      if (heights_[i - 1] < parabolic && parabolic < heights_[i + 1]) {
        heights_[i] = parabolic;
      } else {
        const int j = sign > 0.0 ? i + 1 : i - 1;
        heights_[i] += sign * (heights_[j] - heights_[i]) /
                       (positions_[j] - positions_[i]);
      }
      positions_[i] += sign;
    }
  }
}

double P2Quantile::estimate() const noexcept {
  if (n_ == 0) return 0.0;
  if (n_ < 5) {
    // Exact nearest-rank on the handful of retained samples. The count
    // is clamped so the optimizer can see the bound.
    const int k = static_cast<int>(n_ < 5 ? n_ : 5);
    double sorted[5];
    std::copy(heights_, heights_ + k, sorted);
    // Tiny insertion sort: std::sort on the 5-slot buffer trips gcc's
    // array-bounds analysis through its 16-element insertion threshold.
    for (int i = 1; i < k; ++i) {
      const double x = sorted[i];
      int j = i;
      while (j > 0 && sorted[j - 1] > x) {
        sorted[j] = sorted[j - 1];
        --j;
      }
      sorted[j] = x;
    }
    const int rank =
        static_cast<int>(std::ceil(q_ * static_cast<double>(k)));
    return sorted[std::clamp(rank, 1, k) - 1];
  }
  return heights_[2];
}

namespace {

/// The 0-based index of the nearest-rank q-quantile of n > 0 values:
/// rank ceil(q * n), with rank 0 (q == 0) read as the minimum.
std::size_t nearest_rank_index(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return rank == 0 ? 0 : rank - 1;
}

}  // namespace

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (!(q >= 0.0) || q > 1.0) {
    throw std::invalid_argument("quantile_sorted: q must lie in [0, 1]");
  }
  if (sorted.empty()) return 0.0;
  return sorted[nearest_rank_index(sorted.size(), q)];
}

std::vector<double> quantiles_by_selection(std::span<double> values,
                                           std::span<const double> qs) {
  std::vector<double> out(qs.size(), 0.0);
  double previous = 0.0;
  std::size_t from = 0;
  for (std::size_t i = 0; i < qs.size(); ++i) {
    if (!(qs[i] >= previous) || qs[i] > 1.0) {
      throw std::invalid_argument(
          "quantiles_by_selection: qs must be ascending in [0, 1]");
    }
    previous = qs[i];
    if (values.empty()) continue;
    // Everything left of `from` is <= values[from] <= everything right
    // of it, so the next order statistic lies in [from, end).
    const std::size_t k = nearest_rank_index(values.size(), qs[i]);
    const auto first = values.begin() + static_cast<std::ptrdiff_t>(from);
    const auto nth = values.begin() + static_cast<std::ptrdiff_t>(k);
    std::nth_element(first, nth, values.end());
    out[i] = *nth;
    from = k;
  }
  return out;
}

}  // namespace smerge::util
