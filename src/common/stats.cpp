#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <utility>

#include "common/assert.hpp"

namespace pcmsim {

void RunningStat::add(double x) {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStat::variance() const {
  return n_ ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

void RunningStat::merge(const RunningStat& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double nt = na + nb;
  mean_ += delta * nb / nt;
  m2_ += other.m2_ + delta * delta * na * nb / nt;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

ScopedTimer::ScopedTimer(std::string label, RunningStat* sink)
    : label_(std::move(label)), sink_(sink), start_(std::chrono::steady_clock::now()) {}

double ScopedTimer::elapsed_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
}

ScopedTimer::~ScopedTimer() {
  const double s = elapsed_seconds();
  if (sink_) sink_->add(s);
  if (!label_.empty()) {
    std::cerr << "[time] " << label_ << ": " << s << " s\n";
  }
}

void EmpiricalCdf::ensure_sorted() const {
  if (!sorted_) {
    std::sort(xs_.begin(), xs_.end());
    sorted_ = true;
  }
}

double EmpiricalCdf::at(double x) const {
  if (xs_.empty()) return 0.0;
  ensure_sorted();
  const auto it = std::upper_bound(xs_.begin(), xs_.end(), x);
  return static_cast<double>(it - xs_.begin()) / static_cast<double>(xs_.size());
}

double EmpiricalCdf::quantile(double q) const {
  expects(q >= 0.0 && q <= 1.0, "quantile q must be in [0,1]");
  expects(!xs_.empty(), "quantile of empty sample set");
  ensure_sorted();
  const double pos = q * static_cast<double>(xs_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= xs_.size()) return xs_.back();
  return xs_[lo] * (1.0 - frac) + xs_[lo + 1] * frac;
}

}  // namespace pcmsim
