// Streaming statistics accumulators for simulator metrics.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace pcmsim {

/// Welford-style streaming mean/variance with min/max tracking.
class RunningStat {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;  // population variance
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

  /// Merges another accumulator into this one (parallel reduction).
  void merge(const RunningStat& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Monotonic wall-clock timer for bench runs. On destruction the elapsed
/// seconds are added to the optional RunningStat sink and, when a label was
/// given, reported on stderr as "[time] <label>: <seconds> s" — table output
/// on stdout stays clean.
class ScopedTimer {
 public:
  explicit ScopedTimer(std::string label, RunningStat* sink = nullptr);
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Seconds since construction (monotonic clock).
  [[nodiscard]] double elapsed_seconds() const;

 private:
  std::string label_;
  RunningStat* sink_;
  std::chrono::steady_clock::time_point start_;
};

/// Exact empirical CDF helper for modest sample counts (used for Fig 11).
class EmpiricalCdf {
 public:
  void add(double x) { xs_.push_back(x); sorted_ = false; }
  [[nodiscard]] std::size_t count() const { return xs_.size(); }
  /// Fraction of samples <= x.
  [[nodiscard]] double at(double x) const;
  /// q-quantile of the sample set, q in [0,1].
  [[nodiscard]] double quantile(double q) const;

 private:
  mutable std::vector<double> xs_;
  mutable bool sorted_ = true;
  void ensure_sorted() const;
};

}  // namespace pcmsim
