#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace juno {

void
RunningStat::add(double x)
{
    if (n_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
}

double
RunningStat::variance() const
{
    if (n_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(n_ - 1);
}

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

void
QuantileSketch::add(double x)
{
    data_.push_back(x);
    sorted_ = false;
}

void
QuantileSketch::add(const std::vector<double> &xs)
{
    data_.insert(data_.end(), xs.begin(), xs.end());
    sorted_ = false;
}

void
QuantileSketch::merge(const QuantileSketch &other)
{
    if (other.data_.empty())
        return;
    if (&other == this) { // self-merge: duplicate without iterating a
                          // vector that reallocates under the insert
        const std::size_t n = data_.size();
        data_.reserve(2 * n);
        for (std::size_t i = 0; i < n; ++i)
            data_.push_back(data_[i]);
    } else {
        data_.insert(data_.end(), other.data_.begin(), other.data_.end());
    }
    sorted_ = false;
}

void
QuantileSketch::ensureSorted() const
{
    if (!sorted_) {
        std::sort(data_.begin(), data_.end());
        sorted_ = true;
    }
}

double
QuantileSketch::quantile(double q) const
{
    JUNO_REQUIRE(!data_.empty(), "quantile of empty sketch");
    JUNO_REQUIRE(q >= 0.0 && q <= 1.0, "quantile arg " << q);
    ensureSorted();
    if (data_.size() == 1)
        return data_[0];
    const double pos = q * static_cast<double>(data_.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, data_.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return data_[lo] * (1.0 - frac) + data_[hi] * frac;
}

double
QuantileSketch::mean() const
{
    if (data_.empty())
        return 0.0;
    double sum = 0.0;
    for (double x : data_)
        sum += x;
    return sum / static_cast<double>(data_.size());
}

QuantileSummary
QuantileSketch::summary() const
{
    QuantileSummary s;
    s.count = count();
    if (s.count == 0)
        return s;
    s.mean = mean();
    s.p50 = quantile(0.50);
    s.p95 = quantile(0.95);
    s.p99 = quantile(0.99);
    s.max = quantile(1.0);
    return s;
}

} // namespace juno
