/**
 * @file
 * Streaming statistics helpers used by the benches to reproduce the
 * paper's mean / quartile plots (Figs. 4-7) and by the serving layer's
 * latency accounting.
 */
#ifndef JUNO_COMMON_STATS_H
#define JUNO_COMMON_STATS_H

#include <string>
#include <vector>

namespace juno {

/** Welford mean/variance plus min/max over a stream of doubles. */
class RunningStat {
  public:
    void add(double x);

    std::size_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    /** Sample variance (n-1 denominator); 0 for fewer than 2 samples. */
    double variance() const;
    double stddev() const;
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }

  private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Point-in-time digest of a sample distribution: what latency
 * snapshots report and what the metrics registry exports as a
 * Prometheus summary. All fields read 0 for an empty distribution.
 */
struct QuantileSummary {
    std::size_t count = 0;
    double mean = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double max = 0.0;
};

/**
 * Holds all samples to answer arbitrary quantile queries. Quartile
 * accessors match the paper's plots: Q1/Q3 are the 25th/75th
 * percentiles, Q0/Q4 are the Tukey whiskers Q1-1.5*IQR / Q3+1.5*IQR.
 */
class QuantileSketch {
  public:
    void add(double x);
    void add(const std::vector<double> &xs);

    /**
     * Folds @p other's samples into this sketch. Quantiles of the
     * merged sketch are exactly those of the union of both sample
     * streams, so per-thread sketches can accumulate contention-free
     * and be combined at snapshot time (the serving layer's
     * ServiceStats does exactly this instead of serialising every
     * add() behind one mutex).
     */
    void merge(const QuantileSketch &other);

    std::size_t count() const { return data_.size(); }
    bool empty() const { return data_.empty(); }

    /**
     * Linear-interpolated quantile, q in [0, 1]. Lazily sorts the
     * retained samples on first call after an add(); the mutation is
     * confined to the mutable sample buffer, so the method stays
     * logically const — but it is NOT safe to call concurrently with
     * itself or with add() on the same sketch.
     */
    double quantile(double q) const;

    double median() const { return quantile(0.5); }
    double q1() const { return quantile(0.25); }
    double q3() const { return quantile(0.75); }
    double iqr() const { return q3() - q1(); }
    /** Tukey lower whisker Q1 - 1.5*IQR (paper Fig. 7 notation Q0). */
    double q0() const { return q1() - 1.5 * iqr(); }
    /** Tukey upper whisker Q3 + 1.5*IQR (paper Fig. 7 notation Q4). */
    double q4() const { return q3() + 1.5 * iqr(); }
    double mean() const;

    /** count / mean / p50 / p95 / p99 / max of the retained samples. */
    QuantileSummary summary() const;

  private:
    void ensureSorted() const;

    mutable std::vector<double> data_;
    mutable bool sorted_ = true;
};

} // namespace juno

#endif // JUNO_COMMON_STATS_H
