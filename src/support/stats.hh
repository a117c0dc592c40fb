/**
 * @file
 * The thread-safe latency histogram behind the telemetry registry.
 */

#ifndef GPSCHED_SUPPORT_STATS_HH
#define GPSCHED_SUPPORT_STATS_HH

#include <cstddef>
#include <mutex>
#include <vector>

namespace gpsched
{

/**
 * Thread-safe fixed-bucket histogram with log-spaced bucket bounds.
 *
 * For when a mean hides the story (task wait times, compile
 * latencies): tracks count/sum/min/max exactly and approximates
 * percentiles from the bucket counts. Bucket bounds are fixed at
 * construction — bucket i covers values <= lowest*growth^i, with a
 * final catch-all bucket — so concurrent add() never reallocates.
 * Every accessor takes an internal mutex, so one histogram can be
 * shared between engine worker threads.
 *
 * Percentile queries return the upper bound of the first bucket whose
 * cumulative count reaches the rank, clamped to the observed
 * [min, max]; with growth 2 the estimate is within 2x of the true
 * value, which is plenty for p50/p95 dashboards.
 */
class Histogram
{
  public:
    /**
     * @param lowest Upper bound of the first bucket (must be > 0).
     * @param growth Bound multiplier between buckets (must be > 1).
     * @param buckets Number of bounded buckets (>= 1); one unbounded
     *        overflow bucket is added on top.
     */
    explicit Histogram(double lowest = 1e-6, double growth = 2.0,
                       std::size_t buckets = 48);
    Histogram(const Histogram &) = delete;
    Histogram &operator=(const Histogram &) = delete;

    /** Adds one sample (negative samples clamp into bucket 0). */
    void add(double x);

    /** Number of samples added. */
    std::size_t count() const;

    /** Sum of all samples. */
    double sum() const;

    /** Arithmetic mean (0 when empty). */
    double mean() const;

    /** Smallest sample (0 when empty). */
    double min() const;

    /** Largest sample (0 when empty). */
    double max() const;

    /** Approximate q-quantile, q in [0,1] (0 when empty). */
    double quantile(double q) const;

    /** Approximate median. */
    double p50() const { return quantile(0.50); }

    /** Approximate 95th percentile. */
    double p95() const { return quantile(0.95); }

    /** One bucket's inclusive upper bound and its sample count. */
    struct Bucket
    {
        double upperBound; // +inf for the overflow bucket
        std::size_t count;
    };

    /** Snapshot of all buckets (including the overflow bucket). */
    std::vector<Bucket> buckets() const;

  private:
    mutable std::mutex mutex_;
    std::vector<double> bounds_; // inclusive upper bounds, ascending
    std::vector<std::size_t> counts_; // bounds_.size() + 1 entries
    std::size_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

} // namespace gpsched

#endif // GPSCHED_SUPPORT_STATS_HH
