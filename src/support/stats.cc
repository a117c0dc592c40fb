#include "support/stats.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/logging.hh"

namespace gpsched
{

Histogram::Histogram(double lowest, double growth, std::size_t buckets)
{
    GPSCHED_ASSERT(lowest > 0.0, "Histogram needs lowest bound > 0");
    GPSCHED_ASSERT(growth > 1.0, "Histogram needs growth > 1");
    GPSCHED_ASSERT(buckets >= 1, "Histogram needs >= 1 bucket");
    bounds_.reserve(buckets);
    double bound = lowest;
    for (std::size_t i = 0; i < buckets; ++i) {
        bounds_.push_back(bound);
        bound *= growth;
    }
    counts_.assign(buckets + 1, 0);
}

void
Histogram::add(double x)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
    counts_[static_cast<std::size_t>(it - bounds_.begin())]++;
    if (count_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++count_;
    sum_ += x;
}

std::size_t
Histogram::count() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return count_;
}

double
Histogram::sum() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return sum_;
}

double
Histogram::mean() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

double
Histogram::min() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return count_ ? min_ : 0.0;
}

double
Histogram::max() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return count_ ? max_ : 0.0;
}

double
Histogram::quantile(double q) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (count_ == 0)
        return 0.0;
    q = std::min(std::max(q, 0.0), 1.0);
    // Rank of the q-quantile sample, 1-based, ceil(q * n).
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(count_)));
    rank = std::max<std::size_t>(rank, 1);
    std::size_t cumulative = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        cumulative += counts_[i];
        if (cumulative >= rank) {
            double bound = i < bounds_.size()
                               ? bounds_[i]
                               : max_; // overflow bucket
            return std::min(std::max(bound, min_), max_);
        }
    }
    return max_;
}

std::vector<Histogram::Bucket>
Histogram::buckets() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Bucket> out;
    out.reserve(counts_.size());
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        double bound = i < bounds_.size()
                           ? bounds_[i]
                           : std::numeric_limits<double>::infinity();
        out.push_back(Bucket{bound, counts_[i]});
    }
    return out;
}

} // namespace gpsched
