#include "sched/fom.hh"

#include <algorithm>
#include <cmath>

#include "support/logging.hh"

namespace gpsched
{

double
FigureOfMerit::sum() const
{
    const double *c = data();
    double total = 0.0;
    for (std::size_t i = 0; i < size_; ++i)
        total += c[i];
    return total;
}

double
FigureOfMerit::maxComponent() const
{
    const double *c = data();
    double best = 0.0;
    for (std::size_t i = 0; i < size_; ++i)
        best = std::max(best, c[i]);
    return best;
}

bool
FigureOfMerit::better(const FigureOfMerit &a, const FigureOfMerit &b,
                      double threshold)
{
    GPSCHED_ASSERT(a.size() == b.size(),
                   "figure-of-merit arity mismatch: ", a.size(),
                   " vs ", b.size());
    const std::size_t n = a.size();
    // Stack copies for the sort: better() runs once per candidate
    // cluster inside the scheduler's placement loop, and the figures
    // fit the inline buffer on every realistic machine.
    double sa_buf[kInline];
    double sb_buf[kInline];
    std::vector<double> sa_heap, sb_heap;
    double *sa = sa_buf;
    double *sb = sb_buf;
    if (n > kInline) {
        sa_heap.assign(a.data(), a.data() + n);
        sb_heap.assign(b.data(), b.data() + n);
        sa = sa_heap.data();
        sb = sb_heap.data();
    } else {
        std::copy(a.data(), a.data() + n, sa);
        std::copy(b.data(), b.data() + n, sb);
    }
    std::sort(sa, sa + n, std::greater<double>());
    std::sort(sb, sb + n, std::greater<double>());
    for (std::size_t i = 0; i < n; ++i) {
        if (std::abs(sa[i] - sb[i]) > threshold)
            return sa[i] < sb[i];
    }
    return a.sum() < b.sum();
}

} // namespace gpsched
