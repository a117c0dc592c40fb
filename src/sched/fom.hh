/**
 * @file
 * Figure of merit for comparing partial schedules (paper Section
 * 3.3.1).
 *
 * A figure of merit is a vector of percentages, one per critical
 * resource (inter-cluster communication slots, per-cluster memory
 * slots, per-cluster register lifetimes, plus the remaining-memory
 * extension of Sections 3.3.2/3.3.4). To compare two figures, the
 * components of each are sorted from highest to lowest and compared
 * pairwise starting from the highest until a significant difference
 * (above a threshold) appears; the figure with the lower component
 * wins. If every pair is similar, the lower component sum wins.
 * This "benefit the weakest resource" rule steers scheduling away
 * from saturating any single resource.
 */

#ifndef GPSCHED_SCHED_FOM_HH
#define GPSCHED_SCHED_FOM_HH

#include <cstddef>
#include <vector>

#include "support/logging.hh"

namespace gpsched
{

/**
 * Multi-dimensional figure of merit; lower is better.
 *
 * Storage is a fixed inline buffer with a heap fallback: a figure is
 * built per candidate placement inside the scheduler's innermost
 * cluster-selection loop, and the arity (1 + ~3 per cluster) fits
 * the buffer on every realistic machine, so the hot path never
 * allocates.
 */
class FigureOfMerit
{
  public:
    FigureOfMerit() = default;

    /** Appends one component (a percentage; may exceed 100). */
    void
    addComponent(double percentage)
    {
        GPSCHED_ASSERT(percentage >= 0.0,
                       "negative figure-of-merit component");
        if (!overflow_.empty()) {
            overflow_.push_back(percentage);
        } else if (size_ < kInline) {
            inline_[size_] = percentage;
        } else {
            overflow_.assign(inline_, inline_ + kInline);
            overflow_.push_back(percentage);
        }
        ++size_;
    }

    /** Number of components. */
    std::size_t size() const { return size_; }

    /** Raw components (unsorted). */
    const double *
    data() const
    {
        return overflow_.empty() ? inline_ : overflow_.data();
    }

    /** Component sum (final tie-break). */
    double sum() const;

    /** Largest component. */
    double maxComponent() const;

    /**
     * True when @p a is strictly better (lower) than @p b under the
     * sorted pairwise comparison with @p threshold percentage
     * points. Figures must have equal arity.
     */
    static bool better(const FigureOfMerit &a, const FigureOfMerit &b,
                       double threshold);

  private:
    /** Inline capacity: covers machines up to ~7 clusters. */
    static constexpr std::size_t kInline = 24;

    double inline_[kInline];
    std::size_t size_ = 0;

    /** Holds *all* components once the inline buffer overflows. */
    std::vector<double> overflow_;
};

} // namespace gpsched

#endif // GPSCHED_SCHED_FOM_HH
