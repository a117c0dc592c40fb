/**
 * @file
 * Register-pressure tracking for one cluster's register file under
 * modulo execution.
 *
 * A value live over flat cycles [from, to] (inclusive) occupies one
 * register at every kernel slot congruent to a covered cycle; a
 * lifetime longer than II occupies several registers at once (the
 * kernel holds multiple overlapping iterations). The tracker keeps
 * exact per-slot live counts; feasibility is MaxLive <= registers,
 * the standard register model for modulo schedules.
 */

#ifndef GPSCHED_SCHED_LIFETIME_HH
#define GPSCHED_SCHED_LIFETIME_HH

#include <initializer_list>
#include <vector>

#include "support/logging.hh"

namespace gpsched
{

/** Half-open style is error-prone with wrapping; segments here are
 *  inclusive of both endpoints. */
struct LiveSegment
{
    int from = 0;
    int to = 0; ///< must satisfy to >= from

    /** Covered cycles. */
    int length() const { return to - from + 1; }
};

/**
 * Live segments of one value in one cluster. A value has at most
 * two (its lifetime split by a spill), so they are held inline and
 * copying a list never allocates.
 */
class SegmentList
{
  public:
    /** Appends @p seg; panics beyond two segments. */
    void
    push_back(const LiveSegment &seg)
    {
        GPSCHED_ASSERT(size_ < kMaxSegments,
                       "more than two live segments");
        segs_[size_++] = seg;
    }

    bool empty() const { return size_ == 0; }
    int size() const { return size_; }
    const LiveSegment *begin() const { return segs_; }
    const LiveSegment *end() const { return segs_ + size_; }

    /** Covered cycles summed over the segments. */
    int
    totalLength() const
    {
        int total = 0;
        for (const LiveSegment &seg : *this)
            total += seg.length();
        return total;
    }

  private:
    static constexpr int kMaxSegments = 2;

    LiveSegment segs_[kMaxSegments];
    int size_ = 0;
};

/**
 * Register-read times of one value in one cluster: a sorted multiset
 * kept in a small vector. The few reads a value has fit the inline
 * buffer, so inserting and erasing reads never allocates; a value
 * read more often moves all its times to the heap.
 */
class ReadEvents
{
  public:
    bool empty() const { return size_ == 0; }
    const int *begin() const { return data(); }
    const int *end() const { return data() + size_; }

    /** Earliest read; the set must not be empty. */
    int front() const { return data()[0]; }

    /** Latest read; the set must not be empty. */
    int back() const { return data()[size_ - 1]; }

    /** Adds one read at @p time. */
    void insert(int time);

    /** Removes one read at @p time; panics when there is none. */
    void erase(int time);

    /** back() once one read at @p from has moved to @p to. */
    int lastAfterMove(int from, int to) const;

  private:
    static constexpr int kInline = 6;

    int size_ = 0;
    int inline_[kInline] = {};

    /** Holds *all* times once the inline buffer overflows. */
    std::vector<int> overflow_;

    const int *
    data() const
    {
        return overflow_.empty() ? inline_ : overflow_.data();
    }
};

/** Per-cluster register lifetime tracker. */
class LifetimeTracker
{
  public:
    /** @param num_regs register-file size; @param ii kernel length. */
    LifetimeTracker(int num_regs, int ii);

    /** Drops every segment and resizes to kernel length @p ii,
     *  keeping the tables' storage. */
    void reset(int ii);

    /** Adds a live segment. */
    void add(const LiveSegment &seg);

    /** Removes a previously added segment. */
    void remove(const LiveSegment &seg);

    /**
     * True when adding @p added and removing @p removed keeps
     * MaxLive within the register file. Pure query. Each argument is
     * any range of LiveSegment (a SegmentList, a vector, a braced
     * list).
     */
    template <typename Removed = std::initializer_list<LiveSegment>,
              typename Added = std::initializer_list<LiveSegment>>
    bool
    fitsWithDiff(const Removed &removed, const Added &added) const
    {
        scratch_.assign(live_.begin(), live_.end());
        int *counts = scratch_.data();
        for (const LiveSegment &seg : removed)
            cover(seg, counts, ii_, -1);
        for (const LiveSegment &seg : added)
            cover(seg, counts, ii_, 1);
        return countsFit(counts);
    }

    /** Current maximum live count over kernel slots. */
    int maxLive() const;

    /** Sum of live counts over the kernel (register-cycles). */
    int usedRegCycles() const { return used_; }

    /** Register-cycles available per kernel iteration. */
    int capacity() const { return numRegs_ * ii_; }

    /** Register file size. */
    int numRegs() const { return numRegs_; }

  private:
    int numRegs_;
    int ii_ = 0;
    int used_ = 0;
    std::vector<int> live_;

    /**
     * fitsWithDiff() working copy (mutable: the query is pure).
     * Reassigned, never shrunk, per call; single-threaded like the
     * schedule that owns the tracker.
     */
    mutable std::vector<int> scratch_;

    /** Applies +delta to every slot covered by @p seg. */
    void apply(const LiveSegment &seg, int delta);

    /** Adds segment coverage of @p seg into @p counts. */
    static void cover(const LiveSegment &seg, int *counts, int ii,
                      int delta);

    /** True when no slot of the II @p counts exceeds the file. */
    bool countsFit(const int *counts) const;
};

} // namespace gpsched

#endif // GPSCHED_SCHED_LIFETIME_HH
