#include "sched/lifetime.hh"

#include <algorithm>
#include <climits>

#include "sched/mrt.hh"
#include "support/logging.hh"

namespace gpsched
{

void
ReadEvents::insert(int time)
{
    if (overflow_.empty() && size_ < kInline) {
        int *pos = std::upper_bound(inline_, inline_ + size_, time);
        std::copy_backward(pos, inline_ + size_, inline_ + size_ + 1);
        *pos = time;
    } else {
        if (overflow_.empty())
            overflow_.assign(inline_, inline_ + size_);
        overflow_.insert(std::upper_bound(overflow_.begin(),
                                          overflow_.end(), time),
                         time);
    }
    ++size_;
}

void
ReadEvents::erase(int time)
{
    const int *first = data();
    const int *pos = std::lower_bound(first, first + size_, time);
    GPSCHED_ASSERT(pos != first + size_ && *pos == time,
                   "erase of unknown read time ", time);
    if (overflow_.empty()) {
        int *at = inline_ + (pos - first);
        std::copy(at + 1, inline_ + size_, at);
    } else {
        overflow_.erase(overflow_.begin() + (pos - first));
    }
    --size_;
}

int
ReadEvents::lastAfterMove(int from, int to) const
{
    const int *first = data();
    GPSCHED_ASSERT(std::binary_search(first, first + size_, from),
                   "move of unknown read time ", from);
    // Dropping one read at `from` leaves the latest read unless that
    // read was the latest, when the one below it takes over.
    int rest = INT_MIN;
    if (back() != from)
        rest = back();
    else if (size_ >= 2)
        rest = first[size_ - 2];
    return std::max(rest, to);
}

LifetimeTracker::LifetimeTracker(int num_regs, int ii)
    : numRegs_(num_regs)
{
    GPSCHED_ASSERT(num_regs >= 0, "negative register count");
    reset(ii);
}

void
LifetimeTracker::reset(int ii)
{
    GPSCHED_ASSERT(ii >= 1, "II must be >= 1");
    ii_ = ii;
    used_ = 0;
    live_.assign(static_cast<std::size_t>(ii), 0);
}

void
LifetimeTracker::cover(const LiveSegment &seg, int *counts, int ii,
                       int delta)
{
    GPSCHED_ASSERT(seg.to >= seg.from, "bad segment [", seg.from, ",",
                   seg.to, "]");
    int len = seg.length();
    int full = len / ii;
    int rem = len % ii;
    if (full > 0) {
        for (int s = 0; s < ii; ++s)
            counts[s] += delta * full;
    }
    for (int i = 0; i < rem; ++i)
        counts[wrapSlot(seg.from + i, ii)] += delta;
}

void
LifetimeTracker::apply(const LiveSegment &seg, int delta)
{
    cover(seg, live_.data(), ii_, delta);
    used_ += delta * seg.length();
}

void
LifetimeTracker::add(const LiveSegment &seg)
{
    apply(seg, 1);
}

void
LifetimeTracker::remove(const LiveSegment &seg)
{
    apply(seg, -1);
    // A count can only have gone negative at a slot the removed
    // segment covered, so the check needs no full-kernel scan
    // unless the segment wrapped all the way around.
    if (seg.length() >= ii_) {
        for (int count : live_)
            GPSCHED_ASSERT(count >= 0,
                           "negative live count after remove");
    } else {
        for (int i = 0; i < seg.length(); ++i) {
            GPSCHED_ASSERT(live_[wrapSlot(seg.from + i, ii_)] >= 0,
                           "negative live count after remove");
        }
    }
}

bool
LifetimeTracker::countsFit(const int *counts) const
{
    for (int s = 0; s < ii_; ++s) {
        GPSCHED_ASSERT(counts[s] >= 0, "diff removes unknown coverage");
        if (counts[s] > numRegs_)
            return false;
    }
    return true;
}

int
LifetimeTracker::maxLive() const
{
    return live_.empty() ? 0
                         : *std::max_element(live_.begin(), live_.end());
}

} // namespace gpsched
