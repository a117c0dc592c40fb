#include "sched/uracam.hh"

#include <climits>
#include <optional>
#include <utility>
#include <vector>

#include "sched/sms_order.hh"
#include "sched/transforms.hh"
#include "support/logging.hh"

namespace gpsched
{

namespace
{

/** Significant-difference threshold for figure-of-merit comparisons
 *  between candidate clusters (percentage points). */
constexpr double kFomThreshold = 10.0;

} // namespace

ModuloScheduler::ModuloScheduler(const Ddg &ddg,
                                 const MachineConfig &machine)
    : ddg_(ddg), machine_(machine)
{
}

bool
ModuloScheduler::placeNode(PartialSchedule &ps, NodeId v,
                           ClusterPolicy policy,
                           const Partition *assignment,
                           const IiAnalysis &analysis,
                           bool deviate) const
{
    const int ii = ps.ii();
    const LatencyTable &lat = machine_.latencies();

    // Scheduling window from the already-placed neighbours (SMS: a
    // node never has both sides unordered, but recurrences may bound
    // it on both sides).
    bool any_pred = false, any_succ = false;
    int early = INT_MIN, late = INT_MAX;
    for (EdgeId eid : ddg_.inEdges(v)) {
        const DdgEdge &e = ddg_.edge(eid);
        if (e.src == v || !ps.isScheduled(e.src))
            continue;
        int eff = e.latency - ii * e.distance;
        early = std::max(early, ps.cycleOf(e.src) + eff);
        any_pred = true;
    }
    for (EdgeId eid : ddg_.outEdges(v)) {
        const DdgEdge &e = ddg_.edge(eid);
        if (e.dst == v || !ps.isScheduled(e.dst))
            continue;
        int eff = e.latency - ii * e.distance;
        late = std::min(late, ps.cycleOf(e.dst) - eff);
        any_succ = true;
    }

    // Communications may delay a node past the pure-latency bound, so
    // widen one-sided windows by the worst-case transfer delay.
    const int extra = machine_.numClusters() > 1
                          ? machine_.maxBusLatency() +
                                lat.latency(Opcode::CommSt) +
                                lat.latency(Opcode::CommLd)
                          : 0;
    const int span = ii + extra;
    int from, to;
    if (!any_pred && !any_succ) {
        from = analysis.asap[v];
        to = from + ii - 1;
    } else if (any_pred && !any_succ) {
        from = early;
        to = early + span - 1;
    } else if (!any_pred && any_succ) {
        from = late;
        to = late - span + 1; // scan downwards
    } else {
        if (early > late)
            return false;
        from = early;
        to = std::min(late, early + span - 1);
    }

    // Candidate clusters in policy order: [first, last] without
    // `skip`. A deviating PreferAssigned attempt considers everything
    // but the assigned cluster (which the non-deviating attempts have
    // already exhausted).
    int first = 0, last = machine_.numClusters() - 1, skip = -1;
    if (policy != ClusterPolicy::FreeChoice) {
        GPSCHED_ASSERT(assignment != nullptr,
                       "partition required for this cluster policy");
        const int assigned = assignment->clusterOf(v);
        if (policy == ClusterPolicy::PreferAssigned && deviate)
            skip = assigned;
        else
            first = last = assigned;
    }
    const int num_candidates = last - first + 1 - (skip >= 0 ? 1 : 0);

    // One alternative partial schedule per cluster with resources;
    // the figure of merit picks the winner (Section 3.3.3). With a
    // single candidate the figure of merit decides nothing, so the
    // first feasible plan is committed directly.
    bool have_best = false;
    FigureOfMerit best_fom;
    for (int c = first; c <= last; ++c) {
        if (c == skip || !ps.planInWindow(v, c, from, to, candidate_))
            continue;
        if (num_candidates == 1) {
            ps.apply(candidate_);
            return true;
        }
        FigureOfMerit fom = ps.insertionFom(candidate_);
        if (!have_best ||
            FigureOfMerit::better(fom, best_fom, kFomThreshold)) {
            std::swap(best_, candidate_);
            best_fom = std::move(fom);
            have_best = true;
        }
    }
    if (!have_best)
        return false;
    ps.apply(best_);
    return true;
}

bool
ModuloScheduler::schedule(PartialSchedule &ps, ClusterPolicy policy,
                          const Partition *assignment) const
{
    GPSCHED_ASSERT(ps.numScheduled() == 0,
                   "schedule into a non-empty partial schedule");
    // The graph keeps one analysis per II for its first latency
    // table; a machine with another table analyzes its own.
    const LatencyTable &lat = machine_.latencies();
    std::optional<IiAnalysis> local;
    const IiAnalysis *analysis = ddg_.iiAnalysis(ps.ii(), lat);
    if (analysis == nullptr)
        analysis = &local.emplace(analyzeIi(ddg_, lat, ps.ii()));
    if (!analysis->feasible)
        return false;

    // Section 3.3.3: after a placement the transformations are
    // tried, most saturated resource first. They bail out
    // immediately unless some resource is near critical, so the gate
    // only skips provably fruitless scans.
    auto relieveNearCritical = [&ps]() {
        constexpr double nearCriticalPercent = 85.0;
        if (ps.globalFom().maxComponent() >= nearCriticalPercent)
            TransformEngine::run(ps);
    };

    for (NodeId v : analysis->order) {
        if (placeNode(ps, v, policy, assignment, *analysis, false)) {
            relieveNearCritical();
            continue;
        }
        // Shift pressure between resource types and retry once.
        if (TransformEngine::run(ps) > 0 &&
            placeNode(ps, v, policy, assignment, *analysis, false))
            continue;
        // GP only: the assigned cluster is beyond saving at this II,
        // so deviate from the partition (Figure 1, alternative (b)).
        // Deviating last keeps every Fixed-schedulable trajectory
        // intact, so GP can never do worse than Fixed at equal II on
        // the same partition; the post-placement pass cannot perturb
        // that trajectory either, because deviation only happens once
        // it is already dead at this II.
        if (policy == ClusterPolicy::PreferAssigned &&
            placeNode(ps, v, policy, assignment, *analysis, true)) {
            relieveNearCritical();
            continue;
        }
        return false;
    }
    return true;
}

} // namespace gpsched
