"""Statistics of the offline compile benchmark.

Pure functions, shared by run.py (metrics of one run), steady.py
(spread across runs) and test_stats.py.
"""

import math
import re
import statistics
from fractions import Fraction

# Percentiles a latency tail may be reported at, lowest first.
PERCENTILE_LADDER = ("50", "90", "99", "99.9", "99.99")

# The least number of samples that must lie beyond a reported
# percentile for it to mean anything.
MIN_BEYOND = 10

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def per_job_medians(passes):
    """Median of each job's value over passes (one list per pass)."""
    if not passes:
        raise ValueError("no passes")
    width = len(passes[0])
    if any(len(p) != width for p in passes):
        raise ValueError("passes disagree on the job count")
    return [statistics.median(column) for column in zip(*passes)]


def rank(n, pct):
    """1-based nearest rank of percentile `pct` (a str or number)."""
    if n < 1:
        raise ValueError("no samples")
    share = Fraction(str(pct)) / 100
    if not 0 < share <= 1:
        raise ValueError("percentile out of range: %s" % pct)
    return max(1, math.ceil(share * n))


def beyond(n, pct):
    """Samples strictly beyond the nearest-rank percentile."""
    return n - rank(n, pct)


def percentile(values, pct):
    """Nearest-rank percentile of `values`."""
    ordered = sorted(values)
    return ordered[rank(len(ordered), pct) - 1]


def tail_percentile(n):
    """Highest ladder percentile with at least MIN_BEYOND samples
    beyond it, or None when even the median has fewer."""
    best = None
    for pct in PERCENTILE_LADDER:
        if beyond(n, pct) >= MIN_BEYOND:
            best = pct
    return best


def quartiles(values):
    """First quartile, median and third quartile, as
    statistics.quantiles(values, n=4) gives them."""
    return statistics.quantiles(values, n=4)


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, _, q3 = quartiles(values)
    mid = statistics.median(values)
    if mid == 0:
        return 0.0 if q1 == q3 else math.inf
    return (q3 - q1) / abs(mid)


def check_benchmark(doc):
    """Problems with a BENCHMARK.json document (empty when none)."""
    problems = []
    seen = set()

    def name_ok(where, name):
        if not isinstance(name, str) or not NAME_RE.match(name):
            problems.append("%s: bad name %r" % (where, name))
        elif name in seen:
            problems.append("%s: %r used twice" % (where, name))
        seen.add(name)

    for w in doc.get("workloads", []):
        name_ok("workload", w.get("name"))
    for section in ("end_to_end", "per_layer"):
        for m in doc.get(section, []):
            name_ok(section, m.get("name"))
            if not isinstance(m.get("unit"), str) or not UNIT_RE.match(
                    m["unit"]):
                problems.append("%s: bad unit %r" % (m.get("name"),
                                                     m.get("unit")))
            if m.get("better") not in ("higher", "lower"):
                problems.append("%s: bad 'better'" % m.get("name"))
    for m in doc.get("end_to_end", []):
        bound = m.get("bound")
        if not isinstance(bound, (int, float)) or not 0 < bound <= 0.25:
            problems.append("%s: bound must be in (0, 0.25]" % m["name"])
    return problems
