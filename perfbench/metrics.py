"""The benchmark's own arithmetic: percentiles, the tail rule and span self time.

Kept free of any cubecipher import so the tests in this directory can check
it on hand-built inputs.
"""

from collections import defaultdict

TAIL_MIN_BEYOND = 10


def median(values):
    """Median of a non-empty sample (mean of the two middle values when even)."""
    s = sorted(values)
    if not s:
        raise ValueError("median of an empty sample")
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


def tail(values, min_beyond=TAIL_MIN_BEYOND):
    """The highest percentile of `values` that has at least `min_beyond` samples beyond it.

    Returns (value, percentile). In the ascending sample the element at
    position n - min_beyond (1-based) is the last one with that many samples
    strictly after it; its percentile is the share of the sample at or below
    it. Raises ValueError when the sample is too small to have one.
    """
    s = sorted(values)
    n = len(s)
    if n <= min_beyond:
        raise ValueError(
            "a tail needs more than %d samples, got %d" % (min_beyond, n)
        )
    rank = n - min_beyond  # 1-based
    return s[rank - 1], 100.0 * rank / n


def _union_length(intervals, lo, hi):
    """Length of the union of [start, end) intervals, each clipped to [lo, hi)."""
    covered = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered


def self_times(starts, ends, parents, folded=None):
    """Self time of every span: its duration minus what its children cover.

    starts, ends and parents are parallel sequences; parents[i] is the index
    of span i's parent, or -1. Children may overlap each other or stick out
    of their parent; only the union of their intervals inside the parent's
    own interval is subtracted. folded[i], when given, is time of calls that
    were charged to span i without spans of their own (they ran one after
    another inside it) and is subtracted as well. Never negative.
    """
    children = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append((starts[i], ends[i]))
    out = []
    for i, (start, end) in enumerate(zip(starts, ends)):
        own = end - start - _union_length(children.get(i, ()), start, end)
        if folded is not None:
            own -= folded[i]
        out.append(max(own, 0))
    return out

