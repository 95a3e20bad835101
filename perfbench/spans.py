"""Reading the span lists `perfbench-layers` prints.

A span is {"name", "parent" (index or null), "start_us", "end_us"}; a
span's index is its position in the list.
"""

import statistics


def duration_us(span):
    return span["end_us"] - span["start_us"]


def root_of(spans, i):
    while spans[i]["parent"] is not None:
        i = spans[i]["parent"]
    return i


def durations(spans, name, root):
    """Durations (µs) of every span called `name` under a root called
    `root`, in recording order."""
    return [
        duration_us(s)
        for i, s in enumerate(spans)
        if s["name"] == name and spans[root_of(spans, i)]["name"] == root
    ]


def median_us(spans, name, root):
    values = durations(spans, name, root)
    return statistics.median(values) if values else 0.0


def self_share(spans, i):
    """The share of span `i` that none of its direct children covers."""
    kids = sorted(
        (s["start_us"], s["end_us"]) for s in spans if s["parent"] == i
    )
    covered, reach = 0.0, spans[i]["start_us"]
    for start, end in kids:
        start = max(start, reach)
        if end > start:
            covered += end - start
            reach = end
    total = duration_us(spans[i])
    return (total - covered) / total if total > 0 else 0.0


def max_self_share(spans, root):
    """The largest self share over every root span called `root`."""
    shares = [
        self_share(spans, i)
        for i, s in enumerate(spans)
        if s["parent"] is None and s["name"] == root
    ]
    return max(shares, default=0.0)
