"""Reporting helpers: ASCII tables, speedup histograms, crossovers.

The benchmark harness prints the same rows/series the paper's figures
plot; these helpers keep that output consistent across benches.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence

#: Figure 9/11 bucket upper bounds; the final bucket is "> 10".
SPEEDUP_BUCKETS = (0.5, 0.8, 1.2, 1.5, 2.0, 5.0, 10.0)
SPEEDUP_BUCKET_LABELS = ("0.5", "0.8", "1.2", "1.5", "2", "5", "10", ">10")


def speedup_histogram(speedups: Iterable[float]) -> List[int]:
    """Bucket speedup factors the way Figures 9 and 11 do.

    Bucket i counts speedups <= SPEEDUP_BUCKETS[i] (and greater than the
    previous bound); the last bucket counts speedups > 10.
    """
    counts = [0] * (len(SPEEDUP_BUCKETS) + 1)
    for speedup in speedups:
        for i, bound in enumerate(SPEEDUP_BUCKETS):
            if speedup <= bound:
                counts[i] += 1
                break
        else:
            counts[-1] += 1
    return counts


def format_table(headers: Sequence[str],
                 rows: Sequence[Sequence[object]],
                 title: Optional[str] = None) -> str:
    """Fixed-width ASCII table."""
    rendered = [[_cell(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header)
    lines.append("-+-".join("-" * w for w in widths))
    for row in rendered:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def format_histogram(title: str, counts: Sequence[int]) -> str:
    """Render a Figure 9-style speedup histogram."""
    rows = [(label, count, "#" * count)
            for label, count in zip(SPEEDUP_BUCKET_LABELS, counts)]
    return format_table(["speedup<=", "queries", ""], rows, title=title)


def format_segment_cache(cache, title: Optional[str] = None) -> str:
    """One-row table of a decoded-segment cache's counters.

    ``cache`` is a :class:`repro.storage.segment_cache.DecodedSegmentCache`;
    benches print this next to warm-vs-cold timings so figure output
    records how much decode work the cache absorbed.
    """
    stats = cache.stats
    row = (
        stats.hits, stats.misses, f"{stats.hit_ratio:.2f}",
        stats.evictions, stats.invalidations, len(cache),
        f"{cache.bytes_cached / (1024 * 1024):.2f}",
    )
    return format_table(
        ["hits", "misses", "hit ratio", "evictions", "invalidations",
         "segments", "MB cached"],
        [row], title=title,
    )


def find_crossover(
    x_values: Sequence[float],
    series_a: Sequence[float],
    series_b: Sequence[float],
) -> Optional[float]:
    """First x where series A stops being cheaper than series B.

    Used for the Figure 1/2/13 crossover selectivities: interpolates
    (log-linearly on x when all x > 0) between the last grid point where
    ``a < b`` and the first where ``a >= b``.
    """
    if not (len(x_values) == len(series_a) == len(series_b)):
        raise ValueError("series must be equal length")
    previous = None
    for x, a, b in zip(x_values, series_a, series_b):
        if a >= b:
            if previous is None:
                return x
            px, pa, pb = previous
            gap_prev = pb - pa
            gap_here = a - b
            if gap_prev + gap_here <= 0:
                return x
            fraction = gap_prev / (gap_prev + gap_here)
            if px > 0 and x > 0:
                return math.exp(
                    math.log(px) + fraction * (math.log(x) - math.log(px)))
            return px + fraction * (x - px)
        previous = (x, a, b)
    return None


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of the positive values (NaN when empty)."""
    filtered = [v for v in values if v > 0]
    if not filtered:
        return float("nan")
    return math.exp(sum(math.log(v) for v in filtered) / len(filtered))


def summarize_speedups(speedups: Sequence[float]) -> Dict[str, float]:
    """Min/median/geomean/max and >10x count of speedups."""
    ordered = sorted(speedups)
    if not ordered:
        return {}
    return {
        "min": ordered[0],
        "median": ordered[len(ordered) // 2],
        "geomean": geometric_mean(ordered),
        "max": ordered[-1],
        "over_10x": sum(1 for s in ordered if s > 10),
    }
