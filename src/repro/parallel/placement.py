"""Layer-to-stage placement for pipeline parallelism."""

from __future__ import annotations

from functools import lru_cache
from typing import List, Sequence, Tuple

from repro.errors import PlanError


def balanced_partition(costs: Sequence[float], num_parts: int) -> List[Tuple[int, int]]:
    """Partition ``costs`` into contiguous chunks minimizing the max sum.

    Classic linear-partition dynamic program; returns half-open
    ``(start, end)`` index ranges, one per part. Uneven stage loads
    cause pipeline bubbles, so the plan builders use this to split
    layers across stages (for the paper's uniform transformer blocks it
    degenerates to near-equal chunks, but embedding/LM-head weight is
    accounted too).
    """
    n = len(costs)
    if num_parts < 1:
        raise PlanError("num_parts must be >= 1")
    if n == 0:
        raise PlanError("cannot partition an empty cost list")
    if num_parts > n:
        raise PlanError(
            f"cannot split {n} layers into {num_parts} non-empty stages"
        )
    if any(c < 0 for c in costs):
        raise PlanError("layer costs must be non-negative")

    prefix = [0.0]
    for c in costs:
        prefix.append(prefix[-1] + c)

    def range_sum(i: int, j: int) -> float:
        return prefix[j] - prefix[i]

    inf = float("inf")
    # dp[k][i]: minimal max-chunk-sum splitting the first i items into k chunks.
    dp = [[inf] * (n + 1) for _ in range(num_parts + 1)]
    cut = [[0] * (n + 1) for _ in range(num_parts + 1)]
    dp[0][0] = 0.0
    for k in range(1, num_parts + 1):
        for i in range(k, n + 1):
            best = inf
            best_j = k - 1
            for j in range(k - 1, i):
                candidate = max(dp[k - 1][j], range_sum(j, i))
                if candidate < best:
                    best = candidate
                    best_j = j
            dp[k][i] = best
            cut[k][i] = best_j

    bounds: List[Tuple[int, int]] = []
    end = n
    for k in range(num_parts, 0, -1):
        start = cut[k][end]
        bounds.append((start, end))
        end = start
    bounds.reverse()
    if any(s >= e for s, e in bounds):
        raise PlanError("partition produced an empty stage")
    return bounds


@lru_cache(maxsize=256)
def stage_layer_ranges(num_layers: int, num_stages: int) -> Tuple[range, ...]:
    """Equal-cost partition of uniform layers into stage ranges.

    Memoized: the dynamic program is quadratic in the layer count, and
    every pipeline plan of a model asks for the same split.
    """
    bounds = balanced_partition([1.0] * num_layers, num_stages)
    return tuple(range(s, e) for s, e in bounds)
