"""Reference oracle for the OSA edit distance: the row-by-row DP.

This is the O(n·m) dynamic program the pipeline shipped before the
bit-vector kernel in :mod:`repro.core.editdistance`.  It is slow and
obviously correct, so the differential suite checks the kernel against it.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence


def osa_distance_dp(a: Sequence[Hashable], b: Sequence[Hashable]) -> int:
    """Restricted Damerau–Levenshtein (OSA) distance by the textbook DP."""
    n, m = len(a), len(b)
    if n == 0:
        return m
    if m == 0:
        return n
    previous2 = [0] * (m + 1)
    previous = list(range(m + 1))
    for i in range(1, n + 1):
        ai = a[i - 1]
        current = [i] + [0] * m
        for j in range(1, m + 1):
            bj = b[j - 1]
            value = min(
                previous[j - 1] + (ai != bj),  # substitution / match
                current[j - 1] + 1,  # insertion
                previous[j] + 1,  # deletion
            )
            if i > 1 and j > 1 and ai == b[j - 2] and a[i - 2] == bj:
                value = min(value, previous2[j - 2] + 1)  # transposition
            current[j] = value
        previous2, previous = previous, current
    return previous[m]


def normalized_dp(a: Sequence[Hashable], b: Sequence[Hashable]) -> float:
    longest = max(len(a), len(b))
    return osa_distance_dp(a, b) / longest if longest else 0.0


def dissimilarity_dp(
    candidate: Sequence[Hashable], groups: Sequence[tuple[Sequence[Hashable], int]]
) -> float:
    """The exact grouped dissimilarity score, summed in group order."""
    total = 0.0
    for reference, count in groups:
        total += count * normalized_dp(candidate, reference)
    return total
