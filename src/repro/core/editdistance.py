"""Damerau–Levenshtein edit distance over packet-symbol sequences.

The discrimination step (Sect. IV-B.2) treats the fingerprint matrix ``F``
as a word whose characters are packet columns; two characters are equal iff
*all 23 features* match.  The distance counts insertions, deletions,
substitutions and *immediate transpositions* (the restricted /
optimal-string-alignment variant of Damerau [24]) and is normalized by the
longer sequence's length to land in [0, 1].

Every OSA distance here comes from one kernel, Hyyrö's bit-vector
algorithm (Hyyrö 2003, "A Bit-Vector Algorithm for Computing Levenshtein
and Damerau Edit Distances").  One sequence is compiled into a
:class:`Pattern` — a table of per-symbol match masks — and the other is
scanned once, each symbol updating a whole DP column with a fixed handful
of integer operations.  The discrimination step compiles each reference
fingerprint once and reuses its pattern for every query.
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Iterable, Sequence
from typing import NamedTuple

__all__ = [
    "Pattern",
    "compile_pattern",
    "osa_distance",
    "damerau_levenshtein",
    "damerau_levenshtein_unrestricted",
    "normalized_distance",
    "dissimilarity_score",
    "dissimilarity_score_grouped",
    "dissimilarity_score_patterns",
]


class Pattern(NamedTuple):
    """A sequence prepared as the pattern side of :func:`osa_distance`.

    Bit ``i`` of ``masks[s]`` is set iff the sequence's ``i``-th symbol is
    ``s``; a symbol absent from the table matches nowhere.
    """

    masks: dict[Hashable, int]
    length: int


def compile_pattern(sequence: Sequence[Hashable]) -> Pattern:
    """Build the match-mask table of ``sequence``."""
    masks: dict[Hashable, int] = {}
    for i, symbol in enumerate(sequence):
        masks[symbol] = masks.get(symbol, 0) | (1 << i)
    return Pattern(masks, len(sequence))


def osa_distance(pattern: Pattern, text: Sequence[Hashable]) -> int:
    """Exact OSA distance between a compiled pattern and ``text``.

    Column ``j`` of the DP (the pattern against the first ``j`` text
    symbols) is kept as two bit vectors of vertical differences: bit ``i``
    of ``vp``/``vn`` is set when ``D[i+1][j] - D[i][j]`` is +1/-1.  Bit
    ``i`` of ``d0`` is set when ``D[i+1][j]`` equals its diagonal
    predecessor ``D[i][j-1]`` (a match, a transposition through ``tr``, or
    a zero-cost run carried down the column); the horizontal differences
    ``hp``/``hn`` and the next column follow from it.  Row 0 is
    ``D[0][j] = j``, so the distance is ``n`` plus the final column's
    vertical differences.
    """
    masks, m = pattern
    full = (1 << m) - 1
    get = masks.get
    vp, vn, d0, pm_prev = full, 0, 0, 0
    for symbol in text:
        pm = get(symbol, 0)
        tr = ((~d0 & pm) << 1) & pm_prev
        d0 = ((((pm & vp) + vp) ^ vp) | pm | vn | tr) & full
        hp = ((vn | (full ^ (d0 | vp))) << 1) | 1
        hn = (d0 & vp) << 1
        vp = (hn | ~(d0 | hp)) & full
        vn = hp & d0
        pm_prev = pm
    return len(text) + vp.bit_count() - vn.bit_count()


def damerau_levenshtein(
    a: Sequence[Hashable], b: Sequence[Hashable], *, cutoff: int | None = None
) -> int:
    """Restricted Damerau–Levenshtein (OSA) distance between two sequences.

    ``cutoff`` keeps the early-abandon contract of callers that only ask
    "is it closer than my current best?": the result is exact below
    ``cutoff`` and some integer in ``[cutoff, true distance]`` otherwise.
    The bit-vector kernel is cheap enough to always return the exact
    value, which meets that contract for every cutoff.
    """
    if cutoff is not None and cutoff < 1:
        raise ValueError("cutoff must be a positive integer")
    if len(a) < len(b):
        a, b = b, a
    # The longer sequence is the pattern: one kernel step per symbol of
    # the shorter one, on wider integers.
    return osa_distance(compile_pattern(a), b)


def damerau_levenshtein_unrestricted(a: Sequence[Hashable], b: Sequence[Hashable]) -> int:
    """True Damerau–Levenshtein distance (transposed symbols may be edited).

    Unlike the restricted/OSA variant, a transposed pair may take part in
    further edits — e.g. ``ca -> abc`` costs 2 here (transpose ``ca`` →
    ``ac``, insert ``b``) but 3 under OSA.  Costs O(n·m) time and keeps a
    last-seen-row index per symbol (the Lowrance–Wagner algorithm).

    Exposed for the distance-variant ablation; the pipeline defaults to
    the OSA variant, which is what fingerprint implementations typically
    ship and which the bit-vector kernel computes far faster than this
    DP (``benchmarks/results/ablation_distance.txt``).
    """
    n, m = len(a), len(b)
    if n == 0:
        return m
    if m == 0:
        return n
    max_dist = n + m
    # d has a sentinel row/column at index 0 holding max_dist.
    d = [[0] * (m + 2) for _ in range(n + 2)]
    d[0][0] = max_dist
    for i in range(n + 1):
        d[i + 1][0] = max_dist
        d[i + 1][1] = i
    for j in range(m + 1):
        d[0][j + 1] = max_dist
        d[1][j + 1] = j
    last_row: dict[Hashable, int] = {}
    for i in range(1, n + 1):
        last_match_col = 0
        for j in range(1, m + 1):
            i_prime = last_row.get(b[j - 1], 0)
            j_prime = last_match_col
            if a[i - 1] == b[j - 1]:
                cost = 0
                last_match_col = j
            else:
                cost = 1
            d[i + 1][j + 1] = min(
                d[i][j] + cost,  # substitution / match
                d[i + 1][j] + 1,  # insertion
                d[i][j + 1] + 1,  # deletion
                d[i_prime][j_prime] + (i - i_prime - 1) + 1 + (j - j_prime - 1),
            )
        last_row[a[i - 1]] = i
    return d[n + 1][m + 1]


def normalized_distance(
    a: Sequence[Hashable], b: Sequence[Hashable], *, cutoff: float | None = None
) -> float:
    """Edit distance divided by the longer length, bounded on [0, 1].

    ``cutoff`` (a normalized bound) keeps the early-abandon contract: the
    result is exact whenever the true normalized distance is ≤ ``cutoff``
    and otherwise lies in ``(cutoff, true distance]``.  The value is always
    exact, which meets it.
    """
    longest = max(len(a), len(b))
    if longest == 0:
        return 0.0
    return damerau_levenshtein(a, b) / longest


def dissimilarity_score(
    candidate: Sequence[Hashable],
    references: Sequence[Sequence[Hashable]],
    *,
    bound: float | None = None,
) -> float:
    """Summed normalized distance of ``candidate`` to each reference.

    With the paper's five references per device type the score lies in
    [0, 5]; the lowest-scoring type wins the discrimination step.

    ``bound`` short-circuits a losing candidate: once the running sum
    provably exceeds it, the remaining references are skipped and the
    partial sum (already > ``bound``) is returned.  Results with a true
    score ≤ ``bound`` are always exact, so the eventual winner and every
    tie within the bound are unaffected.
    """
    return dissimilarity_score_grouped(
        candidate, [(reference, 1) for reference in references], bound=bound
    )


def dissimilarity_score_grouped(
    candidate: Sequence[Hashable],
    groups: Sequence[tuple[Sequence[Hashable], int]],
    *,
    bound: float | None = None,
) -> float:
    """:func:`dissimilarity_score` over deduplicated ``(reference, count)`` groups.

    Reference fingerprints are repeated setup runs and frequently identical;
    grouping computes each distinct reference's distance once and weights it
    by multiplicity — the same sum, fewer kernel runs.  ``bound`` semantics
    match :func:`dissimilarity_score`.
    """
    patterns = ((compile_pattern(reference), count) for reference, count in groups)
    return dissimilarity_score_patterns(candidate, patterns, bound=bound)


def dissimilarity_score_patterns(
    candidate: Sequence[Hashable],
    patterns: Iterable[tuple[Pattern, int]],
    *,
    bound: float | None = None,
) -> float:
    """:func:`dissimilarity_score_grouped` over precompiled references.

    The discrimination step compiles each distinct reference once and
    passes ``(pattern, count)`` groups here, so a query costs one kernel
    pass over its symbols per reference.
    """
    total = 0.0
    n = len(candidate)
    for pattern, count in patterns:
        longest = max(n, pattern.length)
        term = osa_distance(pattern, candidate) / longest if longest else 0.0
        if bound is not None and term > (bound - total) / count:
            # The term exceeds the remaining budget, so the true score is
            # > bound — but the rounded running sum can land exactly on
            # bound, so bump past it explicitly.
            return max(total + count * term, math.nextafter(bound, math.inf))
        total += count * term
    return total
