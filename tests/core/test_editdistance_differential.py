"""Differential suite: the bit-vector OSA kernel against the DP oracle.

The kernel in :mod:`repro.core.editdistance` must return the DP's integer
on every input — over small alphabets, where transpositions are common, and
at fingerprint lengths and beyond.  The ``cutoff`` and ``bound`` contracts,
the one-id mapping of unmatched query symbols, and the end-to-end
identification verdicts are checked against the same oracle.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import UNKNOWN_DEVICE, DeviceIdentifier
from repro.core.editdistance import (
    compile_pattern,
    damerau_levenshtein,
    dissimilarity_score,
    dissimilarity_score_patterns,
    normalized_distance,
    osa_distance,
)
from repro.devices import DEVICE_PROFILES, collect_dataset

from .osa_oracle import dissimilarity_dp, normalized_dp, osa_distance_dp

MAX_LEN = 150


def kernel(a, b) -> int:
    return osa_distance(compile_pattern(a), b)


@st.composite
def pairs(draw, max_len=MAX_LEN):
    """Two sequences over one alphabet of 1–4 symbols."""
    symbols = st.integers(min_value=0, max_value=draw(st.integers(1, 4)) - 1)
    return draw(st.lists(symbols, max_size=max_len)), draw(st.lists(symbols, max_size=max_len))


@st.composite
def transposed_pairs(draw):
    """A sequence and a copy with adjacent swaps plus a few other edits."""
    symbols = st.integers(min_value=0, max_value=draw(st.integers(2, 4)) - 1)
    a = draw(st.lists(symbols, min_size=2, max_size=MAX_LEN))
    b = list(a)
    for i in draw(st.lists(st.integers(0, len(b) - 2), max_size=len(b) // 2)):
        b[i], b[i + 1] = b[i + 1], b[i]
    for _ in range(draw(st.integers(0, 3))):
        position = draw(st.integers(0, len(b)))
        op = draw(st.sampled_from(["insert", "delete", "substitute"]))
        if op == "insert":
            b.insert(position, draw(symbols))
        elif position < len(b):
            if op == "delete":
                del b[position]
            else:
                b[position] = draw(symbols)
    return a, b


class TestKernelEqualsOracle:
    @settings(deadline=None)
    @given(pairs())
    def test_small_alphabets(self, pair):
        a, b = pair
        assert kernel(a, b) == osa_distance_dp(a, b)

    @settings(deadline=None)
    @given(transposed_pairs())
    def test_transposition_heavy(self, pair):
        a, b = pair
        assert kernel(a, b) == osa_distance_dp(a, b)

    @settings(deadline=None)
    @given(pairs())
    def test_symmetric(self, pair):
        a, b = pair
        assert kernel(a, b) == kernel(b, a)

    @settings(deadline=None)
    @given(pairs())
    def test_public_entry_point(self, pair):
        a, b = pair
        assert damerau_levenshtein(a, b) == osa_distance_dp(a, b)

    @pytest.mark.parametrize(
        "a,b",
        [("", ""), ("", "abc"), ("abc", ""), ("ab", "ba"), ("ca", "abc"), ("abcd", "badc")],
    )
    def test_edge_cases(self, a, b):
        assert kernel(a, b) == osa_distance_dp(a, b)

    @settings(deadline=None)
    @given(
        st.lists(st.integers(0, 3), max_size=60),
        st.lists(st.integers(0, 7), max_size=60),
    )
    def test_unmatched_text_symbols_collapse_to_one_id(self, a, b):
        # The identifier maps every query packet no reference holds to one
        # id; OSA only compares symbols across the two sequences, so that
        # is exact even when the unmatched packets differ from each other.
        held = set(a)
        collapsed = [symbol if symbol in held else -1 for symbol in b]
        assert kernel(a, collapsed) == osa_distance_dp(a, b)


class TestContracts:
    @settings(deadline=None)
    @given(pairs(), st.integers(min_value=1, max_value=200))
    def test_cutoff_exact_below_and_certified_above(self, pair, cutoff):
        a, b = pair
        true = osa_distance_dp(a, b)
        got = damerau_levenshtein(a, b, cutoff=cutoff)
        if true < cutoff:
            assert got == true
        else:
            assert cutoff <= got <= true

    @settings(deadline=None)
    @given(pairs(max_len=40), st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_normalized_cutoff(self, pair, cutoff):
        a, b = pair
        true = normalized_dp(a, b)
        got = normalized_distance(a, b, cutoff=cutoff)
        if true <= cutoff:
            assert got == true
        else:
            assert cutoff < got <= true

    @settings(deadline=None)
    @given(
        st.lists(st.integers(0, 3), max_size=40),
        st.lists(st.lists(st.integers(0, 3), max_size=40), max_size=5),
        st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    )
    def test_bound_exact_within_and_above_when_beyond(self, candidate, references, bound):
        true = dissimilarity_dp(candidate, [(r, 1) for r in references])
        got = dissimilarity_score(candidate, references, bound=bound)
        if true <= bound:
            assert got == true
        else:
            assert bound < got <= true + 1e-12

    def test_bound_skips_the_remaining_references(self):
        consumed = []

        def patterns():
            for reference in (list("zzzz"), list("abcd"), list("abce")):
                consumed.append(reference)
                yield compile_pattern(reference), 1

        score = dissimilarity_score_patterns(list("abcd"), patterns(), bound=0.5)
        assert score > 0.5
        assert consumed == [list("zzzz")]


# --- end to end: identify against the oracle path --------------------------


@pytest.fixture(scope="module")
def corpus_identifier():
    registry = collect_dataset(DEVICE_PROFILES, runs_per_device=6, seed=5)
    return DeviceIdentifier(random_state=3).fit(registry)


@pytest.fixture(scope="module")
def queries():
    fresh = collect_dataset(DEVICE_PROFILES, runs_per_device=4, seed=6)
    return [fp for label in fresh.labels for fp in fresh.fingerprints(label)]


def oracle_identify(identifier: DeviceIdentifier, fingerprint) -> tuple[str, dict]:
    """Stage 2 by exact DP sums over every reference, no bound."""
    candidates = identifier.classify(fingerprint)
    if not candidates:
        return UNKNOWN_DEVICE, {}
    if len(candidates) == 1:
        return candidates[0], {}
    # Reference packets as their interned ids, in the identifier's group
    # order so the float sums round identically; each distinct unmatched
    # query packet gets its own id, so the oracle never relies on the
    # kernel path's one-id mapping.
    ids: dict = {}
    for label in candidates:
        for reference in identifier._models[label].references:
            ids.update(zip(reference.packets, reference.symbols()))
    unmatched: dict = {}
    query = [
        ids[p] if p in ids else unmatched.setdefault(p, -1 - len(unmatched))
        for p in fingerprint.packets
    ]
    scores = {
        label: dissimilarity_dp(query, identifier._models[label].grouped_reference_symbols())
        for label in sorted(candidates)
    }
    best = min(scores.values())
    tied = sorted(name for name, s in scores.items() if s <= best + DeviceIdentifier.TIE_TOLERANCE)
    return tied[0], scores


def test_identify_matches_oracle_on_27_profile_corpus(corpus_identifier, queries):
    discriminated = 0
    for fingerprint in queries:
        result = corpus_identifier.identify(fingerprint)
        label, oracle_scores = oracle_identify(corpus_identifier, fingerprint)
        assert result.label == label
        if not result.used_discrimination:
            continue
        discriminated += 1
        assert set(result.scores) == set(oracle_scores)
        best = oracle_scores[label]
        for candidate, score in oracle_scores.items():
            if score <= best + DeviceIdentifier.TIE_TOLERANCE:
                assert result.scores[candidate] == score
            else:
                # A losing candidate may stop early at a partial sum, which
                # is still above the winner.
                assert best < result.scores[candidate] <= score + 1e-12
    assert discriminated > 10
