"""Two-stage device-type identification (Sect. IV-B).

Stage 1 — *classification*: one binary Random Forest per known device type
votes on the fixed-size fingerprint ``F'``.  Zero accepting classifiers ⇒
the device is a **new/unknown type**; exactly one ⇒ done; several ⇒

Stage 2 — *discrimination*: the full fingerprint ``F`` is compared by
normalized Damerau–Levenshtein distance against (up to) five reference
fingerprints of each accepting type; per-type distances are summed into a
dissimilarity score in [0, 5] and the lowest score wins.

New types can be added (and retired) without retraining any other model —
the paper's scalability argument for the one-classifier-per-type design.

Instrumented with ``repro.obs``: the per-stage spans (``identify``,
``identify.classify[.model]``, ``identify.discriminate``) mirror the
Table IV step breakdown — see ``docs/observability.md``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.ml.compiled import CompiledBank
from repro.ml.forest import RandomForestClassifier
from repro.ml.parallel import derive_entropy, label_rng, parallel_map
from repro.ml.sampling import build_binary_training_set
from repro.obs import counter as obs_counter
from repro.obs import names as obs_names
from repro.obs import span as obs_span

from .editdistance import Pattern, compile_pattern, dissimilarity_score_patterns
from .fingerprint import DEFAULT_FP_PACKETS, Fingerprint, lookup_symbols
from .registry import DeviceTypeRegistry

__all__ = ["UNKNOWN_DEVICE", "IdentificationResult", "DeviceIdentifier"]

#: Sentinel label returned when no classifier accepts a fingerprint.
UNKNOWN_DEVICE = "unknown"


@dataclass(frozen=True)
class IdentificationResult:
    """Outcome of one identification, with stage-level detail."""

    label: str
    candidates: tuple[str, ...] = ()
    scores: dict = field(default_factory=dict)
    used_discrimination: bool = False

    @property
    def is_unknown(self) -> bool:
        return self.label == UNKNOWN_DEVICE


@dataclass
class _TypeModel:
    label: str
    classifier: RandomForestClassifier
    references: list[Fingerprint]
    _patterns: list[tuple[Pattern, int]] | None = field(
        default=None, repr=False, compare=False
    )

    def grouped_reference_symbols(self) -> list[tuple[tuple[int, ...], int]]:
        """Distinct reference symbol sequences with multiplicities.

        Repeated setup runs often yield identical fingerprints; the
        discrimination step computes each distinct sequence's distance once
        and weights it.  Sorted for a deterministic evaluation order.
        """
        return sorted(Counter(ref.symbols() for ref in self.references).items())

    def reference_patterns(self) -> list[tuple[Pattern, int]]:
        """:meth:`grouped_reference_symbols` compiled for the edit-distance
        kernel: one match-mask table per distinct reference.  Computed
        lazily and cached (references never change post-training)."""
        if self._patterns is None:
            self._patterns = [
                (compile_pattern(symbols), count)
                for symbols, count in self.grouped_reference_symbols()
            ]
        return self._patterns


class DeviceIdentifier:
    """The IoTSSP's classifier bank plus discrimination step.

    Parameters
    ----------
    fp_length:
        Number of packet slots in ``F'`` (the paper's 12).
    negative_ratio:
        Negatives per positive when training each binary forest (paper: 10).
    n_references:
        Reference fingerprints per type for edit-distance discrimination
        (paper: 5).
    n_estimators:
        Trees per Random Forest.
    accept_threshold:
        Minimum positive-class probability for a classifier to "match".
        Slightly below the majority-vote 0.5 so that same-vendor sibling
        types (whose positive region overlaps heavily with the 10·n
        negative sample) still match each other's classifier and fall
        through to discrimination rather than being rejected outright —
        the behaviour the paper's Table III documents.
    random_state:
        Base entropy for training.  Each device type trains from its own
        generator derived from ``(random_state, label)``, so models are
        byte-identical regardless of ``n_jobs``, training order, or
        whether a type arrived via :meth:`fit` or :meth:`add_type` — and
        inference never consumes randomness at all.
    compiled:
        When true (the default), stage 1 evaluates batches through a
        lazily built :class:`~repro.ml.compiled.CompiledBank` — one flat
        node table for the whole classifier bank, traversed with
        vectorized gathers.  The compiled path is byte-identical to the
        interpreted per-forest loop (``tests/ml/test_compiled_differential.py``
        pins this), so flipping the flag never changes a result, only
        throughput.  The bank is rebuilt automatically after
        :meth:`fit`/:meth:`add_type`/:meth:`remove_type`.
    """

    #: Score slack within which two candidates count as tied.
    TIE_TOLERANCE = 1e-12

    def __init__(
        self,
        *,
        fp_length: int = DEFAULT_FP_PACKETS,
        negative_ratio: int = 10,
        n_references: int = 5,
        n_estimators: int = 20,
        max_depth: int | None = None,
        accept_threshold: float = 0.4,
        random_state: int | np.random.Generator | None = None,
        compiled: bool = True,
    ) -> None:
        self.fp_length = fp_length
        self.negative_ratio = negative_ratio
        self.n_references = n_references
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.accept_threshold = accept_threshold
        self.compiled = compiled
        self._entropy = derive_entropy(random_state)
        self._models: dict[str, _TypeModel] = {}
        self._bank: CompiledBank | None = None
        self._bank_source: tuple[str, ...] = ()

    # --- training ---------------------------------------------------------

    def fit(
        self, registry: DeviceTypeRegistry, *, n_jobs: int | None = None
    ) -> "DeviceIdentifier":
        """Train one classifier per type in the registry (from scratch).

        ``n_jobs`` sets the worker-pool width (None/1 serial, -1 all
        cores).  Each type trains from its own ``(seed, label)``-derived
        generator, so the resulting bank is byte-identical for any
        ``n_jobs`` value.
        """
        if len(registry) < 2:
            raise ValueError("need at least two device types to train")
        with obs_span(obs_names.SPAN_TRAIN_FIT, types=len(registry), n_jobs=n_jobs):
            models = parallel_map(
                lambda label: self._train_type(registry, label),
                registry.labels,
                n_jobs=n_jobs,
            )
        self._models = {model.label: model for model in models}
        self.invalidate_compiled()
        return self

    def add_type(self, registry: DeviceTypeRegistry, label: str) -> None:
        """Train (or retrain) a single type without touching the others.

        Produces the exact model :meth:`fit` would have produced for this
        label given the same registry contents and seed.
        """
        model = self._train_type(registry, label)
        self._models[label] = model
        self.invalidate_compiled()

    def remove_type(self, label: str) -> None:
        if label not in self._models:
            raise KeyError(label)
        del self._models[label]
        self.invalidate_compiled()

    def invalidate_compiled(self) -> None:
        """Drop the compiled bank; it is rebuilt lazily on the next batch.

        Called automatically by every mutator; callers that assign
        ``_models`` directly (persistence) must call it themselves.
        """
        self._bank = None
        self._bank_source = ()

    def _compiled_bank(self) -> CompiledBank:
        labels = tuple(sorted(self._models))
        if self._bank is None or self._bank_source != labels:
            self._bank = CompiledBank(
                [(label, self._models[label].classifier) for label in labels]
            )
            self._bank_source = labels
        return self._bank

    def _train_type(self, registry: DeviceTypeRegistry, label: str) -> _TypeModel:
        with obs_span(obs_names.SPAN_TRAIN_TYPE, label=label):
            rng = label_rng(self._entropy, label)
            positives = registry.positives_matrix(label, self.fp_length)
            negatives = registry.negatives_matrix(label, self.fp_length)
            x, y = build_binary_training_set(
                positives, negatives, ratio=self.negative_ratio, rng=rng
            )
            classifier = RandomForestClassifier(
                n_estimators=self.n_estimators,
                max_depth=self.max_depth,
                random_state=rng,
            ).fit(x, y)
            pool = registry.fingerprints(label)
            take = min(self.n_references, len(pool))
            chosen = rng.choice(len(pool), size=take, replace=False)
            obs_counter(obs_names.METRIC_TYPES_TRAINED).inc()
            return _TypeModel(
                label=label,
                classifier=classifier,
                references=[pool[int(i)] for i in chosen],
            )

    @property
    def labels(self) -> list[str]:
        return sorted(self._models)

    # --- inference --------------------------------------------------------

    def classify(self, fingerprint: Fingerprint) -> list[str]:
        """Stage 1: labels whose binary classifier accepts ``F'``."""
        return self.classify_batch([fingerprint])[0]

    def classify_batch(self, fingerprints: list[Fingerprint]) -> list[list[str]]:
        """Stage 1 over many fingerprints with one pass per classifier.

        Each forest sees the whole stacked F' matrix once, which is far
        cheaper than per-fingerprint calls when evaluating corpora.
        """
        if not self._models:
            raise RuntimeError("identifier is not trained")
        if not fingerprints:
            return []
        with obs_span(obs_names.SPAN_CLASSIFY, batch=len(fingerprints)):
            stacked = np.vstack([fp.fixed(self.fp_length) for fp in fingerprints])
            candidates: list[list[str]] = [[] for _ in fingerprints]
            if self.compiled:
                bank = self._compiled_bank()
                with obs_span(
                    obs_names.SPAN_CLASSIFY_BANK,
                    batch=len(fingerprints),
                    types=bank.n_forests,
                ):
                    positive = bank.positive_proba(stacked)
                # Row-major order gives each row its labels in bank order,
                # the label order of the interpreted loop below, and the
                # probabilities are byte-identical, so the candidate lists
                # cannot differ between the two paths.
                rows, cols = np.nonzero(positive >= self.accept_threshold)
                labels = bank.labels
                for row, col in zip(rows.tolist(), cols.tolist()):
                    candidates[row].append(labels[col])
                return candidates
            for label, model in sorted(self._models.items()):
                with obs_span(obs_names.SPAN_CLASSIFY_MODEL, label=label):
                    proba = model.classifier.predict_proba(stacked)
                classes = list(model.classifier.classes_)
                if True not in classes:
                    continue
                positive = proba[:, classes.index(True)]
                for row in np.flatnonzero(positive >= self.accept_threshold):
                    candidates[int(row)].append(label)
        return candidates

    def discriminate(self, fingerprint: Fingerprint, candidates: list[str]) -> tuple[str, dict]:
        """Stage 2: edit-distance dissimilarity over full ``F``; lowest wins.

        Candidates are evaluated in sorted order with a best-score cutoff
        threaded into the edit distance: once a candidate's running sum
        provably cannot beat the current best, its remaining references are
        skipped.  Scores within :data:`TIE_TOLERANCE` of the winner are
        always exact (the returned ``scores`` dict preserves the tie list);
        a hopeless candidate's entry may be a partial lower bound, which is
        still strictly above the winning score.  Ties break to the
        lexicographically smallest label — identification is deterministic
        and independent of batch order or prior calls.
        """
        if not candidates:
            raise ValueError("no candidates to discriminate")
        with obs_span(obs_names.SPAN_DISCRIMINATE, candidates=len(candidates)):
            obs_counter(obs_names.METRIC_DISCRIMINATIONS).inc()
            ordered = sorted(candidates)
            # Compile (and so intern) the references before looking the
            # query up: a query packet matches only interned symbols.
            patterns = [self._models[label].reference_patterns() for label in ordered]
            query = lookup_symbols(fingerprint.packets)
            scores: dict[str, float] = {}
            best = float("inf")
            for label, groups in zip(ordered, patterns):
                bound = None if best == float("inf") else best + self.TIE_TOLERANCE
                score = dissimilarity_score_patterns(query, groups, bound=bound)
                scores[label] = score
                if score < best:
                    best = score
            tied = sorted(
                label
                for label, score in scores.items()
                if score <= best + self.TIE_TOLERANCE
            )
            return tied[0], scores

    def _resolve(self, fingerprint: Fingerprint, candidates: list[str]) -> IdentificationResult:
        if not candidates:
            obs_counter(obs_names.METRIC_IDENTIFICATIONS, outcome="unknown").inc()
            return IdentificationResult(label=UNKNOWN_DEVICE)
        obs_counter(obs_names.METRIC_IDENTIFICATIONS, outcome="known").inc()
        if len(candidates) == 1:
            return IdentificationResult(label=candidates[0], candidates=tuple(candidates))
        winner, scores = self.discriminate(fingerprint, candidates)
        return IdentificationResult(
            label=winner,
            candidates=tuple(candidates),
            scores=scores,
            used_discrimination=True,
        )

    def identify(self, fingerprint: Fingerprint) -> IdentificationResult:
        """Run the full two-stage pipeline on one fingerprint."""
        with obs_span(obs_names.SPAN_IDENTIFY) as span:
            result = self._resolve(fingerprint, self.classify(fingerprint))
            span.set(
                label=result.label,
                candidates=len(result.candidates),
                discriminated=result.used_discrimination,
            )
            return result

    def identify_batch(self, fingerprints: list[Fingerprint]) -> list[IdentificationResult]:
        """The full pipeline over many fingerprints (batched stage 1)."""
        return [
            self._resolve(fp, candidates)
            for fp, candidates in zip(fingerprints, self.classify_batch(fingerprints))
        ]
