"""Batched execution planner: group hypotheses, score groups vectorized.

Algorithm 1 scores *thousands* of hypotheses against the same target in
one interactive iteration, so the Y/Z-side work — validation,
standardisation, the residual projection on Z, cross-validation fold
statistics — is almost entirely shared.  This module is the engine's
one scoring path (:func:`~repro.core.ranking.rank_families` calls it):

1. :func:`plan_batches` groups hypotheses by their shared ``(Y, Z)``
   family objects (``generate_hypotheses`` builds Y and Z once and
   shares them across every X, so identity grouping recovers exactly
   the per-iteration structure).
2. :func:`execute_batches` hands each group to the scorer's
   ``score_batch`` — one stacked numpy call per group instead of one
   Python call per hypothesis.  Every built-in scorer implements the
   :class:`~repro.scoring.base.BatchScorer` protocol (L1 shares its
   Y/Z-side work even though coordinate descent can't stack the X
   fits); custom scorers without one are adapted through the
   definitional per-hypothesis loop.

Scores are bitwise identical to calling ``scorer.score`` hypothesis by
hypothesis, by the ``BatchScorer`` contract.  Per-hypothesis wall times
are not observable inside a stacked call, but the stacked call itself
decomposes: batch scorers stack same-shaped X matrices, so
:func:`execute_batches` issues one ``score_batch`` call *per shape
group*, measures each call, and gives every member of the group an
equal share of it.  Splitting by shape cannot change any score: the
``BatchScorer`` contract makes ``score_batch`` independent of batch
composition.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.scoring.base import Scorer, as_batch_scorer, group_by_shape

if TYPE_CHECKING:
    from repro.core.families import FeatureFamily
    from repro.core.hypothesis import Hypothesis

#: Stands in for ``z=None`` in grouping keys.  A dedicated module-level
#: object (always alive, so its id() can never be recycled) rather than
#: a literal like ``0`` that could in principle collide with another
#: key component.
_NO_CONDITION = object()


@dataclass
class HypothesisBatch:
    """One group of hypotheses sharing the same (Y, Z) matrices."""

    y: FeatureFamily
    z: FeatureFamily | None
    indices: list[int]            # positions in the original sequence
    hypotheses: list[Hypothesis]

    @property
    def size(self) -> int:
        return len(self.hypotheses)


def plan_batches(hypotheses: Sequence[Hypothesis]) -> list[HypothesisBatch]:
    """Group hypotheses by shared (Y, Z) identity, preserving order.

    Grouping is by object identity: hypotheses generated for one target
    share the very same Y (and Z) family objects, so one ``explain()``
    iteration collapses into a single batch.  Hypotheses with equal but
    distinct Y/Z objects simply land in separate (still correct) groups.

    ``id()`` values are only unique among *live* objects, so every keyed
    object must stay alive until planning completes: if families are
    created lazily and an earlier key object were garbage-collected
    mid-stream, CPython could hand its address to a fresh family and
    silently merge hypotheses from different (Y, Z) groups.  Binding
    ``y``/``z`` to locals before taking their ids (so ``id()`` is never
    taken of a dying temporary when ``.y``/``.z`` are computed
    properties) and storing exactly those objects in the batch — which
    ``groups`` holds for the whole loop, with the immortal
    ``_NO_CONDITION`` sentinel standing in for ``z=None`` — guarantees
    every keyed address stays pinned.
    """
    groups: dict[tuple[int, int], HypothesisBatch] = {}
    for i, hypothesis in enumerate(hypotheses):
        y = hypothesis.y
        z = hypothesis.z
        key = (id(y), id(z) if z is not None else id(_NO_CONDITION))
        batch = groups.get(key)
        if batch is None:
            groups[key] = batch = HypothesisBatch(
                y=y, z=z, indices=[], hypotheses=[])
        batch.indices.append(i)
        batch.hypotheses.append(hypothesis)
    return list(groups.values())


def execute_batches(hypotheses: Sequence[Hypothesis], scorer: Scorer
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Score all hypotheses group-wise.

    Returns ``(scores, seconds)`` arrays aligned with the input order.
    The scorer is invoked once per *shape group* (the unit batch scorers
    stack internally); ``seconds[i]`` is hypothesis ``i``'s equal share
    of its group's measured ``score_batch`` call.  Scorers without a
    native ``score_batch`` are adapted
    (:func:`~repro.scoring.base.as_batch_scorer`) and timed the same way.
    """
    n = len(hypotheses)
    scores = np.empty(n)
    seconds = np.empty(n)
    batch_scorer = as_batch_scorer(scorer)
    for batch in plan_batches(hypotheses):
        y = batch.y.matrix
        z = batch.z.matrix if batch.z is not None else None
        xs = [h.x.matrix for h in batch.hypotheses]
        for members in group_by_shape(xs).values():
            start = time.perf_counter()
            values = batch_scorer.score_batch([xs[j] for j in members], y, z)
            share = (time.perf_counter() - start) / len(members)
            for j, value in zip(members, values):
                i = batch.indices[j]
                scores[i] = float(value)
                seconds[i] = share
    return scores, seconds
