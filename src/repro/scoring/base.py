"""Scorer protocol and registry.

Scorers are stateless callables with a ``score(x, y, z)`` method.  The
registry maps the names used throughout the paper's evaluation
(``CorrMean``, ``CorrMax``, ``L2``, ``L2-P50``, ``L2-P500``) to factory
functions, so harness code can sweep scorers by name.

Scorers that can amortise work across many hypotheses sharing the same
``(Y, Z)`` pair additionally implement the :class:`BatchScorer` protocol:
``score_batch(xs, y, z)`` scores a whole list of candidate ``X`` matrices
in stacked ``numpy`` operations and must return exactly the scores the
sequential ``score`` calls would (the batch planner,
:mod:`repro.engine_exec.batch`, relies on this for bitwise-identical
Score Tables).  Scorers without a vectorized path simply don't implement
the protocol; the planner adapts them through the per-hypothesis loop.
"""

from __future__ import annotations

import abc
from typing import Callable, Sequence

import numpy as np


class ScoringError(Exception):
    """Raised when a hypothesis cannot be scored."""


class Scorer(abc.ABC):
    """Scores the dependence Y ~ X | Z into [0, 1]."""

    #: Human-readable name used in reports and benchmarks.
    name: str = "scorer"

    @abc.abstractmethod
    def score(self, x: np.ndarray, y: np.ndarray,
              z: np.ndarray | None = None) -> float:
        """Return the causal-relevance score for the triple (X, Y, Z)."""

    def __call__(self, x: np.ndarray, y: np.ndarray,
                 z: np.ndarray | None = None) -> float:
        return self.score(x, y, z)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class BatchScorer(abc.ABC):
    """Mixin protocol: score many X hypotheses against one shared (Y, Z).

    ``score_batch(xs, y, z)`` must be score-equivalent to
    ``np.array([self.score(x, y, z) for x in xs])`` — not merely close,
    but bitwise identical — so the batched execution backend can swap it
    in without changing any Score Table.  Implementations share the
    Y/Z-side work (validation, standardisation, residual projections,
    fold statistics) across the batch and stack the X-side linear algebra
    into 3-D gufunc calls, which numpy evaluates per slice with the same
    kernels as the 2-D sequential path.
    """

    @abc.abstractmethod
    def score_batch(self, xs: Sequence[np.ndarray], y: np.ndarray,
                    z: np.ndarray | None = None) -> np.ndarray:
        """Scores for every X in ``xs``, aligned with the input order."""


class _SequentialBatchAdapter(BatchScorer):
    """Presents a plain :class:`Scorer` through the batch protocol.

    ``score_batch`` is the definitional per-hypothesis loop, so the
    bitwise-identity contract holds trivially.  This exists so the batch
    planner has exactly one code path: every scorer — built-in
    or custom — is driven through ``score_batch``.
    """

    def __init__(self, scorer: Scorer) -> None:
        self._scorer = scorer

    def score_batch(self, xs: Sequence[np.ndarray], y: np.ndarray,
                    z: np.ndarray | None = None) -> np.ndarray:
        return np.asarray([float(self._scorer.score(x, y, z)) for x in xs],
                          dtype=np.float64)


def as_batch_scorer(scorer: Scorer) -> BatchScorer:
    """The scorer itself when it batches natively, else a loop adapter."""
    if isinstance(scorer, BatchScorer):
        return scorer
    return _SequentialBatchAdapter(scorer)


def validate_batch(xs: Sequence[np.ndarray], y: np.ndarray,
                   z: np.ndarray | None
                   ) -> tuple[list[np.ndarray], np.ndarray,
                              np.ndarray | None]:
    """``validate_triple`` across a batch, validating shared (Y, Z) once.

    Raises the same :class:`ScoringError` a per-hypothesis
    ``validate_triple`` loop would, but scans Y and Z for NaN/inf once
    per batch instead of once per hypothesis.
    """
    if not len(xs):
        raise ScoringError("cannot validate an empty batch")
    x0, y_v, z_v = validate_triple(xs[0], y, z)
    validated = [x0]
    for x in xs[1:]:
        x_v = _as_matrix(x, "X")
        if x_v.shape[0] != y_v.shape[0]:
            raise ScoringError(
                f"X has {x_v.shape[0]} rows but Y has {y_v.shape[0]}"
            )
        if x_v.shape[1] == 0:
            raise ScoringError("X and Y must contain at least one metric each")
        validated.append(x_v)
    return validated, y_v, z_v


def group_by_shape(matrices: Sequence[np.ndarray]) -> dict[tuple[int, ...],
                                                           list[int]]:
    """Indices of ``matrices`` grouped by shape, preserving input order.

    Batch implementations stack same-shaped X matrices into one (H, T, F)
    array; this helper produces the stacking plan.
    """
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, matrix in enumerate(matrices):
        groups.setdefault(np.asarray(matrix).shape, []).append(i)
    return groups


def validate_triple(x: np.ndarray, y: np.ndarray,
                    z: np.ndarray | None) -> tuple[np.ndarray, np.ndarray,
                                                   np.ndarray | None]:
    """Coerce a hypothesis triple to aligned 2-D float matrices."""
    x = _as_matrix(x, "X")
    y = _as_matrix(y, "Y")
    if x.shape[0] != y.shape[0]:
        raise ScoringError(
            f"X has {x.shape[0]} rows but Y has {y.shape[0]}"
        )
    if x.shape[1] == 0 or y.shape[1] == 0:
        raise ScoringError("X and Y must contain at least one metric each")
    if z is not None:
        z = _as_matrix(z, "Z")
        if z.shape[1] == 0:
            z = None
        elif z.shape[0] != x.shape[0]:
            raise ScoringError(
                f"Z has {z.shape[0]} rows but X has {x.shape[0]}"
            )
    return x, y, z


def _as_matrix(a: np.ndarray, label: str) -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ScoringError(f"{label} must be 1-D or 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ScoringError(
            f"{label} contains NaN/inf; run interpolate_missing first"
        )
    return arr


_REGISTRY: dict[str, Callable[[], Scorer]] = {}


def register_scorer(name: str, factory: Callable[[], Scorer]) -> None:
    """Register a scorer factory under a (case-insensitive) name."""
    _REGISTRY[name.lower()] = factory


def get_scorer(name: str) -> Scorer:
    """Instantiate a scorer by its registry name (e.g. ``"L2-P50"``)."""
    factory = _REGISTRY.get(name.lower())
    if factory is None:
        raise ScoringError(
            f"unknown scorer {name!r}; available: {list_scorers()}"
        )
    return factory()


def list_scorers() -> list[str]:
    """Registered scorer names, sorted."""
    return sorted(_REGISTRY)
