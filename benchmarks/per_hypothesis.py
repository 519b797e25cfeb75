"""Per-hypothesis scoring: the paper's §4 schedule, kept for Figure 10 / §6.2.

The paper runs one hypothesis per Spark executor and ships each
hypothesis's matrices to a Python kernel (§4); §6.2 measures that
serialisation at ~25% of univariate and ~5% of joint score time.  The
engine ranks through the batch planner instead
(:func:`repro.core.ranking.rank_families`), so this schedule survives
only here, to reproduce those measurements:

- one ``scorer.score(x, y, z)`` call per hypothesis, sequentially or on
  a thread pool of ``n_workers``, each call's wall time measured on its
  own (Figure 10's max per family needs individual times, which a
  stacked batch call cannot give);
- with ``pickle_matrices=True``, each hypothesis's (X, Y, Z) make a
  ``pickle`` round trip before scoring — the serialisation a process
  worker would pay — timed apart from the scoring itself.

The Score Table is built by ``rank_families(score_fn=...)`` from these
scores, so its ranking equals the engine's bitwise.

``benchmarks/`` is not a package: benches and tests load this file by
path (``importlib.util.spec_from_file_location``).
"""

from __future__ import annotations

import pickle
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.hypothesis import Hypothesis
from repro.core.ranking import ScoreTable, rank_families
from repro.scoring.base import Scorer, get_scorer


@dataclass
class LoopReport:
    """One per-hypothesis run: the table, its timings and §6.2 shares."""

    score_table: ScoreTable
    seconds: list[float]         # per hypothesis, input order, measured
    wall_seconds: float
    serialize_seconds: float = 0.0
    score_seconds: float = 0.0
    bytes_moved: int = 0

    def mean_seconds_per_family(self) -> float:
        return float(np.mean(self.seconds)) if self.seconds else 0.0

    def max_seconds_per_family(self) -> float:
        return float(np.max(self.seconds)) if self.seconds else 0.0

    @property
    def serialization_share(self) -> float:
        """Fraction of serialise + score time spent serialising."""
        total = self.serialize_seconds + self.score_seconds
        return self.serialize_seconds / total if total > 0 else 0.0


def score_per_hypothesis(hypotheses: Sequence[Hypothesis],
                         scorer: Scorer | str = "L2-P50",
                         n_workers: int = 1,
                         pickle_matrices: bool = False) -> LoopReport:
    """Score hypothesis by hypothesis and rank (see the module docstring)."""
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    if isinstance(scorer, str):
        scorer = get_scorer(scorer)

    def score_one(hypothesis: Hypothesis) -> tuple[float, ...]:
        start = time.perf_counter()
        matrices = hypothesis.matrices()
        n_bytes = 0
        if pickle_matrices:
            payload = pickle.dumps(matrices, protocol=pickle.HIGHEST_PROTOCOL)
            matrices = pickle.loads(payload)
            n_bytes = len(payload)
        score_start = time.perf_counter()
        value = float(scorer.score(*matrices))
        end = time.perf_counter()
        return value, end - start, score_start - start, end - score_start, \
            n_bytes

    wall_start = time.perf_counter()
    if n_workers == 1 or len(hypotheses) <= 1:
        outcomes = [score_one(h) for h in hypotheses]
    else:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            outcomes = list(pool.map(score_one, hypotheses))
    wall = time.perf_counter() - wall_start

    by_name = {h.name: outcome for h, outcome in zip(hypotheses, outcomes)}
    table = rank_families(hypotheses, scorer=scorer,
                          score_fn=lambda h: by_name[h.name][0])
    for row in table.results:
        row.seconds = by_name[row.family][1]
    table.total_seconds = wall
    return LoopReport(
        score_table=table,
        seconds=[outcome[1] for outcome in outcomes],
        wall_seconds=wall,
        serialize_seconds=(sum(o[2] for o in outcomes)
                           if pickle_matrices else 0.0),
        score_seconds=sum(o[3] for o in outcomes),
        bytes_moved=sum(o[4] for o in outcomes),
    )
