"""Hypothesis ranking and the Score Table (§3.5, Figure 4).

``rank_families`` is the core loop of Algorithm 1: score every hypothesis,
sort by decreasing score, return the top-k (default 20, the paper's
default limit) annotated with Chebyshev p-values and multiple-testing
corrections from Appendix A.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.core.hypothesis import Hypothesis
from repro.engine_exec.batch import execute_batches
from repro.scoring.base import Scorer, get_scorer
from repro.scoring.significance import (
    benjamini_hochberg,
    bonferroni,
    p_value_chebyshev,
)
from repro.sql.table import Table

DEFAULT_TOP_K = 20


def ranking_sort_key(score: float, family: str) -> tuple:
    """Total order of the Score Table: (score desc, family name asc).

    Exact score ties are broken by family name so the ranking — and
    everything graded from it (evalkit metrics, replay scorecards) — is
    deterministic and independent of the hypotheses' input order.  NaN
    scores sort after every real score; their score component is replaced
    by a constant so NaN rows are also name-ordered rather than left in
    comparison-dependent input order.
    """
    if math.isnan(score):
        return (1, 0.0, family)
    return (0, -score, family)


@dataclass
class RankedFamily:
    """One row of the Score Table.

    ``seconds`` is this row's equal share of the stacked ``score_batch``
    call that scored its shape group (the hypotheses sharing its Y, Z and
    X shape): individual times inside one stacked call are not
    observable.  Only with ``rank_families(score_fn=...)`` is it the
    row's own measured call.
    """

    rank: int
    family: str
    score: float
    n_features: int
    p_value: float
    p_bonferroni: float = 1.0
    significant_bh: bool = False
    seconds: float = 0.0

    def as_dict(self) -> dict:
        return {
            "rank": self.rank,
            "family": self.family,
            "score": self.score,
            "n_features": self.n_features,
            "p_value": self.p_value,
            "p_bonferroni": self.p_bonferroni,
            "significant_bh": self.significant_bh,
            "seconds": self.seconds,
        }


@dataclass
class ScoreTable:
    """Ranked results plus run metadata; renders to text or a SQL table.

    ``total_seconds`` is the measured wall time of scoring every
    hypothesis; each row's ``seconds`` is its equal share of its shape
    group's stacked ``score_batch`` call (see :class:`RankedFamily`), so
    a max over rows is a per-group, not a per-family, maximum.
    """

    results: list[RankedFamily]
    scorer_name: str
    target: str
    condition: str | None = None
    n_hypotheses: int = 0
    total_seconds: float = 0.0
    all_scores: dict[str, float] = field(default_factory=dict)
    top_k: int = DEFAULT_TOP_K

    def top(self, k: int = DEFAULT_TOP_K) -> list[RankedFamily]:
        return self.results[:k]

    def rank_of(self, family: str) -> int | None:
        """1-based rank of a family, or None when not scored."""
        for row in self.results:
            if row.family == family:
                return row.rank
        return None

    def score_of(self, family: str) -> float | None:
        return self.all_scores.get(family)

    def to_table(self) -> Table:
        """The Score Table as a relational table (Figure 4's third stage)."""
        columns = ["rank", "family", "score", "n_features", "p_value",
                   "p_bonferroni", "significant_bh", "seconds"]
        rows = [tuple(row.as_dict()[c] for c in columns)
                for row in self.results]
        return Table(columns, rows)

    def render(self, k: int = DEFAULT_TOP_K) -> str:
        """Human-readable report (the paper's ranked result listing)."""
        lines = [
            f"Target: {self.target}"
            + (f"  |  conditioned on: {self.condition}" if self.condition
               else ""),
            f"Scorer: {self.scorer_name}  |  hypotheses: "
            f"{self.n_hypotheses}  |  {self.total_seconds:.2f}s",
            "",
            f"{'rank':>4}  {'score':>6}  {'p-value':>9}  {'F':>6}  family",
            "-" * 64,
        ]
        for row in self.top(k):
            lines.append(
                f"{row.rank:>4}  {row.score:>6.3f}  {row.p_value:>9.2e}  "
                f"{row.n_features:>6}  {row.family}"
            )
        return "\n".join(lines)


def rank_families(hypotheses: Sequence[Hypothesis],
                  scorer: Scorer | str = "L2-P50",
                  top_k: int = DEFAULT_TOP_K,
                  score_fn: Callable[[Hypothesis], float] | None = None
                  ) -> ScoreTable:
    """Score every hypothesis and produce the ranked Score Table.

    Scoring runs through the batch planner
    (:func:`~repro.engine_exec.batch.execute_batches`): hypotheses that
    share their (Y, Z) families are scored together, one stacked
    ``score_batch`` call per shape group, bitwise identical to calling
    ``scorer.score`` hypothesis by hypothesis.

    ``score_fn`` replaces the scorer with a per-hypothesis function
    (fixed scores in tests, precomputed scores in benchmarks); each
    row's ``seconds`` is then the wall time of its own call.
    """
    if isinstance(scorer, str):
        scorer = get_scorer(scorer)
    if not hypotheses:
        return ScoreTable(results=[], scorer_name=scorer.name,
                          target="", n_hypotheses=0)
    target_name = hypotheses[0].y.name
    condition = (hypotheses[0].z.name if hypotheses[0].z is not None
                 else None)

    t_start = time.perf_counter()
    if score_fn is None:
        scores, seconds = execute_batches(hypotheses, scorer)
    else:
        scores, seconds = [], []
        for hypothesis in hypotheses:
            h_start = time.perf_counter()
            scores.append(score_fn(hypothesis))
            seconds.append(time.perf_counter() - h_start)
    total = time.perf_counter() - t_start

    scored = [(h, float(score), float(elapsed))
              for h, score, elapsed in zip(hypotheses, scores, seconds)]
    scored.sort(key=lambda item: ranking_sort_key(item[1], item[0].name))
    n_samples = hypotheses[0].y.n_samples
    p_values = np.array([
        p_value_chebyshev(score, n_samples,
                          max(2, min(h.x.n_features, n_samples - 1)))
        for h, score, _ in scored
    ])
    p_bonf = bonferroni(p_values)
    bh_mask = benjamini_hochberg(p_values)

    results = [
        RankedFamily(
            rank=i + 1,
            family=h.name,
            score=score,
            n_features=h.x.n_features,
            p_value=float(p_values[i]),
            p_bonferroni=float(p_bonf[i]),
            significant_bh=bool(bh_mask[i]),
            seconds=seconds,
        )
        for i, (h, score, seconds) in enumerate(scored)
    ]
    # The full ranking is kept; ``top_k`` only affects presentation, so
    # evaluation code can still ask for the rank of a cause below the cut.
    return ScoreTable(
        results=results,
        scorer_name=scorer.name,
        target=target_name,
        condition=condition,
        n_hypotheses=len(hypotheses),
        total_seconds=total,
        all_scores={h.name: score for h, score, _ in scored},
        top_k=top_k,
    )
