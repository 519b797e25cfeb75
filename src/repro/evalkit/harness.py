"""The Table 6 harness: scorers x incidents -> accuracy and timing.

``evaluate_scorers`` runs every scorer over every incident, grades
rankings against ground-truth labels, and ``format_table6`` prints the
same per-scenario and summary rows as the paper's Table 6.
``timing_summary`` produces the Figure 10 mean/max score-time data.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.hypothesis import generate_hypotheses
from repro.core.ranking import rank_families
from repro.evalkit.metrics import (
    discounted_gain,
    log_discounted_gain,
    success_at_k,
    summarize_gains,
)
from repro.workloads.incidents import Incident


@dataclass
class ScenarioOutcome:
    """One (incident, scorer) cell."""

    incident: str
    scorer: str
    n_families: int
    n_features: int
    gain: float | None                 # discounted gain; None = failure
    log_gain: float | None
    first_cause_rank: int | None
    success: dict[int, bool]
    seconds_total: float
    # Score Table row times: equal shares of each shape group's stacked
    # score_batch call (see repro.core.ranking.RankedFamily).
    seconds_per_family: list[float] = field(default_factory=list)


@dataclass
class EvaluationResult:
    """All cells plus helpers to slice by scorer."""

    outcomes: list[ScenarioOutcome]
    scorers: list[str]
    incidents: list[str]
    ks: tuple[int, ...] = (1, 5, 10, 20)

    def by_scorer(self, scorer: str) -> list[ScenarioOutcome]:
        return [o for o in self.outcomes if o.scorer == scorer]

    def gains(self, scorer: str) -> list[float | None]:
        return [o.gain for o in self.by_scorer(scorer)]

    def summary(self, scorer: str) -> dict[str, float]:
        stats = summarize_gains(self.gains(scorer))
        rows = self.by_scorer(scorer)
        for k in self.ks:
            stats[f"success@{k}"] = float(
                np.mean([o.success[k] for o in rows])
            )
        return stats


def evaluate_scorers(incidents: Sequence[Incident],
                     scorers: Sequence[str] = ("CorrMean", "CorrMax", "L2",
                                               "L2-P50", "L2-P500"),
                     ks: tuple[int, ...] = (1, 5, 10, 20)
                     ) -> EvaluationResult:
    """Run the full scorer-by-incident grid."""
    outcomes: list[ScenarioOutcome] = []
    for incident in incidents:
        hypotheses = generate_hypotheses(incident.families, incident.target)
        for scorer_name in scorers:
            start = time.perf_counter()
            table = rank_families(hypotheses, scorer=scorer_name)
            elapsed = time.perf_counter() - start
            ranking = [row.family for row in table.results]
            outcomes.append(ScenarioOutcome(
                incident=incident.name,
                scorer=scorer_name,
                n_families=incident.n_families,
                n_features=incident.n_features,
                gain=discounted_gain(ranking, incident.causes),
                log_gain=log_discounted_gain(ranking, incident.causes),
                first_cause_rank=next(
                    (row.rank for row in table.results
                     if row.family in incident.causes), None),
                success={k: success_at_k(ranking, incident.causes, k)
                         for k in ks},
                seconds_total=elapsed,
                seconds_per_family=[row.seconds for row in table.results],
            ))
    return EvaluationResult(
        outcomes=outcomes,
        scorers=list(scorers),
        incidents=[i.name for i in incidents],
        ks=ks,
    )


def format_table6(result: EvaluationResult) -> str:
    """Render the per-scenario block and summary block of Table 6."""
    scorers = result.scorers
    lines: list[str] = []
    header = (f"{'Scenario':<14}{'#Families':>10}{'#Features':>10}"
              + "".join(f"{s:>10}" for s in scorers))
    lines.append(header)
    lines.append("-" * len(header))
    for incident_name in result.incidents:
        rows = [o for o in result.outcomes if o.incident == incident_name]
        first = rows[0]
        cells = []
        for scorer in scorers:
            outcome = next(o for o in rows if o.scorer == scorer)
            cells.append("-" if outcome.gain is None
                         else f"{outcome.gain:.3f}")
        lines.append(
            f"{incident_name:<14}{first.n_families:>10}"
            f"{first.n_features:>10}" + "".join(f"{c:>10}" for c in cells)
        )
    lines.append("")
    summaries = {s: result.summary(s) for s in scorers}
    label_width = 34

    def row(label: str, key: str, fmt: str = "{:.3f}",
            scale: float = 1.0) -> str:
        cells = "".join(
            f"{fmt.format(summaries[s][key] * scale):>10}" for s in scorers
        )
        return f"{label:<{label_width}}{cells}"

    lines.append(f"{'Summary':<{label_width}}"
                 + "".join(f"{s:>10}" for s in scorers))
    lines.append(row("Harmonic mean (discounted gain)", "harmonic_mean"))
    lines.append(row("Average (discounted gain)", "average"))
    lines.append(row("Stdev of average discounted gain", "stdev"))
    for k in result.ks:
        lines.append(row(f"Success (%) top-{k}", f"success@{k}",
                         fmt="{:.0f}", scale=100.0))
    return "\n".join(lines)


def timing_summary(result: EvaluationResult) -> dict[str, dict[str, float]]:
    """Figure 10 data: mean and max score time per feature family.

    The max is a true per-family maximum only when ``seconds_per_family``
    holds individually measured calls; ``evaluate_scorers`` records the
    batch planner's equal shares, so Figure 10 itself is fed from the
    per-hypothesis loop (``benchmarks/bench_figure10_score_time.py``).
    """
    out: dict[str, dict[str, float]] = {}
    for scorer in result.scorers:
        rows = result.by_scorer(scorer)
        per_family = [t for o in rows for t in o.seconds_per_family]
        mean_per_scenario = [float(np.mean(o.seconds_per_family))
                             for o in rows if o.seconds_per_family]
        max_per_scenario = [float(np.max(o.seconds_per_family))
                            for o in rows if o.seconds_per_family]
        out[scorer] = {
            "mean_seconds_per_family": float(np.mean(per_family)),
            "max_seconds_per_family": float(np.max(per_family)),
            "mean_of_scenario_means": float(np.mean(mean_per_scenario)),
            "mean_of_scenario_maxes": float(np.mean(max_per_scenario)),
        }
    return out
