"""Figure 10: score-time distributions per scorer, plus the engine's gain.

The paper plots the mean and max score time per feature family for the
five scorers across the 11 scenarios, finding joint methods within 2-3x
of the univariate ones on average (1.5x for max).  We reproduce the
measurement on the incident suite and print the density summary.  The
per-family times come from the per-hypothesis loop of
``per_hypothesis.py`` — each family's score call measured on its own —
not from the engine, whose batch planner times one stacked call per
shape group and gives its members equal shares.

The backend comparison runs the same workload through the paper's
per-hypothesis schedule (``thread``: a thread pool, one hypothesis per
task; ``pickle``: the same with every hypothesis's matrices pickled, as
for a process worker) and through the engine's batch planner
(``batch``: ``rank_families``).  The interactive budget of Figure 10 is
exactly what batching buys back: on 500+ hypotheses the batch planner
must be at least 2x faster than the thread pool while producing a
bitwise-identical Score Table.
"""

import importlib.util
import pathlib
import sys

import numpy as np
import pytest

from repro.core.families import FamilySet, FeatureFamily
from repro.core.hypothesis import generate_hypotheses
from repro.core.ranking import rank_families
from repro.evalkit import timing_summary
from repro.evalkit.harness import EvaluationResult, ScenarioOutcome


def _load_per_hypothesis():
    """``benchmarks/per_hypothesis.py``, loaded by path (no package)."""
    module = sys.modules.get("per_hypothesis")
    if module is None:
        spec = importlib.util.spec_from_file_location(
            "per_hypothesis",
            pathlib.Path(__file__).with_name("per_hypothesis.py"))
        module = importlib.util.module_from_spec(spec)
        sys.modules["per_hypothesis"] = module
        spec.loader.exec_module(module)
    return module


per_hypothesis = _load_per_hypothesis()

SCORERS = ("CorrMean", "CorrMax", "L2", "L2-P50", "L2-P500")

#: Schedules the backend comparison can run; see the module docstring.
BACKENDS = ("thread", "pickle", "batch")

#: Columns of one backend timing row; the smoke test checks this schema.
BACKEND_ROW_FIELDS = ("backend", "scorer", "n_hypotheses", "n_workers",
                      "wall_seconds", "mean_seconds_per_family",
                      "max_seconds_per_family", "share_attributed")


def synthetic_hypotheses(n_families: int = 500, n_samples: int = 150,
                         n_features: int = 3, seed: int = 0):
    """A single-target workload with ``n_families`` candidate families."""
    rng = np.random.default_rng(seed)
    target = rng.standard_normal(n_samples)
    grid = np.arange(n_samples)
    fams = [FeatureFamily("target", target[:, None], ["t:0"], grid)]
    for i in range(n_families):
        coupling = 1.0 if i % 50 == 0 else 0.0
        data = (coupling * target[:, None]
                + rng.standard_normal((n_samples, n_features)))
        fams.append(FeatureFamily(
            f"fam_{i}", data,
            [f"fam_{i}:{j}" for j in range(n_features)], grid))
    return generate_hypotheses(FamilySet(fams), "target")


def backend_timing_rows(hypotheses, scorer="L2",
                        backends=("thread", "batch"),
                        n_workers: int = 4) -> list[dict]:
    """One timing row per backend for the same hypothesis workload.

    ``share_attributed`` marks rows whose per-family times are equal
    shares of a stacked call (the batch planner) rather than individual
    measurements — their max/fam collapses toward the mean and should
    not be read as a true per-family max.
    """
    rows = []
    for backend in backends:
        if backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {backend!r}")
        if backend == "batch":
            table = rank_families(hypotheses, scorer=scorer)
            seconds = [row.seconds for row in table.results]
            wall = table.total_seconds
        else:
            report = per_hypothesis.score_per_hypothesis(
                hypotheses, scorer=scorer, n_workers=n_workers,
                pickle_matrices=backend == "pickle")
            table, seconds, wall = (report.score_table, report.seconds,
                                    report.wall_seconds)
        rows.append({
            "backend": backend,
            "scorer": table.scorer_name,
            "n_hypotheses": len(hypotheses),
            "n_workers": n_workers,
            "wall_seconds": wall,
            "mean_seconds_per_family": float(np.mean(seconds)),
            "max_seconds_per_family": float(np.max(seconds)),
            "share_attributed": backend == "batch",
        })
    return rows


def rankings_match_engine(hypotheses, scorer="L2",
                          n_workers: int = 2) -> bool:
    """Do both per-hypothesis schedules rank exactly like the engine?

    Compares family order, ranks, scores by float hex and p-values.
    """
    def fields(table):
        return [(r.family, r.rank, float(r.score).hex(),
                 float(r.p_value).hex()) for r in table.results]

    engine = fields(rank_families(hypotheses, scorer=scorer))
    return all(
        fields(per_hypothesis.score_per_hypothesis(
            hypotheses, scorer=scorer, n_workers=n_workers,
            pickle_matrices=pickled).score_table) == engine
        for pickled in (False, True))


def format_backend_rows(rows) -> str:
    header = (f"{'Backend':<10}{'Scorer':<10}{'#Hyp':>7}{'Workers':>9}"
              f"{'wall(s)':>10}{'mean/fam':>12}{'max/fam':>12}  note")
    lines = [header, "-" * len(header)]
    for row in rows:
        note = "attributed" if row["share_attributed"] else "measured"
        lines.append(
            f"{row['backend']:<10}{row['scorer']:<10}"
            f"{row['n_hypotheses']:>7}{row['n_workers']:>9}"
            f"{row['wall_seconds']:>10.4f}"
            f"{row['mean_seconds_per_family']:>12.6f}"
            f"{row['max_seconds_per_family']:>12.6f}  {note}"
        )
    return "\n".join(lines)


def test_batched_backend_speedup():
    """The batch planner is >=2x faster than threads on 500 hypotheses."""
    hypotheses = synthetic_hypotheses(n_families=500)
    # Warm up BLAS/thread pools so neither backend pays one-time costs.
    warmup = hypotheses[:8]
    backend_timing_rows(warmup, scorer="L2")
    rows = backend_timing_rows(hypotheses, scorer="L2")
    print()
    print("=" * 76)
    print("Figure 10 companion — scoring backends on 500 hypotheses")
    print("=" * 76)
    print(format_backend_rows(rows))
    by_backend = {row["backend"]: row for row in rows}
    speedup = (by_backend["thread"]["wall_seconds"]
               / by_backend["batch"]["wall_seconds"])
    print(f"batch speedup over thread: {speedup:.1f}x")
    assert speedup >= 2.0


def figure10_evaluation(incidents, scorers=SCORERS) -> EvaluationResult:
    """Per-family score times from the per-hypothesis loop.

    Shaped as an :class:`~repro.evalkit.harness.EvaluationResult` (gains
    left empty) so :func:`~repro.evalkit.timing_summary` summarises it.
    """
    outcomes = []
    for incident in incidents:
        hypotheses = generate_hypotheses(incident.families, incident.target)
        for scorer in scorers:
            report = per_hypothesis.score_per_hypothesis(hypotheses, scorer)
            outcomes.append(ScenarioOutcome(
                incident=incident.name, scorer=scorer,
                n_families=incident.n_families,
                n_features=incident.n_features, gain=None, log_gain=None,
                first_cause_rank=None, success={},
                seconds_total=report.wall_seconds,
                seconds_per_family=report.seconds))
    return EvaluationResult(outcomes=outcomes, scorers=list(scorers),
                            incidents=[i.name for i in incidents])


@pytest.fixture(scope="module")
def evaluation(incidents):
    return figure10_evaluation(incidents)


def test_figure10_report(evaluation, benchmark):
    timings = benchmark.pedantic(timing_summary, args=(evaluation,),
                                 rounds=1, iterations=1)
    print()
    print("=" * 76)
    print("Figure 10 — score time per feature family (seconds)")
    print("=" * 76)
    header = (f"{'Scorer':<10}{'mean':>12}{'max':>12}"
              f"{'scenario-mean':>16}{'scenario-max':>15}")
    print(header)
    print("-" * len(header))
    for scorer in SCORERS:
        stats = timings[scorer]
        print(f"{scorer:<10}{stats['mean_seconds_per_family']:>12.5f}"
              f"{stats['max_seconds_per_family']:>12.5f}"
              f"{stats['mean_of_scenario_means']:>16.5f}"
              f"{stats['mean_of_scenario_maxes']:>15.5f}")


def test_joint_within_small_factor_of_univariate(evaluation, benchmark):
    """§6.2: multivariate runtimes within a few x of the simple scorer."""
    timings = benchmark.pedantic(timing_summary, args=(evaluation,),
                                 rounds=1, iterations=1)
    univariate = timings["CorrMax"]["mean_seconds_per_family"]
    joint = timings["L2-P50"]["mean_seconds_per_family"]
    assert joint < 100 * univariate   # same order of magnitude territory
    assert joint > univariate         # but not free


def test_projection_cheaper_than_full_joint_on_wide_families(incidents,
                                                             benchmark):
    """L2-P50 saves time exactly on the wide families it projects."""
    import time
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    from repro.scoring import get_scorer
    wide = next(i for i in incidents
                if any(f.n_features >= 100 for f in i.families))
    family = next(f for f in wide.families if f.n_features >= 100)
    y = wide.families[wide.target].matrix
    timing = {}
    for name in ("L2", "L2-P50"):
        scorer = get_scorer(name)
        scorer.score(family.matrix, y)            # warm-up
        start = time.perf_counter()
        scorer.score(family.matrix, y)
        timing[name] = time.perf_counter() - start
    print(f"\n[Figure 10 detail] wide family ({family.n_features}f): "
          f"L2 {timing['L2'] * 1e3:.1f}ms vs "
          f"L2-P50 {timing['L2-P50'] * 1e3:.1f}ms")
    # Projection adds 3 projected regressions; it should still not be
    # dramatically slower, and for very wide families it usually wins.
    assert timing["L2-P50"] < timing["L2"] * 3.0
