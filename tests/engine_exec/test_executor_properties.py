"""Property-based tests for ranking edge cases on every scoring path.

Edge cases: empty hypothesis list, single hypothesis, more workers than
hypotheses, and determinism of the ranking across worker counts.  The
reference is the definitional loop — one ``scorer.score`` call per
hypothesis fed through ``score_fn`` — and the paths under test are the
engine's batch planner (``rank_families``) and the per-hypothesis
thread-pool / pickle schedules kept for the Figure 10 / §6.2 benchmarks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.families import FamilySet, FeatureFamily
from repro.core.hypothesis import generate_hypotheses
from repro.core.ranking import rank_families
from repro.scoring import get_scorer


def _build_hypotheses(n_families: int, n_samples: int = 48):
    rng = np.random.default_rng(2024)
    target = rng.standard_normal(n_samples)
    grid = np.arange(n_samples)
    fams = [FeatureFamily("target", target[:, None], ["t:0"], grid)]
    for i in range(n_families):
        coupling = 0.8 if i == 0 else 0.0
        data = (coupling * target[:, None]
                + rng.standard_normal((n_samples, 2)))
        fams.append(FeatureFamily(
            f"fam_{i}", data, [f"fam_{i}:{j}" for j in range(2)], grid))
    return generate_hypotheses(FamilySet(fams), "target")


HYPOTHESES = _build_hypotheses(7)
_CORRMAX = get_scorer("CorrMax")
REFERENCE = rank_families(
    HYPOTHESES, scorer=_CORRMAX,
    score_fn=lambda h: _CORRMAX.score(*h.matrices()))
REFERENCE_RANKING = [r.family for r in REFERENCE.results]
REFERENCE_SCORES = dict(REFERENCE.all_scores)

#: The scoring paths: the engine's batch planner, and the per-hypothesis
#: schedule on a thread pool without / with the pickle round trip.
PATHS = ("thread", "pickle", "batch")


@pytest.fixture(scope="module")
def run(per_hypothesis):
    """``run(path, hypotheses, n_workers)``: a path's table and seconds."""
    def run_path(path, hypotheses, n_workers, scorer="CorrMax"):
        if path == "batch":
            table = rank_families(hypotheses, scorer=scorer)
            return table, [row.seconds for row in table.results]
        report = per_hypothesis.score_per_hypothesis(
            hypotheses, scorer=scorer, n_workers=n_workers,
            pickle_matrices=path == "pickle")
        return report.score_table, report.seconds
    return run_path


@given(n_workers=st.integers(min_value=1, max_value=9),
       path=st.sampled_from(PATHS))
@settings(max_examples=12, deadline=None)
def test_ranking_deterministic_across_worker_counts(run, n_workers, path):
    table, _ = run(path, HYPOTHESES, n_workers)
    assert [r.family for r in table.results] == REFERENCE_RANKING
    assert dict(table.all_scores) == REFERENCE_SCORES


@pytest.mark.parametrize("path", PATHS)
def test_empty_hypothesis_list(run, path):
    table, seconds = run(path, [], n_workers=2)
    assert seconds == []
    assert table.results == []
    assert table.n_hypotheses == 0


@pytest.mark.parametrize("path", PATHS)
def test_single_hypothesis(run, path):
    single = HYPOTHESES[:1]
    table, seconds = run(path, single, n_workers=4)
    assert len(seconds) == 1
    assert len(table.results) == 1
    row = table.results[0]
    assert row.family == single[0].name
    assert row.rank == 1
    assert row.score == REFERENCE_SCORES[single[0].name]


@pytest.mark.parametrize("path", PATHS)
def test_more_workers_than_hypotheses(run, path):
    table, seconds = run(path, HYPOTHESES, n_workers=32)
    assert [r.family for r in table.results] == REFERENCE_RANKING
    assert len(seconds) == len(HYPOTHESES)


def test_batch_timings_cover_every_hypothesis():
    table = rank_families(HYPOTHESES, scorer="L2")
    assert len(table.results) == len(HYPOTHESES)
    assert all(row.seconds > 0.0 for row in table.results)
    assert {row.family for row in table.results} == \
        {h.name for h in HYPOTHESES}
