"""Batch parity: every registered scorer, one Score Table, bitwise.

``rank_families`` scores through the batch planner, which promises
*bitwise identical* Score Tables to the definitional loop — one
``scorer.score(*h.matrices())`` call per hypothesis — for scores,
ranks, p-values and multiple-testing flags.  These tests sweep every
scorer in the registry, with and without a conditioning Z, against that
loop fed through ``score_fn`` (which bypasses the planner), and compare
floats by their hex representation.  The per-hypothesis thread-pool and
pickle schedules kept for the Figure 10 / §6.2 benchmarks are held to
the same oracle.
"""

import numpy as np
import pytest

from repro.core.families import FamilySet, FeatureFamily, families_from_store
from repro.core.hypothesis import generate_hypotheses
from repro.core.ranking import rank_families
from repro.scoring import get_scorer, list_scorers
from repro.scoring.base import Scorer


def _make_hypotheses(seed: int, n_families: int = 6, n_samples: int = 60,
                     n_features: int = 2, with_z: bool = False):
    rng = np.random.default_rng(seed)
    target = rng.standard_normal(n_samples)
    grid = np.arange(n_samples)
    fams = [FeatureFamily("target", target[:, None], ["t:0"], grid)]
    if with_z:
        fams.append(FeatureFamily(
            "cond", rng.standard_normal((n_samples, 2)),
            ["z:0", "z:1"], grid))
    for i in range(n_families):
        coupling = 1.0 if i == 0 else 0.0
        width = n_features if i % 2 == 0 else n_features + 1
        data = (coupling * target[:, None]
                + rng.standard_normal((n_samples, width)))
        fams.append(FeatureFamily(
            f"fam_{i}", data, [f"fam_{i}:{j}" for j in range(width)], grid))
    families = FamilySet(fams)
    return generate_hypotheses(families, "target",
                               condition="cond" if with_z else None)


@pytest.fixture(scope="module")
def narrow_hypotheses():
    return _make_hypotheses(seed=101)


@pytest.fixture(scope="module")
def conditioned_hypotheses():
    return _make_hypotheses(seed=202, with_z=True)


def _store_hypotheses(scenario, n_samples: int = 160):
    """Hypotheses over families gathered from a scenario's store.

    These reach the scorers the way served requests do: each family is
    a column gather of the store's matrix, and several one-column
    families share a shape group.  The first ``n_samples`` timestamps
    keep the sweep quick.
    """
    families = families_from_store(scenario.store, end=n_samples)
    assert sum(f.n_features == 1 for f in families) > 1
    return generate_hypotheses(families, scenario.target,
                               condition=scenario.condition)


@pytest.fixture(scope="module")
def store_hypotheses():
    from repro.workloads.scenarios import fault_injection_scenario
    return _store_hypotheses(fault_injection_scenario(seed=0))


@pytest.fixture(scope="module")
def store_conditioned_hypotheses():
    from repro.workloads.scenarios import conditioning_scenario
    hypotheses = _store_hypotheses(conditioning_scenario(seed=0))
    assert hypotheses[0].z is not None
    return hypotheses


@pytest.fixture(scope="module")
def wide_hypotheses():
    """Families wider than 50 features, so L2-P50 actually projects."""
    return _make_hypotheses(seed=303, n_families=4, n_features=55)


def definitional(hypotheses, scorer):
    """The oracle: one ``scorer.score`` call per hypothesis, no planner."""
    if isinstance(scorer, str):
        scorer = get_scorer(scorer)
    return rank_families(hypotheses, scorer=scorer,
                         score_fn=lambda h: scorer.score(*h.matrices()))


def _hex(value):
    return float(value).hex()


def assert_tables_identical(expected, actual):
    assert len(expected.results) == len(actual.results)
    for want, got in zip(expected.results, actual.results):
        assert got.family == want.family
        assert got.rank == want.rank
        assert _hex(got.score) == _hex(want.score)      # exact, not approx
        assert got.n_features == want.n_features
        assert _hex(got.p_value) == _hex(want.p_value)
        assert _hex(got.p_bonferroni) == _hex(want.p_bonferroni)
        assert got.significant_bh == want.significant_bh
    assert ({k: _hex(v) for k, v in actual.all_scores.items()}
            == {k: _hex(v) for k, v in expected.all_scores.items()})


@pytest.mark.parametrize("scorer_name", list_scorers())
@pytest.mark.parametrize("fixture_name",
                         ["narrow_hypotheses", "conditioned_hypotheses",
                          "store_hypotheses", "store_conditioned_hypotheses"])
def test_batch_backend_matches_sequential(scorer_name, fixture_name, request):
    hypotheses = request.getfixturevalue(fixture_name)
    assert_tables_identical(definitional(hypotheses, scorer_name),
                            rank_families(hypotheses, scorer=scorer_name))


@pytest.mark.parametrize("scorer_name", list_scorers())
def test_thread_and_pickle_schedules_match_sequential(
        scorer_name, narrow_hypotheses, per_hypothesis):
    """The Figure 10 / §6.2 schedules rank exactly like the oracle."""
    sequential = definitional(narrow_hypotheses, scorer_name)
    for pickled in (False, True):
        report = per_hypothesis.score_per_hypothesis(
            narrow_hypotheses, scorer=scorer_name, n_workers=3,
            pickle_matrices=pickled)
        assert_tables_identical(sequential, report.score_table)


@pytest.mark.parametrize("scorer_name", ["l2-p50", "l2-p500"])
def test_projection_batch_parity_on_wide_families(scorer_name,
                                                  wide_hypotheses):
    """The random-sketch path must replay identical draws per hypothesis."""
    assert_tables_identical(definitional(wide_hypotheses, scorer_name),
                            rank_families(wide_hypotheses,
                                          scorer=scorer_name))


@pytest.mark.parametrize("scorer_name", ["l2-pca50", "l2-lag2"])
def test_pca_and_lagged_batch_parity_on_wide_families(scorer_name,
                                                      wide_hypotheses):
    """The stacked-SVD truncation and lag paths match sequentially."""
    assert_tables_identical(definitional(wide_hypotheses, scorer_name),
                            rank_families(wide_hypotheses,
                                          scorer=scorer_name))


@pytest.mark.parametrize("scorer_name", ["l2-pca50", "l2-lag2"])
def test_pca_and_lagged_are_vectorized(scorer_name):
    """Neither scorer falls back to the per-hypothesis loop anymore."""
    from repro.scoring import BatchScorer
    assert isinstance(get_scorer(scorer_name), BatchScorer)


def test_rank_families_backend_plumbing(narrow_hypotheses, monkeypatch):
    """rank_families scores through execute_batches; score_fn bypasses it."""
    from repro.core import ranking
    calls = []
    real = ranking.execute_batches

    def spy(hypotheses, scorer):
        calls.append(len(hypotheses))
        return real(hypotheses, scorer)

    monkeypatch.setattr(ranking, "execute_batches", spy)
    table = rank_families(narrow_hypotheses, scorer="L2")
    assert calls == [len(narrow_hypotheses)]
    oracle = definitional(narrow_hypotheses, "L2")
    assert calls == [len(narrow_hypotheses)]
    assert_tables_identical(oracle, table)


def test_batch_backend_falls_back_without_vectorized_path(narrow_hypotheses):
    """Scorers without a BatchScorer implementation still rank batched.

    A custom scorer that only implements ``score`` is adapted through
    the per-hypothesis loop inside the planner.
    """
    from repro.scoring import BatchScorer

    class Plain(Scorer):
        name = "plain"

        def score(self, x, y, z=None):
            return float(np.abs(np.corrcoef(x[:, 0], y[:, 0])[0, 1]))

    assert not isinstance(Plain(), BatchScorer)
    assert_tables_identical(definitional(narrow_hypotheses, Plain()),
                            rank_families(narrow_hypotheses,
                                          scorer=Plain()))


def test_invalid_backend_rejected(narrow_hypotheses):
    """The removed execution knobs fail loudly instead of being ignored."""
    from repro.core.engine import ExplainItSession
    from repro.evalkit.replay import replay_matrix
    from repro.serve import QueryServer
    from repro.tsdb.storage import TimeSeriesStore

    with pytest.raises(TypeError):
        rank_families(narrow_hypotheses, scorer="L2", backend="thread")
    with pytest.raises(TypeError):
        rank_families(narrow_hypotheses, scorer="L2", n_workers=2)
    with pytest.raises(TypeError):
        ExplainItSession(TimeSeriesStore()).explain(transfer="shm")
    with pytest.raises(TypeError):
        replay_matrix([], backend="batch")
    with pytest.raises(TypeError):
        QueryServer(TimeSeriesStore(), backend="process")
