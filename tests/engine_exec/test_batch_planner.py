"""Regression tests for the batch planner's grouping and timing rules."""

import gc

import numpy as np
import pytest

from repro.core.families import FamilySet, FeatureFamily
from repro.core.hypothesis import generate_hypotheses
from repro.core.ranking import rank_families
from repro.engine_exec import execute_batches, plan_batches
from repro.scoring import get_scorer


def _families(rng, n=5, n_samples=40):
    target = rng.standard_normal(n_samples)
    grid = np.arange(n_samples)
    fams = [FeatureFamily("target", target[:, None], ["t:0"], grid)]
    for i in range(n):
        fams.append(FeatureFamily(
            f"fam_{i}", rng.standard_normal((n_samples, 2)),
            [f"fam_{i}:{j}" for j in range(2)], grid))
    return FamilySet(fams)


class _LazyHypothesis:
    """A hypothesis whose Y family is rebuilt on every access.

    Models a lazily materialising stream with a one-slot cache: ``.y``
    returns a *fresh* family object each time and only the most recent
    one stays alive, so earlier families are garbage-collected
    mid-stream.  Under the old planner the ``id()`` keyed off one access
    referred to an object that died before the next hypothesis was
    planned, CPython handed its address to that hypothesis's fresh
    family, and hypotheses from different (Y, Z) groups silently merged
    (observed as 8 groups collapsing to 6 with members paired to the
    wrong Y).  The members list is preallocated so the freed family
    block is the next same-size allocation — the deterministic reuse
    pattern that reproduced the bug.
    """

    _cache: FeatureFamily | None = None

    def __init__(self, x: FeatureFamily, y_matrix: np.ndarray,
                 grid: np.ndarray) -> None:
        self.x = x
        self._y_matrix = y_matrix
        self._grid = grid
        self._members = ["t:0"]

    @property
    def y(self) -> FeatureFamily:
        fam = FeatureFamily("target", self._y_matrix, self._members,
                            self._grid)
        _LazyHypothesis._cache = fam    # frees the previous family
        return fam

    @property
    def z(self) -> None:
        return None

    @property
    def name(self) -> str:
        return self.x.name

    def matrices(self):
        return self.x.matrix, self.y.matrix, None


class TestPlanBatches:
    def test_shared_families_collapse_to_one_batch(self, rng):
        hypotheses = generate_hypotheses(_families(rng), "target")
        batches = plan_batches(hypotheses)
        assert len(batches) == 1
        assert batches[0].indices == list(range(len(hypotheses)))

    def test_no_condition_uses_sentinel_not_zero(self, rng):
        """z=None groups must not rely on a forgeable literal key."""
        from repro.engine_exec import batch as batch_module
        assert batch_module._NO_CONDITION is not None
        assert not isinstance(batch_module._NO_CONDITION, int)
        hypotheses = generate_hypotheses(_families(rng), "target")
        assert all(h.z is None for h in hypotheses)
        (batch,) = plan_batches(hypotheses)
        assert batch.z is None

    def test_distinct_y_objects_stay_in_distinct_batches(self, rng):
        fams = _families(rng)
        hypotheses = generate_hypotheses(fams, "target")
        # Same values, different object: must land in its own batch.
        other_y = FeatureFamily("target", hypotheses[0].y.matrix.copy(),
                                ["t:0"], hypotheses[0].y.grid)
        rebound = type(hypotheses[0])(x=hypotheses[0].x, y=other_y)
        batches = plan_batches(list(hypotheses) + [rebound])
        assert len(batches) == 2

    def test_lazy_families_never_merge_across_targets(self, rng):
        """Regression: id-reuse across gc'd lazy families merged groups.

        Every hypothesis materialises a fresh Y per access and only the
        newest stays alive, so each keyed family's address is freed (and
        reusable) before the next hypothesis is planned.  The planner
        must key each one consistently with the object it stores: every
        member of a batch must see exactly the batch's Y matrix, and
        scoring through the batch path must equal scoring hypothesis by
        hypothesis.
        """
        gc.collect()
        n_samples = 40
        grid = np.arange(n_samples)
        hypotheses = []
        for i in range(8):
            h_rng = np.random.default_rng(1000 + i)
            x = FeatureFamily(f"fam_{i}", h_rng.standard_normal((n_samples, 2)),
                              [f"fam_{i}:{j}" for j in range(2)], grid)
            y_matrix = h_rng.standard_normal((n_samples, 1)) + i
            hypotheses.append(_LazyHypothesis(x, y_matrix, grid))
        batches = plan_batches(hypotheses)
        for batch in batches:
            for h in batch.hypotheses:
                assert np.array_equal(batch.y.matrix, h.y.matrix)
        scorer = get_scorer("CorrMax")
        scores, _ = execute_batches(hypotheses, scorer)
        expected = np.array([scorer.score(*h.matrices()) for h in hypotheses])
        assert np.array_equal(scores, expected)


def _mixed_shape_families(rng, widths=(2, 2, 2, 3), n_samples=40):
    """Families sharing one target but with differing feature counts."""
    target = rng.standard_normal(n_samples)
    grid = np.arange(n_samples)
    fams = [FeatureFamily("target", target[:, None], ["t:0"], grid)]
    for i, width in enumerate(widths):
        fams.append(FeatureFamily(
            f"fam_{i}", rng.standard_normal((n_samples, width)),
            [f"fam_{i}:{j}" for j in range(width)], grid))
    return FamilySet(fams)


class TestAttributedTimings:
    """Row times are equal shares of one measured call per shape group."""

    def test_batch_scorer_timings_flagged_as_attributed(self, rng):
        hypotheses = generate_hypotheses(_families(rng), "target")
        scores, seconds = execute_batches(hypotheses, get_scorer("L2"))
        # One shape group: every row holds the same equal share.
        assert seconds[0] > 0.0
        assert np.all(seconds == seconds[0])

    def test_shape_groups_timed_individually(self, rng):
        """Per-shape-group attribution: one measured wall time per
        stacked call, equal shares only *within* a shape group."""
        hypotheses = generate_hypotheses(
            _mixed_shape_families(rng), "target")
        widths = [h.x.matrix.shape[1] for h in hypotheses]
        scorer = get_scorer("L2")
        calls = []
        real = scorer.score_batch

        def spy(xs, y, z=None):
            calls.append(len(xs))
            return real(xs, y, z)

        scorer.score_batch = spy
        scores, seconds = execute_batches(hypotheses, scorer)
        wide = [i for i, w in enumerate(widths) if w == 3]
        narrow = [i for i, w in enumerate(widths) if w == 2]
        assert len(wide) == 1 and len(narrow) == 3
        # One stacked call per shape group, in first-occurrence order.
        assert calls == [3, 1]
        # The 3-member group shares one measured elapsed time.
        assert np.all(seconds[narrow] == seconds[narrow[0]])
        # Scores stay bitwise identical to the sequential path.
        expected = np.array([scorer.score(*h.matrices())
                             for h in hypotheses])
        assert np.array_equal(scores, expected)

    def test_l1_batches_like_every_other_scorer(self, rng):
        """L1 implements score_batch (shared Y-side work), so its
        same-shape groups get equal shares like L2's — and scores stay
        bitwise identical to the sequential path."""
        from repro.scoring import BatchScorer
        hypotheses = generate_hypotheses(_families(rng), "target")
        scorer = get_scorer("L1")
        assert isinstance(scorer, BatchScorer)
        scores, seconds = execute_batches(hypotheses, scorer)
        assert np.all(seconds == seconds[0])
        expected = np.array([scorer.score(*h.matrices())
                             for h in hypotheses])
        assert np.array_equal(scores, expected)

    def test_custom_scorer_without_batch_path_is_adapted(self, rng):
        from repro.scoring.base import Scorer

        class Plain(Scorer):
            name = "plain"

            def score(self, x, y, z=None):
                return float(np.corrcoef(x[:, 0], y[:, 0])[0, 1] ** 2)

        hypotheses = generate_hypotheses(_families(rng), "target")
        scorer = Plain()
        scores, seconds = execute_batches(hypotheses, scorer)
        expected = np.array([scorer.score(*h.matrices())
                             for h in hypotheses])
        assert np.array_equal(scores, expected)
        assert np.all(seconds == seconds[0])   # adapted loop, one group

    def test_single_hypothesis_batch_is_measured(self, rng):
        hypotheses = generate_hypotheses(_families(rng, n=1), "target")
        scores, seconds = execute_batches(hypotheses, get_scorer("L2"))
        assert scores.shape == seconds.shape == (1,)
        assert seconds[0] > 0.0

    def test_report_exposes_attribution(self, rng):
        """The Score Table carries the shares; their sum fits the wall."""
        hypotheses = generate_hypotheses(
            _mixed_shape_families(rng), "target")
        table = rank_families(hypotheses, scorer="L2")
        seconds = {row.family: row.seconds for row in table.results}
        narrow = [h.name for h in hypotheses if h.x.n_features == 2]
        assert len({seconds[name] for name in narrow}) == 1
        assert all(value > 0.0 for value in seconds.values())
        assert sum(seconds.values()) <= table.total_seconds
