"""Unit tests for the per-hypothesis executor of the §4 / §6.2 benchmarks.

The paper schedules one hypothesis per worker; the engine ranks through
the batch planner instead, and the per-hypothesis schedule lives on in
``benchmarks/per_hypothesis.py`` to reproduce Figure 10 and §6.2.
Those benchmarks' assertions are only as good as this executor, so it
is tested here like any other component.
"""

import numpy as np
import pytest

from repro.core.families import FamilySet, FeatureFamily
from repro.core.hypothesis import generate_hypotheses



@pytest.fixture
def score_per_hypothesis(per_hypothesis):
    return per_hypothesis.score_per_hypothesis


@pytest.fixture
def hypotheses(rng):
    n = 150
    target = rng.standard_normal(n)
    fams = [FeatureFamily("target", target[:, None], ["t:0"],
                          np.arange(n))]
    for i in range(8):
        coupling = 1.0 if i == 0 else 0.0
        data = (coupling * target[:, None]
                + rng.standard_normal((n, 3)))
        fams.append(FeatureFamily(f"fam_{i}", data,
                                  [f"fam_{i}:{j}" for j in range(3)],
                                  np.arange(n)))
    families = FamilySet(fams)
    return generate_hypotheses(families, "target")


class TestHypothesisExecutor:
    def test_parallel_matches_serial_ranking(self, hypotheses, score_per_hypothesis):
        serial = score_per_hypothesis(hypotheses, scorer="L2")
        parallel = score_per_hypothesis(hypotheses, scorer="L2",
                                        n_workers=4)
        serial_rank = [r.family for r in serial.score_table.results]
        parallel_rank = [r.family for r in parallel.score_table.results]
        assert serial_rank == parallel_rank
        assert serial_rank[0] == "fam_0"

    def test_timings_per_hypothesis(self, hypotheses, score_per_hypothesis):
        report = score_per_hypothesis(hypotheses, scorer="L2", n_workers=2)
        assert len(report.seconds) == len(hypotheses)
        assert report.mean_seconds_per_family() > 0.0
        assert report.max_seconds_per_family() >= \
            report.mean_seconds_per_family()
        by_family = {r.family: r.seconds
                     for r in report.score_table.results}
        assert [by_family[h.name] for h in hypotheses] == report.seconds

    def test_wall_time_recorded(self, hypotheses, score_per_hypothesis):
        report = score_per_hypothesis(hypotheses, scorer="CorrMax",
                                      n_workers=2)
        assert report.wall_seconds > 0.0
        assert report.score_table.total_seconds == report.wall_seconds

    def test_invalid_worker_count(self, hypotheses, score_per_hypothesis):
        with pytest.raises(ValueError):
            score_per_hypothesis(hypotheses, n_workers=0)

    def test_serialization_accounting(self, hypotheses, score_per_hypothesis):
        report = score_per_hypothesis(hypotheses, scorer="CorrMax",
                                      pickle_matrices=True)
        assert report.bytes_moved > sum(
            h.x.matrix.nbytes + h.y.matrix.nbytes for h in hypotheses)
        assert report.serialize_seconds > 0.0
        assert 0.0 <= report.serialization_share <= 1.0
        plain = score_per_hypothesis(hypotheses, scorer="CorrMax")
        assert plain.bytes_moved == 0
        assert plain.serialization_share == 0.0
        assert ([r.score for r in report.score_table.results]
                == [r.score for r in plain.score_table.results])

    def test_univariate_serialization_share_exceeds_joint(self, hypotheses, score_per_hypothesis):
        """§6.2: serialisation is a larger share for cheap scorers."""
        cheap = score_per_hypothesis(hypotheses, scorer="CorrMax",
                                     pickle_matrices=True)
        joint = score_per_hypothesis(hypotheses, scorer="L2",
                                     pickle_matrices=True)
        assert cheap.serialization_share > joint.serialization_share

    def test_empty_hypothesis_list(self, score_per_hypothesis):
        report = score_per_hypothesis([], scorer="CorrMax")
        assert report.seconds == []
        assert report.mean_seconds_per_family() == 0.0
        assert report.max_seconds_per_family() == 0.0
