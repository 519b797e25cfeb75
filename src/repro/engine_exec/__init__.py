"""Execution substrate: batched hypothesis scoring (§4).

The paper's deployment runs one Spark executor per hypothesis, each
talking to a local Python scikit kernel over gRPC, and §6.2 measures
the cost of serialising matrices to those workers.  The engine here
has one scoring path instead, :mod:`repro.engine_exec.batch`:

- :func:`~repro.engine_exec.batch.plan_batches` groups hypotheses by
  their shared (Y, Z) family objects;
- :func:`~repro.engine_exec.batch.execute_batches` scores each group in
  stacked numpy operations through the
  :class:`~repro.scoring.base.BatchScorer` protocol, adapting scorers
  without a vectorized path through the per-hypothesis loop.  Scores
  are bitwise identical to scoring hypothesis by hypothesis.

:func:`~repro.core.ranking.rank_families` ranks every hypothesis list
through it.  Broadcast-join hypothesis construction lives in
:func:`repro.core.hypothesis.generate_hypotheses`: Y and Z are built
once and shared (not copied) across every X hypothesis — exactly the
structure ``plan_batches`` recovers by identity grouping.  The paper's
per-hypothesis scheduling (thread pool, pickled matrices) is kept only
as a benchmark-local reproduction of Figure 10 and §6.2
(``benchmarks/per_hypothesis.py``).
"""

from repro.engine_exec.batch import (
    HypothesisBatch,
    execute_batches,
    plan_batches,
)

__all__ = [
    "HypothesisBatch",
    "plan_batches",
    "execute_batches",
]
