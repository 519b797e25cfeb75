"""ingest_recover: small collector flushes through the WAL, then recovery.

Set-up generates a history of 16 metrics x 16 hosts = 256 series,
loads it through the WAL, checkpoints and reopens the store.

The timed loop has two threads.  A writer streams collector flushes:
each flush is one 8-point ``insert_array`` per series through the WAL
at the default ``fsync_every=64``.  A checkpointer runs ``checkpoint()``
after every ``N`` flushes (a count, not a timer), often enough that a
few percent of the flushes wait for a checkpoint.  The timed phase ends
with ``flush()``.  Then a fixed tail of flushes is written after the
last checkpoint, the store is closed, reopened with
``open(wal, snapshot=...)`` and compared with everything ingested.

Gate: the reopened store holds exactly the ingested points, bitwise.
"""

from __future__ import annotations

import shutil
import threading
import time
from pathlib import Path

import numpy as np
from repro.tsdb.model import SeriesId

from perfbench.common import (
    Context,
    Outcome,
    WalStats,
    checkpoint,
    chunks_per_series,
    insert,
    load_through_wal,
    open_layers,
    percentile,
    reopen,
    repeated_setup,
    store_bytes,
    trace_overhead,
)

WHY = ("WAL append, seal, checkpoint and chunkfile load do all the work "
       "and reads none, so a read-side gain that costs the write path "
       "shows here.")

BATCH = 8

#: Flushes a 2-core machine acknowledges per second; a run streams
#: ``--seconds * FLUSHES_PER_SECOND`` flushes, so recovery always reads
#: the same amount of data.
FLUSHES_PER_SECOND = 10

CONFIGS = {
    "full": dict(metrics=16, hosts=16, history=2048, checkpoint_every=10,
                 tail_flushes=32, pool=64, setup_reps=5, recover_reps=3),
    "tiny": dict(metrics=4, hosts=4, history=64, checkpoint_every=4,
                 tail_flushes=4, pool=8, setup_reps=2, recover_reps=1),
}

#: Percentile of flush latency reported as ``op_tail_ms``: the highest
#: one with about ten flushes beyond it in a 10-second run.
TAIL = 95


class Inputs:
    """Everything the collectors send, made from the seed.

    Flush ``k`` carries timestamps ``history + k*BATCH ...`` and the
    values of block ``k % pool``, so the expected contents of any series
    after any number of flushes can be rebuilt for the gate.
    """

    def __init__(self, seed: int, config: dict) -> None:
        rng = np.random.default_rng(seed)
        self.series = [SeriesId.make(f"m{m:02d}", {"host": f"h{h:02d}"})
                       for m in range(config["metrics"])
                       for h in range(config["hosts"])]
        n, history = len(self.series), config["history"]
        self.history_ts = np.arange(history, dtype=np.int64)
        self.history = np.cumsum(rng.standard_normal((n, history)), axis=1)
        self.blocks = rng.standard_normal((config["pool"], n, BATCH))
        self._start = history

    def flush(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        ts = np.arange(self._start + k * BATCH,
                       self._start + (k + 1) * BATCH, dtype=np.int64)
        return ts, self.blocks[k % len(self.blocks)]

    def expected(self, j: int, flushes: int) -> tuple[np.ndarray, np.ndarray]:
        """Series ``j`` after ``flushes`` flushes."""
        ts = np.arange(self._start + flushes * BATCH, dtype=np.int64)
        k = np.arange(flushes)
        tail = self.blocks[k % len(self.blocks), j].reshape(-1)
        return ts, np.concatenate([self.history[j], tail])


def _build(ctx: Context, config: dict, root: Path) -> dict:
    with ctx.tracer.span("workloads.build"):
        inputs = Inputs(ctx.seed, config)
    wal, snap = root / "store.wal", root / "store.snap"
    stats = WalStats()
    arrays = [(s, inputs.history_ts, inputs.history[j])
              for j, s in enumerate(inputs.series)]
    store = load_through_wal(ctx.tracer, arrays, wal, snap, stats)
    return {"root": root, "store": store, "inputs": inputs, "wal": stats,
            "files": (wal, snap)}


def _teardown(state: dict) -> None:
    state["store"].close()
    shutil.rmtree(state["root"])


def _flush(ctx: Context, store, inputs: Inputs, k: int) -> None:
    ts, block = inputs.flush(k)
    with ctx.tracer.span("tsdb.flush", request=f"f{k}"):
        for j, series in enumerate(inputs.series):
            insert(ctx.tracer, store, series, ts, block[j])


def _overlap(intervals: list[tuple[float, float]],
             spans: list[tuple[float, float]]) -> float:
    """Total time of ``intervals`` that falls inside any of ``spans``."""
    total = 0.0
    for lo, hi in intervals:
        for s_lo, s_hi in spans:
            total += max(0.0, min(hi, s_hi) - max(lo, s_lo))
    return total


def run(ctx: Context) -> Outcome:
    config = CONFIGS[ctx.config]
    tracer = ctx.tracer
    out = Outcome()
    setup_s, state = repeated_setup(
        ctx, config["setup_reps"], lambda root: _build(ctx, config, root),
        _teardown)
    store, inputs = state["store"], state["inputs"]
    wal, snap = state["files"]
    every = config["checkpoint_every"]

    # -- timed loop: writer + checkpointer -------------------------------
    flushes: list[tuple[bool, float, float]] = []
    checkpoints: list[tuple[float, float]] = []
    errors: list[str] = []
    done = threading.Condition()
    progress = {"flushes": 0, "stop": False}

    def checkpointer() -> None:
        due = every
        while True:
            with done:
                done.wait_for(lambda: progress["stop"]
                              or progress["flushes"] >= due)
                if progress["stop"]:
                    return
                due = progress["flushes"] + every
            t0 = time.perf_counter()
            try:
                checkpoint(tracer, store, snap)
            except Exception as exc:        # counted as a failed operation
                errors.append(f"checkpoint: {exc!r}")
            checkpoints.append((t0, time.perf_counter()))

    n_flushes = max(2 * every, round(ctx.seconds * FLUSHES_PER_SECOND))
    start = time.perf_counter()
    cpu0 = time.process_time()
    thread = threading.Thread(target=checkpointer)
    thread.start()
    k = 0
    try:
        while k < n_flushes:
            traced = k % 2 == 0
            t0 = time.perf_counter()
            with tracer.paused(not traced):
                try:
                    _flush(ctx, store, inputs, k)
                except Exception as exc:    # counted as a failed flush
                    errors.append(f"flush {k}: {exc!r}")
            flushes.append((traced, t0, time.perf_counter()))
            k += 1
            with done:
                progress["flushes"] = k
                done.notify()
        store.flush()
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu0
    finally:
        with done:
            progress["stop"] = True
            done.notify()
        thread.join()
    timed_flushes = k

    # -- fixed WAL tail after the last checkpoint, then recovery ---------
    before = wal.stat().st_size
    for _ in range(config["tail_flushes"]):
        _flush(ctx, store, inputs, k)
        k += 1
    store.flush()
    state["wal"].add(store, config["tail_flushes"] * len(inputs.series)
                     * BATCH, since=before)
    points = len(inputs.series) * (config["history"] + k * BATCH)
    disk = store_bytes(wal, snap)
    chunks = chunks_per_series([store])
    recover_s, (store,) = reopen(tracer, [(wal, snap)],
                                 config["recover_reps"], store.close)
    try:
        wrong = _verify(store, inputs, k)
    finally:
        store.close()
    if tracer.enabled:
        open_layers(tracer, [(wal, snap)])

    for error in errors:
        print(f"ingest_recover: {error}")
    out.attempted = k + len(checkpoints)
    out.failed = len(errors) + len(wrong)
    out.gates["recovered_points_bitwise_equal"] = not wrong

    latencies = [1e3 * (t1 - t0) for _, t0, t1 in flushes]
    points_timed = timed_flushes * len(inputs.series) * BATCH
    out.metrics = {
        "setup_s": setup_s,
        "op_p50_ms": percentile(latencies, 50),
        "op_tail_ms": percentile(latencies, TAIL),
        "throughput": points_timed / wall,
        "disk_bytes_per_point": disk / points,
    }
    out.aliases = {"op_p50_ms": "append_p50_ms",
                   "op_tail_ms": f"append_p{TAIL}_ms",
                   "throughput": "ingest_pts_per_s"}
    out.layers = {
        **state["wal"].layers(),
        "tsdb.checkpoint.stall_s":
            _overlap([(t0, t1) for _, t0, t1 in flushes], checkpoints),
        "tsdb.chunks_per_series": chunks,
        "tsdb.open.recover_s": recover_s,
        "proc.cpu_util": cpu / wall,
        **trace_overhead([1e3 * (t1 - t0) for t, t0, t1 in flushes if t],
                         [1e3 * (t1 - t0) for t, t0, t1 in flushes if not t]),
    }
    stalled = sum(1 for _, t0, t1 in flushes
                  if _overlap([(t0, t1)], checkpoints) > 0)
    out.record = {
        "series": len(inputs.series),
        "points_per_flush": len(inputs.series) * BATCH,
        "history_points": len(inputs.series) * config["history"],
        "flushes": timed_flushes,
        "checkpoint_every": every,
        "checkpoints": len(checkpoints),
        "stalled_flush_frac": stalled / max(1, timed_flushes),
        "tail_flushes": config["tail_flushes"],
        "points_recovered": points,
        "recover_s": recover_s,
        "tail_percentile": TAIL,
    }
    return out


def _verify(store, inputs: Inputs, flushes: int) -> set[int]:
    """Flush indices whose points the recovered store lacks or changed.

    Index -1 stands for the set-up history and for series the store
    does not hold at all.
    """
    wrong: set[int] = set()
    history = len(inputs.history_ts)
    if len(store) != len(inputs.series):
        wrong.add(-1)
    for j, series in enumerate(inputs.series):
        if series not in store:
            wrong.add(-1)
            continue
        ts, vals = store.arrays(series)
        want_ts, want_vals = inputs.expected(j, flushes)
        n = min(len(ts), len(want_ts))
        bad = (ts[:n] != want_ts[:n]) | \
            (vals[:n].view(np.int64) != want_vals[:n].view(np.int64))
        positions = np.flatnonzero(bad).tolist() + list(
            range(n, max(len(ts), len(want_ts))))
        for pos in positions:
            wrong.add(-1 if pos < history else (pos - history) // BATCH)
    return wrong
