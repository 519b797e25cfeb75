"""The repository benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload rca_session --seed 0 \
        --seconds 25 --trace 0

Workloads (see each module's docstring): ``rca_session``,
``dashboard_ingest`` and ``ingest_recover``.  The seed makes every
input; the program only receives the generated data.  ``--seconds``
sizes the timed work (whole rounds of incidents, dashboard ticks,
collector flushes) to last about that long on a 2-core machine, so
every run of a workload does the same work whatever the machine's
speed.

With ``--trace 0`` the result carries every end-to-end metric of
``BENCHMARK.json``.  With ``--trace 1`` it carries every per-layer
metric instead: spans are recorded around the benchmark's calls into
each layer (on every other unit of work, so the run can also report
what tracing costs) and written to ``.perfbench_out/`` when the run
ends, and the calls the server makes on its own threads are replayed
one layer at a time after the timed phase.  A layer a workload never
calls reads 0.

The end-to-end metrics are shared by the workloads; each workload says
what its operation is:

==================  =====================  ==================  ===============
metric              rca_session            dashboard_ingest    ingest_recover
==================  =====================  ==================  ===============
op_p50_ms           explain_p50_ms         refresh_p50_ms      append_p50_ms
op_tail_ms          explain_p90_ms         refresh_p90_ms      append_p95_ms
throughput          explain requests/s     sql_qps             ingest_pts_per_s
==================  =====================  ==================  ===============

``setup_s``, ``disk_bytes_per_point`` and ``peak_rss_mb`` mean the same
on every workload.  The time to reopen the final state with
``open(wal, snapshot=...)`` is printed with the inputs and is the
per-layer metric ``tsdb.open.recover_s``: on a shared 2-core machine it
spread by up to a third of its median across seeds, too much for an
end-to-end bound.  rca_session's recall@3 is a correctness gate at
seed 0 and the per-layer metric ``evalkit.recall_at_3``.

The last line of standard output is the JSON result.  The exit code is
0 only when every correctness gate held and no operation failed; a
checkout without the program's source exits with 2 and no result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import inspect
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("rca_session", "dashboard_ingest", "ingest_recover")


def git_sha(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = root / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest(src: Path) -> str:
    """sha256 over the program's source files, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(root: Path, nproc: int) -> dict:
    import numpy as np
    from repro.serve import QueryServer
    from repro.serve.cache import DEFAULT_CACHE_ENTRIES
    from repro.sql import catalog
    from repro.tsdb.sharded import ShardedTimeSeriesStore

    server = inspect.signature(QueryServer).parameters
    store = inspect.signature(ShardedTimeSeriesStore).parameters
    return {
        "cores": nproc,
        "git_sha": git_sha(root),
        "source_digest": source_digest(root / "src"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fsync_every": store["fsync_every"].default,
        "result_cache_entries": DEFAULT_CACHE_ENTRIES,
        "scan_cache_per_provider": getattr(catalog, "_SCAN_CACHE_SIZE", None),
        "keep_versions": server["keep_versions"].default,
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--config", choices=("full", "tiny"), default="full",
                        help="'tiny' is the small set-up the benchmark's "
                             "own tests run")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    for path in (ROOT, ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))

    from perfbench.common import Context, nproc, peak_rss_mb
    from perfbench.layers import layer_metrics
    from perfbench.spans import Tracer

    spec = json.loads(spec_path.read_text())
    module = importlib.import_module(f"perfbench.{args.workload}")
    cores = nproc()
    tracer = Tracer(enabled=bool(args.trace))
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    ctx = Context(seed=args.seed, seconds=args.seconds, tracer=tracer,
                  workdir=workdir, nproc=cores, config=args.config)
    try:
        outcome = module.run(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    outcome.metrics["peak_rss_mb"] = peak_rss_mb()

    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        values = layer_metrics(names, tracer, outcome.layers)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        if set(outcome.metrics) != set(names):
            raise KeyError(f"workload metrics {sorted(outcome.metrics)} "
                           f"differ from BENCHMARK.json {names}")
        values = outcome.metrics
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    correct = all(outcome.gates.values())

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  config {args.config}")
    print(f"why: {module.WHY}")
    env = environment(ROOT, cores)
    print("environment: " + json.dumps(env, sort_keys=True))
    print("inputs: " + json.dumps(outcome.record, sort_keys=True))
    for gate, ok in outcome.gates.items():
        print(f"gate {gate}: {'ok' if ok else 'FAILED'}")
    print(f"operations: {outcome.attempted} attempted, "
          f"{outcome.failed} failed")
    for name in names:
        alias = outcome.aliases.get(name)
        label = f"{name} ({alias})" if alias else name
        print(f"  {label:<44} {values[name]:>16.6f} {units[name]}")

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "config": args.config, "why": module.WHY,
        "environment": env, "inputs": outcome.record,
        "gates": outcome.gates, "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {n: {"value": values[n], "unit": units[n]}
                    for n in names},
    }, indent=1, sort_keys=True))
    if args.trace:
        tracer.dump(out_dir / f"{stem}-spans.json")

    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {n: {"value": values[n], "unit": units[n]}
                    for n in names},
    }))
    return 0 if correct and outcome.failed == 0 else 1


if __name__ == "__main__":
    # One BLAS thread per calling thread: the machine's cores are shared
    # with the server's workers, and OpenBLAS's spinning helper threads
    # make a run's timings depend on whatever else holds the other core
    # (rounds of rca_session ran 3x slower beside one busy process).
    # Must be set before numpy is first imported.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.exit(main())
