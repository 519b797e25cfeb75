"""Fixtures for the execution tests: benchmark modules loaded by path.

``benchmarks/`` is not an importable package, so modules the tests
exercise from it are loaded from their files (once per session).
"""

from __future__ import annotations

import importlib.util
import pathlib
import sys

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"


def load_bench_module(name: str):
    """``benchmarks/<name>.py`` as a module, registered under ``name``."""
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.spec_from_file_location(
            name, BENCH_DIR / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def per_hypothesis():
    """The per-hypothesis schedule of the Figure 10 / §6.2 benchmarks."""
    return load_bench_module("per_hypothesis")


@pytest.fixture(scope="session")
def bench():
    """``benchmarks/bench_figure10_score_time.py`` (Figure 10 rows)."""
    return load_bench_module("bench_figure10_score_time")
