"""Shared pytest fixtures."""

from __future__ import annotations

import numpy as np
import pytest


def pytest_configure(config) -> None:
    """Register the suite's custom markers (no pytest.ini in this repo) and
    fail a test that leaks a file, socket or subprocess pipe."""
    config.addinivalue_line(
        "markers", "slow: a long-horizon test, skipped unless --runslow is given")
    for category in ("ResourceWarning",
                     "pytest.PytestUnraisableExceptionWarning"):
        config.addinivalue_line("filterwarnings", f"error::{category}")


def pytest_addoption(parser) -> None:
    parser.addoption("--runslow", action="store_true", default=False,
                     help="also run the tests marked slow")


def pytest_collection_modifyitems(config, items) -> None:
    if config.getoption("--runslow"):
        return
    skip_slow = pytest.mark.skip(reason="slow: needs --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def fast_heartbeat(monkeypatch) -> None:
    """Worker pools built in the test heartbeat every 50 ms and declare a
    worker dead after 5 s of silence."""
    from repro.campaign import workers

    monkeypatch.setattr(workers, "HEARTBEAT_INTERVAL_S", 0.05)
    monkeypatch.setattr(workers, "LIVENESS_TIMEOUT_S", 5.0)


@pytest.fixture
def fork_pools(monkeypatch):
    """Worker pools built in the test fork their workers: spawned ones could
    not import the worker functions a test module defines, and fork keeps
    the suite fast.  The shared pools are shut down before and after."""
    from repro.campaign import workers

    monkeypatch.setattr(workers, "DEFAULT_START_METHOD", "fork")
    workers.shutdown_shared_pools()
    yield
    workers.shutdown_shared_pools()


@pytest.fixture
def short_training(monkeypatch) -> None:
    """Cut the ``bench-train`` case to 2 timed iterations after 1 warmup."""
    from repro.workflow import train_hotpath

    monkeypatch.setattr(train_hotpath, "ITERATIONS", 2)
    monkeypatch.setattr(train_hotpath, "WARMUP", 1)


@pytest.fixture
def short_learning(monkeypatch) -> None:
    """Cut ``bench-learning`` to one seed pair of 8-sample phases (seed 0
    still forgets) and a 4-step session, banded at that size."""
    from repro.workflow import learning

    monkeypatch.setattr(learning, "SEEDS", (0,))
    monkeypatch.setattr(learning, "PHASE_SAMPLES", 8)
    monkeypatch.setattr(learning, "STEPS", 4)
    monkeypatch.setattr(learning, "BANDS", learning.measure_bands())


def numerical_gradient(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference numerical gradient of a scalar function of ``x``."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = fn(x)
        flat[i] = original - eps
        minus = fn(x)
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2.0 * eps)
    return grad
