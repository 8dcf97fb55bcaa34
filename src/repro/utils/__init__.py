"""Shared utilities: deterministic RNG, validation, serialisation,
persisted benchmark histories, logging setup."""

from repro.utils.benchjson import append_run, bench_path, load_history
from repro.utils.logging import setup_logging
from repro.utils.rng import RandomState, seeded_rng, spawn_rngs
from repro.utils.serialization import jsonable
from repro.utils.validation import check_array, check_positive

__all__ = [
    "append_run",
    "bench_path",
    "load_history",
    "setup_logging",
    "RandomState",
    "seeded_rng",
    "spawn_rngs",
    "jsonable",
    "check_array",
    "check_positive",
]
