"""Regenerate ``bench/reference.json``: the bands the coupled output checks read.

For every coupled workload, at its full and its smoke size, run one
repetition at each of five seeds and store

* ``energy_drift``: the band of ``total_energy()`` after/before - 1 over the
  seeds, padded on both sides by twice its width (checked at every seed, so
  it has to hold for seeds it has not seen);
* ``final_loss``: the band of the mean total loss over the last 10 % of
  training iterations, widened by 10 % (checked at the default seed only).

Regenerating is an explicit, reviewed act — ``run.py`` never does it — and
is only right when a change is *meant* to alter the physics or the training
trajectory.  Usage: ``python3 bench/make_reference.py``.
"""

import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

SEEDS = (11, 12, 13, 14, 15)


def band(values, pad_share: float):
    low, high = min(values), max(values)
    pad = pad_share * (high - low)
    return [low - pad, high + pad]


def main() -> int:
    from bench import workloads
    from bench.run import environment

    work_dir = workloads.make_work_dir()
    bands = {}
    try:
        for name in workloads.COUPLED_SHAPES:
            for smoke in (False, True):
                drifts, losses = [], []
                for seed in SEEDS:
                    workload = workloads.CoupledWorkload(name, seed, smoke,
                                                         work_dir)
                    rep = workload.repetition(0)
                    drifts.append(rep.extra["energy_drift"])
                    losses.append(rep.extra["final_loss"])
                key = workloads.reference_key(name, workload.steps)
                bands[key] = {"energy_drift": band(drifts, 2.0),
                              "final_loss": band(losses, 0.1)}
                print(key, bands[key])
    finally:
        workloads.remove_work_dir(work_dir)
    document = {"git_revision": environment()["git_revision"],
                "seeds": list(SEEDS), "workloads": bands}
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
