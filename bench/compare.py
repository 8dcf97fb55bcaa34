"""Compare two result documents of ``bench/run.py --out``.

``python3 bench/compare.py BASE.json NEW.json`` prints one row per
(end-to-end metric, workload): base, new, the ratio new/base and a verdict

* ``regressed``  — new is worse than base by more than the metric's bound
  (``BENCHMARK.json``), in the metric's own direction;
* ``unresolved`` — it is not, but the repetitions inside one of the two
  documents spread (quartile distance over median) wider than the bound, so
  "unchanged" cannot be told from noise;
* ``ok``         — neither.

It exits non-zero on a regression or when NEW failed a larger share of its
operations than BASE.  A ratio is always printed with its base.
"""

import argparse
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def load_workloads(path: str) -> dict:
    """``{workload: document}`` from a combined or a one-workload file."""
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    if "workloads" in document:
        return document["workloads"]
    return {document["workload"]: document}


def error_rate(document: dict) -> float:
    return document["failed"] / document["attempted"]


def worsening(base: float, new: float, better: str) -> float:
    """By what share of ``base`` the value moved in the wrong direction."""
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def compare(base: dict, new: dict, metrics: list) -> list:
    """Rows ``(workload, metric, unit, base, new, ratio, verdict)``."""
    rows = []
    for workload in base:
        if workload not in new:
            continue
        for metric in metrics:
            old_row = base[workload].get("end_to_end", {}).get(metric["name"])
            new_row = new[workload].get("end_to_end", {}).get(metric["name"])
            if old_row is None or new_row is None:
                continue
            old, now = old_row["value"], new_row["value"]
            spread = max(old_row.get("spread", 0.0), new_row.get("spread", 0.0))
            if worsening(old, now, metric["better"]) > metric["bound"]:
                verdict = "regressed"
            elif spread > metric["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append((workload, metric["name"], metric["unit"], old, now,
                         now / old, verdict))
        old_rate, new_rate = error_rate(base[workload]), error_rate(new[workload])
        rows.append((workload, "error_rate", "ratio", old_rate, new_rate,
                     new_rate / old_rate if old_rate else float(new_rate > 0),
                     "regressed" if new_rate > old_rate else "ok"))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json"),
              encoding="utf-8") as handle:
        metrics = json.load(handle)["end_to_end"]
    rows = compare(load_workloads(args.base), load_workloads(args.new), metrics)
    print(f"{'workload':<20s} {'metric':<18s} {'base':>12s} {'new':>12s} "
          f"{'new/base':>9s}  verdict")
    for workload, metric, unit, old, now, ratio, verdict in rows:
        print(f"{workload:<20s} {metric:<18s} {old:>12.5g} {now:>12.5g} "
              f"{ratio:>9.3f}  {verdict}  ({unit}, base {old:.5g})")
    regressed = [row for row in rows if row[-1] == "regressed"]
    unresolved = [row for row in rows if row[-1] == "unresolved"]
    print(f"{len(rows)} rows: {len(regressed)} regressed, "
          f"{len(unresolved)} unresolved")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
