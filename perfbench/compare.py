"""Compare two recorded run sets of the end-to-end benchmark.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds records appended by ``perfbench/run.py`` (one JSON object
per line); only untraced runs are compared.  For every workload and
end-to-end metric of ``BENCHMARK.json`` the table gives each side's
median and quartiles, the pairs the new side won, and a verdict:

``gain``
    The new side won at least nine tenths of the pairs (ties count for
    neither side) and its median is better by more than the base's
    interquartile range.
``unresolved``
    Either side's spread (interquartile range over median) exceeds the
    metric's bound, and not every new run beats every base run.
``REGRESSION``
    The new median is worse than the base median by more than the bound.
``within bound``
    None of the above.

Runs pair up by seed (in recorded order within a seed); when the two
sides share no seed they pair in recorded order.  The exit status is 1
when a metric regressed or a run was incorrect, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(path: Path) -> dict[str, list[dict]]:
    """Untraced records of one file, grouped by workload."""
    runs: dict[str, list[dict]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                if not record["trace"]:
                    runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(base: list[dict], new: list[dict]) -> list[tuple[dict, dict]]:
    """Base and new runs matched by seed, else by position."""
    by_seed: dict[int, list[dict]] = {}
    for record in new:
        by_seed.setdefault(record["seed"], []).append(record)
    matched = []
    for record in base:
        partners = by_seed.get(record["seed"])
        if partners:
            matched.append((record, partners.pop(0)))
    return matched or list(zip(base, new))


def verdict(metric: dict, base: list[dict], new: list[dict]) -> tuple[str, str]:
    """The verdict for one metric of one workload, with the pair tally."""
    name, bound = metric["name"], metric["bound"]
    sign = 1 if metric["better"] == "lower" else -1  # positive gap = new is better

    def value(record: dict) -> float:
        return record["metrics"][name]["value"]

    base_values = [value(r) for r in base]
    new_values = [value(r) for r in new]
    b_q1, b_med, b_q3 = quartiles(base_values)
    n_q1, n_med, n_q3 = quartiles(new_values)
    matched = pairs(base, new)
    won = sum(1 for b, n in matched if sign * (value(b) - value(n)) > 0)
    lost = sum(1 for b, n in matched if sign * (value(b) - value(n)) < 0)
    tally = f"{won}/{len(matched)} won, {lost} lost"
    all_better = all(sign * (b - n) > 0 for b in base_values for n in new_values)
    if matched and won >= 0.9 * len(matched) and sign * (b_med - n_med) > b_q3 - b_q1:
        return "gain", tally
    spread = max((b_q3 - b_q1) / b_med, (n_q3 - n_q1) / n_med)
    if spread > bound and not all_better:
        return "unresolved", tally
    if sign * (n_med - b_med) > bound * b_med:
        return "REGRESSION", tally
    return "within bound", tally


def compare(base_path: Path, new_path: Path, bench: dict) -> int:
    base_runs, new_runs = load_runs(base_path), load_runs(new_path)
    failing = False
    header = (
        f"{'workload':<15} {'metric':<12} {'base median [q1, q3]':<34} "
        f"{'new median [q1, q3]':<34} {'pairs':<20} verdict"
    )
    print(header)
    for workload in (w["name"] for w in bench["workloads"]):
        base, new = base_runs.get(workload, []), new_runs.get(workload, [])
        if not base or not new:
            print(f"{workload:<15} (no runs on {'base' if not base else 'new'} side)")
            continue
        incorrect = sum(1 for r in base + new if not r["correct"])
        if incorrect:
            failing = True
            print(f"{workload:<15} {incorrect} incorrect run(s)")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            sides = []
            for records in (base, new):
                q1, median, q3 = quartiles([r["metrics"][name]["value"] for r in records])
                sides.append(f"{median:.5g} [{q1:.5g}, {q3:.5g}] n={len(records)}")
            outcome, tally = verdict(metric, base, new)
            failing |= outcome == "REGRESSION"
            print(f"{workload:<15} {name:<12} {sides[0]:<34} {sides[1]:<34} {tally:<20} {outcome}")
    return 1 if failing else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="history file of the parent commit")
    parser.add_argument("new", type=Path, help="history file of the change")
    parser.add_argument("--bench", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    with open(args.bench, encoding="utf-8") as handle:
        bench = json.load(handle)
    return compare(args.base, args.new, bench)


if __name__ == "__main__":
    sys.exit(main())
