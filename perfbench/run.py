"""End-to-end mining benchmark.

One workload per run, in a fresh process::

    python3 perfbench/run.py --workload estpm-re --seed 1 --seconds 35 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Every run is also appended, stamped with commit, seed and
machine, to ``perfbench/history/runs.jsonl`` (see ``--history``);
``perfbench/compare.py`` compares two such files.

Two more entry points::

    python3 perfbench/run.py --workload all      # every metric of every workload, as a table
    python3 perfbench/run.py --record-digests    # rewrite perfbench/expected.json

The mining program is imported from ``src/`` next to this directory; run
from anywhere else the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
DEFAULT_HISTORY = HERE / "history" / "runs.jsonl"
#: A subprocess of ``--workload all`` must end within the per-run limit.
RUN_TIMEOUT_S = 180


def load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def git_stamp() -> tuple[str | None, bool | None]:
    """``(commit, dirty)`` of the checkout, or ``(None, None)`` outside git.

    Git is pointed at this checkout's own ``.git`` so it never searches
    the directories above it.
    """
    git_dir = ROOT / ".git"
    if not git_dir.exists():
        return None, None
    base = ["git", f"--git-dir={git_dir}", f"--work-tree={ROOT}"]
    try:
        head = subprocess.run(
            [*base, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30, check=True
        )
        status = subprocess.run(
            [*base, "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None, None
    return head.stdout.strip(), bool(status.stdout.strip())


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def select_metrics(outcome, declared: list[dict]) -> dict:
    """The declared metrics, in declared order, with units checked."""
    selected = {}
    for entry in declared:
        value, unit = outcome.metrics[entry["name"]]
        if unit != entry["unit"]:
            raise ValueError(f"{entry['name']} measured in {unit}, declared in {entry['unit']}")
        selected[entry["name"]] = {"value": value, "unit": unit}
    return selected


def run_one(args, bench: dict, expected: dict) -> int:
    from workloads import run_workload

    recorded = expected["digests"][args.workload].get(str(args.seed), [])
    share = args.seconds / bench["run_seconds"]
    outcome = run_workload(args.workload, args.seed, share, bool(args.trace), recorded)
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": select_metrics(outcome, declared),
    }
    commit, dirty = git_stamp()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "commit": commit,
        "dirty": dirty,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "machine": machine(),
        "digests_recorded": len(recorded),
        "problems": outcome.problems,
        "samples": outcome.samples,
        "phase_summary": outcome.phase_summary,
        **result,
    }
    args.history.parent.mkdir(parents=True, exist_ok=True)
    with open(args.history, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")
    for problem in outcome.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def run_all(args, bench: dict) -> int:
    """Every workload in both modes, each in a fresh process, as a table."""
    verdicts = []
    print(f"{'workload':<15} {'trace':<5} {'metric':<36} {'value':>14}  unit")
    for workload in bench_workloads(bench):
        for trace in (0, 1):
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
                "--history", str(args.history),
            ]
            completed = subprocess.run(
                command, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT
            )
            lines = completed.stdout.strip().splitlines()
            if completed.returncode != 0 or not lines:
                print(f"{workload:<15} {trace:<5} run failed: {completed.stderr.strip()[-300:]}")
                verdicts.append(False)
                continue
            result = json.loads(lines[-1])
            for name, metric in result["metrics"].items():
                print(f"{workload:<15} {trace:<5} {name:<36} {metric['value']:>14.6g}  {metric['unit']}")
            print(
                f"{workload:<15} {trace:<5} correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']}"
            )
            verdicts.append(result["correct"])
    print("verdict:", "correct" if all(verdicts) else "INCORRECT")
    return 0 if all(verdicts) else 1


def record_digests(bench: dict, expected: dict) -> int:
    """Digests of every operation a default-length run of the two recorded
    seeds performs, each from a serial batch run of the same input."""
    from workloads import WORKLOADS, input_seed

    digests = {}
    for name in bench_workloads(bench):
        workload = WORKLOADS[name]
        digests[name] = {
            str(seed): [
                workload.oracle_digest(input_seed(seed, i)) for i in range(workload.operations)
            ]
            for seed in (expected["default_seed"], expected["held_out_seed"])
        }
    expected["digests"] = digests
    with open(EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=2)
        handle.write("\n")
    print(json.dumps(digests, indent=2))
    return 0


def bench_workloads(bench: dict) -> list[str]:
    return [workload["name"] for workload in bench["workloads"]]


def main(argv: list[str] | None = None) -> int:
    bench = load_json(ROOT / "BENCHMARK.json")
    expected = load_json(EXPECTED)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*bench_workloads(bench), "all"])
    parser.add_argument("--seed", type=int, default=expected["default_seed"])
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--history", type=Path, default=DEFAULT_HISTORY)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no mining program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.record_digests:
        return record_digests(bench, expected)
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args, bench)
    return run_one(args, bench, expected)


if __name__ == "__main__":
    sys.exit(main())
