"""NestGPU benchmark: wall and modelled clocks, end to end and per layer.

    python3 perfbench/run.py --workload mix-warm --seed 1 --seconds 12 --trace 0

``--trace 0`` times the end-to-end metrics with tracing off.
``--trace 1`` runs the window untraced and then traced, each on a
freshly set-up stack, and reports the per-layer metrics; the spans are
written to ``.bench_out/`` at exit.  Every statement's rows are checked
against a reference computed after the timed windows; a wrong row, a
failed self-test or a determinism-guard violation exits with 1.

Seed 1 is the default; seed 7 is held out for confirming claims.
The last line of stdout is one JSON object (see README.md).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

DEFAULT_SEED = 1
HELD_OUT_SEED = 7


def provenance(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy

    from workloads import SCALE_FACTOR

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        commit = done.stdout.strip() or None
    return {
        "workload": workload,
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds,
        "trace": trace,
        "scale_factor": SCALE_FACTOR,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def declared_metrics(trace: int) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.trace:
        outcome = harness.traced_run(args.workload, args.seed, args.seconds, OUT)
    else:
        outcome = harness.untraced_run(args.workload, args.seed, args.seconds)
    declared = declared_metrics(args.trace)
    if declared != list(outcome["metrics"]):
        print("error: the metrics measured differ from BENCHMARK.json's",
              file=sys.stderr)
        return 2
    info = provenance(args.workload, args.seed, args.seconds, args.trace)
    info["units"] = {name: unit for name, (_, unit) in outcome["metrics"].items()}
    info["samples"] = outcome["samples"]
    if "setups" in outcome:
        info["setup_s_runs"] = outcome["setups"]
    window = outcome["window"]
    attempted = len(window.flat)
    failed = outcome["failed"]
    correct = not outcome["problems"] and failed == 0
    print("provenance " + json.dumps(info, sort_keys=True))
    print(f"failed_fraction {failed / attempted:.6f} ratio (n={attempted})")
    for name, (value, unit) in outcome["metrics"].items():
        print(f"{name} {value:.6g} {unit} (n={outcome['samples'][name]})")
    for problem, count in Counter(outcome["problems"]).items():
        print(f"problem (x{count}): {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome["metrics"].items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
