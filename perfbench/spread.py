"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workloads skew-burst,sweep-grid] [--seeds 1-10] \
        [--seconds 20] [--trace 0] [--json OUT.json]

Runs every workload of ``BENCHMARK.json`` unless ``--workloads`` names some.
For each workload and metric this prints the median of the per-run values
with its unit, and the spread (Q3 - Q1) / median of the per-run values
(quartiles from ``statistics.quantiles`` with n=4) next to the metric's
bound. Run from the root of a folty source tree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="write per-run values and summaries here")
    args = parser.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    out: dict = {}
    for workload in names:
        runs, records = [], []
        for seed in _seeds(args.seeds):
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=180,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
            *_, record, result = (json.loads(line) for line in proc.stdout.strip().splitlines())
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: outputs incorrect")
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            records.append({k: record[k] for k in ("seed", "input", "samples", "error_rate")})
            print(f"{workload} seed {seed}: {time.monotonic() - t0:.1f} s wall", file=sys.stderr)
        summary = {}
        for name in runs[0]:
            values = [r[name] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound}  {'ok' if spread < bound / 3 else 'WIDE'}"
            print(f"{workload:14s} {name:26s} {med:12.6g} {units[name]:6s} spread {spread:7.4f}{flag}")
        out[workload] = {"runs": runs, "records": records, "summary": summary}
    if args.json:
        Path(args.json).write_text(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
