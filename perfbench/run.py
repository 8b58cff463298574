"""folty benchmark: one seeded workload, measured, checked and summarised.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a folty source tree (the program is imported from
``src``). The run

1. generates the workload's input from the seed into ``.perfbench_work/``;
2. obtains reference output digests: pinned in ``perfbench/reference.json``
   for the default seed, otherwise computed once (untimed, through the CLI
   with ``--engine practical``) and cached in ``.perfbench_work/``;
3. starts a fresh child process (``perfbench/ops.py``) that runs the
   workload's operations for S seconds, tracing off (``--trace 0``) or with
   the benchmark's spans and counters attached (``--trace 1``);
4. checks every output digest against the reference and prints, as the last
   stdout line, ``{"correct", "attempted", "failed", "metrics"}``: the
   end-to-end metrics with ``--trace 0``, the per-layer ones (medians over
   the traced repetitions) with ``--trace 1``.

``setup_s``, ``count_s`` and ``cli_s`` are medians over the run's samples of
each operation, in seconds on a reference host: the host this was built on
switches between a fast state and one about 1.6x slower for seconds to
minutes at a time, so each sample is scaled by a fixed probe kernel timed
just before and just after it (``ops.scale_samples``). In two sets of ten
seeds per workload (2-vCPU Xeon, 55 s runs) the plain medians spread
(Q3 - Q1) / median 0.07-0.12 and the fastest samples 0.07-0.23; the scaled
medians 0.01-0.09.

The line before it is a JSON record of the run: generator parameters, input
shape (n, m, alpha, sigma_max, triangles), sample counts, the medians of the
unscaled samples and of the probe, and the error rate.
Exit code 0 after a completed run (even one with wrong outputs, reported as
``"correct": false``); 2 when the program or arguments are missing, 1 when a
child fails or times out.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, generate  # noqa: E402

DEFAULT_SEED = 1
WORK_DIR = Path(".perfbench_work")
#: A run must end within this many seconds of starting, reference included.
RUN_LIMIT_S = 170.0

class RunError(RuntimeError):
    pass


def _child(mode: str, req: dict, deadline: float) -> dict:
    """Run ``ops.py MODE`` in a fresh process and return its result."""
    tag = f"{req['workload']}-{req['seed']}-{mode}"
    req_path = WORK_DIR / f"{tag}.req.json"
    result_path = WORK_DIR / f"{tag}.result.json"
    req_path.write_text(json.dumps(req))
    result_path.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(Path("src").resolve()), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError(f"no time left for the {mode} child")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "ops.py"), mode, str(req_path), str(result_path)],
            env=env,
            stdout=sys.stderr,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise RunError(f"{mode} child did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0 or not result_path.exists():
        raise RunError(f"{mode} child exited with code {proc.returncode}")
    return json.loads(result_path.read_text())


def _reference(req: dict, input_sha: str, deadline: float) -> tuple[dict, str]:
    """Reference digests for this input and where they came from."""
    pinned = json.loads((HERE / "reference.json").read_text())
    entry = pinned["workloads"].get(req["workload"])
    if req["seed"] == pinned["seed"] and entry and entry["input_sha256"] == input_sha:
        return entry, "pinned"
    cache = WORK_DIR / f"ref-{req['workload']}-{req['seed']}-{input_sha[:16]}.json"
    if cache.exists():
        return json.loads(cache.read_text()), "cached"
    ref = _child("reference", req, deadline)
    cache.write_text(json.dumps(ref))
    return ref, "computed"


def _median(values: list[float]) -> float:
    if not values:
        raise RunError("no successful samples")
    return statistics.median(values)


def _check(digests: dict, ref: dict) -> int:
    """Number of operation outputs that differ from the reference (an output
    that could not be digested is already counted as a failure)."""
    bad = sum(1 for d in digests["cli"] if d is not None and d != ref["cli"])
    bad += sum(1 for d in digests["count"] if d != ref["count"])
    return bad


def run(args) -> tuple[dict, dict]:
    deadline = time.monotonic() + RUN_LIMIT_S
    WORK_DIR.mkdir(exist_ok=True)
    w = WORKLOADS[args.workload]
    data = generate(w.name, args.seed)
    input_path = WORK_DIR / f"{w.name}-{args.seed}.txt"
    input_path.write_bytes(data)
    req = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "input": str(input_path),
        "out": str(WORK_DIR / f"{w.name}-{args.seed}.out"),
        "spans": str(WORK_DIR / f"trace-{w.name}-{args.seed}.json"),
    }
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    ref, ref_source = _reference(req, hashlib.sha256(data).hexdigest(), deadline)
    result = _child("trace" if args.trace else "measure", req, deadline)

    attempted = result["attempted"]
    mismatches = _check(result["digests"], ref)
    failed = len(result["failures"]) + mismatches
    if args.trace:
        metrics = _per_layer(result, units)
        samples = {"traced": len(result["layers"]), "untraced": len(result["untraced_s"])}
        medians = {}
    else:
        s = result["samples"]
        metrics = {k: _median(s.get(k, [])) for k in ("setup_s", "count_s", "cli_s")}
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
        samples = {k: len(v) for k, v in s.items()}
        raw: dict[str, list[float]] = {}
        for kind, seconds in result["timeline"]:
            raw.setdefault(kind, []).append(seconds)
        medians = {k: _median(v) for k, v in raw.items()}
    record = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": w.params,
        "command": ["folty"] + w.argv("INPUT"),
        "input": result["graph"],
        "samples": samples,
        "medians": medians,
        "reference": ref_source,
        "error_rate": failed / attempted,
        "failures": result["failures"][:5],
        "notes": result["notes"],
        "mismatches": mismatches,
    }
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return record, summary


def _per_layer(result: dict, units: dict[str, str]) -> dict[str, float]:
    layers = result["layers"]
    if not layers:
        raise RunError("no traced operation completed")
    out = {k: _median([layer[k] for layer in layers]) for k in layers[0] if k != "trace.wall_s"}
    graph = result["graph"] or {}
    for key in ("n", "m", "static_edges", "alpha", "sigma_max", "input_bytes"):
        out[f"graph.{key}"] = graph.get(key, 0)
    out.update(result["work"] or {})
    out["cli.report_gap_s"] = _median(result["report_gap_s"])
    traced = _median([layer["trace.wall_s"] for layer in layers])
    out["trace.overhead_frac"] = traced / _median(result["untraced_s"]) - 1.0
    missing = set(units) - set(out)
    if missing:
        raise RunError(f"per-layer metrics missing: {sorted(missing)}")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (0 < args.seconds <= 60):
        parser.error("--seconds must be in (0, 60]")
    if not Path("src/folty/cli.py").is_file():
        print("error: run from the root of a folty source tree (src/folty not found)", file=sys.stderr)
        return 2
    try:
        record, summary = run(args)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
