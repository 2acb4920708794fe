"""Benchmark entry point: one workload, one seed, one timed run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up writes the workload's inputs from the seed at least
SETUP_MIN_REPEATS times and until SETUP_MIN_SECONDS have passed (each
into its own directory; the copies must be byte-identical) and reports
the median host-speed-adjusted build time (see calibrate.py) as
``setup_s``. A fresh worker process then runs the timed passes on one
copy (see worker.py). With ``--trace 0`` the last
line of stdout is a JSON object with every end-to-end metric named in
BENCHMARK.json; with ``--trace 1`` it holds every per-layer metric
instead, and the spans are kept in ``.perfbench/spans-<workload>-<seed>.json``.
Human-readable lines come before it. Exits 1 without a result when a
step cannot run, and 2 when the checkout holds no malbehave sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 3.0
WORKER_TIMEOUT_S = 150


def tree_digest(directory: Path) -> str:
    """sha256 over every file's relative path and bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("cluster-wide", "cluster-many", "classify-stream", "pcs-vote"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "malbehave" / "cli.py").is_file():
        print(f"error: no malbehave sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from calibrate import Calibrated
    from spans import Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)

    setup_s: list[float] = []
    synth: dict[str, list[float]] = {"synth.generate_corpus_s": [], "synth.write_corpus_s": []}
    copies: set[str] = set()
    clock = Calibrated()
    setup_started = time.perf_counter()
    k = 0
    while k < SETUP_MIN_REPEATS or time.perf_counter() - setup_started < SETUP_MIN_SECONDS:
        tracer = Tracer()
        wall, factor = clock.time(lambda: workloads.build(args.workload, work / f"setup-{k}", args.seed, tracer))
        setup_s.append(wall * factor)
        for name, values in synth.items():
            values.append(tracer.total(name.removesuffix("_s")) * factor)
        copies.add(tree_digest(work / f"setup-{k}"))
        if k:
            shutil.rmtree(work / f"setup-{k}")
        k += 1

    result_path = work / "result.json"
    try:
        worker = subprocess.run(
            [
                sys.executable,
                str(BENCH_DIR / "worker.py"),
                str(work / "setup-0"),
                str(args.seconds),
                str(args.trace),
                str(result_path),
            ],
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"error: worker did not finish within {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if worker.returncode != 0:
        print(f"error: worker exited {worker.returncode}", file=sys.stderr)
        return 1
    result = json.loads(result_path.read_text(encoding="utf-8"))
    spans_path = result_path.with_name("result.spans.json")
    if spans_path.exists():
        spans_path.replace(work.parent / f"spans-{args.workload}-{args.seed}.json")
    shutil.rmtree(work)

    # The set-up copies being identical is one more checked operation.
    attempted = result["attempted"] + 1
    failed = result["failed"] + (len(copies) != 1)
    if args.trace:
        values = {name: statistics.median(v) for name, v in synth.items()}
        values.update(result["layers"])
        values.update(result["quality"])
        values["bench.wall_run_s"] = result["wall_run_s"]
        values["bench.suite_s"] = result["suite_s"]
        if "latency_ms" in result:
            values["cli.classify_p50_ms"] = result["latency_ms"]["p50"]
            values["cli.classify_p99_ms"] = result["latency_ms"]["p99"]
            values["cli.classify_requests"] = float(result["latency_ms"]["samples"])
        chosen = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "run_s": result["run_s"],
            "peak_rss_mb": result["peak_rss_mb"],
            "ok_rate": (attempted - failed) / attempted,
        }
        chosen = spec["end_to_end"]
    # A layer a workload does not exercise reports 0.
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in chosen}

    print(f"workload {args.workload} seed {args.seed}: {len(result['pass_s'])} untraced passes, "
          f"{attempted} checked operations, {failed} failed")
    print("untraced pass wall seconds " + " ".join(f"{t:.3f}" for t in result["pass_s"]))
    print(f"median wall pass {result['wall_run_s']:.4f} s, median calibration suite {result['suite_s'] * 1000:.2f} ms")
    print(f"output sha256 {' '.join(result['digest'])}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
