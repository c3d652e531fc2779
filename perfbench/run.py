"""Run one seeded workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload stream --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The first run pre-trains the
tiny ``wrn40_2`` into a benchmark-owned cache (``.perfbench-state/``);
that one-time step is never part of ``setup_s``.  Each metric is
printed on its own line with its unit, then the host fingerprint
(with the CPU steal over the run, which stretches every timing), and
last one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json,
``--trace 1`` its per-layer metrics (from spans; see NOTES.md).
A failed output check prints what failed, then ``"correct": false``
with no metrics, and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
STATE = ROOT / ".perfbench-state"

WORKLOADS = ("stream", "serve-durable", "serve-saturate")

#: end-to-end metrics and their units (BENCHMARK.json holds the bounds)
END_TO_END = {
    "setup_s": "s",
    "request_ms_p50": "ms",
    "frames_per_s": "frames/s",
    "error_pct": "%",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def prepare() -> None:
    """Pre-train the tiny model into the benchmark's cache (once).

    Training runs in a child process, so its memory never counts in a
    run's ``peak_rss_mb``; every run then loads the cached model.
    """
    from repro.train.trainer import pretrain_robust

    cache = Path(os.environ["REPRO_CACHE"])
    if not any(cache.glob("robust_wrn40_2_*.npz")):
        subprocess.run(
            [sys.executable, "-c", "from repro.train.trainer import "
             "pretrain_robust; pretrain_robust('wrn40_2', seed=0)"],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), cwd=ROOT,
            check=True, timeout=800)
    pretrain_robust("wrn40_2", image_size=16, seed=0)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}; run from "
              "the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    STATE.mkdir(exist_ok=True)
    os.environ["REPRO_CACHE"] = str(STATE / "cache")

    import layers
    from measure import host_cpu_ticks, host_fingerprint, steal_pct

    host = host_fingerprint(ROOT)
    ticks = host_cpu_ticks()
    prepare()
    if args.workload == "stream":
        import stream_workload
        result = stream_workload.run(STATE, args.seed, args.seconds,
                                     bool(args.trace))
    else:
        import serve_workload
        result = serve_workload.run(ROOT, STATE, args.workload, args.seed,
                                    args.seconds, bool(args.trace))
    host["steal_pct"] = steal_pct(ticks, host_cpu_ticks())
    correct = not result["failures"]
    units = layers.metric_units() if args.trace else END_TO_END
    if not correct:
        units = {}      # a failed check never becomes a metric
    missing = set(units) - set(result["metrics"])
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    for name, unit in units.items():
        print(f"{name:40s} {result['metrics'][name]:14.4f} {unit}")
    for name, value in result["detail"].items():
        print(f"  ({name} {value:.4f})")
    for warning in result.get("warnings", ()):
        print(warning)
    print("host " + json.dumps(host, sort_keys=True))
    for failure in result["failures"]:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
