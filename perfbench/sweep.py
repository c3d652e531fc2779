"""One-off rate sweep of the serve-durable configuration.

    python3 perfbench/sweep.py --seconds 30

Measures capacity first (the same daemon and tenants, two clients
sending back to back), then offers each per-tenant rate of
:data:`RATES` (frames/s) on the workload's interleaved schedule, with
the images of seed :data:`SEED`.  Prints request latency, lateness and
throughput per rate, and the highest rate whose p90 meets the
workload's latency limit.  NOTES.md records this sweep on the
benchmark's host; the workload's fixed rate is taken from it.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import inputs
import serve_workload
from measure import median, percentile

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".perfbench-state"

#: offered frames/s per tenant, as recorded in NOTES.md
RATES = (28, 56, 84, 100, 112)
SEED = 0


def one(config: dict, seconds: float) -> dict:
    batches = [inputs.frame_batches(SEED, index + 1, serve_workload.POOL)
               for index in range(serve_workload.TENANTS)]
    run = serve_workload.Pass(ROOT, STATE, config, SEED, seconds,
                              batches).run()
    failures = serve_workload.check(run, replay=False)
    if failures:
        return {"failures": failures}
    latency = run.latency_ms()
    return {"requests": len(latency), "p50": median(latency),
            "p90": percentile(latency, 90),
            "late_p50": median(run.lateness_ms()),
            "frames_per_s": run.frames_per_s(), "failures": failures}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    STATE.mkdir(exist_ok=True)
    os.environ["REPRO_CACHE"] = str(STATE / "cache")
    base = serve_workload.WORKLOADS["serve-durable"]
    limit = base["p90_limit_ms"]
    capacity = one(dict(base, fps=None), args.seconds)
    if capacity["failures"]:
        print(f"capacity run FAILED: {capacity['failures']}")
        return 1
    print(f"capacity (closed loop, 2 clients): "
          f"{capacity['frames_per_s']:.1f} frames/s, p50 "
          f"{capacity['p50']:.1f} ms", flush=True)
    best = None
    for rate in RATES:
        row = one(dict(base, fps=rate), args.seconds)
        if row["failures"]:
            print(f"rate {rate:5.1f} frames/s/tenant: FAILED "
                  f"{row['failures']}", flush=True)
            continue
        print(f"rate {rate:5.1f} frames/s/tenant: {row['requests']} "
              f"requests, p50 {row['p50']:.1f} ms, p90 "
              f"{row['p90']:.1f} ms, lateness p50 {row['late_p50']:.1f} ms, "
              f"{row['frames_per_s']:.1f} frames/s", flush=True)
        if row["p90"] <= limit:
            best = rate
    print(f"highest rate meeting the {limit:.0f} ms limit: {best}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
