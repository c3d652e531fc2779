"""Record the stream workload's per-method error (%) for a range of seeds.

    python3 perfbench/record_errors.py FIRST LAST

Plays each seed's stream through fresh No-Adapt, BN-Norm and BN-Opt
sessions for the scored rounds (untimed) and writes the errors to
``expected_errors.json``, which the stream workload's output check
compares against.  Re-record only when a change is meant to move
accuracy, and say so in the change.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv) -> int:
    first, last = int(argv[0]), int(argv[1])
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["REPRO_CACHE"] = str(ROOT / ".perfbench-state" / "cache")
    import inputs
    import run
    import stream_workload

    run.prepare()
    path = BENCH / "expected_errors.json"
    document = json.loads(path.read_text())
    if document["rounds"] != stream_workload.SCORED_ROUNDS:
        document = {"rounds": stream_workload.SCORED_ROUNDS, "errors": {}}
    for seed in range(first, last + 1):
        batches = inputs.frame_batches(seed, 0, stream_workload.POOL)
        phase = stream_workload.Phase(batches, 0.0).run()
        document["errors"][str(seed)] = {
            method: round(value, 6) for method, value in phase.errors.items()}
        print(seed, document["errors"][str(seed)], flush=True)
    document["errors"] = dict(sorted(document["errors"].items(),
                                     key=lambda item: int(item[0])))
    path.write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
