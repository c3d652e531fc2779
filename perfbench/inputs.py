"""Workload inputs: frames and arrival instants, made before timing.

Frames come from the program's own generators (``repro.data`` images
played through a ``repro.scenarios`` markov stream at severity 5), but
the program only ever receives the finished arrays.

``--seed`` draws the images.  The shift sequence (which corruption is
active at which batch) and the arrival schedule are part of the
workload and do not change with it: a markov sequence drawn per seed
made ``error_pct`` depend mostly on which corruptions the seed picked,
and Poisson arrivals drawn per seed made the tail latency depend on how
often the two tenants' batches happened to land together (NOTES.md).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

#: images per generated dataset (the stream wraps around it)
DATASET_SIZE = 1024
IMAGE_SIZE = 16
BATCH = 16
SCENARIO = "markov"         # p=0.1 over every corruption, severity 5

Batch = Tuple[np.ndarray, np.ndarray]


def _seed(*words: int) -> int:
    return int(np.random.SeedSequence(words).generate_state(1)[0])


def frame_batches(seed: int, stream: int, count: int) -> List[Batch]:
    """``count`` batches of stream number ``stream`` for ``seed``."""
    from repro.data.synthetic import make_synth_cifar
    from repro.scenarios import ScenarioStream
    from repro.scenarios.schedule import as_schedule

    data = make_synth_cifar(DATASET_SIZE, size=IMAGE_SIZE,
                            seed=_seed(seed, stream, 1))
    source = ScenarioStream(data, as_schedule(SCENARIO, seed=stream))
    return [source.batch_at(index, BATCH) for index in range(count)]


def interleaved_arrivals(stream: int, streams: int, rate: float,
                         seconds: float) -> np.ndarray:
    """Send offsets (s) of stream ``stream`` of ``streams``: periodic at
    ``rate``, each stream shifted by an equal share of the period, so
    the streams' requests take turns instead of landing together."""
    period = 1.0 / rate
    count = max(1, round(rate * seconds))
    return (np.arange(count) + stream / streams) * period
