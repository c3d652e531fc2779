"""Shared helpers for the serve-layer tests: tiny models and streams."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.engine.blas import blas_threads
from repro.models.wide_resnet import wide_resnet40_2
from repro.nn import init as nn_init

#: the ``blas_threads`` a running manager's status reports: its
#: scheduler holds BLAS at one thread, unless none can be controlled
HELD_BLAS_THREADS = None if blas_threads() is None else 1


def make_model(seed: int = 7):
    """A deterministic micro WRN (same seed -> bit-identical weights)."""
    nn_init.seed(seed)
    model = wide_resnet40_2(depth=10, widen_factor=1, base=4)
    model.eval()
    return model


def make_batches(num_batches: int, batch_size: int = 8, seed: int = 0,
                 image_size: int = 16):
    """Deterministic (images, labels) batches, materialized as a list."""
    rng = np.random.default_rng(seed)
    return [(rng.standard_normal(
                 (batch_size, 3, image_size, image_size)).astype(np.float32),
             rng.integers(0, 10, batch_size))
            for _ in range(num_batches)]


def poison(batches, indices):
    """Copy ``batches`` with the given batch indices NaN-poisoned."""
    faulted = []
    for index, (images, labels) in enumerate(batches):
        if index in indices:
            images = images.copy()
            images[0] = np.nan
        faulted.append((images, labels))
    return faulted


def strip_timing(card):
    """A scorecard with the wall-clock-only fields zeroed.

    Wall time is the one thing two executions of the same stream cannot
    share; every other field must be bit-identical — the same contract
    :func:`repro.core.io.canonical_dumps` applies to study results.
    """
    return dataclasses.replace(card, mean_frame_latency_s=0.0,
                               wall_time_s=0.0)


def assert_states_identical(state_a, state_b):
    """Both model state dicts hold bit-identical arrays."""
    assert set(state_a) == set(state_b)
    for name in state_a:
        np.testing.assert_array_equal(state_a[name], state_b[name],
                                      err_msg=name)


@pytest.fixture
def batches():
    return make_batches(10)
