"""Bounded, seeded retry: how many attempts, how far apart, how long.

One policy object serves every retrying caller: the study executor and
the process-parallel workers retry grid cells with it
(:func:`~repro.core.executor.run_cell_attempts`), and the serve client
spaces its reconnect-and-resend attempts with it.  The backoff is
seeded by ``(seed, key, attempt)``, so a replayed run waits exactly as
long as the original.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RetryPolicy:
    """How a retried operation's attempts are bounded, spaced, and deadlined.

    Shared by :class:`~repro.core.executor.ResilientExecutor` (serial),
    the worker processes of :class:`repro.parallel.ParallelExecutor`
    and :class:`~repro.serve.client.ServeClient`; being frozen and
    plain-data it pickles across a ``spawn`` boundary.
    """

    max_retries: int = 0
    cell_timeout: float = 0.0
    backoff_base: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}")

    @property
    def attempts(self) -> int:
        return self.max_retries + 1

    def backoff_delay(self, key: str, attempt: int) -> float:
        """Seeded jittered exponential backoff before attempt+1."""
        rng = np.random.default_rng(
            (self.seed, zlib.crc32(key.encode("utf-8")), attempt))
        return self.backoff_base * (2.0 ** (attempt - 1)) \
            * float(rng.uniform(0.5, 1.5))
