"""Fault injection for batch streams: the failure modes edge sensors produce.

A deployed adaptation pipeline does not get to choose its inputs: dead
sensors emit constant frames, DMA glitches produce NaN/Inf pixels, a
mis-configured camera driver delivers un-normalized uint8 ranges,
link drops truncate batches, and frame-grabber stalls duplicate the
last frame across a whole batch.  This module injects those faults into
any ``(images, labels)`` batch iterator on a *seeded schedule*, so
robustness experiments are reproducible batch-for-batch.

Fault taxonomy (``FAULT_NAMES``):

- ``nan`` — a random fraction of pixels replaced by NaN;
- ``inf`` — a random fraction of pixels replaced by +/-Inf;
- ``constant`` — the whole batch collapses to one constant value
  (zero input variance, the BN worst case);
- ``wrong_range`` — pixels rescaled to [0, 255] as if normalization
  was skipped upstream;
- ``truncated`` — the batch is cut to a fraction of its frames
  (labels cut to match);
- ``duplicated`` — every frame replaced by the batch's first frame.

``nan``/``inf``/``constant``/``wrong_range`` are *poisoning* faults: an
unguarded BN-adaptive method folds them into its running statistics and
corrupts every subsequent prediction.  ``truncated``/``duplicated`` are
benign for correctness but stress batch-size assumptions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

#: every fault type, in taxonomy order
FAULT_NAMES = ("nan", "inf", "constant", "wrong_range",
               "truncated", "duplicated")

#: faults that corrupt BN running statistics of an unguarded method
POISONING_FAULTS = frozenset({"nan", "inf", "constant", "wrong_range"})


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault: which batch, which fault."""

    batch_index: int
    fault: str


@dataclass(frozen=True)
class FaultSpec:
    """Schedule for one fault type.

    Either probabilistic (``rate`` per batch, drawn from the injector's
    seeded generator) or explicit (``at`` batch indices).  Parsed from
    compact CLI syntax by :meth:`parse`:

    - ``"nan:0.2"``   — NaN fault with probability 0.2 per batch;
    - ``"constant@3"`` — constant fault exactly at batch 3;
    - ``"inf@2+5"``    — Inf fault at batches 2 and 5.

    The grammar is shared by every fault namespace; which names are
    valid is the consumer's call (:data:`FAULT_NAMES` for batch
    streams, the serve layer's network taxonomy for its chaos proxy).
    """

    fault: str
    rate: float = 0.0
    at: Tuple[int, ...] = ()

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")

    @classmethod
    def parse(cls, text: str, names: Tuple[str, ...] = FAULT_NAMES,
              kind: str = "batch") -> "FaultSpec":
        """Parse one spec whose fault must be in the ``kind`` namespace
        ``names``."""
        text = text.strip()
        if "@" in text:
            name, _, indices = text.partition("@")
            try:
                at = tuple(int(i) for i in indices.split("+"))
            except ValueError:
                raise ValueError(f"bad fault spec {text!r}: indices after "
                                 "'@' must be integers (join with '+')")
            spec = cls(fault=name, at=at)
        elif ":" in text:
            name, _, rate = text.partition(":")
            spec = cls(fault=name, rate=float(rate))
        else:
            spec = cls(fault=text, rate=1.0)
        check_fault_names((spec,), names, kind)
        return spec


def check_fault_names(specs: Iterable[FaultSpec],
                      names: Tuple[str, ...] = FAULT_NAMES,
                      kind: str = "batch") -> None:
    """Refuse any spec naming a fault outside the ``kind`` namespace."""
    for spec in specs:
        if spec.fault not in names:
            raise ValueError(f"unknown fault {spec.fault!r}: not a {kind} "
                             f"fault; choose from {names}")


def parse_fault_specs(text: str, names: Tuple[str, ...] = FAULT_NAMES,
                      kind: str = "batch") -> Tuple[FaultSpec, ...]:
    """Parse a comma-separated fault-spec string (CLI ``--faults``)."""
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty fault specification")
    return tuple(FaultSpec.parse(p, names, kind) for p in parts)


class FaultSchedule:
    """Seeded, deterministic assignment of faults to batch indices.

    At most one fault fires per batch; explicit ``at`` indices win over
    probabilistic rates, and earlier specs win over later ones.
    """

    def __init__(self, specs: Sequence[FaultSpec], seed: int = 0):
        self.specs = tuple(specs)
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._decided: Dict[int, str] = {}
        self._next_index = 0

    def fault_for(self, batch_index: int) -> str:
        """The fault scheduled for ``batch_index`` ("" = none).

        Decisions are drawn in batch order and memoized, so the schedule
        is reproducible regardless of how far the stream runs.
        """
        while self._next_index <= batch_index:
            self._decided[self._next_index] = self._decide(self._next_index)
            self._next_index += 1
        return self._decided[batch_index]

    def _decide(self, index: int) -> str:
        for spec in self.specs:
            if index in spec.at:
                return spec.fault
        for spec in self.specs:
            # one draw per (spec, batch) keeps the schedule stable even
            # when explicit-index specs are mixed in
            draw = self._rng.random()
            if spec.rate > 0.0 and draw < spec.rate:
                return spec.fault
        return ""

    def plan(self, num_batches: int) -> Dict[int, str]:
        """Mapping of batch index -> fault name for a finite stream."""
        plan = {}
        for index in range(num_batches):
            fault = self.fault_for(index)
            if fault:
                plan[index] = fault
        return plan


# ----------------------------------------------------------------------
# Fault application
# ----------------------------------------------------------------------
def _apply_nan(images: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    out = images.copy()
    mask = rng.random(out.shape) < 0.1
    out[mask] = np.nan
    return out


def _apply_inf(images: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    out = images.copy()
    mask = rng.random(out.shape) < 0.05
    out[mask] = np.inf
    out[rng.random(out.shape) < 0.05] = -np.inf
    return out


def _apply_constant(images: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    value = np.float32(rng.uniform(0.0, 1.0))
    return np.full_like(images, value)


def _apply_wrong_range(images: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    return (images * 255.0).astype(images.dtype)


def _apply_duplicated(images: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    return np.broadcast_to(images[:1], images.shape).copy()


_PIXEL_FAULTS = {
    "nan": _apply_nan,
    "inf": _apply_inf,
    "constant": _apply_constant,
    "wrong_range": _apply_wrong_range,
    "duplicated": _apply_duplicated,
}


def apply_fault(images: np.ndarray, labels: np.ndarray, fault: str,
                rng: np.random.Generator
                ) -> Tuple[np.ndarray, np.ndarray]:
    """Apply one named fault to a batch; labels follow frame selection."""
    if fault == "truncated":
        keep = max(1, len(images) // 4)
        return images[:keep].copy(), labels[:keep].copy()
    if fault in _PIXEL_FAULTS:
        return _PIXEL_FAULTS[fault](images, rng), labels.copy()
    raise ValueError(f"unknown fault {fault!r}; choose from {FAULT_NAMES}")


class FaultInjector:
    """Wrap a batch iterator, injecting faults on a seeded schedule.

    ::

        injector = FaultInjector(parse_fault_specs("nan:0.2"), seed=7)
        for images, labels in injector.inject(stream.batches(50)):
            ...
        injector.events      # -> [FaultEvent(batch_index=3, fault="nan"), ...]
    """

    def __init__(self, specs: Sequence[FaultSpec], seed: int = 0):
        self.schedule = FaultSchedule(specs, seed=seed)
        check_fault_names(self.schedule.specs)
        self.events: List[FaultEvent] = []
        self.batches_seen = 0

    @property
    def faults_injected(self) -> int:
        return len(self.events)

    def inject(self, batches: Iterable[Tuple[np.ndarray, np.ndarray]]
               ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        for images, labels in batches:
            index = self.batches_seen
            self.batches_seen += 1
            fault = self.schedule.fault_for(index)
            if fault:
                # per-batch child generator: the realization of one fault
                # never shifts another batch's noise
                rng = np.random.default_rng(
                    np.random.SeedSequence((self.schedule.seed, index)))
                images, labels = apply_fault(images, labels, fault, rng)
                self.events.append(FaultEvent(batch_index=index, fault=fault))
            yield images, labels
