"""Study-grid configuration and case naming."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.data.corruptions import CORRUPTION_NAMES
from repro.devices.catalog import DEVICE_NAMES
from repro.models.registry import PAPER_LABELS

#: the paper's study grid axes
STUDY_MODELS = ("resnext29", "wrn40_2", "resnet18")
STUDY_METHODS = ("no_adapt", "bn_norm", "bn_opt")
PAPER_BATCH_SIZES = (50, 100, 200)

_METHOD_LABELS = {"no_adapt": "No-Adapt", "bn_norm": "BN-Norm", "bn_opt": "BN-Opt"}


@dataclass(frozen=True)
class Case:
    """One point of the study grid."""

    model: str
    method: str
    batch_size: int
    device: str

    @property
    def label(self) -> str:
        return case_label(self.model, self.batch_size, self.method, self.device)


def case_label(model: str, batch_size: int, method: str | None = None,
               device: str | None = None) -> str:
    """Paper-style case name, e.g. ``"WRN-AM-50 + BN-Norm @ xavier_nx_gpu"``."""
    label = f"{PAPER_LABELS.get(model, model)}-{batch_size}"
    if method is not None:
        label += f" + {_METHOD_LABELS.get(method, method)}"
    if device is not None:
        label += f" @ {device}"
    return label


@dataclass
class StudyConfig:
    """Axes and parameters of a measurement study run.

    The defaults replicate the paper's grid; the native accuracy runner
    additionally uses the data-related fields (which the simulated runner
    ignores since its accuracies come from the reference grid).
    """

    models: Sequence[str] = STUDY_MODELS
    methods: Sequence[str] = STUDY_METHODS
    batch_sizes: Sequence[int] = PAPER_BATCH_SIZES
    devices: Sequence[str] = DEVICE_NAMES
    severity: int = 5
    corruptions: Sequence[str] = tuple(CORRUPTION_NAMES)
    # native-execution parameters (tiny profiles)
    image_size: int = 16
    stream_samples: int = 600
    train_samples: int = 4000
    train_epochs: int = 10
    bn_opt_lr: float = 5e-3
    #: extra constructor kwargs per method name for the native runner
    #: (e.g. {"bn_norm_blend": {"source_count": 8}})
    method_kwargs: dict = field(default_factory=dict)
    #: execution backend for native runs ("numpy" or "sanitize"); see
    #: :mod:`repro.engine`.  Ignored by the simulated runner.
    backend: str = "numpy"
    #: fault-injection spec for native streams ("" = clean), e.g.
    #: "nan:0.1,constant@3"; see :mod:`repro.robustness.faults`
    faults: str = ""
    #: scenario spec for native streams ("" = the per-corruption grid),
    #: e.g. "markov:p=0.1@3"; see :mod:`repro.scenarios`.  With a
    #: scenario set, the ``corruptions`` axis is replaced by one
    #: scenario stream per (model, method, batch) cell and records are
    #: emitted per shift segment.
    scenario: str = ""
    #: wrap each native method in GuardedAdaptation
    #: (:mod:`repro.robustness.guard`)
    guard: bool = False
    # resilient-execution parameters (:mod:`repro.resilience`); the
    # native runner drives its grid cell-by-cell through a
    # ResilientExecutor configured from these
    #: JSONL run-journal path for native runs ("" = no journal)
    journal: str = ""
    #: skip cells the journal already records as ok (requires ``journal``)
    resume: bool = False
    #: extra attempts per failing native cell (0 = fail once, move on)
    max_retries: int = 0
    #: soft per-cell watchdog deadline in seconds (0 = no deadline)
    cell_timeout: float = 0.0
    #: worker *processes* for the native grid (:mod:`repro.parallel`);
    #: 0 = serial in-process execution via the ResilientExecutor.  A
    #: wall-clock-only knob: it never changes the measured records, so
    #: it is excluded from the resume fingerprint —
    #: a journal written serially can be resumed with workers and vice
    #: versa.
    workers: int = 0
    seed: int = 0

    def cases(self) -> List[Case]:
        """Enumerate the full grid in canonical order."""
        return [Case(model, method, batch, device)
                for device in self.devices
                for model in self.models
                for method in self.methods
                for batch in self.batch_sizes]
