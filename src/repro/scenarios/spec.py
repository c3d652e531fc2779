"""Scenario specifications: deployment-shaped shift streams, as data.

The study grid evaluates i.i.d. single-corruption streams — every batch
drawn from one corruption at one severity.  Real edge deployments see
*temporally structured* shift: weather that switches, recurs, and ramps;
class mixes that skew; adaptation budgets that gate when updates may
run at all (the scenario axis BoTTA defines for on-device TTA
benchmarking).  A :class:`ScenarioSpec` freezes one such structure as a
small, fingerprintable value object, written in the spec grammar of
:mod:`repro.grammar` with the severity after ``@``:

- ``markov:p=0.1@3`` — Markov switching over the corruption palette
  with per-batch switch probability 0.1, severity 3;
- ``cyclic:dwell=4`` — recurring shifts: the palette cycles in order,
  ``dwell`` batches per corruption, wrapping forever (recurrence);
- ``ramp:dwell=2+over=fog@4`` — severity sweep: a triangle wave
  1 → peak → 1 over one corruption, ``dwell`` batches per rung, with
  ``@severity`` as the peak;
- ``imbalanced:alpha=0.3`` — class-skewed batches: per-batch class
  weights drawn from a Dirichlet with concentration ``alpha`` (smaller
  = more skewed), over one fixed corruption;
- ``budgeted:budget=2+period=8`` — limited-sample adaptation windows:
  adaptation runs for the first ``budget`` batches of every ``period``
  batches and is frozen in between (inference-only service).

``over=`` restricts the corruption palette (``clean`` allowed); the
switching kinds default to the full taxonomy, the single-corruption
kinds to ``gaussian_noise``.

Specs are *canonical*: parameters are normalized (defaults filled,
sorted), so ``parse(spec.compact()) == spec`` for every spec and the
:meth:`~ScenarioSpec.fingerprint` is stable across processes — the
property the resume/interop proofs in ``tests/test_scenarios`` pin.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro import grammar
from repro.data.corruptions import CORRUPTION_NAMES

#: every scenario kind, in taxonomy order
SCENARIO_KINDS = tuple(grammar.SCENARIO.kinds)

#: kinds that schedule more than one corruption (palette defaults to the
#: full taxonomy); the rest run one corruption (default gaussian_noise)
SWITCHING_KINDS = frozenset({"markov", "cyclic"})

#: per-kind parameter names and default values
KIND_PARAMS: Dict[str, Dict[str, float]] = grammar.SCENARIO.kinds

_DEFAULT_SEVERITY = 5


def _default_over(kind: str) -> Tuple[str, ...]:
    if kind in SWITCHING_KINDS:
        return tuple(CORRUPTION_NAMES)
    return ("gaussian_noise",)


@dataclass(frozen=True)
class ScenarioSpec:
    """One frozen, fingerprintable shift-stream structure.

    Construction normalizes the spec to canonical form: the palette
    (``over``) defaults by kind, ``params`` accepts a dict or item
    tuple and is stored as a sorted tuple with every kind parameter
    present (defaults filled), and everything is validated — an invalid
    spec cannot exist.
    """

    kind: str
    over: Tuple[str, ...] = ()
    severity: int = _DEFAULT_SEVERITY
    params: Tuple[Tuple[str, float], ...] = field(default=())

    def __post_init__(self):
        merged = {**grammar.SCENARIO.params(self.kind),
                  **{key: grammar.SCENARIO.number(self.kind, key, value)
                     for key, value in dict(self.params).items()}}
        object.__setattr__(self, "over",
                           tuple(self.over) or _default_over(self.kind))
        object.__setattr__(self, "params",
                           tuple(sorted(merged.items())))
        self._validate(merged)

    def _validate(self, params: Dict[str, float]) -> None:
        if self.severity not in (1, 2, 3, 4, 5):
            raise ValueError(f"severity must be in 1..5, got {self.severity}")
        valid_names = set(CORRUPTION_NAMES) | {"clean"}
        bad = [name for name in self.over if name not in valid_names]
        if bad:
            raise ValueError(f"unknown corruption(s) in palette: {bad}")
        if len(set(self.over)) != len(self.over):
            raise ValueError("palette must not repeat corruptions")
        if self.kind == "markov" and len(self.over) < 2:
            raise ValueError("markov needs a palette of >= 2 corruptions")
        if self.kind not in SWITCHING_KINDS and len(self.over) != 1:
            raise ValueError(
                f"{self.kind} runs exactly one corruption; got "
                f"{len(self.over)} in the palette")
        if self.kind == "ramp" and self.over[0] == "clean":
            raise ValueError("ramp sweeps severity; 'clean' has none")
        if self.kind == "markov" and not 0.0 < params["p"] <= 1.0:
            raise ValueError(f"p must be in (0, 1], got {params['p']}")
        if self.kind in ("cyclic", "ramp") and params["dwell"] < 1:
            raise ValueError(f"dwell must be >= 1, got {params['dwell']}")
        if self.kind == "imbalanced" and params["alpha"] <= 0.0:
            raise ValueError(f"alpha must be positive, got {params['alpha']}")
        if self.kind == "budgeted":
            if params["period"] < 1:
                raise ValueError(
                    f"period must be >= 1, got {params['period']}")
            if not 1 <= params["budget"] <= params["period"]:
                raise ValueError(
                    f"budget must be in 1..period, got "
                    f"budget={params['budget']} period={params['period']}")

    # -- accessors ---------------------------------------------------------

    def param(self, key: str) -> float:
        """One parameter's value (kind defaults are always present)."""
        for name, value in self.params:
            if name == key:
                return value
        raise KeyError(f"{self.kind} has no parameter {key!r}")

    # -- string form -------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "ScenarioSpec":
        """Parse the compact form, e.g. ``"cyclic:dwell=2@3"``."""
        return grammar.parse(text, grammar.SCENARIO, cls._from_spec)

    @classmethod
    def _from_spec(cls, kind: str, params: dict, at) -> "ScenarioSpec":
        over = params.pop(grammar.SCENARIO.names, ())
        severity = _DEFAULT_SEVERITY if at is None else at
        return cls(kind, over=over, severity=severity, params=params)

    def compact(self) -> str:
        """Canonical compact form; ``parse(compact()) == self``.

        Parameters and the palette are emitted only when they differ
        from the kind's defaults, so the common specs stay short
        (``"markov"``, ``"cyclic:dwell=2@3"``).
        """
        defaults = KIND_PARAMS[self.kind]
        params = [(key, value) for key, value in self.params
                  if value != defaults[key]]
        if self.over != _default_over(self.kind):
            params.append((grammar.SCENARIO.names, self.over))
        severity = (None if self.severity == _DEFAULT_SEVERITY
                    else self.severity)
        return grammar.format_spec(self.kind, params, severity)

    def fingerprint(self) -> str:
        """Stable digest of the canonical spec (stable across processes)."""
        payload = {
            "format": "repro.scenario_spec",
            "kind": self.kind,
            "over": list(self.over),
            "severity": self.severity,
            "params": {key: value for key, value in self.params},
        }
        blob = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    def __str__(self) -> str:
        return self.compact()


def parse_scenario_spec(text: str) -> ScenarioSpec:
    """Parse a compact scenario-spec string (CLI ``--scenario``)."""
    return ScenarioSpec.parse(text)
