"""Correctness tooling: static invariant linter + runtime numeric sanitizer.

PRs 1–4 bought this repo expensive guarantees — seeded determinism,
bit-identical resume, atomic IO, thread-local backend state — and every
one of them can silently regress in a future refactor.  This package
enforces them mechanically, in two complementary passes:

- **static** (:mod:`repro.analysis.engine` + :mod:`repro.analysis.rules`):
  an AST rule engine with project-specific ``REPxxx`` rules, per-line
  ``# repro: noqa[REPxxx]`` suppressions, a committed baseline for
  legacy findings, and text/JSON reporters.  Runs as ``repro check``
  and gates CI.
- **dynamic** (:mod:`repro.analysis.sanitize`): a
  :class:`SanitizerBackend` that wraps any execution backend and
  validates every leaf op's arrays (NaN/Inf, float32 dtype drift,
  shape contracts) with op-site attribution.  Runs as
  ``--backend sanitize``.

PR 10 extends both passes to the threaded serve stack: static
concurrency-discipline rules REP008–REP012
(:mod:`repro.analysis.concurrency` — unguarded shared-state writes,
the project-wide lock-order graph, blocking calls under a lock,
daemon-less threads, condition misuse) and the runtime lock-order
watchdog (:mod:`repro.analysis.lockwatch` — ``instrument_locks()``
patches lock construction to record per-thread acquisition stacks and
report inversions/long holds; opt in with ``REPRO_LOCKWATCH=1``).

The package imports nothing up front: each name below loads its
submodule on first access.  The serve daemon imports
:mod:`repro.analysis.lockwatch` on every start, and should not load the
rule engine, the rules and the reporters with it.
"""

from __future__ import annotations

import importlib

#: public name -> the submodule that defines it
_EXPORTS = {
    "BaselineError": "baseline",
    "apply_baseline": "baseline",
    "load_baseline": "baseline",
    "write_baseline": "baseline",
    "LockEdge": "concurrency",
    "lock_order_findings": "concurrency",
    "FileContext": "context",
    "PARSE_ERROR_CODE": "engine",
    "RuleEngine": "engine",
    "UsageError": "engine",
    "check_paths": "engine",
    "iter_python_files": "engine",
    "resolve_codes": "engine",
    "Finding": "findings",
    "finding_from_dict": "findings",
    "LockInversionError": "lockwatch",
    "LockWatch": "lockwatch",
    "active_watch": "lockwatch",
    "finish_watch": "lockwatch",
    "instrument_locks": "lockwatch",
    "lockwatch_enabled": "lockwatch",
    "maybe_instrument": "lockwatch",
    "format_github": "reporters",
    "format_json": "reporters",
    "format_rule_catalog": "reporters",
    "format_text": "reporters",
    "RULE_CODES": "rules",
    "RULES": "rules",
    "RULES_BY_CODE": "rules",
    "Rule": "rules",
    "NumericFaultError": "sanitize",
    "SanitizerBackend": "sanitize",
    "SanitizerFinding": "sanitize",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
