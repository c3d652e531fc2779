"""One grammar for fault, chaos, scenario and arrival specs.

A spec is ``kind[:body][@at]``; a list joins specs with ``,``.  The body
is one bare value (``nan:0.2``) or ``+``-joined ``key=value`` pairs
(``markov:p=0.3+over=fog|snow``); ``@`` carries batch indices
(``inf@2+5``), a severity (``markov@3``) or nothing, per family.
Whitespace around tokens and blank list items are ignored, a repeated
key keeps its last value (each one must be valid), and every number
must be finite.  Every refusal, the value types' semantic ones
included, reads ``bad <noun> spec '<text>': <reason>``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Sequence, Tuple, TypeVar

T = TypeVar("T")


@dataclass(frozen=True)
class Schema:
    """One family: each kind's parameter defaults (text parses as the
    default's type), the float parameters that must be whole, what ``@``
    carries (``"indices"``, ``"severity"`` or ``""``), the ``bare``
    parameter that is the body of any kind (default 1.0; the consumer
    checks the name), and the key of the ``|``-separated name list."""

    noun: str
    kinds: Dict[str, Dict[str, float]]
    integral: FrozenSet[str] = frozenset()
    at: str = ""
    bare: str = ""
    names: str = ""

    def params(self, kind: str) -> Dict[str, float]:
        """``kind``'s parameter defaults; refuses an undeclared kind."""
        if self.bare:
            return {self.bare: 1.0}
        if kind not in self.kinds:
            raise ValueError(f"unknown {self.noun} kind {kind!r}; "
                             f"choose from {tuple(self.kinds)}")
        return self.kinds[kind]

    def number(self, kind: str, key: str, raw) -> float:
        """``raw`` (text or a number) as ``kind``'s parameter ``key``:
        refuses an unknown key, a non-number, a non-finite number, and a
        fraction where a whole number is due."""
        params = self.params(kind)
        if key not in params:
            raise ValueError(f"unknown parameter {key!r} for {kind}; "
                             f"valid: {', '.join(sorted(params))}")
        convert = type(params[key])
        try:
            value = convert(raw)
        except ValueError:
            raise ValueError(f"non-numeric {key} {raw!r}" if convert is float
                             else f"{key} must be an integer, got {raw!r}"
                             ) from None
        if not math.isfinite(value):
            raise ValueError(f"{key} must be finite, got {value}")
        if key in self.integral and value != int(value):
            raise ValueError(f"{key} must be an integer, got {value}")
        return value


def parse(text: str, schema: Schema,
          build: Callable[[str, Dict[str, object], object], T]) -> T:
    """Tokenize one spec and ``build(kind, params, at)`` its value;
    ``at`` is None without an ``@``."""
    try:
        return build(*_tokenize(text, schema))
    except ValueError as error:
        raise ValueError(
            f"bad {schema.noun} spec {text.strip()!r}: {error}") from None


def parse_list(text: str, schema: Schema, build) -> Tuple:
    """Parse a comma-separated list of specs."""
    items = [item for item in text.split(",") if item.strip()]
    if not items:
        raise ValueError(f"bad {schema.noun} spec {text.strip()!r}: empty")
    return tuple(parse(item, schema, build) for item in items)


def format_spec(kind: str, params: Sequence[Tuple[str, object]] = (),
                at=None) -> str:
    """The text :func:`parse` reads back to the same values: numbers in
    their shortest exact form, name lists joined by ``|``."""
    def text(value) -> str:
        if isinstance(value, tuple):
            return "|".join(value)
        return str(int(value)) if value == int(value) else repr(value)

    body = "+".join(f"{key}={text(value)}" for key, value in params)
    return kind + (":" + body if body else "") + \
        ("" if at is None else f"@{at}")


def _tokenize(text: str, schema: Schema):
    head, has_at, at = text.partition("@")
    kind, has_body, body = (part.strip() for part in head.partition(":"))
    if not kind:
        raise ValueError("empty" if not text.strip() else "missing kind")
    schema.params(kind)                     # refuses an unknown kind
    pairs = [(schema.bare, body)] if schema.bare and has_body else []
    for item in body.split("+") if body and not schema.bare else ():
        key, eq, value = (part.strip() for part in item.partition("="))
        if not (key and eq and value):
            raise ValueError(f"expected key=value, got {item.strip()!r}")
        pairs.append((key, value))
    params: Dict[str, object] = {}
    for key, value in pairs:
        if key == schema.names:
            params[key] = tuple(name.strip() for name in value.split("|")
                                if name.strip())
            if not params[key]:
                raise ValueError(f"empty {key!r} list")
        else:
            params[key] = schema.number(kind, key, value)
    return kind, params, _at(schema, at) if has_at else None


def _at(schema: Schema, text: str):
    if schema.at == "severity":
        try:
            return int(text)
        except ValueError:
            raise ValueError(f"severity after '@' must be an integer, "
                             f"got {text.strip()!r}") from None
    if schema.at != "indices":
        raise ValueError(f"{schema.noun} specs take no '@'")
    try:
        indices = tuple(int(index) for index in text.split("+"))
    except ValueError:
        indices = ()
    if not indices or min(indices) < 0:
        raise ValueError(f"indices after '@' must be integers >= 0 (join "
                         f"with '+'), got {text.strip()!r}")
    return indices


#: batch and network faults: any name (each consumer checks its own
#: namespace), the per-batch rate as the bare body, '@' batch indices
FAULT = Schema("fault", kinds={}, at="indices", bare="rate")

#: shift scenarios: per-kind parameters, an ``over=`` palette, '@' severity
SCENARIO = Schema("scenario", at="severity", names="over", kinds={
    "markov": {"p": 0.1},
    "cyclic": {"dwell": 4.0},
    "ramp": {"dwell": 2.0},
    "imbalanced": {"alpha": 0.3},
    "budgeted": {"budget": 2.0, "period": 8.0},
}, integral=frozenset({"dwell", "budget", "period"}))

#: open-loop arrivals: ``rate`` in frames/s and a ``size`` that only
#: ``burst`` uses, taken by every kind; no '@'
ARRIVAL = Schema("arrival", kinds=dict.fromkeys(
    ("uniform", "poisson", "burst"), {"rate": 64.0, "size": 4}))
