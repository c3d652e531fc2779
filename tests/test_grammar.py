"""The spec grammar: one tokenizer and one error format for every family.

Fault, network-fault, scenario and arrival specs all parse through
:mod:`repro.grammar`, so they share one trust boundary.  The property
below feeds every parser grammar-shaped text, including the non-finite
and negative numbers that hand-written parsers used to let through:
each input either parses or raises ``ValueError`` in the one format,
and every accepted scenario or arrival spec round-trips through
``compact()``.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.corruptions import CORRUPTION_NAMES
from repro.robustness.faults import FAULT_NAMES, FaultSpec, parse_fault_specs
from repro.scenarios import SCENARIO_KINDS, parse_scenario_spec
from repro.serve.chaos import NETWORK_FAULT_NAMES, parse_network_fault_specs
from repro.serve.loadgen import ARRIVAL_KINDS, ArrivalSpec, parse_arrival_spec

PARSERS = {
    "fault list": parse_fault_specs,
    "fault": FaultSpec.parse,
    "network fault list": parse_network_fault_specs,
    "scenario": parse_scenario_spec,
    "arrival": parse_arrival_spec,
}

KINDS = (FAULT_NAMES + NETWORK_FAULT_NAMES + SCENARIO_KINDS + ARRIVAL_KINDS
         + ("bogus", ""))
KEYS = ("p", "dwell", "alpha", "budget", "period", "over", "rate", "size",
        "oops", "")
NUMBERS = ("0", "1", "2", "3", "5", "8", "0.25", "1.5", "-1", "-0", "+3",
           "inf", "-inf", "nan", "1e400", "1e-400", " 4 ", "x", "")
NAMES = tuple(CORRUPTION_NAMES[:3]) + ("clean", "bogus", "")
SEPARATORS = (":", "+", "=", "@", "|", ",", " ")

ERROR = re.compile(r"bad (fault|scenario|arrival) spec '.*': \S")


@st.composite
def shaped_specs(draw):
    """``kind[:value | :key=value+...][@at]``, each part drawn loosely."""
    text = draw(st.sampled_from(KINDS))
    body = draw(st.sampled_from(("", "value", "pairs")))
    if body == "value":
        text += ":" + draw(st.sampled_from(NUMBERS))
    elif body == "pairs":
        pairs = []
        for key in draw(st.lists(st.sampled_from(KEYS), max_size=3)):
            value = ("|".join(draw(st.lists(st.sampled_from(NAMES),
                                            max_size=3)))
                     if key == "over" else draw(st.sampled_from(NUMBERS)))
            pairs.append(f"{key}={value}")
        text += ":" + "+".join(pairs)
    if draw(st.booleans()):
        text += "@" + "+".join(draw(st.lists(st.sampled_from(NUMBERS),
                                             min_size=1, max_size=3)))
    return text


token_soup = st.lists(st.sampled_from(KINDS + KEYS + NUMBERS + NAMES
                                      + SEPARATORS),
                      max_size=10).map("".join)
spec_texts = st.one_of(
    shaped_specs(),
    st.lists(shaped_specs(), min_size=1, max_size=3).map(",".join),
    token_soup)


@given(spec_texts)
@settings(max_examples=400, deadline=None)
def test_every_spec_parses_or_refuses_in_one_format(text):
    for parse in PARSERS.values():
        try:
            value = parse(text)
        except ValueError as error:
            assert ERROR.match(str(error)), str(error)
            continue
        if hasattr(value, "compact"):
            assert parse(value.compact()) == value
        for spec in value if isinstance(value, tuple) else ():
            assert 0.0 <= spec.rate <= 1.0
            assert all(index >= 0 for index in spec.at)


@pytest.mark.parametrize("parse,text,reason", [
    (parse_fault_specs, "nan:0.2@3", "give a rate or '@' indices"),
    (parse_network_fault_specs, "truncate@-2",
     "indices after '@' must be integers >= 0"),
    (parse_scenario_spec, "ramp:dwell=-inf", "dwell must be finite"),
    (parse_scenario_spec, "budgeted:period=1e400", "period must be finite"),
    (parse_scenario_spec, "markov:p=nan", "p must be finite"),
    (parse_arrival_spec, "uniform:rate=1e400", "rate must be finite"),
    (parse_arrival_spec, "poisson:rate=64@3", "arrival specs take no '@'"),
])
def test_refusals_name_the_spec_and_the_reason(parse, text, reason):
    with pytest.raises(ValueError) as refused:
        parse(text)
    message = str(refused.value)
    assert ERROR.match(message) and f"spec {text!r}: " in message
    assert reason in message


def test_whitespace_around_every_token_is_ignored():
    assert parse_fault_specs(" nan : 0.2 , constant @ 3 + 5 ") == \
        parse_fault_specs("nan:0.2,constant@3+5")
    assert parse_scenario_spec(" cyclic : dwell = 2 + over = fog | snow @ 3") \
        == parse_scenario_spec("cyclic:dwell=2+over=fog|snow@3")
    assert parse_arrival_spec(" burst : rate = 64 + size = 8 ") == \
        ArrivalSpec("burst", 64.0, 8)
