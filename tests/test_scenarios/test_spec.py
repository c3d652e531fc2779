"""ScenarioSpec: grammar, canonicalization, validation, fingerprints.

The property-based block is the PR's parsing contract: for *every*
constructible spec, ``parse(compact()) == spec`` and the fingerprint is
invariant under re-parsing; for malformed text the parser raises
``ValueError`` and nothing else.  The golden fingerprints below pin the
digest format across refactors — a change here invalidates every
recorded scenario stamp, so it must be deliberate.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.corruptions import CORRUPTION_NAMES
from repro.scenarios import (
    KIND_PARAMS,
    SCENARIO_KINDS,
    SWITCHING_KINDS,
    ScenarioSpec,
    parse_scenario_spec,
)


class TestGrammar:
    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    def test_bare_kind_parses_with_defaults(self, kind):
        spec = parse_scenario_spec(kind)
        assert spec.kind == kind
        assert spec.severity == 5
        assert dict(spec.params) == KIND_PARAMS[kind]

    def test_severity_suffix(self):
        assert parse_scenario_spec("markov@3").severity == 3

    def test_params_and_palette(self):
        spec = parse_scenario_spec("markov:p=0.25+over=fog|snow@2")
        assert spec.param("p") == 0.25
        assert spec.over == ("fog", "snow")
        assert spec.severity == 2

    def test_palette_defaults_by_kind(self):
        assert parse_scenario_spec("cyclic").over == tuple(CORRUPTION_NAMES)
        assert parse_scenario_spec("ramp").over == ("gaussian_noise",)

    def test_clean_allowed_in_switching_palette(self):
        spec = parse_scenario_spec("cyclic:over=clean|fog")
        assert spec.over == ("clean", "fog")

    def test_whitespace_tolerated(self):
        assert parse_scenario_spec(" markov ") == parse_scenario_spec("markov")

    def test_str_is_compact(self):
        spec = parse_scenario_spec("cyclic:dwell=2@3")
        assert str(spec) == spec.compact() == "cyclic:dwell=2@3"


class TestCanonicalization:
    def test_compact_omits_default_valued_params(self):
        # budget=2 is the kind default, so the canonical form drops it
        spec = parse_scenario_spec("budgeted:budget=2+period=4")
        assert spec.compact() == "budgeted:period=4"

    def test_compact_of_bare_default_is_just_the_kind(self):
        assert parse_scenario_spec("markov:p=0.1@5").compact() == "markov"

    def test_params_sorted_regardless_of_spelling_order(self):
        a = parse_scenario_spec("budgeted:period=4+budget=3")
        b = parse_scenario_spec("budgeted:budget=3+period=4")
        assert a == b
        assert a.compact() == b.compact()

    @pytest.mark.parametrize("text", [
        "markov", "markov:p=0.25", "cyclic:dwell=2@3",
        "ramp:dwell=1+over=fog@4", "imbalanced:alpha=0.5+over=snow",
        "budgeted:period=4", "cyclic:over=clean|fog@1",
        # the specs CI, README and docs run
        "markov:p=0.3+over=fog|gaussian_noise|contrast", "markov:p=0.1@3",
        "cyclic:dwell=4+over=fog|gaussian_noise",
        "cyclic:dwell=2+over=fog|gaussian_noise@3",
        "cyclic:dwell=4+over=fog|snow", "ramp:dwell=2+over=fog@4",
        "imbalanced:alpha=0.3", "budgeted:budget=2+period=8",
    ])
    def test_round_trip_examples(self, text):
        spec = parse_scenario_spec(text)
        assert parse_scenario_spec(spec.compact()) == spec

    def test_constructor_accepts_param_dict(self):
        spec = ScenarioSpec("cyclic", params={"dwell": 2})
        assert spec == parse_scenario_spec("cyclic:dwell=2")


MALFORMED = [
    "",                              # empty
    "   ",                           # blank
    "bogus",                         # unknown kind
    "markov:p=",                     # missing value
    "markov:p",                      # not key=value
    "markov:=3",                     # missing key
    "markov:p=zero",                 # non-numeric value
    "markov:oops=1",                 # unknown parameter
    "markov:p=0",                    # p out of (0, 1]
    "markov:p=1.5",                  # p out of (0, 1]
    "markov:over=fog",               # markov needs >= 2 corruptions
    "markov:over=bogus|fog",         # unknown corruption
    "cyclic:over=fog|fog",           # repeated corruption
    "cyclic:over=",                  # empty palette
    "cyclic:dwell=0",                # dwell < 1
    "cyclic:dwell=1.5",              # non-integral dwell
    "ramp:over=clean",               # clean has no severity to ramp
    "ramp:over=fog|snow",            # single-corruption kind
    "ramp@7",                        # severity out of 1..5
    "markov@x",                      # non-integer severity
    "imbalanced:alpha=0",            # alpha must be positive
    "imbalanced:over=fog|snow",      # single-corruption kind
    "budgeted:budget=9+period=4",    # budget > period
    "budgeted:period=0",             # period < 1
    "cyclic:dwell=inf",              # non-finite (was an OverflowError)
    "budgeted:period=inf",           # non-finite (was an OverflowError)
    "imbalanced:alpha=inf",          # non-finite (compact() overflowed)
]


class TestRejection:
    @pytest.mark.parametrize("text", MALFORMED)
    def test_malformed_text_raises_value_error(self, text):
        with pytest.raises(ValueError):
            parse_scenario_spec(text)

    def test_unknown_param_names_the_valid_ones(self):
        with pytest.raises(ValueError, match="valid"):
            parse_scenario_spec("cyclic:p=0.5")

    def test_param_lookup_raises_keyerror(self):
        with pytest.raises(KeyError):
            parse_scenario_spec("markov").param("dwell")


#: digest pins — changing the fingerprint payload format breaks every
#: recorded scenario stamp, so these fail loudly on purpose
GOLDEN_FINGERPRINTS = {
    "markov": "181df2d2a05dfe43",
    "cyclic:dwell=2": "cda57c5a8cf8a3cf",
    "budgeted:budget=2+period=4": "f71cbd1e5f6d4f63",
    "imbalanced:alpha=0.5+over=fog@2": "2593881c14a75b9f",
}


#: the specs CI, README and docs run, with their canonical form and
#: fingerprint: records and journals already carry these stamps
DOCUMENTED = {
    "markov:p=0.3+over=fog|gaussian_noise|contrast":
        ("markov:p=0.3+over=fog|gaussian_noise|contrast", "90d54d5acad12742"),
    "markov:p=0.1@3": ("markov@3", "32e99953979ef03a"),
    "cyclic:dwell=4+over=fog|gaussian_noise":
        ("cyclic:over=fog|gaussian_noise", "3d056b0490fd87f4"),
    "cyclic:dwell=2+over=fog|gaussian_noise@3":
        ("cyclic:dwell=2+over=fog|gaussian_noise@3", "c658a1f13837a372"),
    "ramp:dwell=2+over=fog@4": ("ramp:over=fog@4", "f69cedec44cabead"),
    "budgeted:budget=2+period=8": ("budgeted", "e354064c55298c8d"),
}


class TestFingerprint:
    @pytest.mark.parametrize("text,expected", sorted(DOCUMENTED.items()))
    def test_documented_specs_keep_their_form(self, text, expected):
        spec = parse_scenario_spec(text)
        assert (spec.compact(), spec.fingerprint()) == expected

    @pytest.mark.parametrize("text,expected",
                             sorted(GOLDEN_FINGERPRINTS.items()))
    def test_golden_fingerprints(self, text, expected):
        assert parse_scenario_spec(text).fingerprint() == expected

    def test_spelling_variants_share_a_fingerprint(self):
        assert parse_scenario_spec("markov:p=0.1@5").fingerprint() \
            == parse_scenario_spec("markov").fingerprint()

    def test_different_specs_differ(self):
        prints = {parse_scenario_spec(text).fingerprint()
                  for text in ("markov", "markov@3", "markov:p=0.2",
                               "cyclic", "budgeted")}
        assert len(prints) == 5

    def test_fingerprint_stable_across_processes(self):
        """The digest must not depend on interpreter state (hash seeds,
        dict order): a fresh process computes the same hex."""
        import repro
        src = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="99")
        code = ("from repro.scenarios import parse_scenario_spec;"
                "print(parse_scenario_spec('cyclic:dwell=2').fingerprint())")
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True, check=True,
                             env=env)
        assert out.stdout.strip() == GOLDEN_FINGERPRINTS["cyclic:dwell=2"]


# -- property-based contract ---------------------------------------------

def specs():
    """Arbitrary *valid* ScenarioSpecs, built via the constructor."""
    def build(kind, palette, severity, draw_params):
        if kind in SWITCHING_KINDS:
            over = tuple(palette)
        else:
            over = (palette[0],) if palette[0] != "clean" else ("fog",)
        params = {}
        for key in KIND_PARAMS[kind]:
            if key == "p":
                params[key] = draw_params["p"]
            elif key == "alpha":
                params[key] = draw_params["alpha"]
            elif key == "dwell":
                params[key] = draw_params["dwell"]
            elif key == "period":
                params[key] = draw_params["period"]
            elif key == "budget":
                params[key] = min(draw_params["budget"],
                                  draw_params["period"])
        return ScenarioSpec(kind, over=over, severity=severity,
                            params=params)

    palettes = st.lists(
        st.sampled_from(CORRUPTION_NAMES + ["clean"]),
        min_size=2, max_size=5, unique=True)
    draws = st.fixed_dictionaries({
        "p": st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
        "alpha": st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
        "dwell": st.integers(1, 12),
        "period": st.integers(1, 12),
        "budget": st.integers(1, 12),
    })
    return st.builds(build, st.sampled_from(SCENARIO_KINDS), palettes,
                     st.integers(1, 5), draws)


@given(specs())
@settings(max_examples=120, deadline=None)
def test_every_spec_round_trips_through_its_compact_form(spec):
    back = parse_scenario_spec(spec.compact())
    assert back == spec
    assert back.fingerprint() == spec.fingerprint()


@given(specs())
@settings(max_examples=60, deadline=None)
def test_every_spec_has_all_kind_params(spec):
    assert dict(spec.params).keys() == KIND_PARAMS[spec.kind].keys()


@given(st.text(max_size=30))
@settings(max_examples=120, deadline=None)
def test_parser_never_raises_anything_but_value_error(text):
    try:
        spec = parse_scenario_spec(text)
    except ValueError:
        return
    # accepted text must be canonical-stable
    assert parse_scenario_spec(spec.compact()) == spec
