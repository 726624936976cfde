"""The archival record encoder against ``json.dumps``, byte for byte.

:func:`reference_line` and :func:`reference_trailer` are the reference
encodings: ``json.dumps`` with compact separators over the
:func:`sanitize`d payload.  Spills, dumps, canonical digests and
journals are compared and hashed as bytes, so :func:`record_encoder`
must reproduce the reference on every input, not only on the payloads
a real run logs.
"""

import enum
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.schema import REGISTRY
from repro.simkernel.monitor import record_encoder, sanitize, trailer_line


def reference_line(t, category, data, run=None, label=""):
    """The reference archival line of one record."""
    line = {"t": t, "cat": category}
    if data is not None:
        line["data"] = sanitize(data)
    if run is not None:
        line["run"] = run
    if label:
        line["label"] = label
    return json.dumps(line, separators=(",", ":")) + "\n"


def reference_trailer(perf, run=None):
    """The reference ``{"meta": "perf"}`` trailer line."""
    trailer = {"meta": "perf"}
    if run is not None:
        trailer["run"] = run
    trailer.update(sanitize(perf))
    return json.dumps(trailer, separators=(",", ":")) + "\n"


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Tag(str):
    """A str subclass: sanitize keeps it, JSON writes its text."""


class Loud(str):
    """A str subclass whose ``str()`` differs from its text, so a key
    sanitize stringifies is not the key the payload holds."""

    def __str__(self):
        return self.upper() + "!"


class Real(float):
    """A float subclass, as numpy's float64 is."""


class Opaque:
    """No JSON form: sanitize falls back to ``str()``."""

    def __init__(self, n):
        self.n = n

    def __str__(self):
        return f"<opaque {self.n}>"


#: Quotes, backslashes, control and non-ASCII characters.  TEXT adds
#: lone surrogates, which a JSON round trip may pair up.
JSON_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é☃𝄞'),
        st.characters(exclude_categories=["Cs"]),
    ),
    max_size=8,
)
TEXT = st.one_of(
    JSON_TEXT, st.text(st.characters(categories=["Cs"]), max_size=3)
)
#: Key names repeat across records, so one encoder's key cache meets
#: the same name with values of other types.
NAMES = st.one_of(
    st.sampled_from(["job", "attempt", "node", "meta", "run", "", 'a"b']),
    TEXT,
)
#: Special values drawn often: JSON spells the non-finite ones NaN,
#: Infinity and -Infinity, where ``repr`` says nan and inf.
FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e16, 5e-324]),
    st.floats(allow_nan=True, allow_infinity=True),
)
HASHABLE = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    FLOATS,
    NAMES,
    st.sampled_from(Level),
    NAMES.map(Tag),
    NAMES.map(Loud),
    FLOATS.map(Real),
)
SCALARS = st.one_of(HASHABLE, st.integers().map(Opaque))
PAYLOADS = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.sets(HASHABLE, max_size=4),
        st.frozensets(HASHABLE, max_size=4),
        st.dictionaries(HASHABLE, inner, max_size=5),
    ),
    max_leaves=16,
)
#: Flat str-keyed dicts are what real runs log; draw them often.
DATA = st.one_of(
    st.none(), st.dictionaries(NAMES, SCALARS, max_size=6), PAYLOADS
)
TIMES = st.one_of(FLOATS, st.integers(), FLOATS.map(Real))
RUNS = st.one_of(st.none(), st.just(0), st.integers())
LABELS = st.one_of(st.just(""), TEXT)
#: Payloads that survive a JSON round trip unchanged.
JSON_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(allow_nan=False, allow_infinity=False),
        JSON_TEXT,
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(JSON_TEXT, inner, max_size=3),
    ),
    max_leaves=8,
)


@given(t=TIMES, category=TEXT, data=DATA, run=RUNS, label=LABELS)
@settings(max_examples=400, deadline=None)
def test_encoder_matches_reference(t, category, data, run, label):
    expected = reference_line(t, category, data, run, label)
    assert record_encoder(run, label)(t, category, data) == expected


@pytest.mark.parametrize("run", [None, 0, 5])
@pytest.mark.parametrize("label", ["", "fig06", 'we"ird\\é'])
@given(
    records=st.lists(
        st.tuples(TIMES, st.one_of(st.sampled_from(["a", "b"]), TEXT), DATA),
        max_size=12,
    )
)
@settings(max_examples=60, deadline=None)
def test_one_encoder_over_a_stream(run, label, records):
    encode = record_encoder(run, label)
    for t, category, data in records:
        assert encode(t, category, data) == reference_line(
            t, category, data, run, label
        )


@given(perf=st.dictionaries(HASHABLE, PAYLOADS, max_size=5), run=RUNS)
@settings(max_examples=200, deadline=None)
def test_trailer_matches_reference(perf, run):
    assert trailer_line(perf, run) == reference_trailer(perf, run)


@pytest.mark.parametrize("category", sorted(REGISTRY))
@given(st.data())
@settings(max_examples=15, deadline=None)
def test_every_schema_category_round_trips(category, data):
    keys = sorted(REGISTRY[category].keys)
    payload = data.draw(st.fixed_dictionaries(dict.fromkeys(keys, JSON_VALUES)))
    line = record_encoder(3, "fig06")(12.5, category, payload)
    assert line == reference_line(12.5, category, payload, 3, "fig06")
    assert json.loads(line) == {
        "t": 12.5, "cat": category, "data": payload, "run": 3, "label": "fig06",
    }
