"""The CLI's streaming JSON writer against json.dumps(indent=2).

`oracles.json_indent2` is the rendering the CLI used before the writer;
every document must come out byte for byte the same, with the lists that
the CLI passes as generators written as lists.
"""

from __future__ import annotations

import io
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import json_indent2
from timedgames import cli


class Streamed(list):
    """A list that the writer receives as a generator."""


def streamed(value):
    """`value` with every Streamed list replaced by a generator."""
    if isinstance(value, Streamed):
        return (streamed(item) for item in value)
    if isinstance(value, dict):
        return {key: streamed(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(streamed(item) for item in value)
    return value


def written(payload) -> str:
    out = io.StringIO()
    cli.write_json(out.write, streamed(payload))
    return out.getvalue()


# any code point, lone surrogates and control characters included
TEXT = st.one_of(
    st.text(st.characters(blacklist_categories=())),
    st.sampled_from(["", '"', "\\", '\\"', "\x00\x1f\x7f\n\t", "é ü 中 🎉",
                     "  ", "\ud800", "1/3"]),
)
FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 0.0, 1e300, -1e300,
                     5e-324, 1e16, 0.1]),
)
LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=-10**80, max_value=10**80), FLOATS, TEXT,
)


def containers(items):
    lists = st.lists(items, max_size=4)
    return st.one_of(lists, lists.map(tuple), lists.map(Streamed),
                     st.dictionaries(TEXT, items, max_size=4))


PAYLOADS = st.recursive(LEAVES, containers, max_leaves=40)


@settings(max_examples=600, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(PAYLOADS)
def test_writer_matches_json_dumps_indent2(payload):
    assert written(payload) == json_indent2(payload)


@pytest.mark.parametrize("payload", [
    {}, [], (), Streamed(), {"a": {}}, {"a": []}, {"a": Streamed()},
    [Streamed([Streamed(), {}])], Streamed([{"x": Streamed([1, 2])}, []]),
    {"inf": math.inf, "ninf": -math.inf, "nan": math.nan, "z": -0.0, "big": 1e300},
    {"t": True, "f": False, "n": None, "i": 10**70, "neg": -(10**70)},
    "top-level string", 7, None,
])
def test_writer_edge_cases(payload):
    assert written(payload) == json_indent2(payload)


def test_writer_refuses_what_json_refuses():
    for bad in ({"a": object()}, [{1, 2}], {"a": b"bytes"}):
        with pytest.raises(TypeError):
            json_indent2(bad)
        with pytest.raises(TypeError):
            written(bad)


def test_generator_rows_are_written_as_produced():
    """Each item of a generator is written before the next is produced."""
    out = io.StringIO()
    seen = []

    def rows():
        for i in range(4):
            seen.append(out.getvalue())
            yield {"id": i, "label": "row %d" % i}

    cli.write_json(out.write, {"head": 1, "rows": rows(), "tail": [2]})
    full = json_indent2({"head": 1, "rows": [{"id": i, "label": "row %d" % i}
                                            for i in range(4)], "tail": [2]})
    assert out.getvalue() == full
    for i in range(1, 4):
        assert seen[i].endswith("\"row %d\"\n    }" % (i - 1))
        assert full.startswith(seen[i])


def test_brg_json_never_calls_json_dumps(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps called")

    monkeypatch.setattr(json, "dumps", refuse)
    for argv in (["brg", "models/M3.model", "--json"],
                 ["solve", "models/M2.model", "--exact", "--json"]):
        assert cli.main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["states"] > 0
