"""End-to-end CLI tests, invoking main() in-process.

Exit code contract: 0 clean, 1 property violations, 2 bad input, 3 final
set not almost surely reached, 4 iteration budget exhausted.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bundled import STUCK
from oracles import chain_document
from timedgames import cli, regions
from timedgames.cli import main
from timedgames.solver import SolveConfig

M1 = "models/M1.model"
M2 = "models/M2.model"
DOOMED = "models/M2-unreachable.model"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_clean(capsys):
    code, out, _ = run(capsys, "validate", M1)
    assert code == 0
    assert "no findings" in out


def test_validate_reports_findings(capsys, tmp_path):
    bad = tmp_path / "bad.model"
    bad.write_text(
        "clocks: [c]\nk: 1\nlocations:\n"
        "  - {name: l0, invariant: c <= 1}\n"
        "  - {name: lf, final: true}\n"
        "edges:\n"
        "  - source: l0\n    action: a\n    guard: c = 1\n"
        "    branches:\n      - {prob: 1/2, resets: [], target: lf}\n"
        "initial: {location: l0, valuation: {c: 0/1}}\n"
    )
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 2
    assert "finding" in out


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "validate", "models/nope.model")
    assert code == 2
    assert "error:" in err


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", M1])
    assert exc.value.code == 2


def test_brg_json_and_determinism(capsys):
    code, out1, _ = run(capsys, "brg", M1, "--json")
    assert code == 0
    doc = json.loads(out1)
    assert doc["states"] == 6
    assert doc["nodes"][0]["state"] == "l0 | c=0 | [c=0]"
    code, out2, _ = run(capsys, "brg", M1, "--json")
    assert out1 == out2


def test_brg_dot_output(capsys, tmp_path):
    dot = tmp_path / "m1.dot"
    code, _, _ = run(capsys, "brg", M1, "--dot", str(dot))
    assert code == 0
    assert dot.read_text().startswith("digraph")


def test_brg_cap_is_input_error(capsys):
    code, _, err = run(capsys, "brg", M1, "--cap", "2")
    assert code == 2
    assert "error:" in err


def test_solve_exact_json(capsys):
    code, out, _ = run(capsys, "solve", M1, "--exact", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["certified"] is True
    assert doc["initial"]["value"]["rational"] == "1/1"
    assert doc["values"][0]["move"] == "a at c=1 in [1<c<2]"


def test_solve_float_path(capsys):
    code, out, _ = run(capsys, "solve", M2, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["certified"] is False
    assert doc["initial"]["value"]["rational"] is None
    assert abs(float(doc["initial"]["value"]["decimal"]) - 2.0) < 1e-6


def test_solve_unreachable_witness(capsys):
    code, _, err = run(capsys, "solve", DOOMED, "--exact")
    assert code == 3
    assert "not reached almost surely" in err
    assert "l0 | c=0 | [c=0]" in err
    code, _, err = run(capsys, "solve", DOOMED)
    assert code == 3


def test_check_properties_unreachable_witness(capsys):
    """The rooted solve inside the property checks fails the same way, and
    its end component is printed by state label, not only by the ids of a
    graph the output never shows."""
    code, out, err = run(capsys, "check-properties", DOOMED)
    assert (code, out) == (3, "")
    assert err == ("the final set is not reached almost surely\n"
                   "  end component: l0 | c=0 | [c=0]\n"
                   "error: final states are not reached almost surely; "
                   "end components: [[0]]\n")


def test_solve_budget_exhausted(capsys):
    code, _, err = run(capsys, "solve", M2, "--max-iterations", "3",
                       "--tolerance", "1e-12")
    assert code == 4
    assert "error:" in err


def test_solve_out_file(capsys, tmp_path):
    out_file = tmp_path / "m1.json"
    code, out, _ = run(capsys, "solve", M1, "--exact", "--out", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["initial"]["value"]["rational"] == "1/1"


def test_discounted_values(capsys):
    code, out, _ = run(capsys, "discounted", M2, "--lambda", "1/2", "--json")
    assert code == 0
    assert json.loads(out)["initial"]["value"]["rational"] == "2/3"
    code, out, _ = run(capsys, "discounted", M2, "--lambda", "1/2",
                       "--keep-final-rewards", "--json")
    assert code == 0
    assert json.loads(out)["initial"]["value"]["rational"] == "5/6"


def refused_before_loading(capsys, monkeypatch, *argv) -> str:
    """The stderr of a call on M1 that exits 2 without loading the model."""
    monkeypatch.setattr(cli, "load_model", lambda path: pytest.fail("model loaded"))
    with pytest.raises(SystemExit) as exc:
        main([argv[0], M1, *argv[1:]])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    return captured.err


@pytest.mark.parametrize("lam", ["3/2", "1/1", "abc", "1/0"])
def test_discounted_rejects_bad_lambda(capsys, monkeypatch, lam):
    """A lambda outside [0, 1), or no rational at all, is refused with the
    option and the text named; so is the same text as a --K that is not a
    rational."""
    err = refused_before_loading(capsys, monkeypatch, "discounted", "--lambda", lam)
    assert "error: argument --lambda: " in err and repr(lam) in err
    if lam in ("abc", "1/0"):
        err = refused_before_loading(capsys, monkeypatch, "check-properties", "--K", lam)
        assert "error: argument --K: " in err and repr(lam) in err


@pytest.mark.parametrize("k", ["-1", "-2/4"])
def test_check_properties_refuses_a_negative_k(capsys, monkeypatch, k):
    """A negative --K is bad input (exit 2), not a property violation
    (exit 1); --K 0 is a bound like any other."""
    code, _, err = run(capsys, "check-properties", M1, "--K", "0")
    assert code in (0, 1) and err == ""
    err = refused_before_loading(capsys, monkeypatch, "check-properties", "--K=%s" % k)
    assert "error: argument --K: " in err and repr(k) in err


def test_simulate_json_deterministic(capsys):
    args = ("simulate", M1, "--runs", "20", "--seed", "3", "--json")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    doc = json.loads(out1)
    assert doc["reached"] == 20
    assert doc["estimate"]["rational"] == "1001/1000"
    assert doc["abs_error"]["rational"] == "1/1000"
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


@pytest.mark.parametrize("epsilon", ["-1/2", "0"])
def test_simulate_refuses_nonpositive_epsilon(capsys, monkeypatch, epsilon):
    err = refused_before_loading(capsys, monkeypatch, "simulate", "--epsilon=%s" % epsilon)
    assert "error: argument --epsilon: " in err and repr(epsilon) in err


def test_check_properties_clean(capsys):
    code, out, _ = run(capsys, "check-properties", M2, "--pairs", "15",
                       "--states", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    forms = {r["location"]: r["simple_form"] for r in doc["regions"]}
    assert forms["l0"] == "2"  # thin region c=0, the constant wins
    assert all(r["gap"]["rational"] == "0/1" for r in doc["grid_states"])


def test_check_properties_checks_distributions_once_per_arena(capsys, monkeypatch):
    """The many rooted walks and explores of a check-properties run share
    one arena, so its branch distributions are checked once, not once per
    walk or explore."""
    from timedgames import brg, cli, properties

    checked, explored = [], []
    real_check, real_explore = brg.distribution_findings, brg.explore
    real_walk = brg.rooted_values

    def check(arena):
        checked.append(arena)
        return real_check(arena)

    def explore(arena, *args, **kwargs):
        explored.append(arena)
        return real_explore(arena, *args, **kwargs)

    def walk(arena, *args, **kwargs):
        explored.append(arena)
        return real_walk(arena, *args, **kwargs)

    monkeypatch.setattr(brg, "distribution_findings", check)
    monkeypatch.setattr(cli, "explore", explore)
    monkeypatch.setattr(properties, "explore", explore)
    monkeypatch.setattr(properties, "rooted_values", walk)
    for model in (M1, M2):
        code, _, _ = run(capsys, "check-properties", model, "--pairs", "15",
                         "--states", "3", "--json")
        assert code == 0
    assert len(explored) > 2 * len(set(map(id, explored)))
    assert [id(a) for a in checked] == list(dict.fromkeys(map(id, explored)))


# ------------------------------------------------------------- bad input

def _variant(tmp_path, model: str, old: str, new: str) -> str:
    text = Path(model).read_text()
    assert old in text
    path = tmp_path / "variant.model"
    path.write_text(text.replace(old, new))
    return str(path)


@pytest.mark.parametrize("model, old, new", [
    # a branch probability above 1 used to be solved and "certified"
    (M1, 'prob: "1/1", resets: [], target: lf', 'prob: "3/2", resets: [], target: lf'),
    # branches summing to 1/2 used to crash the simulator
    (M2, 'prob: "1/2"', 'prob: "1/4"'),
], ids=["sum-3/2", "sum-1/2"])
def test_non_stochastic_edge_is_input_error(capsys, tmp_path, model, old, new):
    path = _variant(tmp_path, model, old, new)
    for sub in (("brg",), ("solve",), ("solve", "--exact"),
                ("discounted", "--lambda", "1/2"), ("simulate",), ("check-properties",)):
        code, out, err = run(capsys, sub[0], path, *sub[1:])
        assert code == 2, sub
        assert out == ""
        assert "branch probabilities sum to" in err
        assert "Traceback" not in err
    code, out, _ = run(capsys, "validate", path)
    assert code == 2
    assert "branch probabilities sum to" in out


def test_location_without_action_is_refused_by_label(capsys, tmp_path):
    """l1 has no edge, and the graph reaches it with c = 0.  The float
    solve and every exact caller refuse with exit 2 and name the state by
    its label, not by an internal index."""
    path = tmp_path / "stuck.model"
    path.write_text(STUCK % "l1")
    for sub in (("solve",), ("solve", "--json"), ("solve", "--exact"), ("solve", "--exact", "--json"),
                ("discounted", "--lambda", "1/2"), ("simulate",), ("check-properties",),
                ("check-properties", "--json")):
        code, out, err = run(capsys, sub[0], str(path), *sub[1:])
        assert code == 2, sub
        assert out == ""
        assert "state l1 | c=0 | [c=0] has no action" in err, sub
        assert "Traceback" not in err


def test_end_component_is_refused_before_a_location_without_action(capsys, tmp_path):
    """The maximizer can retry at l0 forever, and l1 has no edge: the float
    and the exact solve both report the end component with exit 3."""
    path = tmp_path / "loop.model"
    path.write_text((STUCK % "l1").replace(
        "  - {name: l0, owner: min,", "  - {name: l0, owner: max,").replace(
        "initial:", "  - source: l0\n    action: b\n    guard: \"c = 1\"\n    branches:\n"
        "      - {prob: \"1/1\", resets: [c], target: l0}\ninitial:"))
    for sub in (("solve",), ("solve", "--exact")):
        code, out, err = run(capsys, sub[0], str(path), *sub[1:])
        assert code == 3, sub
        assert "end component: l0 | c=0 | [c=0]" in err, sub
        assert "has no action" not in err


@pytest.mark.parametrize("old, new, where", [
    ("  - {name: l0, owner: min, final: false, invariant: \"c <= 1\"}", "  - 1",
     "location"),
    ("  - source: lf\n    action: f\n    guard: \"c >= 1\"\n    branches:\n"
     "      - {prob: \"1/1\", resets: [c], target: lf}\n", "  - [lf, f]\n", "edge"),
    ("      - {prob: \"1/2\", resets: [c], target: l0}", "      - l0", "branch"),
    ("initial:\n  location: l0\n  valuation: {c: \"0/1\"}", "initial: 5", "initial"),
], ids=["location", "edge", "branch", "initial"])
def test_non_mapping_entry_is_input_error(capsys, tmp_path, old, new, where):
    path = _variant(tmp_path, M2, old, new)
    for sub in ("validate", "solve"):
        code, _, err = run(capsys, sub, path)
        assert code == 2
        assert "%s must be a mapping" % where in err
        assert "Traceback" not in err


@pytest.mark.parametrize("old, new, message", [
    ("locations:\n  - {name: l0, owner: min, final: false, invariant: \"c <= 1\"}\n"
     "  - {name: lf, owner: min, final: true,  invariant: \"c <= 2\"}\n",
     "locations: 5\n", "locations must be a list"),
    ('invariant: "c <= 1"', "invariant: 7", "invariant of l0 must be a str"),
    ("name: l0,", "name: [l0],", "location name must be a str"),
    ("edges:\n  - source: l0", "edges: 5\nunused:\n  - source: l0", "edges must be a list"),
    ('guard: "c = 1"', "guard: 1", "must be a str"),
    ("branches:\n      - {prob: \"1/2\", resets: [], target: lf}",
     "branches: 2\n    unused:\n      - {prob: \"1/2\", resets: [], target: lf}",
     "must be a list"),
    ("resets: [], target: lf}", "resets: [], target: [lf]}", "branch target must be a str"),
    ("action: a", "action: [a]", "edge action must be a str"),
    ("location: l0", "location: {l0: 1}", "initial location must be a str"),
], ids=["locations", "invariant", "name", "edges", "guard", "branches", "target",
        "action", "initial-location"])
def test_ill_typed_entry_is_input_error(capsys, tmp_path, old, new, message):
    path = _variant(tmp_path, M2, old, new)
    for sub in ("validate", "solve"):
        code, out, err = run(capsys, sub, path)
        assert code == 2, sub
        assert out == ""
        assert message in err
        assert "Traceback" not in err


@pytest.mark.parametrize("old, new, message", [
    ("final: false, invariant: \"c <= 1\"", "final: \"no\", invariant: \"c <= 1\"",
     "final of l0 must be a bool"),
    ("final: false, invariant: \"c <= 1\"", "final: \"false\", invariant: \"c <= 1\"",
     "final of l0 must be a bool"),
    ("clocks: [c]", "name: 5\nclocks: [c]", "model name must be a str"),
], ids=["final-no", "final-false", "model-name"])
def test_ill_typed_flag_or_name_is_input_error(capsys, tmp_path, old, new, message):
    """A quoted "no" used to be truthy, so l0 became final and `solve
    --exact` certified the value 0/1."""
    path = _variant(tmp_path, M2, old, new)
    for sub in (("validate",), ("solve", "--exact"), ("simulate",)):
        code, out, err = run(capsys, sub[0], path, *sub[1:])
        assert code == 2, sub
        assert out == ""
        assert message in err
        assert "Traceback" not in err


@pytest.mark.parametrize("old, text, sub", [
    ('prob: "1/2"', "1/0", "validate"),
    ('valuation: {c: "0/1"}', "0/0", "solve"),
], ids=["prob", "valuation"])
def test_zero_denominator_is_named(capsys, tmp_path, old, text, sub):
    """A zero denominator is refused like any other malformed rational, by
    its text, not as a bare `Fraction(1, 0)`."""
    path = _variant(tmp_path, M2, old, re.sub(r'"[^"]*"', '"%s"' % text, old))
    code, out, err = run(capsys, sub, path)
    assert code == 2
    assert out == ""
    assert "cannot parse '%s' as an exact rational" % text in err
    assert "Fraction(" not in err


OPEN_WINDOW = """
clocks: [c]
k: 2
locations:
  - {name: l0, owner: min, final: false, invariant: "c < 2"}
  - {name: lf, owner: min, final: true, invariant: "c <= 2"}
edges:
  - {source: l0, action: a, guard: "c > 1 & c < 2", branches: [{prob: "1/1", resets: [c], target: lf}]}
  - {source: lf, action: esc, guard: "c >= 1", branches: [{prob: "1/1", resets: [c], target: lf}]}
initial: {location: l0, valuation: {c: "0/1"}}
"""


def test_grid_without_a_point_in_an_open_window_is_named(capsys, tmp_path):
    """From l0 the only enabled window is open, (1/4, 5/4) from c = 3/4, and
    a grid of denominator 1 puts no point in it.  That is the grid's fault,
    not a missing action: a finer grid checks the same game cleanly."""
    path = tmp_path / "open.model"
    path.write_text(OPEN_WINDOW)
    code, out, err = run(capsys, "check-properties", "--grid", "1", str(path))
    assert code == 2
    assert out == ""
    assert err == ("error: the delay grid of denominator 1 has no point in any "
                   "enabled window from (l0, c=3/4)\n")
    code, _, _ = run(capsys, "check-properties", "--grid", "100", str(path))
    assert code == 0


def test_cli_import_loads_no_networkx():
    """networkx is a test-only oracle; the package must not import it."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = "import sys, timedgames.cli; print('networkx' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


def test_text_mode_renders_no_json(capsys, monkeypatch):
    """Text output never builds the JSON document it does not print."""
    def refuse(*args, **kwargs):
        raise AssertionError("JSON rendered in text mode")

    monkeypatch.setattr(json, "dumps", refuse)
    monkeypatch.setattr(cli, "_layout", refuse)
    for argv in (("validate", M2), ("brg", M2), ("solve", M2), ("solve", "--exact", M2),
                 ("discounted", "--lambda", "1/2", M2),
                 ("check-properties", "--pairs", "2", "--states", "2", M1),
                 ("simulate", "--runs", "20", M2)):
        code, out, _ = run(capsys, argv[0], *argv[1:])
        assert code == 0 and out, argv


# ------------------------------------------------------ huge clock bounds

def huge_m2(tmp_path) -> str:
    path = tmp_path / "M2-huge.model"
    path.write_text(Path(M2).read_text().replace("k: 2\n", "k: 1000000000\n"))
    return str(path)


def test_region_count_closed_form():
    for n in (1, 2, 3):
        for k in (1, 2, 3):
            ctx = regions.ClockContext(tuple("cdef"[:n]), k)
            assert regions.region_count(ctx) == len(regions.enumerate_regions(ctx))
    assert regions.region_count(regions.ClockContext(tuple("cdef"), 3)) == 15307
    assert regions.region_count(regions.ClockContext(("c",), 10**9)) == 2 * 10**9 + 1


def test_huge_clock_bound_is_refused_before_allocating(capsys, tmp_path, monkeypatch):
    """`validate` refuses a region count beyond the cap with exit 2 before
    building a region; the commands that never enumerate regions still
    run."""
    def no_enumeration(*args):
        raise AssertionError("regions enumerated")

    monkeypatch.setattr(regions, "_ordered_partitions", no_enumeration)
    path = huge_m2(tmp_path)
    code, out, err = run(capsys, "validate", path)
    assert code == 2 and out == "" and "the cap of %d" % regions.REGION_CAP in err
    monkeypatch.undo()
    for argv in (("solve", path), ("brg", path), ("simulate", "--runs", "20", path)):
        assert run(capsys, *argv)[0] == 0, argv


def test_huge_clock_bound_under_a_memory_limit(tmp_path):
    """`validate` and `check-properties`, whose sample grid would be as
    large, refuse in a fresh interpreter whose address space is limited to
    1 GB: no MemoryError, no traceback, exit 2."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (10**9, 10**9))

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    path = huge_m2(tmp_path)
    for sub in ("validate", "check-properties"):
        done = subprocess.run([sys.executable, "-m", "timedgames.cli", sub, path],
                              env=env, capture_output=True, text=True, timeout=60,
                              preexec_fn=limit)
        assert done.returncode == 2, (sub, done.stderr)
        assert "the cap of" in done.stderr and "Traceback" not in done.stderr


# ------------------------------------------------------ exit-code contract

M2_DOC = yaml.safe_load(Path(M2).read_text())
# replacement values for each field of M2 by its key, well and ill formed;
# integers stay at most 10 so that no clock bound makes the graph large
NAMES = ["l0", "lf", "l9", ""]
RATIONALS = ["0", "1", "2", "1/2", "1/3", "-1/2", "3/2", "1/0", "x"]
CONSTRAINTS = ["c <= 1", "c = 1", "c >= 1", "c < 1", "c > 2", "c <= 2 & c >= 1",
               "d <= 1", "c <= 11", "c ==", ""]
FIELD_VALUES = {
    "clocks": [[], ["c"], ["c", "d"], ["c", "c"], "c"],
    "k": [-1, 0, 1, 2, 3, 10, "2", None],
    "name": NAMES, "source": NAMES, "target": NAMES, "location": NAMES,
    "owner": ["min", "max", "nobody", None],
    "final": [True, False, "no", 0],
    "invariant": CONSTRAINTS, "guard": CONSTRAINTS,
    "action": ["a", "f", "", 1],
    "prob": RATIONALS, "c": RATIONALS,
    "resets": [[], ["c"], ["d"], ["c", "c"], "c"],
    "valuation": [{}, {"c": "1/2"}, {"c": "3"}, {"d": "0"}, []],
}
ANY_VALUE = [None, 1, "x", [], {}]
CALLS = [("validate",), ("brg",), ("solve",), ("solve", "--exact"),
         ("discounted", "--lambda", "1/2"),
         ("check-properties", "--pairs", "2", "--states", "2", "--grid", "8"),
         ("simulate", "--runs", "20", "--step-cap", "200")]


def field_paths(node, path=()):
    yield path
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from field_paths(child, path + (key,))


@st.composite
def m2_mutations(draw):
    """M2 with one or two fields replaced, mostly by a value meant for the
    field, or dropped."""
    doc = copy.deepcopy(M2_DOC)
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from([p for p in field_paths(doc) if p]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        how = draw(st.sampled_from(("field", "field", "field", "any", "drop")))
        if how == "drop":
            del parent[path[-1]]
            continue
        pool = FIELD_VALUES.get(path[-1], ANY_VALUE) if how == "field" else ANY_VALUE
        parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(pool)))
    return yaml.safe_dump(doc, sort_keys=False)


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(m2_mutations())
def test_exit_code_contract_on_mutated_models(text):
    """Every subcommand on a mutated model ends in a documented exit code:
    0, 2, 3 or 4, and 1 only from check-properties; no exception escapes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutant.model")
        with open(path, "w") as fh:
            fh.write(text)
        for call in CALLS:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main([call[0], path, *call[1:]])
            allowed = {0, 1, 2, 3, 4} if call[0] == "check-properties" else {0, 2, 3, 4}
            assert code in allowed, (call, text)


def _finite_at_least_zero(text: str) -> bool:
    try:
        value = float(text)
    except ValueError:
        return False
    return math.isfinite(value) and value >= 0


def _integer_where(ok):
    def accepts(text: str) -> bool:
        try:
            return ok(int(text))
        except ValueError:
            return False
    return accepts


def _rational_where(ok):
    def accepts(text: str) -> bool:
        return bool(re.fullmatch(r"-?\d+(/0*[1-9]\d*)?", text)) and ok(Fraction(text))
    return accepts


# each numeric option, the calls of CALLS that take it and which values it
# accepts
NUMERIC_OPTIONS = {
    "--tolerance": (("solve", "discounted"), _finite_at_least_zero),
    "--max-iterations": (("solve", "discounted"), _integer_where(lambda n: n >= 1)),
    "--cap": (("brg",), _integer_where(lambda n: n >= 1)),
    "--pairs": (("check-properties",), _integer_where(lambda n: n >= 1)),
    "--grid": (("check-properties",), _integer_where(lambda n: 1 <= n <= regions.REGION_CAP)),
    "--states": (("check-properties",), _integer_where(lambda n: n >= 1)),
    "--seed": (("check-properties", "simulate"), _integer_where(lambda n: True)),
    "--runs": (("simulate",), _integer_where(lambda n: n >= 1)),
    "--step-cap": (("simulate",), _integer_where(lambda n: n >= 0)),
    "--lambda": (("discounted",), _rational_where(lambda q: 0 <= q < 1)),
    "--K": (("check-properties",), _rational_where(lambda q: q >= 0)),
    "--epsilon": (("simulate",), _rational_where(lambda q: q > 0)),
}
OPTION_VALUES = ["nan", "inf", "-inf", "-5", "-1", "0", "1", "3", "1e-6", "0.5",
                 "1/2", "1/1", "1/0", "x", ""]


@st.composite
def option_mutations(draw):
    """A call of CALLS on M2 with one numeric option set to a drawn value."""
    option = draw(st.sampled_from(sorted(NUMERIC_OPTIONS)))
    commands, _ = NUMERIC_OPTIONS[option]
    call = draw(st.sampled_from([c for c in CALLS if c[0] in commands]))
    return call, option, draw(st.sampled_from(OPTION_VALUES))


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(option_mutations())
def test_exit_code_contract_on_mutated_options(mutation):
    """A value a numeric option does not accept ends in exit 2 before any
    model is loaded; any other value ends in a documented exit code."""
    (command, *rest), option, value = mutation
    loads = []
    real = cli.load_model

    def loading(path):
        loads.append(path)
        return real(path)

    with pytest.MonkeyPatch.context() as mp, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        mp.setattr(cli, "load_model", loading)
        try:
            code = main([command, M2, *rest, "%s=%s" % (option, value)])
        except SystemExit as exc:
            code = exc.code
    if not NUMERIC_OPTIONS[option][1](value):
        assert (code, loads) == (2, []), mutation
        assert "argument %s: " % option in err.getvalue(), mutation
    else:
        allowed = {0, 1, 2, 3, 4} if command == "check-properties" else {0, 2, 3, 4}
        assert code in allowed and loads == [M2], mutation


@pytest.mark.parametrize("argv", [
    ("solve", "--tolerance", "nan"), ("solve", "--tolerance=-1"),
    ("solve", "--max-iterations", "0"), ("solve", "--max-iterations=-5"),
    ("discounted", "--lambda", "1/2", "--max-iterations", "0"),
    ("discounted", "--lambda", "2"), ("discounted", "--lambda", "1/1"),
    ("discounted", "--lambda", "abc"),
    ("check-properties", "--pairs", "0"), ("check-properties", "--grid=-3"),
    ("check-properties", "--grid", "0"), ("check-properties", "--grid", "1000001"),
    ("check-properties", "--states=-1"),
    ("check-properties", "--K", "-1"), ("check-properties", "--K", "1/0"),
    ("simulate", "--step-cap=-1"), ("simulate", "--epsilon", "1/0"),
    ("simulate", "--epsilon=0"), ("brg", "--cap", "0"),
], ids=" ".join)
def test_bad_numeric_option_is_refused_before_loading(capsys, monkeypatch, argv):
    option = next(a for a in reversed(argv) if a.startswith("--")).split("=")[0]
    assert "error: argument %s: " % option in refused_before_loading(capsys, monkeypatch, *argv)


def test_solve_options_are_declared_once(capsys):
    """solve and discounted share one declaration of --tolerance,
    --max-iterations and --out: the same help text, and `SolveConfig`'s
    defaults when the options are not given."""
    parser = cli.build_parser()
    for call in (("solve",), ("discounted", "--lambda", "1/2")):
        args = parser.parse_args([*call, M2])
        assert SolveConfig(args.tolerance, args.max_iterations) == SolveConfig(), call
        assert args.out is None
        with pytest.raises(SystemExit):
            parser.parse_args([call[0], "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        for line in ("--tolerance TOLERANCE value iteration stopping tolerance",
                     "--max-iterations MAX_ITERATIONS value iteration budget",
                     "--out FILE write the JSON document here"):
            assert line in help_text, (call, line)


def _not_json(constant: str):
    raise ValueError("%s is not JSON" % constant)


@pytest.mark.parametrize("model", ["M1", "M1x", "M2", "M3"])
def test_json_documents_parse_strictly(capsys, model):
    """Every subcommand's --json document is JSON under RFC 8259, with no
    NaN or Infinity, also from a simulation in which no run reaches the
    final set."""
    path = "models/%s.model" % model
    calls = CALLS + [("simulate", "--runs", "20", "--step-cap", "0")]
    for call in calls:
        code, out, _ = run(capsys, call[0], path, *call[1:], "--json")
        assert code == 0, call
        json.loads(out, parse_constant=_not_json)


# ----------------------------------------------------------- golden output

# sha256 of stdout (and the exit code) for each subcommand in text and JSON
# on every bundled model, of `check-properties` and `simulate` JSON also on
# a retry chain, of `check-properties` JSON on a one-clock chain that fails
# one check (exit 1), and of `brg` and `solve` JSON on a 2-clock and a
# 3-clock chain; any change to the rendered output shows up here
GOLDEN = {
    'validate M1':
        (0, '7f25bb6c9df9236359a3a662f71363b7d3531ecfee6e5bf3069b2f3b65f0cf98'),
    'validate M1 --json':
        (0, 'ded25ff40351fbe6dfffbd6e417bbd4f887f761b7f6c3b3bf9026cdf9b6e6b8f'),
    'brg M1':
        (0, 'd69e48c9489f48f9e7ce5fe806962fbcdca28773148420f6031e9ba854a7344c'),
    'brg M1 --json':
        (0, '43e6e9521d15b42ae110285c71781f94964a64a7ce3c15f2ff433f72f5b32e64'),
    'solve M1':
        (0, '3342461120387ee24196e62ded8919c2cd20053197e8119b7359253fe35b5f6a'),
    'solve M1 --json':
        (0, '8bfc09b4a7d3f14c08e9fb6a45790f51af34d2f7b8a662df11f8d8f69c174246'),
    'solve M1 --exact':
        (0, '6195021e3450e7fd61a96ea2579e947c2c8f5003838f7183b89c014e6702d586'),
    'solve M1 --exact --json':
        (0, 'd00a18b206228b442d7047c0ef1ef7eaca8230919f0b47f38c3f201ad5bfb56d'),
    'discounted M1 --lambda 1/2':
        (0, '69485efefe5830c8cbcd0c1714baadcb8788ef1508a85553bd5d93081bbc29b0'),
    'discounted M1 --lambda 1/2 --json':
        (0, '02e77bbd2770c02c3a4216eed1845b012631a09b427295d8b848237ac67cb440'),
    'discounted M1 --lambda 1/2 --keep-final-rewards':
        (0, '670fcf35424c1100eae3f1de7e1a7856eca7968c773708636c44c59e74bea8e4'),
    'discounted M1 --lambda 1/2 --keep-final-rewards --json':
        (0, '115d1d4404037508a9c9a7d9fbc288b86fff2e4114b3d5d786e368be60e752ad'),
    'check-properties M1 --json':
        (0, '1f20eda3ab375a1ea4f484b425b02e28109447f91421c9604073afa18dfdcaca'),
    'simulate M1 --json':
        (0, 'e4d918fa44405efbc5bef3345c38f26cdb059cc0b98ce6534f14897f162c5173'),
    'validate M1x':
        (0, '034d3e4a9c5a86f061aa948fce9978ca82e688d964c7d75ab10b182fac65e57f'),
    'validate M1x --json':
        (0, '06317f1178669ddabe457761bae4233c3a6fee831e945a03531fb16aef1c111e'),
    'brg M1x':
        (0, 'b9d923edc9c2d3789d0a0b5e71e20e99f8b582244527d4de9ce1331753a915e0'),
    'brg M1x --json':
        (0, 'b6405827035b37d09cf05edc7e73cdb69b2cf96c443aff797cb950cac4cf085f'),
    'solve M1x':
        (0, 'f7011d17562322d3d27ef24fefd63d31e5d435e884c6c354c5bbb6901371b958'),
    'solve M1x --json':
        (0, 'db2035b8e161c52c6b835b0d8ce54cd7d52f113762d32c0de18e515519881f66'),
    'solve M1x --exact':
        (0, 'fdd1d42cf2c16b71ba92bf92a6ce84610721e9a80655ead4437f1648438875c5'),
    'solve M1x --exact --json':
        (0, '6d78f206eeaaa6f21e6c102fde94f882fafe6f425dbe02325ed1a3a2a926e872'),
    'discounted M1x --lambda 1/2':
        (0, 'ea8fef8a98c0c8308989430c4c9c7474665ec74bffbafbaf6b98d571273c0281'),
    'discounted M1x --lambda 1/2 --json':
        (0, '06d0381b0e5ddcd6756b1bcfdb900323cd970559c1fe67b0d28502c4eafdc540'),
    'discounted M1x --lambda 1/2 --keep-final-rewards':
        (0, '7159d04815ee49db808744dbb4ed6c69a9a1bdab810edd8ffa9b19a79f1aca70'),
    'discounted M1x --lambda 1/2 --keep-final-rewards --json':
        (0, '28c9ed9a8e562d374df8e6ad25b4f49968f08ee1968d322fa12c3bad3ea7f5b0'),
    'check-properties M1x --json':
        (0, 'bb86095f42ba03e921e160a021c9b585d55fdacf477dba0297f59eeae23aa9d3'),
    'simulate M1x --json':
        (0, 'd649b1f771f18440dd877121f0ea530203d1b218d36995b2b8ba163292a5c983'),
    'validate M2':
        (0, 'a92003dbeb786baca63044f8f0ab987714a72b4f84b3b64215f373c6f97e8f7b'),
    'validate M2 --json':
        (0, '99204af3803128034dd2cbcaa4d8e7ce76a71d0227e8d54f7c39b9db909e1c18'),
    'brg M2':
        (0, '9bdb9ba83aad3155a6e59a13af4604713f6950ebedd32f2f7b88004bb5a5f8eb'),
    'brg M2 --json':
        (0, '86e44056ed3ad32e68e7eca4d87352614e558940ccf7a6508fe16e61f8097a84'),
    'solve M2':
        (0, 'bd174425e2db4ff2184fed7ce218a90ff599110d7c5d0331b67ad914901053b3'),
    'solve M2 --json':
        (0, 'fa1ea670547c830afbb06609b864dd9dc165aa8abaa612e92b0d86f541421dbd'),
    'solve M2 --exact':
        (0, '23216ca9fcd8524422bcc96965fa616e06e1183062efa534a10b617cf7fa3433'),
    'solve M2 --exact --json':
        (0, '8ad75cfd9fc82b32e2b2698f33e1e4e3983e5893d196c77259f7da8482838e3b'),
    'discounted M2 --lambda 1/2':
        (0, 'd3024bafed37012ed5f6d12d8ced5865d9e41e861404b67d5cd4796ae65e6ebe'),
    'discounted M2 --lambda 1/2 --json':
        (0, '35ea07bd56d2111132f99fbcfc88773da1dfea7ca3fe06532888ca2e7d289cd4'),
    'discounted M2 --lambda 1/2 --keep-final-rewards':
        (0, '78d5a1947027ba85b7cd38192337bce30f843028063b30ed2c63917066f08e39'),
    'discounted M2 --lambda 1/2 --keep-final-rewards --json':
        (0, '946769396f7de3e578cd31e8e792417b7ee633103764e4d4451a65e76462d2ab'),
    'check-properties M2 --json':
        (0, '8055367317f9c08f4a6125e0a0c4a4cf681dee1222c02e3b1c30c93085138e31'),
    'simulate M2 --json':
        (0, '322b839fe5023d6afc5c7149687c53edee38f6a183eed7ecd14ad97bc550f8eb'),
    'validate M2-unreachable':
        (0, '6376535f29181ee23d145e9d146c346089da867c7a01de9e950f55f37ed00de3'),
    'validate M2-unreachable --json':
        (0, '59b62d29b8afe0fedc4872944601c62282f99c26833a3da3ad6ed73c1b55a837'),
    'brg M2-unreachable':
        (0, '7071976b87e43f51ea05e29d846470ff36c97688edf342947b33d170d508f3bf'),
    'brg M2-unreachable --json':
        (0, '7da3fc1be434bfd65149a5b524edc41d4b7219fc3ccbfdad6affe4efcdd43fb2'),
    'solve M2-unreachable':
        (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'solve M2-unreachable --json':
        (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'solve M2-unreachable --exact':
        (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'solve M2-unreachable --exact --json':
        (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'discounted M2-unreachable --lambda 1/2':
        (0, 'c392542e7ff1911f4dbf396109b83ac566909a15bed0ea0de29429477011bffb'),
    'discounted M2-unreachable --lambda 1/2 --json':
        (0, '911fd5da2dbc8bae21b197e067711183ad23132ed4fb953d813a9a91925beebf'),
    'discounted M2-unreachable --lambda 1/2 --keep-final-rewards':
        (0, 'c392542e7ff1911f4dbf396109b83ac566909a15bed0ea0de29429477011bffb'),
    'discounted M2-unreachable --lambda 1/2 --keep-final-rewards --json':
        (0, '707b29eaf434f5228cb1adb69a5dd4bf0d880166891e2648b0afdc9df333d264'),
    'check-properties M2-unreachable --json':
        (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'simulate M2-unreachable --json':
        (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'validate M3':
        (0, '8359cc0834a165b19f41d00250512ec88fb28345c59e83454d6fe283a1654a94'),
    'validate M3 --json':
        (0, '85e2cf6a05578bfaca4c1e86d755aa067fd8c166e05888a21fa0024aacf14c3f'),
    'brg M3':
        (0, '3bc2887f0f30ecf8c1824437ed34b68ce31563b5e755212d274f29107c1b7297'),
    'brg M3 --json':
        (0, '45cfbb373e8df0d862e042ae0161b5641ceb32986d05fe78d1326379ad38b036'),
    'solve M3':
        (0, '1b339b80f95e903a146c1a2d5ec8f9ed669e7b02a4cf6cdf7ce0d3eed18546c7'),
    'solve M3 --json':
        (0, '1d384d951fadb627b5e2bcd8d676c192850d2ebae761bc41bef576ee4da16896'),
    'solve M3 --exact':
        (0, '60a2112b4bea80e4f353500f53d4a4392fe63fb01111dc282329ce375f2ff117'),
    'solve M3 --exact --json':
        (0, '09c47bec897ea02bfa6aa0bb322eff35ab69bf52804cb7f5b31dff57c2ab7d88'),
    'discounted M3 --lambda 1/2':
        (0, '57d25530894413fdde4e45e2d1d74f9204ec39dd1ea562e54076f0fbfb24748f'),
    'discounted M3 --lambda 1/2 --json':
        (0, '8ab6b5fdbb7d705951c7f93d4bb9fdb746ff2ce45dc7f15dac05d672c6a9a6ef'),
    'discounted M3 --lambda 1/2 --keep-final-rewards':
        (0, '5eb5cd04bef6d8ff46df3d2668782f107409ead645b451298612179a6c7e331d'),
    'discounted M3 --lambda 1/2 --keep-final-rewards --json':
        (0, '4a2de9cc5946bf7c2ae262ed46df35c981fb10ab846f65057d3df9601035e516'),
    'check-properties M3 --json':
        (0, 'c0e3937c97bfeb8f42d22db472e9e02dea108c72837a0ec0e94a595f9112d2b3'),
    'simulate M3 --json':
        (0, '88e968395cfc8d5ebc1373c8bf3840687fe49843df2b286d006267093c2f3c54'),
    'check-properties chain2_2_2 --json':
        (0, '96aa61d9c913f676c59b00ca0063f76650eb47a4b43059888008cce93aaab24d'),
    'check-properties chain1_4_3 --json':
        (1, '3f269c663269cf256f7eccd385222e838ea230c733223af42131242385d88b74'),
    'check-properties back2_2_2 --json':
        (0, '20ac1e49c3eafffba29baff1ddfab8a301960342a8bb5e13fe77c8523b3763c9'),
    'simulate chain2_2_2 --json':
        (0, '747bf77cc13cd08072e72e3322744e1901e0d79fefd98204ba10d366ff54f5d5'),
    'brg chain2_4_3 --json':
        (0, '5b627907fa309013cbe9565bbfc363aed0312519ded25d21a3a37c8215d7c47c'),
    'solve chain2_4_3 --json':
        (0, '2012be86f3d654eb5e097464229db8cb4556fc955020350095d114e25a5eba6f'),
    'brg chain3_2_2 --json':
        (0, '60919201f375a6ebcb2bc65a88d12a3c2d139e45574126a7749a3ceb53277d06'),
    'solve chain3_2_2 --json':
        (0, '1ed2495774c989c858fe3036305c350f672ea8d6536f235506d567a30bcef7fc'),
}

# retry chains written by `oracles.chain_document`, keyed by model name; the
# bundled models have one edge per location, these have two.  back2_2_2 is
# the one whose retries also go back to l0, so some rooted queries meet a
# cycle and are solved by `explore` with a table of solved states
CHAINS = {
    "back2_2_2": (2, 2, 2, ("min", "min"), (Fraction(1, 2), Fraction(1, 2)), True),
    "chain1_4_3": (4, 3, 1, ("max", "min", "max", "min"),
                   (Fraction(1, 2), Fraction(1, 3), Fraction(3, 4), Fraction(2, 3))),
    "chain2_2_2": (2, 2, 2, ("min", "max"), (Fraction(1, 2), Fraction(1, 3))),
    "chain2_4_3": (4, 3, 2, ("min", "max", "max", "min"),
                   (Fraction(1, 2), Fraction(1, 3), Fraction(3, 4), Fraction(2, 3))),
    "chain3_2_2": (2, 2, 3, ("max", "min"), (Fraction(1, 3), Fraction(3, 4))),
}


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_golden_output(capsys, tmp_path, key):
    sub, model, *rest = key.split()
    path = Path("models/%s.model" % model)
    if model in CHAINS:
        path = tmp_path / ("%s.model" % model)
        path.write_text(chain_document(*CHAINS[model]))
    code, out, _ = run(capsys, sub, str(path), *rest)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN[key]


# sha256 of stdout and of the written file for the commands that write one:
# `brg --dot` and the `--out` document of `solve` and `discounted`; FILE is
# a relative name in the test's directory, so the `dot` key stays stable
FILE_GOLDEN = {
    'brg M1 --json --dot FILE':
        (0, 'c13ec3d507049bdf51e8d9c2054c5c471635c9650e1b55f5402829dfd83de050',
         'bb97e4d50f91d26f655ce2e8c9014e4b43117b270a16e9d1bb0fc38b25975df3'),
    'brg M3 --dot FILE':
        (0, '30dd3a0ae648ba26b19eaa2a1f829fcc11fa632ce98b2cac79598389601ca454',
         '5d39bf5052663cf846513ad3bc456eee40c56d77788376d01e6e073b59aa5eb2'),
    'brg chain2_4_3 --json --dot FILE':
        (0, '835c669a19c9ad6e3e8ead052ffc4c54206e285525b72ff1cf40cd12e4c67e64',
         '700370d378f8dfcc23b6ab7e0e03d4dcf657ce27f6b7487621a381e08022c894'),
    'solve M1 --exact --out FILE':
        (0, '6195021e3450e7fd61a96ea2579e947c2c8f5003838f7183b89c014e6702d586',
         'd00a18b206228b442d7047c0ef1ef7eaca8230919f0b47f38c3f201ad5bfb56d'),
    'solve M2 --out FILE':
        (0, 'bd174425e2db4ff2184fed7ce218a90ff599110d7c5d0331b67ad914901053b3',
         'fa1ea670547c830afbb06609b864dd9dc165aa8abaa612e92b0d86f541421dbd'),
    'solve M3 --exact --out FILE':
        (0, '60a2112b4bea80e4f353500f53d4a4392fe63fb01111dc282329ce375f2ff117',
         '09c47bec897ea02bfa6aa0bb322eff35ab69bf52804cb7f5b31dff57c2ab7d88'),
    'solve chain2_4_3 --out FILE':
        (0, 'f552d47cd5a138793e34377ecef2569b34da9922c0187f2408c341422d0b7e65',
         '2012be86f3d654eb5e097464229db8cb4556fc955020350095d114e25a5eba6f'),
    'solve chain3_2_2 --exact --out FILE':
        (0, '24e011bcb3ca42f99d7b8b3966ac7576a6c56b4fa9420dd110cf0b336b39f1ea',
         'd95e0504f197db2d2eb7e56e4e859756c0ac5de3505e3bc16cc12ab3b18be301'),
    'discounted M1 --lambda 1/2 --out FILE':
        (0, '69485efefe5830c8cbcd0c1714baadcb8788ef1508a85553bd5d93081bbc29b0',
         '02e77bbd2770c02c3a4216eed1845b012631a09b427295d8b848237ac67cb440'),
    'discounted M2 --lambda 1/2 --keep-final-rewards --out FILE':
        (0, '78d5a1947027ba85b7cd38192337bce30f843028063b30ed2c63917066f08e39',
         '946769396f7de3e578cd31e8e792417b7ee633103764e4d4451a65e76462d2ab'),
    'discounted M3 --lambda 1/3 --out FILE':
        (0, 'd31082af3765cc31fd199613fb766ca84288d933cd2b632c03cf9cf33b1b2d78',
         '2fb29d0c7aa968849ad0a6732a87d41cd3df9c6c4116f529f307522f9c3c96f2'),
    'discounted chain2_2_2 --lambda 9/10 --out FILE':
        (0, '037e50b3c9ab272504c2c3b20bc23816e6f049d95b7b1e82fef8a9c89ca64dbe',
         'a0b061d7d44bccdc34dbecadde4d2a156407d9fd9c2bef53e9caae4ace1ece20'),
}


@pytest.mark.parametrize("key", sorted(FILE_GOLDEN))
def test_golden_file_output(capsys, tmp_path, monkeypatch, key):
    sub, model, *rest = key.split()
    path = Path("models/%s.model" % model).resolve()
    if model in CHAINS:
        path = tmp_path / ("%s.model" % model)
        path.write_text(chain_document(*CHAINS[model]))
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, sub, str(path), *rest)
    written = hashlib.sha256((tmp_path / "FILE").read_bytes()).hexdigest()
    assert (code, hashlib.sha256(out.encode()).hexdigest(), written) == FILE_GOLDEN[key]
