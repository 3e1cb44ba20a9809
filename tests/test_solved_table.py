"""The arena's table of solved graph states behind `properties.value_at`.

Every value the table gives is checked against `oracles.rooted_value_fresh`,
which explores and solves a whole graph from the queried node alone.  The
points are the ones `check-properties` and acceptance criteria 05-07 query.
"""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import networkx as nx
import pytest

import oracles
from bundled import BUNDLED, FINAL_BACK, MODELS, STUCK, bundled
from test_cli import CHAINS
from timedgames import cli, properties
from timedgames import solver as sv
from timedgames.brg import BrgState, explore, root_key, rooted_values
from timedgames.model import ModelError, load_model, parse_model
from timedgames.properties import check_quasi_simple, grid_one_step_value, sample_states
from timedgames.regions import ClockValuation, region_of, scaled_point, valuation_satisfies
from timedgames.solver import TargetUnreachableError

ALL_MODELS = BUNDLED + ("M2-unreachable",)
CHAIN_OWNERS = [("min", "max"), ("max", "min")]
# the retry chain whose retries also go back to l0: its cyclic rooted graphs
# send queries to `explore` with a non-empty table of solved states
BACK = oracles.chain_document(*CHAINS["back2_2_2"])


def chain(owners):
    return oracles.chain_document(2, 2, 2, owners, (Fraction(1, 2), Fraction(1, 3)))


def record_queries(monkeypatch):
    """Record every `value_at` query as ((arena, location, valuation),
    value or exception type), in call order."""
    calls = []
    real = properties.value_at

    def recording(arena, location, valuation):
        key = (arena, location, valuation)
        try:
            value = real(arena, location, valuation)
        except Exception as exc:
            calls.append((key, type(exc)))
            raise
        calls.append((key, value))
        return value

    monkeypatch.setattr(properties, "value_at", recording)
    monkeypatch.setattr(cli, "value_at", recording)
    return calls


def record_arenas(monkeypatch):
    """The arenas `cli` loads, in load order."""
    arenas = []
    real = cli.load_model

    def loading(path):
        arenas.append(real(path))
        return arenas[-1]

    monkeypatch.setattr(cli, "load_model", loading)
    return arenas


def fresh_outcome(arena, location, valuation):
    try:
        return oracles.rooted_value_fresh(arena, location, valuation)
    except Exception as exc:
        return type(exc)


def assert_match_oracle(calls):
    seen = {}
    for (arena, location, valuation), got in calls:
        key = (id(arena), location, valuation)
        if key not in seen:
            seen[key] = fresh_outcome(arena, location, valuation)
        assert got == seen[key], (arena.name, location, valuation.values)
    return len(seen)


def table_states(arena):
    """The table's entries as (state, value), each key checked to be a
    `BrgState` of the arena's clocks in lowest terms."""
    out = []
    for s, value in arena._solved.items():
        assert isinstance(s, BrgState) and s.region.ctx == arena.ctx
        assert s == BrgState(s.location, *scaled_point(s.valuation), s.region)
        out.append((s, value))
    return out


def assert_table_matches_oracle(arena, sample=None):
    """Every entry, or a seeded sample of `sample` entries, equals a fresh
    solve rooted at its node."""
    entries = table_states(arena)
    if sample is not None and sample < len(entries):
        entries = random.Random(4).sample(entries, sample)
    for s, value in entries:
        assert value == oracles.rooted_value_fresh(
            arena, s.location, s.valuation, s.region), s.label()


def check_properties(tmp_path, text, *options):
    path = tmp_path / "chain.model"
    path.write_text(text)
    return cli.main(["check-properties", "--json", str(path), *options])


@pytest.mark.parametrize("name", ALL_MODELS)
def test_check_properties_values_match_fresh_solves(monkeypatch, capsys, name):
    calls = record_queries(monkeypatch)
    arenas = record_arenas(monkeypatch)
    code = cli.main(["check-properties", "--json", str(MODELS / ("%s.model" % name))])
    capsys.readouterr()
    assert code == (3 if name == "M2-unreachable" else 0)
    assert calls and assert_match_oracle(calls) >= 1
    assert_table_matches_oracle(arenas[0])


@pytest.mark.parametrize("owners", CHAIN_OWNERS, ids="-".join)
def test_check_properties_chain_values_match_fresh_solves(monkeypatch, capsys,
                                                          tmp_path, owners):
    calls = record_queries(monkeypatch)
    assert check_properties(tmp_path, chain(owners)) == 0
    capsys.readouterr()
    assert assert_match_oracle(calls) > 100


@pytest.mark.parametrize("owners", CHAIN_OWNERS, ids="-".join)
def test_every_table_entry_matches_fresh_solve(monkeypatch, capsys, tmp_path, owners):
    """Off-diagonal nodes included: each entry equals the value of a graph
    rooted at exactly that node."""
    arenas = record_arenas(monkeypatch)
    assert check_properties(tmp_path, chain(owners), "--pairs", "6", "--states", "3") == 0
    capsys.readouterr()
    assert any(s.region != region_of(s.valuation) for s, _ in table_states(arenas[0]))
    assert_table_matches_oracle(arenas[0])


def test_acceptance_points_match_fresh_solves(monkeypatch):
    """The points of acceptance criteria 05 (grid consistency), 06 (quasi-
    simpleness on every reachable region) and 07 (every graph state of M1
    and M1x)."""
    calls = record_queries(monkeypatch)
    for name in BUNDLED:
        arena = bundled(name)
        for state in sample_states(arena, 5, seed=101):
            properties.value_at(arena, state.location, state.valuation)
            for denominator in (64, 256):
                grid_one_step_value(arena, state, denominator=denominator)
        arena = bundled(name)
        seen = {}
        for s in explore(arena).states:
            seen.setdefault((s.location, s.region.key()), s)
        for (loc, _), s in seen.items():
            check_quasi_simple(arena, loc, s.region, pairs=200, seed=13)
    for name in ("M1", "M1x"):
        arena = bundled(name)
        for s in explore(arena).states:
            properties.value_at(arena, s.location, s.valuation)
    assert assert_match_oracle(calls) > 500


def query_points(monkeypatch, capsys, tmp_path):
    """The distinct points `check-properties` queries on a chain."""
    calls = record_queries(monkeypatch)
    assert check_properties(tmp_path, chain(("min", "max")),
                            "--pairs", "10", "--states", "4") == 0
    capsys.readouterr()
    monkeypatch.undo()
    return list(dict.fromkeys((loc, v) for (_, loc, v), _ in calls))


def test_query_order_changes_neither_values_nor_table(monkeypatch, capsys, tmp_path):
    points = query_points(monkeypatch, capsys, tmp_path)
    tables, answers = [], []
    for seed in (1, 2):
        order = list(points)
        random.Random(seed).shuffle(order)
        arena = parse_model(chain(("min", "max")))
        answers.append({p: properties.value_at(arena, *p) for p in order})
        tables.append(arena._solved)
    assert answers[0] == answers[1]
    assert tables[0] == tables[1] and len(tables[0]) > len(points)


def test_no_state_is_expanded_twice_per_arena(monkeypatch, capsys, tmp_path):
    """Summed over all rooted queries, the states the walks value and the
    states the fallback explores do not take from the table are exactly
    the table's entries.  On the (2, 2, 2) chain every query is walked; on
    a 1-clock chain queried from the final location back, each live
    location's retry loop sends its first query to an explore that takes
    the states solved before it from the table; on the back chain
    `check-properties` sends some queries to such an explore."""
    walked, graphs = [], []
    real_walk, real_explore = properties.rooted_values, properties.explore

    def walking(arena, *args, **kwargs):
        solved = real_walk(arena, *args, **kwargs)
        if solved is not None:
            walked.append(solved)
        return solved

    def exploring(arena, *args, **kwargs):
        graphs.append(real_explore(arena, *args, **kwargs))
        return graphs[-1]

    monkeypatch.setattr(properties, "rooted_values", walking)
    monkeypatch.setattr(properties, "explore", exploring)
    arenas = record_arenas(monkeypatch)
    assert check_properties(tmp_path, chain(("min", "max"))) == 0
    capsys.readouterr()
    assert len(walked) > 100 and not graphs
    assert sum(map(len, walked)) == len(arenas[0]._solved)

    del walked[:]
    arena = parse_model(oracles.chain_document(3, 2, 1, ("min", "max", "min"), PROBS[:3]))
    for loc in reversed(arena.locations):
        for j in range(9):
            v = ClockValuation(arena.ctx, (Fraction(j, 4),))
            if valuation_satisfies(v, loc.invariant):
                properties.value_at(arena, loc.name, v)
    assert walked and graphs and all(g.fixed for g in graphs)
    assert (sum(map(len, walked)) + sum(g.n - len(g.fixed) for g in graphs)
            == len(arena._solved))
    for g in graphs:
        for i in g.fixed:
            assert g.actions[i] == g.rewards[i] == g.dists[i] == []

    del walked[:], graphs[:], arenas[:]
    assert check_properties(tmp_path, BACK) == 0
    capsys.readouterr()
    assert walked and any(g.fixed for g in graphs)
    assert (sum(map(len, walked)) + sum(g.n - len(g.fixed) for g in graphs)
            == len(arenas[0]._solved))


def test_failed_query_leaves_table_unchanged():
    arena = load_model(str(MODELS / "M2-unreachable.model"))
    one = ClockValuation(arena.ctx, (Fraction(1),))
    assert properties.value_at(arena, "lf", one) == 0
    before = dict(arena._solved)
    assert before
    with pytest.raises(TargetUnreachableError):
        properties.value_at(arena, "l0", ClockValuation(arena.ctx, (Fraction(1, 2),)))
    with pytest.raises(ModelError):
        properties.value_at(arena, "l0", ClockValuation(arena.ctx, (Fraction(3, 2),)))
    assert arena._solved == before


def uncertified(monkeypatch, module):
    real = module.solve_exact

    def solve(g, *args, **kwargs):
        return dataclasses.replace(real(g, *args, **kwargs), certified=False)

    monkeypatch.setattr(module, "solve_exact", solve)


# check-properties solves with `solve_exact` only a rooted graph with a
# cycle among its live states: on M2 the first query, rooted at l0 with c = 0
@pytest.mark.parametrize("sub, module", [("check-properties", properties),
                                         ("simulate", cli)])
def test_uncertified_solve_is_refused(monkeypatch, capsys, sub, module):
    """An uncertified value is neither reported nor tabled: exit 4, one error
    line, no traceback."""
    uncertified(monkeypatch, module)
    arenas = record_arenas(monkeypatch)
    model = "M2" if sub == "check-properties" else "M3"
    code = cli.main([sub, "--json", str(MODELS / ("%s.model" % model))])
    out, err = capsys.readouterr()
    assert code == 4 and out == ""
    assert err.startswith("error: ") and "not certified" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not arenas[0]._solved


def test_rows_are_checked_once_per_solve(monkeypatch):
    """The stochasticity scan runs once per solve, not after every
    evaluation (a warm start cut after one sweep forces several), and
    checks each distribution object that `explore` shares once, in its ints
    over the common denominator, not once per action that uses it."""
    calls = []
    real = sv._stochastic

    def counted(dist, scale):
        calls.append((dist, scale))
        return real(dist, scale)

    monkeypatch.setattr(sv, "_stochastic", counted)
    g = explore(parse_model(chain(("min", "max"))))
    res = sv.solve_exact(g, sv.SolveConfig(tolerance=1e9))
    assert res.certified and res.exact_evaluations > 1
    distinct = {id(dist): dist for row in g.dists for dist in row}
    (scale,) = {q for _, q in calls}
    assert len({id(dist) for dist, _ in calls}) == len(calls)
    assert sorted(dist for dist, _ in calls) == sorted(
        tuple((t, int(p * scale)) for t, p in dist) for dist in distinct.values())
    assert len(calls) == 46 < sum(len(row) for row in g.dists) == 304


def test_fixed_states_are_absorbed_at_their_value():
    """A graph cut at a known state solves the rest with that state's value
    as a constant, in the float warm start, the evaluation and the
    certificate alike."""
    arena = bundled("M3")
    full = explore(arena)
    values = sv.solve_exact(full).values
    cut = dict(zip(full.states[1:], values[1:]))
    g = explore(arena, known=cut)
    assert g.n < full.n and set(g.fixed) == set(range(1, g.n))
    assert sv.value_iterate(g, sv.SolveConfig())[0][1:] == [float(g.fixed[i])
                                                            for i in range(1, g.n)]
    res = sv.solve_exact(g)
    assert res.certified and res.values[0] == values[0] == Fraction(3, 2)
    assert res.choice[1:] == [None] * (g.n - 1)
    root = root_key(arena, *arena.initial)
    assert explore(arena, root=root, known={root: Fraction(7)}).fixed == {0: 7}


# ------------------------------------------------- sinks-first rooted solve

PROBS = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 4), Fraction(3, 4))


def seeded_chains():
    """Retry chains (2, 2, 2) and (3, 2, 2), each with alternating owners
    starting with either player and seeded advance probabilities."""
    rng = random.Random(17)
    docs = {}
    for n in (2, 3):
        for first, second in CHAIN_OWNERS:
            owners = [(first, second)[i % 2] for i in range(n)]
            probs = [rng.choice(PROBS) for _ in range(n)]
            docs["chain(%d,2,2) %s first" % (n, first)] = oracles.chain_document(
                n, 2, 2, owners, probs)
    return docs


def answer(fn, arena, location, valuation):
    """The value, or the type and text of what was raised."""
    try:
        return fn(arena, location, valuation)
    except Exception as exc:
        return type(exc), str(exc)


def cli_points(monkeypatch, capsys, path, *options):
    """The points `check-properties` queries on the model at `path`, in
    call order, repeats included; the recording is undone afterwards."""
    calls = record_queries(monkeypatch)
    cli.main(["check-properties", "--json", str(path), *options])
    capsys.readouterr()
    monkeypatch.undo()
    return [(location, valuation) for (_, location, valuation), _ in calls]


def assert_matches_both_oracles(load, points, sample=None):
    """Every query answers as the earlier `value_at` (`solve_exact` on every
    rooted graph) does, with the same error where it raises, and leaves a
    table of the same size after each query (the same table after one that
    raises) and the same table at the end; every value, and every table
    entry or a seeded sample of `sample` of them, equals a fresh solve
    rooted at that node."""
    fast, slow = load(), load()
    fresh = {}
    for location, valuation in points:
        got = answer(properties.value_at, fast, location, valuation)
        assert got == answer(oracles.value_at_solve_exact, slow, location, valuation), (
            location, valuation.values)
        assert len(fast._solved) == len(slow._solved)
        if isinstance(got, tuple):
            assert fast._solved == slow._solved
        if (location, valuation) not in fresh:
            fresh[location, valuation] = fresh_outcome(fast, location, valuation)
        expected = fresh[location, valuation]
        assert got == expected or got[0] is expected, (location, valuation.values)
    assert fast._solved == slow._solved
    assert_table_matches_oracle(fast, sample)
    return fast


@pytest.mark.parametrize("name", ALL_MODELS)
def test_value_at_matches_oracles_on_bundled_models(monkeypatch, capsys, name):
    path = MODELS / ("%s.model" % name)
    arena = load_model(str(path))
    points = cli_points(monkeypatch, capsys, path)
    points += [(s.location, s.valuation) for s in sample_states(arena, 12, seed=5)]
    # every location, final ones and points outside the invariant included
    points += [(loc.name, ClockValuation(arena.ctx, (Fraction(x, 2),)))
               for loc in arena.locations for x in range(4)]
    fast = assert_matches_both_oracles(lambda: load_model(str(path)), points)
    if name == "M2-unreachable":
        # only queries rooted at the final location have values
        assert {s.location for s, _ in table_states(fast)} == {"lf"}


def test_value_at_matches_oracles_on_seeded_chains(monkeypatch, capsys, tmp_path):
    for label, doc in seeded_chains().items():
        path = tmp_path / "chain.model"
        path.write_text(doc)
        points = cli_points(monkeypatch, capsys, path, "--pairs", "3", "--states", "3")
        assert len(points) > 200, label
        # thousands of entries: the oracle table covers them all, and a
        # sample is solved afresh
        assert_matches_both_oracles(lambda: parse_model(doc), points, sample=500)


def test_value_at_solves_exactly_only_cyclic_graphs(monkeypatch, capsys, tmp_path):
    """`solve_exact` runs on no rooted graph of the (2, 2, 2) chains, whose
    live states are acyclic below every root, and on M2's graph rooted at
    l0 with c = 0, whose retry loop is a self-loop."""
    solved = []
    real = properties.solve_exact

    def counted(g, *args, **kwargs):
        solved.append(g)
        return real(g, *args, **kwargs)

    monkeypatch.setattr(properties, "solve_exact", counted)
    for owners in CHAIN_OWNERS:
        assert check_properties(tmp_path, chain(owners)) == 0
    assert solved == []
    assert cli.main(["check-properties", "--json", str(MODELS / "M2.model")]) == 0
    capsys.readouterr()
    assert solved and all(oracles.acyclic_values_own_pass(g) is None for g in solved)


@pytest.mark.parametrize("retry, kinds", [("l1", [ValueError] * 3),
                                          ("l0", [ValueError, Fraction, Fraction])])
def test_live_state_without_action_raises_as_solve_exact_does(retry, kinds):
    """l1 has no edge.  Reached in an acyclic graph, the sinks-first pass
    raises the `ValueError` that `solve_exact` raises; with l0 retrying on
    itself instead, its graph is cyclic and `solve_exact` decides."""
    doc = STUCK % retry
    got = []
    for location, x in (("l1", Fraction(1, 2)), ("l0", Fraction(0)), ("l0", Fraction(1))):
        fast, slow = parse_model(doc), parse_model(doc)
        v = ClockValuation(fast.ctx, (x,))
        got.append(answer(properties.value_at, fast, location, v))
        assert got[-1] == answer(oracles.value_at_solve_exact, slow, location, v)
        assert fast._solved == slow._solved
    assert [g[0] if isinstance(g, tuple) else type(g) for g in got] == kinds


def test_pass_matches_own_pass_oracle_on_every_rooted_graph(monkeypatch, capsys, tmp_path):
    """On every rooted query `check-properties` makes on the bundled models,
    the (2, 2, 2) and (3, 2, 2) chains and the back chain, the walk gives
    the values that the earlier pass of its own gives on the graph `explore`
    builds for that root and table, or declines the graph as that did."""
    outcomes = []
    real = properties.rooted_values

    def compared(arena, root, known):
        solved = real(arena, root, known)
        g = explore(arena, root=root, known=known)
        values = oracles.acyclic_values_own_pass(g)
        if values is None:
            assert solved is None
        else:
            assert solved == {s: v for i, (s, v) in enumerate(zip(g.states, values))
                              if i not in g.fixed}
        outcomes.append(solved is None)
        return solved

    monkeypatch.setattr(properties, "rooted_values", compared)
    for name in ALL_MODELS:
        cli.main(["check-properties", "--json", str(MODELS / ("%s.model" % name))])
    for doc in (*seeded_chains().values(), BACK):
        path = tmp_path / "chain.model"
        path.write_text(doc)
        assert cli.main(["check-properties", "--json", str(path),
                         "--pairs", "3", "--states", "3"]) == 0
    capsys.readouterr()
    assert outcomes.count(False) > 1000 and outcomes.count(True) > 0


def test_acyclic_values_equal_solve_exact_on_whole_graphs():
    """Walked from the initial state with an empty table, every whole graph
    whose live states are acyclic gets the certified value of each of its
    states, and every graph with a cycle is declined."""
    arenas = {name: bundled(name) for name in BUNDLED}
    for label, doc in seeded_chains().items():
        arenas[label] = parse_model(doc)
    arenas["final back"] = parse_model(FINAL_BACK)
    declined = 0
    for label, arena in arenas.items():
        g = explore(arena)
        live = nx.DiGraph((i, t) for i in range(g.n) if not g.finals[i]
                          for dist in g.dists[i] for t, _ in dist if not g.finals[t])
        solved = rooted_values(arena, g.states[0], {})
        assert (solved is None) == (not nx.is_directed_acyclic_graph(live)), label
        if solved is None:
            declined += 1
            continue
        res = sv.solve_exact(g)
        assert res.certified and solved == dict(zip(g.states, res.values)), label
    assert 0 < declined < len(arenas)


# --------------------------------------------- the walk against the earlier path

def clock_chains():
    """Seeded retry chains with 1, 2 and 3 clocks."""
    rng = random.Random(23)
    docs = {}
    for n, clocks in ((3, 1), (2, 2), (2, 3)):
        owners = [("min", "max")[(i + clocks) % 2] for i in range(n)]
        probs = [rng.choice(PROBS) for _ in range(n)]
        docs["chain(%d,2,%d)" % (n, clocks)] = oracles.chain_document(n, 2, clocks, owners,
                                                                      probs)
    return docs


# Two edges whose branches land outside the invariant of l4: (l2, y), one
# step from l0 by its second action, and (l3, z), two steps by its first.  A
# walk depth first meets (l3, z) first; the query raises what explore,
# breadth first, meets first.
BAD_EDGES = """clocks: [c]
k: 2
locations:
  - {name: l0, owner: min, final: false, invariant: "c <= 2"}
  - {name: l1, owner: min, final: false, invariant: "c <= 2"}
  - {name: l2, owner: min, final: false, invariant: "c <= 2"}
  - {name: l3, owner: min, final: false, invariant: "c <= 2"}
  - {name: l4, owner: min, final: false, invariant: "c <= 0"}
  - {name: lf, owner: min, final: true, invariant: "c <= 2"}
edges:
  - {source: l0, action: a, guard: "c <= 2", branches: [{prob: "1/1", resets: [], target: l1}]}
  - {source: l0, action: b, guard: "c <= 2", branches: [{prob: "1/1", resets: [], target: l2}]}
  - {source: l1, action: a, guard: "c <= 2", branches: [{prob: "1/1", resets: [], target: l3}]}
  - {source: l2, action: y, guard: "c >= 1", branches: [{prob: "1/1", resets: [], target: l4}]}
  - {source: l3, action: z, guard: "c >= 1", branches: [{prob: "1/1", resets: [], target: l4}]}
  - {source: l4, action: w, guard: "c <= 0", branches: [{prob: "1/1", resets: [], target: lf}]}
initial: {location: l0, valuation: {c: "0/1"}}
"""

DIFFERENTIAL = {
    **{name: (MODELS / ("%s.model" % name)).read_text() for name in ALL_MODELS},
    **clock_chains(),
    "stuck": STUCK % "l1",
    "stuck retry": STUCK % "l0",
    "final back": FINAL_BACK,
    "bad edges": BAD_EDGES,
}
REFUSED = ("M2-unreachable", "stuck", "stuck retry", "bad edges")


@pytest.mark.parametrize("name", DIFFERENTIAL)
def test_value_at_matches_the_earlier_path_on_every_query(monkeypatch, capsys, tmp_path,
                                                          name):
    """Every query `check-properties` makes, and every location at points on
    a grid, answers as the earlier `value_at` does, which solved the graph
    `explore` builds below the root with its own sinks-first pass or, where
    that declined, with `solve_exact`: the same value, or the same error
    type and text, and the same table after every query."""
    doc = DIFFERENTIAL[name]
    path = tmp_path / "model.model"
    path.write_text(doc)
    points = cli_points(monkeypatch, capsys, path, "--pairs", "4", "--states", "4")
    arena = parse_model(doc)
    n = len(arena.ctx.clocks)
    points += [(loc.name, ClockValuation(arena.ctx, (Fraction(x, 2),) * n))
               for loc in arena.locations for x in range(5)]
    fast, slow = parse_model(doc), parse_model(doc)
    errors = 0
    for location, valuation in points:
        got = answer(properties.value_at, fast, location, valuation)
        assert got == answer(oracles.value_at_own_pass, slow, location, valuation), (
            location, valuation.values)
        assert fast._solved == slow._solved, (location, valuation.values)
        errors += isinstance(got, tuple)
    assert len(points) > 10 and len(fast._solved) > 1
    assert errors > 0 or name not in REFUSED
