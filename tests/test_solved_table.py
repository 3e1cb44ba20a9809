"""The arena's table of solved graph states behind `properties.value_at`.

Every value the table gives is checked against `oracles.rooted_value_fresh`,
which explores and solves a whole graph from the queried node alone.  The
points are the ones `check-properties` and acceptance criteria 05-07 query.
"""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import pytest

import oracles
from bundled import BUNDLED, MODELS, bundled
from timedgames import cli, properties
from timedgames import solver as sv
from timedgames.brg import BrgState, explore
from timedgames.model import ModelError, load_model, parse_model
from timedgames.properties import check_quasi_simple, grid_one_step_value, sample_states
from timedgames.regions import ClockValuation, region_of
from timedgames.solver import TargetUnreachableError

ALL_MODELS = BUNDLED + ("M2-unreachable",)
CHAIN_OWNERS = [("min", "max"), ("max", "min")]


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


def assert_table_matches_oracle(arena):
    for s, value in arena._solved.items():
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
    table = arenas[0]._solved
    assert any(s.region != region_of(s.valuation) for s in table)
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
    """Summed over all rooted explores, the states not taken from the table
    are exactly the table's entries."""
    graphs = []
    real = properties.explore

    def recording(arena, *args, **kwargs):
        graphs.append(real(arena, *args, **kwargs))
        return graphs[-1]

    monkeypatch.setattr(properties, "explore", recording)
    arenas = record_arenas(monkeypatch)
    assert check_properties(tmp_path, chain(("min", "max"))) == 0
    capsys.readouterr()
    table = arenas[0]._solved
    assert len(graphs) > 100 and any(g.fixed for g in graphs)
    assert sum(g.n - len(g.fixed) for g in graphs) == len(table)
    for g in graphs:
        for i in g.fixed:
            assert g.actions[i] == g.rewards[i] == g.dists[i] == []


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


@pytest.mark.parametrize("sub, module", [("check-properties", properties),
                                         ("simulate", cli)])
def test_uncertified_solve_is_refused(monkeypatch, capsys, sub, module):
    """An uncertified value is neither reported nor tabled: exit 4, one error
    line, no traceback."""
    uncertified(monkeypatch, module)
    arenas = record_arenas(monkeypatch)
    code = cli.main([sub, "--json", str(MODELS / "M3.model")])
    out, err = capsys.readouterr()
    assert code == 4 and out == ""
    assert err.startswith("error: ") and "not certified" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not arenas[0]._solved


def test_rows_are_checked_once_per_solve(monkeypatch):
    """The stochasticity scan runs once per solve, not after every
    evaluation (a warm start cut after one sweep forces several), and
    checks each distribution object that `explore` shares once, not once
    per action that uses it."""
    calls = []
    real = sv._stochastic

    def counted(dist):
        calls.append(dist)
        return real(dist)

    monkeypatch.setattr(sv, "_stochastic", counted)
    g = explore(parse_model(chain(("min", "max"))))
    res = sv.solve_exact(g, sv.SolveConfig(tolerance=1e9))
    assert res.certified and res.exact_evaluations > 1
    distinct = {id(dist) for row in g.dists for dist in row}
    assert sorted(map(id, calls)) == sorted(distinct)
    assert len(calls) == 46 < sum(len(row) for row in g.dists) == 304


def test_fixed_states_are_absorbed_at_their_value():
    """A graph cut at a known state solves the rest with that state's value
    as a constant, in the float warm start, the evaluation and the
    certificate alike."""
    arena = bundled("M3")
    full = explore(arena)
    values = sv.solve_exact(full).values
    cut = {full.states[i]: values[i] for i in range(1, full.n)}
    g = explore(arena, known=cut)
    assert g.n < full.n and set(g.fixed) == set(range(1, g.n))
    assert sv.value_iterate(g, sv.SolveConfig())[0][1:] == [float(g.fixed[i])
                                                            for i in range(1, g.n)]
    res = sv.solve_exact(g)
    assert res.certified and res.values[0] == values[0] == Fraction(3, 2)
    assert res.choice[1:] == [None] * (g.n - 1)
    root = BrgState(*arena.initial, region_of(arena.initial.valuation))
    assert explore(arena, root=root, known={root: Fraction(7)}).fixed == {0: 7}
