"""Exact game solving against hand-derived values.

Every expected value asserted here was computed by hand from the bundled
game definitions (closed-form recursions on the few-state graphs) before
the solver existed:

  M1   min waits to c = 1:                value 1
  M1x  max waits to c = 2:                value 2
  M2   geometric retry, one unit a round: value 2
  M3   1 + 1/2 * 0 + 1/2 * 1:             value 3/2

Discounted at lambda = 1/2 (final states absorbing with value zero):
  M2: D = lam * (1 + D/2)        => 2*lam / (2 - lam) = 2/3
  M1: D = lam * 1                => 1/2
and with final locations kept acting (pure infinite-horizon payoff):
  M2: 5/6   M1: 3/4   (the final self-loop then contributes lam/(1-lam))
"""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction

import networkx as nx
import pytest

from bundled import STUCK, bundled
from oracles import (
    acyclic_values_own_pass,
    certify_fraction_rows,
    chain_document,
    dense_evaluate,
    end_components_whole,
    evaluate_per_component_system,
    exact_table_per_action,
    fraction_row_table,
    fraction_stochastic,
    one_step,
    row_table_per_action,
    solve_simple_forms,
    solve_two_sweeps,
    sweep_per_state,
)
from timedgames import brg as bg
from timedgames import solver as sv
from timedgames.model import parse_model, sccs
from timedgames.properties import SimpleForm
from timedgames.regions import ClockValuation, region_of, scaled_point

EXPECTED = {
    "M1": Fraction(1),
    "M1x": Fraction(2),
    "M2": Fraction(2),
    "M3": Fraction(3, 2),
}


def graph(name: str) -> bg.Brg:
    return bg.explore(bundled(name))


def rooted(arena, x: str | int, loc: str = "l0") -> bg.Brg:
    v = ClockValuation(arena.ctx, (Fraction(x),))
    return bg.explore(arena, root=bg.BrgState(loc, *scaled_point(v), region_of(v)))


# ------------------------------------------------------------- assumptions

def test_fixtures_pass_almost_sure_reach():
    for name in EXPECTED:
        assert sv.check_almost_sure_reach(graph(name)) == []


def test_unreachable_model_yields_end_component():
    arena = bundled("M2-unreachable")
    g = bg.explore(arena)
    assert sv.check_almost_sure_reach(g) == [[0]]
    with pytest.raises(sv.TargetUnreachableError) as exc:
        sv.solve_exact(g)
    assert exc.value.components == [[0]]


def uniform(*targets: int) -> tuple:
    """The distribution spreading probability evenly over `targets`."""
    return tuple((t, Fraction(1, len(targets))) for t in targets)


def hand_graph(dists, finals, fixed=()) -> bg.Brg:
    """A graph built by hand on M1's arena: state i has one action of
    reward 1 per distribution in dists[i], the objects given; it is final
    where finals[i], and each state of `fixed` has value 0."""
    m1 = graph("M1")
    return bg.Brg(m1.arena, states=[m1.states[0]] * len(dists),
                  actions=[[m1.actions[0][0]] * len(row) for row in dists],
                  rewards=[[Fraction(1)] * len(row) for row in dists],
                  dists=[list(row) for row in dists], owners=["min"] * len(dists),
                  finals=list(finals), fixed=dict.fromkeys(fixed, Fraction(0)))


def random_hand_graph(rng: random.Random) -> bg.Brg:
    """Up to 8 states, some final or fixed, each live one with up to three
    actions of up to three successors."""
    n = rng.randint(1, 8)
    finals = [rng.random() < 0.2 for _ in range(n)]
    fixed = [i for i in range(n) if not finals[i] and rng.random() < 0.1]
    dists = [[] if i in fixed else
             [uniform(*sorted(rng.sample(range(n), rng.randint(1, min(3, n)))))
              for _ in range(rng.randint(1, 3))]
             for i in range(n)]
    return hand_graph(dists, finals, fixed)


# the end components of graphs built by hand: a multi-state end component
# kept by one of two actions, a self-loop singleton, a self-loop that also
# leaves, a cycle whose every action exits, a cycle with an end component
# inside it beside a self-loop it cannot reach, and a fixed successor
HAND_REACH = {
    "multi-state": (([uniform(1)], [uniform(2), uniform(3)], [uniform(0)], [uniform(3)]),
                    (False, False, False, True), (), [[0, 1, 2]]),
    "self-loop": (([uniform(0), uniform(1)], [uniform(1)]), (False, True), (), [[0]]),
    "leaky self-loop": (([uniform(0, 1)], [uniform(1)]), (False, True), (), []),
    "cycle with exits": (([uniform(1, 2)], [uniform(0, 2)], [uniform(2)]),
                         (False, False, True), (), []),
    "end component inside a cycle": (
        ([uniform(1)], [uniform(0), uniform(2)], [uniform(0, 4)], [uniform(3)], [uniform(4)]),
        (False, False, False, False, True), (), [[0, 1], [3]]),
    "fixed successor": (([uniform(1)], []), (False, False), (1,), []),
}


@pytest.mark.parametrize("case", HAND_REACH)
def test_reach_check_on_hand_built_graphs(case):
    dists, finals, fixed, want = HAND_REACH[case]
    g = hand_graph(dists, finals, fixed)
    assert sv.check_almost_sure_reach(g) == end_components_whole(g) == want


def test_reach_check_matches_whole_graph_oracle():
    """The end components found inside the cyclic components of one Tarjan
    pass are those of one search over all live states: on the bundled and
    differential games, on seeded retry chains, on rooted graphs cut at
    solved states and on random graphs built by hand."""
    graphs = differential_graphs()
    assert sv.check_almost_sure_reach(graphs["M2-unreachable"]) == [[0]]
    rng = random.Random(5)
    probs = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 4), Fraction(3, 4))
    for n, k, clocks in ((2, 2, 2), (3, 2, 1), (4, 3, 2), (12, 3, 1)):
        owners = [rng.choice(("min", "max")) for _ in range(n)]
        doc = chain_document(n, k, clocks, owners, [rng.choice(probs) for _ in range(n)])
        graphs["chain(%d,%d,%d)" % (n, k, clocks)] = bg.explore(parse_model(doc))
    m3 = bg.explore(bundled("M3"))
    values = sv.solve_exact(m3).values
    graphs["M3 cut"] = bg.explore(m3.arena, known=dict(zip(m3.states[1:], values[1:])))
    found = 0
    for name, g in graphs.items():
        got = sv.check_almost_sure_reach(g)
        assert got == end_components_whole(g), name
        found += bool(got)
    for seed in range(300):
        g = random_hand_graph(random.Random(seed))
        got = sv.check_almost_sure_reach(g)
        assert got == end_components_whole(g), seed
        found += bool(got)
    assert found > 100


# ---------------------------------------------------------- exact pipeline

def test_solve_exact_fixture_values():
    for name, want in EXPECTED.items():
        res = sv.solve_exact(graph(name))
        assert res.certified, name
        assert res.values[0] == want, name
        assert isinstance(res.values[0], Fraction)


def test_certificate_zero_residual_everywhere():
    for name in EXPECTED:
        g = graph(name)
        res = sv.solve_exact(g)
        report = sv.certify(g, res.values, res.choice)
        assert report.ok
        assert report.residual == 0
        assert report.violations == [] and report.switches == []


def test_certify_flags_perturbed_values():
    g = graph("M2")
    res = sv.solve_exact(g)
    bad = list(res.values)
    bad[0] += Fraction(1, 7)
    report = sv.certify(g, bad, res.choice)
    assert not report.ok
    assert 0 in report.violations


def test_certify_reports_switches_of_a_non_optimal_choice():
    """At the optimal values a strictly worse action for the initial state
    leaves the residual at zero, but the certificate names the switch back
    and refuses the pair."""
    checked = 0
    for name in EXPECTED:
        g = graph(name)
        res = sv.solve_exact(g)
        sign = 1 if g.owner(0) == "min" else -1
        steps = [one_step(g, 0, j, res.values, None) for j in range(len(g.actions[0]))]
        worse = [j for j, v in enumerate(steps) if sign * (v - res.values[0]) > 0]
        if not worse:
            continue
        choice = list(res.choice)
        choice[0] = worse[0]
        report = sv.certify(g, res.values, choice)
        assert report.residual == 0 and report.violations == [], name
        assert [i for i, _ in report.switches] == [0], name
        assert steps[report.switches[0][1]] == res.values[0], name
        assert not report.ok, name
        checked += 1
    assert checked >= 2


def two_state_graph(row) -> bg.Brg:
    """State 0 (min, non-final) has one action of cost 1 with the given
    distribution; state 1 is final and loops on itself."""
    m1 = graph("M1")
    return bg.Brg(m1.arena, states=m1.states[:2], actions=[m1.actions[0][:1]] * 2,
                  rewards=[[Fraction(1)], [Fraction(1)]],
                  dists=[[tuple(row)], [((1, Fraction(1)),)]],
                  owners=["min", "min"], finals=[False, True])


@pytest.mark.parametrize("row,value", [
    (((1, Fraction(1, 2)),), Fraction(1)),                     # sums to 1/2
    (((1, Fraction(3, 2)),), Fraction(1)),                     # a branch of 3/2
    (((0, Fraction(1, 4)), (1, Fraction(1, 2))), Fraction(4, 3)),   # sums to 3/4
    (((0, Fraction(-1, 2)), (1, Fraction(3, 2))), Fraction(2, 3)),  # sums to 1
])
def test_certify_refuses_non_stochastic_rows(row, value):
    g = two_state_graph(row)
    report = sv.certify(g, [value, Fraction(0)], [0, None])
    assert report == certify_fraction_rows(g, [value, Fraction(0)], [0, None])
    assert report.residual == 0 and report.violations == [] and report.switches == []
    assert report.improper_rows == [(0, 0)]
    assert not report.ok
    assert not sv.solve_exact(g).certified


def test_certify_accepts_stochastic_row():
    g = two_state_graph(((1, Fraction(1)),))
    report = sv.certify(g, [Fraction(1), Fraction(0)], [0, None])
    assert report.ok and report.improper_rows == []
    assert sv.solve_exact(g).certified


def test_value_iteration_agrees_with_certified_values():
    cfg = sv.SolveConfig()
    for name in EXPECTED:
        g = graph(name)
        res = sv.solve_exact(g, cfg)
        v, iters, residual = sv.value_iterate(g, cfg)
        assert residual <= cfg.tolerance
        assert iters < cfg.max_iterations
        for i in range(g.n):
            assert abs(v[i] - float(res.values[i])) <= 1e-8


def test_value_iteration_budget_error():
    with pytest.raises(sv.ConvergenceError):
        sv.value_iterate(graph("M2"), sv.SolveConfig(max_iterations=3))


def test_improve_step_exact_m2():
    """M2's exact table holds its reward 1 and its branches 1/2 over Q = 2,
    and the exact sweep moves 0 to 1 to 3/2 at l0: each step's gap is the
    residual of `certify` at the values before it."""
    g = graph("M2")
    table = sv._exact_table(g, True)
    assert table == sv._ExactRows([([2], [((0, 1), (1, 1))]), None, None],
                                  [True] * 3, [], 2)
    steps = [Fraction(0), Fraction(1), Fraction(3, 2), Fraction(7, 4)]
    for v, nxt in zip(steps, steps[1:]):
        report = sv.certify(g, [v, Fraction(0), Fraction(0)], [0, None, None], rows=table)
        assert report.violations == [0] and report.residual == nxt - v
    assert sv.certify(g, [Fraction(2), Fraction(0), Fraction(0)], [0, None, None]).ok


def test_evaluate_pair_exact_m2():
    g = graph("M2")
    values = sv.evaluate_pair_exact(g, [0, None, None])
    assert values == [Fraction(2), Fraction(0), Fraction(0)]


def test_evaluate_pair_exact_infinite_without_target():
    arena = bundled("M2-unreachable")
    g = bg.explore(arena)
    assert g.n == 1  # the loop never leaves the first location
    assert sv.evaluate_pair_exact(g, [0]) == [math.inf]


def test_every_evaluation_is_counted(monkeypatch):
    """The solve makes no exact evaluation beyond those of the improvement
    loop: the last one already values the returned pair."""
    calls = []
    for name in ("evaluate_pair_exact", "evaluate_pair_discounted"):
        real = getattr(sv, name)

        def counted(*args, _real=real, **kwargs):
            calls.append(1)
            return _real(*args, **kwargs)

        monkeypatch.setattr(sv, name, counted)
    for name in EXPECTED:
        g = graph(name)
        solves = (
            lambda: sv.solve_exact(g),
            lambda: sv.solve_exact(g, sv.SolveConfig(improve_order="max_first")),
            lambda: sv.solve_discounted(g, Fraction(1, 2)),
            lambda: sv.solve_discounted(g, Fraction(9, 10), zero_final=False),
        )
        for solve in solves:
            calls.clear()
            res = solve()
            assert len(calls) == res.exact_evaluations, name


def test_improvement_orders_agree():
    for name in EXPECTED:
        g = graph(name)
        a = sv.solve_exact(g, sv.SolveConfig(improve_order="min_first"))
        b = sv.solve_exact(g, sv.SolveConfig(improve_order="max_first"))
        assert a.values == b.values
        assert a.certified and b.certified


# --------------------------------------------- one sweep per evaluation

def sweep_graphs() -> dict[str, bg.Brg]:
    """The differential graphs plus two of the benchmark's retry chains."""
    graphs = differential_graphs()
    probs = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 4), Fraction(3, 4))
    for seed, (n, k, clocks) in enumerate([(2, 2, 2), (3, 2, 1)]):
        rng = random.Random(seed)
        owners = [rng.choice(("min", "max")) for _ in range(n)]
        doc = chain_document(n, k, clocks, owners, [rng.choice(probs) for _ in range(n)])
        graphs["chain(%d,%d,%d)" % (n, k, clocks)] = bg.explore(parse_model(doc))
    return graphs


def warm_starts(g: bg.Brg, lam, zero_final: bool) -> dict[str, list]:
    """The solver's warm start, the choice worst for each owner against the
    float values, and two random choices; absorbed states choose None."""
    v = sv.value_iterate(g, sv.SolveConfig(), lam=lam, zero_final=zero_final)[0]
    live = [not (zero_final and g.is_final(i)) and bool(g.actions[i]) for i in range(g.n)]
    worst = []
    for i in range(g.n):
        steps = [one_step(g, i, j, v, lam) for j in range(len(g.actions[i]))]
        pick = max if g.owner(i) == "min" else min
        worst.append(steps.index(pick(steps)) if live[i] else None)
    rng = random.Random(g.n)
    starts = {"solver": sv.extract_strategies(g, v, lam=lam, zero_final=zero_final),
              "worst": worst}
    for r, choice in enumerate(random_choices(g, rng, 2)):
        starts["random%d" % r] = [j if ok else None for j, ok in zip(choice, live)]
    return starts


SWEEP_OBJECTIVES = [(None, True), (Fraction(1, 2), True), (Fraction(1, 2), False),
                    (Fraction(9, 10), True), (Fraction(9, 10), False)]


def sweep_cases():
    """(name, graph, lam, zero_final, improve order, start name, warm start)
    for every objective the graph admits: expected time needs absorbing
    final states and almost-sure reachability."""
    for name, g in sweep_graphs().items():
        for lam, zero_final in SWEEP_OBJECTIVES:
            if lam is None and sv.check_almost_sure_reach(g):
                continue
            for order in ("min_first", "max_first"):
                for start, choice in warm_starts(g, lam, zero_final).items():
                    yield name, g, lam, zero_final, order, start, choice


def test_improvement_matches_two_sweep_oracle():
    """Values, choice, rounds, evaluations and the verdict equal those of
    the earlier loop, which sweeps once to switch and once more to certify,
    from the solver's warm start and from bad ones."""
    most = (0, 0)
    for name, g, lam, zero_final, order, start, choice in sweep_cases():
        cfg = sv.SolveConfig(improve_order=order)
        case = (name, lam, zero_final, order, start)
        values, got, rounds, evaluations, report = sv._alternating_best_response(
            g, choice, cfg, lam=lam, zero_final=zero_final)
        want = solve_two_sweeps(g, choice, cfg, lam=lam, zero_final=zero_final)
        assert (values, got, rounds, evaluations, report.ok) == want, case
        assert report.switches == [], case
        most = max(most, (rounds, evaluations))
    # the bad warm starts make the loop switch both players
    assert most[0] >= 2 and most[1] >= 3


def test_extraction_sweeps_the_value_iteration_table(monkeypatch):
    """The warm start of every improvement case sweeps the float row table
    that value iteration kept on the graph: extraction builds no table,
    keeps none on the graph, and chooses what a sweep of a freshly built
    table chooses.  Under another objective it builds its own."""
    builds = []
    real = sv._row_table

    def counted(*args, **kwargs):
        builds.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(sv, "_row_table", counted)
    checked = 0
    for name, g, lam, zero_final, order, start, choice in sweep_cases():
        if start != "solver":
            continue
        case = (name, lam, zero_final, order)
        v = sv.value_iterate(g, sv.SolveConfig(), lam=lam, zero_final=zero_final)[0]
        assert g._float_rows is not None, case
        builds.clear()
        got = sv.extract_strategies(g, v, lam=lam, zero_final=zero_final)
        assert builds == [] and g._float_rows is None, case
        assert got == choice == sv._sweep(real(g, lam, zero_final), v)[1], case
        checked += 1
    assert checked == 504 // 4  # one warm start of four per case
    other = Fraction(1, 3)
    v = sv.value_iterate(g, sv.SolveConfig(), lam=lam, zero_final=zero_final)[0]
    builds.clear()
    got = sv.extract_strategies(g, v, lam=other, zero_final=zero_final)
    assert len(builds) == 1 and g._float_rows is None
    assert got == sv._sweep(real(g, other, zero_final), v)[1]


def reads_exact_table(sweep, table) -> bool:
    """Whether the rows a sweep read are those of the exact row table: the
    same states have one, over the table's own distribution objects."""
    return all(row is None if ex is None else
               row is not None and len(row) == len(ex[1])
               and all(dist is own for (_, _, dist), own in zip(row, ex[1]))
               for row, ex in zip(sweep.rows, table.rows))


def test_one_sweep_per_evaluation(monkeypatch):
    """Each evaluation is followed by one `certify`, which makes one kernel
    sweep over every non-absorbed state of the one exact row table of the
    loop, and the solve adds no certificate of its own: its other sweeps
    are the float ones, one per value iteration and one for the warm
    start, all over the one float table that value iteration built."""
    sweeps, floats, exacts, certs = [], [], [], []
    real_sweep, real_table, real_exact, real_certify = (
        sv._sweep, sv._row_table, sv._exact_table, sv.certify)

    def counted_sweep(table, *args):
        sweeps.append(table)
        return real_sweep(table, *args)

    def counted(real, builds):
        def build(*args, **kwargs):
            table = real(*args, **kwargs)
            builds.append(table)
            return table
        return build

    def counted_certify(*args, **kwargs):
        certs.append(1)
        return real_certify(*args, **kwargs)

    def clear():
        for calls in (sweeps, floats, exacts, certs):
            calls.clear()

    monkeypatch.setattr(sv, "_sweep", counted_sweep)
    monkeypatch.setattr(sv, "_row_table", counted(real_table, floats))
    monkeypatch.setattr(sv, "_exact_table", counted(real_exact, exacts))
    monkeypatch.setattr(sv, "certify", counted_certify)
    solved = set()
    for name, g, lam, zero_final, order, start, choice in sweep_cases():
        cfg = sv.SolveConfig(improve_order=order)
        case = (name, lam, zero_final, order, start)
        live = [i for i in range(g.n) if not (zero_final and g.is_final(i))]
        clear()
        evaluations = sv._alternating_best_response(
            g, choice, cfg, lam=lam, zero_final=zero_final)[3]
        assert len(certs) == evaluations, case
        assert len(exacts) == 1 and floats == [], case
        assert [i for i, row in enumerate(exacts[0].rows) if row is not None] == live, case
        assert len(sweeps) == evaluations, case
        assert all(reads_exact_table(t, exacts[0]) for t in sweeps), case
        if case[:4] in solved:
            continue
        solved.add(case[:4])
        clear()
        res = (sv.solve_exact(g, cfg) if lam is None
               else sv.solve_discounted(g, lam, cfg, zero_final=zero_final))
        assert len(certs) == res.exact_evaluations, case
        assert len(exacts) == 1 and len(floats) == 1, case
        assert len(sweeps) == res.vi_iterations + 1 + res.exact_evaluations, case
        assert sum(t is floats[0] for t in sweeps) == res.vi_iterations + 1, case
        assert sum(reads_exact_table(t, exacts[0]) for t in sweeps) == res.exact_evaluations, case
        assert g._float_rows is None, case
        for table in floats + exacts:
            assert [i for i, row in enumerate(table.rows) if row is not None] == live, case


def certify_per_state(g, values, choice, lam, zero_final) -> sv.CertifyReport:
    """The certificate that the per-state sweep gives: the states it moves,
    their largest gap, and every state where it leaves `choice`."""
    want, acts = sweep_per_state(g, values, choice, lam, zero_final)
    moved = [i for i in range(g.n) if values[i] != want[i]]
    gaps = [math.inf if math.inf in (values[i], want[i]) else abs(values[i] - want[i])
            for i in moved]
    improper = [(i, j) for i, row in enumerate(g.dists)
                for j, dist in enumerate(row) if not fraction_stochastic(dist)]
    return sv.CertifyReport(max(gaps, default=Fraction(0)), moved, improper,
                            [(i, j) for i, j in enumerate(acts) if j not in (None, choice[i])])


def test_sweep_matches_per_state_oracle():
    """The kernel's sweep over a row table gives the values and actions of
    the earlier per-state sweep, float for float and Fraction for Fraction:
    at the solved values, with their exact ties, and at value iteration's
    floats, without a start choice and from every warm start.  The integer
    sweep of `certify` gives the certificate the per-state sweep gives, its
    switches at those ties included."""
    ties = kept = 0
    for name, g, lam, zero_final, order, start, choice in sweep_cases():
        if order != "min_first":
            continue
        case = (name, lam, zero_final, start)
        res = (sv.solve_exact(g) if lam is None
               else sv.solve_discounted(g, lam, zero_final=zero_final))
        floats = sv.value_iterate(g, sv.SolveConfig(), lam=lam, zero_final=zero_final)[0]
        tables = ((res.values, fraction_row_table(g, lam, zero_final)[0]),
                  (floats, sv._row_table(g, lam, zero_final)))
        for values, table in tables:
            for start_choice in (None, choice):
                got = sv._sweep(table, values, start_choice)
                want = sweep_per_state(g, values, start_choice, lam, zero_final)
                assert list(map(repr, got[0])) == list(map(repr, want[0])), case
                assert got[1] == want[1], case
        assert certify_per_state(g, res.values, choice, lam, zero_final) == \
            sv.certify(g, res.values, choice, lam=lam, zero_final=zero_final), case
        for i in range(g.n):
            if choice[i] is None:
                continue
            steps = [one_step(g, i, j, res.values, lam) for j in range(len(g.actions[i]))]
            optimal = [j for j, x in enumerate(steps) if x == res.values[i]]
            ties += len(optimal) > 1
            kept += choice[i] in optimal[1:]
    # the warm starts sit on exact ties past the first optimum, where the
    # kernel must keep them
    assert ties > 0 and kept > 0


def test_sweep_matches_per_state_oracle_with_fixed_states():
    """Fixed states keep their values in both forms of the row table, and
    in the certificate's integer sweep."""
    arena = bundled("M3")
    full = bg.explore(arena)
    values = sv.solve_exact(full).values
    g = bg.explore(arena, known=dict(zip(full.states[1:], values[1:])))
    assert g.fixed
    exact = [values[0]] + [g.fixed[i] for i in range(1, g.n)]
    floats = [float(x) for x in exact]
    for lam, zero_final in SWEEP_OBJECTIVES:
        tables = ((exact, fraction_row_table(g, lam, zero_final)[0]),
                  (floats, sv._row_table(g, lam, zero_final)))
        for vals, table in tables:
            got = sv._sweep(table, vals)
            want = sweep_per_state(g, vals, None, lam, zero_final)
            assert list(map(repr, got[0])) == list(map(repr, want[0]))
            assert got[1] == want[1]
        choice = [0] + [None] * (g.n - 1)
        assert certify_per_state(g, exact, choice, lam, zero_final) == \
            sv.certify(g, exact, choice, lam=lam, zero_final=zero_final)


def _bits(x):
    """`x` with every float replaced by its hex form, so that equal means
    bit for bit equal."""
    if isinstance(x, float):
        return float.hex(x)
    if isinstance(x, (list, tuple)):
        return type(x)(map(_bits, x))
    return x


def assert_same_table(g, lam, zero_final, case) -> None:
    got = sv._row_table(g, lam, zero_final)
    want = row_table_per_action(g, lam, zero_final)
    assert _bits(list(got)) == _bits(list(want)), case
    assert sv._exact_table(g, zero_final) == exact_table_per_action(g, zero_final), case


def test_row_table_matches_per_action_oracle():
    """Checking and converting each shared distribution object once gives
    the table that doing it for every action gives, entry by entry, float
    bits, ints over the common denominator and improper pairs included: on
    the improvement cases, on larger seeded retry chains and on a rooted
    graph cut at solved states."""
    cases = 0
    for name, g, lam, zero_final, order, start, _ in sweep_cases():
        assert_same_table(g, lam, zero_final, (name, lam, zero_final, order, start))
        cases += 1
    assert cases == 504
    rng = random.Random(8)
    probs = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 4), Fraction(3, 4))
    for n, k, clocks in ((4, 3, 2), (12, 3, 1), (3, 2, 3)):
        owners = [rng.choice(("min", "max")) for _ in range(n)]
        doc = chain_document(n, k, clocks, owners, [rng.choice(probs) for _ in range(n)])
        g = bg.explore(parse_model(doc))
        for lam, zero_final in SWEEP_OBJECTIVES:
            assert_same_table(g, lam, zero_final, (n, k, clocks, lam, zero_final))
    m3 = bg.explore(bundled("M3"))
    values = sv.solve_exact(m3).values
    g = bg.explore(m3.arena, known=dict(zip(m3.states[1:], values[1:])))
    for lam, zero_final in SWEEP_OBJECTIVES:
        assert_same_table(g, lam, zero_final, ("M3 cut", lam, zero_final))


def test_shared_improper_distribution_is_listed_at_every_use():
    """One non-stochastic distribution object used by two states is checked
    once, yet every (state, action) pair that uses it is listed, and
    neither the certificate nor the solve certifies the graph."""
    shared = ((1, Fraction(1, 4)), (2, Fraction(1, 2)))
    g = hand_graph([[shared, uniform(2)], [uniform(2), shared], [uniform(2)]],
                   (False, False, True))
    for lam, zero_final in SWEEP_OBJECTIVES:
        assert_same_table(g, lam, zero_final, (lam, zero_final))
    assert sv._exact_table(g, True).improper == [(0, 0), (1, 1)]
    values, choice = [Fraction(1), Fraction(1), Fraction(0)], [1, 0, None]
    for lam, zero_final in SWEEP_OBJECTIVES:
        report = sv.certify(g, values, choice, lam=lam, zero_final=zero_final)
        assert report == certify_fraction_rows(g, values, choice, lam=lam,
                                               zero_final=zero_final), (lam, zero_final)
        assert report.improper_rows == [(0, 0), (1, 1)]
    report = sv.certify(g, values, choice)
    assert report.residual == 0 and report.switches == []
    assert report.improper_rows == [(0, 0), (1, 1)] and not report.ok
    assert not sv.solve_exact(g).certified


def test_certificate_refuses_a_wrong_evaluation(monkeypatch):
    """An evaluation off by 1/7 at the initial state, which no state leads
    back to, induces no switch, so the loop stops after one evaluation with
    those values; the returned report must still refuse them."""
    real = sv.evaluate_pair_exact

    def perturbed(g, choice):
        values = real(g, choice)
        values[0] += Fraction(1, 7)
        return values

    monkeypatch.setattr(sv, "evaluate_pair_exact", perturbed)
    for name in ("M1", "M1x", "M3"):
        g = graph(name)
        assert all(t != 0 for row in g.dists for dist in row for t, _ in dist)
        res = sv.solve_exact(g)
        assert (res.improvement_rounds, res.exact_evaluations) == (1, 1), name
        assert res.values[0] == EXPECTED[name] + Fraction(1, 7), name
        assert not res.certified, name


def test_solver_is_deterministic():
    g1 = graph("M3")
    g2 = graph("M3")
    r1 = sv.solve_exact(g1)
    r2 = sv.solve_exact(g2)
    assert r1.values == r2.values
    assert r1.choice == r2.choice


def test_strategies_pick_canonical_optimal_actions():
    g = graph("M3")
    res = sv.solve_exact(g)
    # the maximizer state (l1, 0) must steer to the supremum of (0,1),
    # the first action in canonical order achieving value 1
    i = next(i for i in range(g.n) if g.states[i].location == "l1")
    act = g.actions[i][res.choice[i]]
    assert act.label() == "b at c=1 in [0<c<1]"
    assert res.values[i] == Fraction(1)


# ------------------------------------------------------------ rooted games

def test_rooted_inside_enabled_thick_region_value_zero():
    """Starting strictly inside 1 < c < 2 the minimizer fires immediately;
    without the fire-now endpoint the graph would wrongly report 3/4."""
    res = sv.solve_exact(rooted(bundled("M1"), "5/4"))
    assert res.values[0] == Fraction(0)


def test_rooted_values_match_closed_form():
    # value of M1 from (l0, x) is 1 - x for x <= 1 and 0 afterwards
    for x, want in (("0", 1), ("1/4", Fraction(3, 4)), ("1", 0), ("7/4", 0), ("2", 0)):
        res = sv.solve_exact(rooted(bundled("M1"), x))
        assert res.values[0] == Fraction(want)
    # and for the maximizer it is 2 - x throughout
    for x in ("0", "1/4", "5/4", "2"):
        res = sv.solve_exact(rooted(bundled("M1x"), x))
        assert res.values[0] == 2 - Fraction(x)


# -------------------------------------------------------------- discounted

def test_discounted_m2_half_exact():
    g = graph("M2")
    res = sv.solve_discounted(g, Fraction(1, 2))
    assert res.certified
    assert res.values[0] == Fraction(2, 3)


def test_discounted_keep_final_rewards():
    res = sv.solve_discounted(graph("M2"), Fraction(1, 2), zero_final=False)
    assert res.certified
    assert res.values[0] == Fraction(5, 6)
    res1 = sv.solve_discounted(graph("M1"), Fraction(1, 2), zero_final=False)
    assert res1.values[0] == Fraction(3, 4)


def test_discounted_m1_tends_to_expected_time():
    # with final states zeroed, D(M1, lam) = lam, which tends to the
    # expected-time value 1 as lam goes to 1
    for lam in (Fraction(1, 2), Fraction(9, 10), Fraction(99, 100)):
        res = sv.solve_discounted(graph("M1"), lam)
        assert res.values[0] == lam


def test_discounted_zero_lambda_all_zero():
    # lambda = 0 runs the general pipeline: one sweep, one evaluation
    for name in EXPECTED:
        g = graph(name)
        for zero_final in (True, False):
            res = sv.solve_discounted(g, 0, zero_final=zero_final)
            assert res.values == [Fraction(0)] * g.n
            assert res.choice == [
                None if zero_final and g.is_final(i) else 0 for i in range(g.n)
            ]
            assert res.certified
            assert (res.vi_iterations, res.improvement_rounds, res.exact_evaluations) == (1, 1, 1)


def test_discounted_rejects_lambda_at_least_one():
    g = graph("M1")
    for lam in (1, Fraction(3, 2), Fraction(1, 1)):
        with pytest.raises(ValueError):
            sv.solve_discounted(g, lam)
    with pytest.raises(ValueError):
        sv.solve_discounted(g, Fraction(-1, 2))


def test_discounted_needs_no_reachability_assumption():
    arena = bundled("M2-unreachable")
    g = bg.explore(arena)
    res = sv.solve_discounted(g, Fraction(1, 2))
    # D = lam * (1 + D) => lam / (1 - lam) = 1
    assert res.values[0] == Fraction(1)
    assert res.certified


# ------------------------------------------------------------ simple forms

def test_simple_forms_m1():
    g = graph("M1")
    forms = solve_simple_forms(g)
    assert forms[("l0", g.states[0].region)] == SimpleForm(1, "c")
    res = sv.solve_exact(g)
    for i, s in enumerate(g.states):
        assert forms[(s.location, s.region)].eval(s.valuation) == res.values[i]


def test_simple_forms_m1x():
    g = bg.explore(bundled("M1x"))
    forms = solve_simple_forms(g)
    assert forms[("l0", g.states[0].region)] == SimpleForm(2, "c")
    res = sv.solve_exact(g)
    for i, s in enumerate(g.states):
        assert forms[(s.location, s.region)].eval(s.valuation) == res.values[i]


def test_simple_forms_fire_now_region_is_zero():
    g = rooted(bundled("M1"), "5/4")
    forms = solve_simple_forms(g)
    assert forms[("l0", g.states[0].region)] == SimpleForm(0, None)


def test_simple_forms_reject_probabilistic_branching():
    with pytest.raises(ValueError, match="point"):
        solve_simple_forms(graph("M2"))


def test_simple_forms_respect_reachability_assumption():
    arena = bundled("M2-unreachable")
    with pytest.raises(sv.TargetUnreachableError):
        solve_simple_forms(bg.explore(arena))


# ------------------------------------------- component-wise evaluation

def ring_game(rng: random.Random, n: int, back: Fraction | None):
    """A generated game on l0 .. l{n-1} and a final lf, one clock c with
    invariant c <= 2, owners and advance probabilities p drawn from `rng`.
    Action `a` (c >= 1) advances to the next location (lf after the last)
    with probability p and otherwise resets c and retries.  Unless `back` is
    None, action `b` (c >= 1) resets c and returns to the previous location
    (from l0 to the last one) with probability `back`, and otherwise goes to
    lf; with back = 1 some strategy pairs never reach lf."""
    lines = ["clocks: [c]", "k: 2", "locations:"]
    for i in range(n):
        lines.append('  - {name: l%d, owner: %s, invariant: "c <= 2"}'
                     % (i, rng.choice(("min", "max"))))
    lines += ['  - {name: lf, final: true, invariant: "c <= 2"}', "edges:"]
    for i in range(n):
        p = rng.choice((Fraction(1, 2), Fraction(1, 3), Fraction(3, 4)))
        branches = [(p, "", "l%d" % (i + 1) if i + 1 < n else "lf"), (1 - p, "c", "l%d" % i)]
        if back is not None:
            branches += [(back, "c", "l%d" % ((i - 1) % n))]
            branches += [(1 - back, "c", "lf")] if back != 1 else []
        for action, brs in (("a", branches[:2]), ("b", branches[2:])):
            if not brs:
                continue
            lines += ["  - {source: l%d, action: %s, guard: \"c >= 1\", branches: [" % (i, action)]
            lines += ['      {prob: "%s", resets: [%s], target: %s},' % br for br in brs]
            lines += ["    ]}"]
    lines += ['  - {source: lf, action: f, guard: "c >= 1", branches: [',
              '      {prob: "1", resets: [c], target: lf}]}',
              "initial: {location: l0, valuation: {c: 0}}"]
    return parse_model("\n".join(lines) + "\n", name="ring")


def chain_sccs(g: bg.Brg, choice) -> list[list[int]]:
    succ = [[t for t, _ in g.dists[i][j]] if j is not None else [] for i, j in enumerate(choice)]
    return sccs(range(g.n), succ)


def differential_graphs() -> dict[str, bg.Brg]:
    graphs = {name: graph(name) for name in EXPECTED}
    graphs["M2-unreachable"] = bg.explore(bundled("M2-unreachable"))
    rng = random.Random(3)
    for n in (1, 3, 5):
        graphs["chain%d" % n] = bg.explore(ring_game(rng, n, None))
    for n, back in ((2, Fraction(1, 2)), (4, Fraction(1, 3)), (3, Fraction(1))):
        graphs["ring%d-%s" % (n, back)] = bg.explore(ring_game(rng, n, back))
    return graphs


def random_choices(g: bg.Brg, rng: random.Random, count: int) -> list[list]:
    return [
        [rng.randrange(len(g.actions[i])) if g.actions[i] else None for i in range(g.n)]
        for _ in range(count)
    ]


@pytest.mark.parametrize("lam", [None, Fraction(0), Fraction(1, 2), Fraction(9, 10)],
                         ids=["expected-time", "0", "1/2", "9/10"])
@pytest.mark.parametrize("zero_final", [True, False], ids=["absorbing", "live-final"])
def test_evaluation_matches_dense_oracle(lam, zero_final):
    """The component-wise evaluation equals one dense solve over the whole
    chain, on the solver's own strategy pairs and on random ones."""
    rng = random.Random(11)
    for name, g in differential_graphs().items():
        choices = random_choices(g, rng, 6)
        if lam is not None or (zero_final and sv.check_almost_sure_reach(g) == []):
            solve = (sv.solve_exact(g) if lam is None
                     else sv.solve_discounted(g, lam, zero_final=zero_final))
            assert solve.values == dense_evaluate(g, solve.choice, lam, zero_final), name
            choices.append(solve.choice)
        for choice in choices:
            if lam is None:
                # expected time is defined with absorbing final states only;
                # with live ones no state is absorbed and everything diverges
                got = (sv.evaluate_pair_exact(g, choice) if zero_final
                       else sv._evaluate(g, choice, None, False))
            else:
                got = sv.evaluate_pair_discounted(g, choice, lam, zero_final=zero_final)
            assert got == dense_evaluate(g, choice, lam, zero_final), (name, choice)


def test_ring_chain_has_block_component():
    """Returning edges close cycles through several states, so the fixed
    strategy chain has a component solved as a real system, not a single
    state with a self-loop."""
    g = bg.explore(ring_game(random.Random(5), 4, Fraction(1, 2)))
    assert sv.check_almost_sure_reach(g) == []
    choice = [0 if g.is_final(i) else
              next(j for j, a in enumerate(g.actions[i]) if a.action == "b")
              for i in range(g.n)]
    assert max(len(c) for c in chain_sccs(g, choice)) >= 2
    values = sv.evaluate_pair_exact(g, choice)
    assert values == dense_evaluate(g, choice)
    assert all(v != math.inf for v in values)
    res = sv.solve_exact(g)
    assert res.certified
    assert res.values == dense_evaluate(g, res.choice)
    for lam in (Fraction(1, 2), Fraction(9, 10)):
        got = sv.evaluate_pair_discounted(g, choice, lam, zero_final=False)
        assert got == dense_evaluate(g, choice, lam, False)


def test_evaluate_pair_exact_diverges_on_closed_cycles():
    """With pure returning edges a strategy pair can cycle among l0 and l1
    forever: those states get math.inf, l2 still reaches lf and stays
    finite, and every value matches the dense oracle."""
    g = bg.explore(ring_game(random.Random(2), 3, Fraction(1)))
    pick = {"l0": "a", "l1": "b", "l2": "a"}
    choice = [None if g.is_final(i) else
              next(j for j, a in enumerate(g.actions[i])
                   if a.action == pick[g.states[i].location])
              for i in range(g.n)]
    values = sv.evaluate_pair_exact(g, choice)
    assert values == dense_evaluate(g, choice)
    by_loc: dict[str, set] = {}
    for i, v in enumerate(values):
        by_loc.setdefault(g.states[i].location, set()).add(v == math.inf)
    assert by_loc["l0"] == by_loc["l1"] == {True}
    assert by_loc["l2"] == {False}
    assert any(len(c) >= 2 for c in chain_sccs(g, choice))


# ------------------------------------------------- the sinks-first pass

def seeded_chain_graphs() -> dict[str, bg.Brg]:
    """Retry chains (2, 2, 2) and (3, 2, 2) with seeded owners and advance
    probabilities."""
    rng = random.Random(23)
    probs = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(3, 4))
    graphs = {}
    for n in (2, 3, 3):
        owners = [rng.choice(("min", "max")) for _ in range(n)]
        doc = chain_document(n, 2, 2, owners, [rng.choice(probs) for _ in range(n)])
        graphs["chain(%d,2,2) %s" % (n, "-".join(owners))] = bg.explore(parse_model(doc))
    return graphs


def visited_choices(monkeypatch, solve) -> list[list]:
    """Every choice vector the improvement loop evaluates while `solve()`
    runs, as it stood at the evaluation."""
    seen = []
    real = sv._evaluate

    def recording(g, choice, *args):
        seen.append(list(choice))
        return real(g, choice, *args)

    monkeypatch.setattr(sv, "_evaluate", recording)
    try:
        solve()
    finally:
        monkeypatch.undo()
    return seen


@pytest.mark.parametrize("lam", [None, Fraction(0), Fraction(1, 2), Fraction(9, 10)],
                         ids=["expected-time", "0", "1/2", "9/10"])
@pytest.mark.parametrize("zero_final", [True, False], ids=["absorbing", "live-final"])
def test_pass_matches_oracles_on_visited_choices(monkeypatch, lam, zero_final):
    """On every pair the improvement loop visits, and on random ones, the
    one pass gives the values, infinite ones included, of the earlier
    evaluation that solved every component as a system and of one dense
    solve."""
    rng = random.Random(29)
    solved = visited = 0
    for name, g in {**differential_graphs(), **seeded_chain_graphs()}.items():
        choices = random_choices(g, rng, 3)
        if lam is not None:
            solved += 1
            choices += visited_choices(monkeypatch, lambda: sv.solve_discounted(
                g, lam, zero_final=zero_final))
        elif zero_final and sv.check_almost_sure_reach(g) == []:
            solved += 1
            choices += visited_choices(monkeypatch, lambda: sv.solve_exact(g))
        visited += len(choices) - 3
        for choice in choices:
            got = sv._evaluate(g, choice, lam, zero_final)
            assert got == evaluate_per_component_system(g, choice, lam, zero_final), name
            assert got == dense_evaluate(g, choice, lam, zero_final), name
    # expected time with live final states has no solve
    assert visited >= solved > 0 or lam is None and not zero_final


# chains fixed by hand on graphs built by hand: (dists of each state's one
# action, finals, fixed); a leaky self-loop, a closed cycle that an acyclic
# state enters, a cycle with an exit, a probability-0 branch into a closed
# cycle, and a fixed successor
HAND_CHAINS = {
    "leaky self-loop": (([uniform(0, 1)], [uniform(1)]), (False, True), ()),
    "closed cycle entered": (([uniform(1)], [uniform(0)], [uniform(0, 3)], [uniform(3)]),
                             (False, False, False, True), ()),
    "cycle with exit": (([uniform(1)], [uniform(0, 2)], [uniform(2)]),
                        (False, False, True), ()),
    "p = 0 into a closed cycle": (([uniform(0)], [((0, Fraction(0)), (2, Fraction(1)))],
                                   [uniform(2)]), (False, False, True), ()),
    "fixed successor": (([uniform(1, 2)], [], [uniform(2)]), (False, False, True), (1,)),
}


@pytest.mark.parametrize("case", HAND_CHAINS)
@pytest.mark.parametrize("lam", [None, Fraction(0), Fraction(1, 2)], ids=["expected-time", "0", "1/2"])
@pytest.mark.parametrize("zero_final", [True, False], ids=["absorbing", "live-final"])
def test_pass_matches_oracles_on_hand_chains(case, lam, zero_final):
    dists, finals, fixed = HAND_CHAINS[case]
    g = hand_graph(dists, finals, fixed)
    choice = [0 if row else None for row in dists]
    got = sv._evaluate(g, choice, lam, zero_final)
    assert got == evaluate_per_component_system(g, choice, lam, zero_final)
    if not fixed:
        assert got == dense_evaluate(g, choice, lam, zero_final)
    if case == "closed cycle entered" and lam is None:
        assert got[:3] == [math.inf] * 3
    if case == "p = 0 into a closed cycle" and lam is None and zero_final:
        assert got[:2] == [math.inf] * 2


@pytest.mark.parametrize("lam", [None, Fraction(1, 2)], ids=["expected-time", "1/2"])
def test_linear_solve_runs_once_per_nontrivial_component(monkeypatch, lam):
    """The pass solves a system only for a component of several states or
    with a self-loop, once each (for expected time, each finite one); every
    other state takes one backup."""
    sizes = []
    real = sv._solve_linear_exact

    def counted(rows, rhs):
        sizes.append(len(rows))
        return real(rows, rhs)

    monkeypatch.setattr(sv, "_solve_linear_exact", counted)
    rng = random.Random(31)
    trivial = 0
    for name, g in {**differential_graphs(), **seeded_chain_graphs()}.items():
        for choice in random_choices(g, rng, 3):
            del sizes[:]
            values = sv._evaluate(g, choice, lam, True)
            succ = [[] if g.is_final(i) else [t for t, _ in g.dists[i][choice[i]]]
                    for i in range(g.n)]
            want = []
            for comp in sccs(range(g.n), succ):
                if len(comp) > 1 or comp[0] in succ[comp[0]]:
                    if values[comp[0]] != math.inf:
                        want.append(len(comp))
                elif not g.is_final(comp[0]):
                    trivial += 1
            assert sorted(sizes) == sorted(want), (name, choice)
    assert trivial > 100


def test_end_component_is_refused_before_a_state_without_action():
    """State 0 loops on itself with its only action and state 1 has none.
    The reach check refuses the graph first, and the earlier value pass
    declines it as cyclic instead of refusing state 1; without the loop
    `solve_exact` and that pass both refuse state 1, naming it by its
    label."""
    g = hand_graph(([uniform(0), uniform(1)], [], [uniform(2)]), (False, False, True))
    with pytest.raises(sv.TargetUnreachableError):
        sv.solve_exact(g)
    assert acyclic_values_own_pass(g) is None
    g = hand_graph(([uniform(1)], [], [uniform(2)]), (False, False, True))
    message = re.escape("state %s has no action" % g.states[1].label())
    with pytest.raises(ValueError, match=message):
        acyclic_values_own_pass(g)
    with pytest.raises(ValueError, match=message):
        sv.solve_exact(g)


def test_every_solve_refuses_the_first_state_without_action():
    """l0 reaches l1 and l2, neither of which has an edge.  The float row
    table, which every solve builds first, refuses the first of them in
    state order, so the float, exact and discounted solves name the same
    state in the words of `_evaluate`."""
    g = bg.explore(parse_model((STUCK % "l1").replace(
        '  - {name: lf,', '  - {name: l2, owner: min, final: false, invariant: "c <= 1"}\n'
        '  - {name: lf,').replace(
        '      - {prob: "1/2", resets: [], target: lf}',
        '      - {prob: "1/4", resets: [], target: l2}\n'
        '      - {prob: "1/4", resets: [], target: lf}')))
    stuck = [i for i in range(g.n) if not g.actions[i] and not g.is_final(i)]
    assert {g.states[i].location for i in stuck} == {"l1", "l2"}
    message = "state %s has no action" % g.states[stuck[0]].label()
    for solve in (lambda: sv.value_iterate(g, sv.SolveConfig()), lambda: sv.solve_exact(g),
                  lambda: sv.solve_discounted(g, Fraction(1, 2))):
        with pytest.raises(ValueError, match=re.escape(message)):
            solve()


def test_sccs_match_networkx_and_come_sinks_first():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 12)
        density = rng.random()
        succ = [[w for w in range(n) if rng.random() < density / 2] for _ in range(n)]
        comps = sccs(range(n), succ)
        ref = nx.DiGraph()
        ref.add_nodes_from(range(n))
        ref.add_edges_from((v, w) for v in range(n) for w in succ[v])
        assert sorted(map(sorted, comps)) == sorted(map(sorted, nx.strongly_connected_components(ref)))
        rank = {v: r for r, comp in enumerate(comps) for v in comp}
        assert all(rank[w] <= rank[v] for v in range(n) for w in succ[v])


def test_value_iteration_kernel_matches_improve_step_floats():
    """Value iteration sweeps a float row table, which performs the
    operations of the per-state sweep on float values in the same order, so
    every iterate, the iteration count and the residual are the same
    floats."""
    cfg = sv.SolveConfig()
    for name, g in differential_graphs().items():
        for lam in (None, Fraction(0), Fraction(1, 2), Fraction(9, 10)):
            for zero_final in (True, False):
                if lam is None and (not zero_final or sv.check_almost_sure_reach(g)):
                    continue
                v = [0.0] * g.n
                for it in range(1, cfg.max_iterations + 1):
                    w = [float(x) for x in sweep_per_state(g, v, None, lam, zero_final)[0]]
                    residual = max((abs(a - b) for a, b in zip(v, w)), default=0.0)
                    v = w
                    if residual <= cfg.tolerance:
                        break
                got = sv.value_iterate(g, cfg, lam=lam, zero_final=zero_final)
                assert got == (v, it, residual), (name, lam, zero_final)
