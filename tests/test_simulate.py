"""Simulation tests with exactly predictable outcomes.

The certified strategies of the bundled games concretize to delays that are
computable by hand:

  M1   the chosen move is the infimum endpoint of the open window into
       1 < c < 2 (it ties the thin move at value 1 and sorts first), so a
       run takes the single step 1 + eps; with eps = 1/1000 every run costs
       exactly 1001/1000.
  M1x  the maximizer's move is the supremum endpoint of the same window,
       approached from below: every run costs 1999/1000.
  M2   the only move is thin (c = 1), so delays are exact and a run's total
       time equals its number of rounds, geometric with mean 2.

The window into 1 < c < 2 from c = 0 is (1, 2): with eps = 1/8 the inf move
concretizes to 9/8 and the sup move to 15/8, and an oversized eps = 2 clamps
both to the midpoint 3/2.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest

import oracles
from bundled import MODELS, bundled
from test_model import THREE_BRANCHES
from timedgames import simulate
from timedgames.brg import BoundaryAction, boundary_actions, explore
from timedgames.model import ConcreteState, ModelError, load_model, parse_model
from timedgames.regions import ClockValuation, RegionError, region_of
from timedgames.simulate import (
    ConcretizedStrategy,
    StrategyGapError,
    concretize_action,
    estimate_value,
    simulate_run,
)
from timedgames.solver import TargetUnreachableError, solve_exact


def solved(arena):
    g = explore(arena)
    res = solve_exact(g)
    return g, res, ConcretizedStrategy.from_solution(g, res.choice)


def val(arena, x) -> ClockValuation:
    return ClockValuation(arena.ctx, (Fraction(x),))


def test_concretize_endpoints_and_clamp():
    m1 = bundled("M1")
    zero = val(m1, 0)
    acts = boundary_actions(m1, "l0", region_of(zero))
    labels = [a.label() for a in acts]
    assert labels == [
        "a at c=1 in [1<c<2]",
        "a at c=1 in [c=1]",
        "a at c=2 in [1<c<2]",
        "a at c=2 in [c=2]",
    ]
    eps = Fraction(1, 8)
    assert concretize_action(zero, acts[0], eps) == Fraction(9, 8)
    assert concretize_action(zero, acts[1], eps) == 1
    assert concretize_action(zero, acts[2], eps) == Fraction(15, 8)
    assert concretize_action(zero, acts[3], eps) == 2
    assert concretize_action(zero, acts[0], Fraction(2)) == Fraction(3, 2)
    assert concretize_action(zero, acts[2], Fraction(2)) == Fraction(3, 2)


def test_concretize_fire_now_and_past_boundary():
    m1 = bundled("M1")
    at = val(m1, "5/4")
    acts = boundary_actions(m1, "l0", region_of(at))
    assert acts[0].label() == "a now in [1<c<2]"
    assert concretize_action(at, acts[0], Fraction(1, 1000)) == 0
    past = BoundaryAction("a", region_of(val(m1, "1/2")), 1, 0)
    with pytest.raises(StrategyGapError, match="past"):
        concretize_action(at, past, Fraction(1, 1000))


def test_strategy_table_picks_certified_moves():
    m1 = bundled("M1")
    _, _, strat = solved(m1)
    act = strat.action_for("l0", region_of(val(m1, 0)))
    assert act.label() == "a at c=1 in [1<c<2]"
    m1x = bundled("M1x")
    _, _, stratx = solved(m1x)
    actx = stratx.action_for("l0", region_of(val(m1x, 0)))
    assert actx.label() == "a at c=2 in [1<c<2]"


def test_strategy_gap_raises():
    m1 = bundled("M1")
    empty = ConcretizedStrategy(m1, {})
    with pytest.raises(StrategyGapError, match="no move"):
        empty.action_for("l0", region_of(val(m1, 0)))


def test_m1_runs_cost_exactly_one_plus_eps():
    m1 = bundled("M1")
    _, _, strat = solved(m1)
    est = estimate_value(m1, strat, 50, seed=9)
    assert est.reached == 50
    assert est.mean_exact == Fraction(1001, 1000)
    assert est.halfwidth == 0.0


def test_m1_decaying_eps_halves_first_step():
    m1 = bundled("M1")
    _, _, strat = solved(m1)
    rec = simulate_run(m1, strat, random.Random(0), decaying=True)
    assert rec.reached
    assert rec.total_time == 1 + Fraction(1, 2000)


def test_m1x_runs_cost_exactly_two_minus_eps():
    m1x = bundled("M1x")
    _, _, strat = solved(m1x)
    est = estimate_value(m1x, strat, 50, seed=9)
    assert est.reached == 50
    assert est.mean_exact == Fraction(1999, 1000)


def test_m2_estimate_matches_value():
    m2 = bundled("M2")
    _, res, strat = solved(m2)
    assert res.values[0] == 2
    est = estimate_value(m2, strat, 2000, seed=42)
    assert est.reached == 2000
    assert est.halfwidth < 0.1
    assert abs(est.mean - 2.0) <= 3 * est.halfwidth
    again = estimate_value(m2, strat, 2000, seed=42)
    assert again.mean_exact == est.mean_exact


def test_m2_run_times_are_round_counts():
    m2 = bundled("M2")
    _, _, strat = solved(m2)
    rng = random.Random(3)
    for _ in range(20):
        rec = simulate_run(m2, strat, rng, record_trace=True)
        assert rec.reached
        assert rec.total_time == rec.steps
        assert len(rec.trace) == rec.steps
        assert all(t == 1 for _, _, t in rec.trace)


def test_step_cap_cuts_runs():
    m2 = bundled("M2")
    _, _, strat = solved(m2)
    est = estimate_value(m2, strat, 1000, seed=5, step_cap=1)
    assert 0.35 < est.unreached_fraction < 0.65
    # every surviving run succeeded on its first try, at time exactly 1
    assert est.mean_exact == 1


def test_no_reached_runs_reports_nan():
    m2 = bundled("M2")
    _, _, strat = solved(m2)
    est = estimate_value(m2, strat, 5, seed=5, step_cap=0)
    assert est.reached == 0
    assert est.mean_exact is None
    assert est.mean != est.mean  # nan
    assert est.unreached_fraction == 1.0


# ------------------------------------------ compiled step table vs per-step

# the advance probabilities the benchmark's retry chains draw from
CHAIN_PROBS = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 4),
               Fraction(3, 4))


def random_chain(rng: random.Random, n: int, k: int, clocks: int):
    owners = [rng.choice(("min", "max")) for _ in range(n)]
    probs = [rng.choice(CHAIN_PROBS) for _ in range(n)]
    return parse_model(oracles.chain_document(n, k, clocks, owners, probs))


def differential_arenas() -> dict:
    arenas = {p.stem: load_model(str(p)) for p in sorted(MODELS.glob("*.model"))}
    rng = random.Random(13)
    for clocks, n, k in [(1, 3, 2), (2, 2, 2), (3, 2, 2)]:
        arenas["chain%d_%d_%d" % (clocks, n, k)] = random_chain(rng, n, k, clocks)
    # the benchmark's seed-0 play-check chain, whose strategy has conflicts
    arenas["play-check/0"] = random_chain(random.Random("play-check/0"), 2, 2, 2)
    # an edge whose first and last branch reach the same state
    arenas["three"] = parse_model(THREE_BRANCHES, name="three")
    return arenas


def strategies(arena):
    """The strategy that plays every node's first action, which can loop
    until the step cap, and the certified strategy where the game solves."""
    g = explore(arena)
    first = [None if g.is_final(i) else 0 for i in range(g.n)]
    out = [ConcretizedStrategy.from_solution(g, first)]
    try:
        out.append(ConcretizedStrategy.from_solution(g, solve_exact(g).choice))
    except TargetUnreachableError:
        pass
    return out


def play(run, arena, strat, seed: int, runs: int, **kwargs) -> list:
    """The records of `runs` runs from one seeded rng, ending with the type
    and text of an error if one is raised."""
    rng = random.Random(seed)
    out = []
    try:
        for _ in range(runs):
            out.append(run(arena, strat, rng, **kwargs))
    except (StrategyGapError, RegionError, ModelError) as exc:
        out.append((type(exc), str(exc)))
    return out


def estimate(arena, strat, **kwargs):
    try:
        return repr(estimate_value(arena, strat, 12, seed=4, **kwargs))
    except (StrategyGapError, RegionError, ModelError) as exc:
        return type(exc), str(exc)


def test_compiled_runs_match_per_step_oracle(monkeypatch):
    """Equal run records and estimates for fixed seeds across epsilons,
    decaying on and off, traces and a small step cap, with one strategy's
    table shared by every combination.  M2's certified strategy is legal
    and hits the cap of 3 steps, so capped runs are compared too."""
    capped = set()
    for name, arena in differential_arenas().items():
        for strat in strategies(arena):
            for eps, decaying, cap in itertools.product(
                    (Fraction(1, 1000), Fraction(1, 3)), (False, True), (3, 40)):
                kwargs = dict(epsilon=eps, decaying=decaying, step_cap=cap)
                case = (name, strat.conflicts, kwargs)
                fast = play(simulate.simulate_run, arena, strat, 0, 12,
                            record_trace=True, **kwargs)
                slow = play(oracles.simulate_run_per_step, arena, strat, 0, 12,
                            record_trace=True, **kwargs)
                assert fast == slow, case
                if any(isinstance(rec, simulate.RunRecord) and not rec.reached
                       for rec in fast):
                    capped.add((name, cap))
                fast = estimate(arena, strat, **kwargs)
                with monkeypatch.context() as m:
                    m.setattr(simulate, "simulate_run", oracles.simulate_run_per_step)
                    assert estimate(arena, strat, **kwargs) == fast, case
    assert ("M2", 3) in capped


@pytest.mark.parametrize("case", ["missing key", "boundary in the past", "illegal move"])
def test_compiled_errors_match_per_step_oracle(case):
    """Same records before the error, the same exception type and text at
    the same step, and the same again on a second pass, since a failed
    compile stores no entry."""
    m1 = bundled("M1")
    if case == "missing key":
        # M3 without moves for the maximizer's location, which a run only
        # reaches after a failed first attempt
        arena = bundled("M3")
        _, _, full = solved(arena)
        table = {key: act for key, act in full.table.items() if key[0] != "l1"}
    elif case == "boundary in the past":
        arena = dataclasses.replace(m1, initial=ConcreteState("l0", val(m1, "5/4")))
        past = BoundaryAction("a", region_of(val(m1, "1/2")), 1, 0)
        table = {("l0", region_of(val(m1, "5/4")).key()): past}
    else:
        arena = m1
        now = BoundaryAction("a", region_of(val(m1, 0)), None, None)
        table = {("l0", region_of(val(m1, 0)).key()): now}
    strat = ConcretizedStrategy(arena, table)
    expected = play(oracles.simulate_run_per_step, arena, strat, 2, 10)
    assert expected[-1][0] is StrategyGapError
    assert play(simulate_run, arena, strat, 2, 10) == expected
    assert play(simulate_run, arena, strat, 2, 10) == expected


def test_steps_compile_once_per_state(monkeypatch):
    """Each distinct (state, epsilon) key is concretized on its first play
    only: a second estimate with the same epsilon concretizes nothing."""
    calls = []
    real = simulate.concretize_action

    def counted(valuation, act, eps):
        calls.append((valuation, act, eps))
        return real(valuation, act, eps)

    monkeypatch.setattr(simulate, "concretize_action", counted)
    m3 = bundled("M3")
    _, _, strat = solved(m3)
    first = estimate_value(m3, strat, 2000, seed=1)
    assert 0 < len(calls) == len(set(calls)) <= 4
    n = len(calls)
    assert estimate_value(m3, strat, 2000, seed=1) == first
    assert len(calls) == n


def test_step_table_is_invisible():
    """Playing fills the strategy's step table without changing equality or
    repr, and a fresh equal strategy plays the same runs."""
    m2 = bundled("M2")
    _, _, used = solved(m2)
    _, _, fresh = solved(m2)
    a = estimate_value(m2, used, 200, seed=3)
    assert used._steps and not fresh._steps
    assert used == fresh and repr(used) == repr(fresh)
    assert estimate_value(m2, fresh, 200, seed=3) == a


def test_strategy_conflicts_counted():
    """No (location, region) key of a bundled model has nodes choosing
    different moves; the benchmark's seed-0 play-check chain has two."""
    for path in sorted(MODELS.glob("*.model")):
        for strat in strategies(load_model(str(path)))[1:]:
            assert strat.conflicts == 0, path.stem
    chain = differential_arenas()["play-check/0"]
    _, _, strat = solved(chain)
    assert strat.conflicts == 2
    assert ConcretizedStrategy(chain, strat.table) == strat


# ------------------------------------------- run times on ints vs Fraction sums

def test_run_times_and_estimates_match_fraction_sums():
    """Every run's time equals the `Fraction` sum of its delays, and every
    estimate the `Fraction` sum of the reached runs' times, on the bundled
    models at epsilon 1/1000, 1/3 and 1, with and without decay, with no
    step, a cap that cuts M2's runs, and a cap no run of a solved game hits."""
    cut = set()
    for path in sorted(MODELS.glob("*.model")):
        arena = load_model(str(path))
        for strat in strategies(arena):
            for eps, decaying, cap in itertools.product(
                    (Fraction(1, 1000), Fraction(1, 3), Fraction(1)), (False, True),
                    (0, 2, 60)):
                kwargs = dict(epsilon=eps, decaying=decaying, step_cap=cap)
                case = (path.stem, strat.conflicts, kwargs)
                fast = play(simulate_run, arena, strat, 0, 20, **kwargs)
                assert fast == play(oracles.simulate_run_per_step, arena, strat, 0, 20,
                                    **kwargs), case
                if cap and any(not rec.reached for rec in fast):
                    cut.add((path.stem, cap))
                got = estimate_value(arena, strat, 20, seed=1, **kwargs)
                want = oracles.estimate_value_fraction_sum(arena, strat, 20, seed=1, **kwargs)
                # repr, since an estimate without a reached run has nan fields
                assert repr(got) == repr(want), case
    assert ("M2", 2) in cut


LONG_RETRY = """clocks: [c]
k: 2
locations:
  - {name: l0, owner: min, final: false, invariant: "c <= 2"}
  - {name: lf, owner: min, final: true, invariant: "c <= 2"}
edges:
  - source: l0
    action: a
    guard: "c > 1"
    branches:
      - {prob: "1/1000", resets: [], target: lf}
      - {prob: "999/1000", resets: [c], target: l0}
  - source: lf
    action: f
    guard: "c >= 1"
    branches:
      - {prob: "1/1", resets: [c], target: lf}
initial: {location: l0, valuation: {c: "0"}}
"""


def test_long_decaying_run_keeps_the_lcm_denominator(monkeypatch):
    """A decaying run on a retry whose open guard costs 1 + epsilon/2^(n+1)
    at step n: over hundreds of steps its time is kept over the lcm of the
    delays' denominators, 1000 * 2^steps, never their product, and equals
    their `Fraction` sum."""
    scales = []
    real = simulate._add

    def add(num, scale, t):
        out = real(num, scale, t)
        scales.append(out[1])
        return out

    monkeypatch.setattr(simulate, "_add", add)
    arena = parse_model(LONG_RETRY)
    _, _, strat = solved(arena)
    rng, slow_rng = random.Random(0), random.Random(0)
    for _ in range(10):
        del scales[:]
        rec = simulate_run(arena, strat, rng, decaying=True, record_trace=True)
        slow = oracles.simulate_run_per_step(arena, strat, slow_rng, decaying=True,
                                             record_trace=True)
        assert rec == slow
        if rec.steps >= 200:
            break
    assert rec.reached and rec.steps >= 200
    lcm = math.lcm(*(t.denominator for _, _, t in rec.trace))
    assert lcm == 1000 * 2 ** rec.steps
    assert scales[-1] == lcm and max(scales) == lcm
    assert rec.total_time == sum((t for _, _, t in rec.trace), Fraction(0))
