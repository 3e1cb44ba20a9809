"""Acceptance suite: ten end-to-end checks with explicit tolerances.

Each test is one release criterion.  They intentionally overlap the unit
suites: a regression that slips through a refactored unit test should still
trip the pinned numbers here.  The bundled games and their hand-derived
values (M1 = 1, M1x = 2, M2 = 2, M3 = 3/2, and the closed forms documented
in test_properties.py) are the ground truth throughout.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import oracles
from bundled import BUNDLED, bundled
from timedgames.brg import explore
from timedgames.properties import (
    check_quasi_simple,
    grid_one_step_value,
    sample_states,
    value_at,
)
from timedgames.regions import (
    ClockContext,
    ClockValuation,
    enumerate_regions,
    region_of,
    time_successor,
)
from timedgames.simulate import ConcretizedStrategy, estimate_value
from timedgames.solver import (
    SolveConfig,
    certify,
    solve_discounted,
    solve_exact,
    value_iterate,
)

EXPECTED = {
    "M1": Fraction(1),
    "M1x": Fraction(2),
    "M2": Fraction(2),
    "M3": Fraction(3, 2),
}


def test_criterion_01_region_partition_and_elapse():
    """1000 random valuations: the canonical region map induces exactly the
    partition of the atomic-constraint signatures, and the time successor
    matches an independently computed elapse witness.  Zero failures."""
    rng = random.Random(20240816)
    names = ("x", "y", "z")
    failures = 0
    total = 0
    for n, k in [(1, 2), (2, 1), (2, 2), (3, 2)]:
        ctx = ClockContext(names[:n], k)
        sig_to_region: dict = {}
        region_to_sig: dict = {}
        for _ in range(250):
            total += 1
            values = oracles.random_valuation(rng, n, k)
            v = ClockValuation(ctx, values)
            reg = region_of(v)
            sig = oracles.constraint_signature(values, k)
            if sig_to_region.setdefault(sig, reg) != reg:
                failures += 1
            if region_to_sig.setdefault(reg, sig) != sig:
                failures += 1
            eps = oracles.elapse_witness(values, k)
            succ = time_successor(reg)
            if eps is None:
                failures += succ is not None
            elif succ != region_of(v.shift(eps)):
                failures += 1
    assert total == 1000
    assert failures == 0


def test_criterion_02_exact_values_certified():
    """The four bundled games solve to exactly 1, 2, 2, 3/2 and the values
    satisfy the optimality equations with residual exactly zero."""
    for name in BUNDLED:
        g = explore(bundled(name))
        res = solve_exact(g)
        assert res.certified, name
        assert res.values[0] == EXPECTED[name], name
        report = certify(g, res.values, res.choice)
        assert report.residual == 0 and not report.violations, name


def test_criterion_03_value_iteration_agrees():
    """Float value iteration lands within 1e-9 of the certified rational
    value at every graph state of every bundled game."""
    for name in BUNDLED:
        g = explore(bundled(name))
        exact = solve_exact(g).values
        approx, _, _ = value_iterate(g, SolveConfig(tolerance=1e-9))
        for i in range(g.n):
            assert abs(approx[i] - float(exact[i])) <= 1e-9, (name, i)


def test_criterion_04_discounted_exact():
    """Discounting at lambda = 1/2 gives M2 exactly 2/3, and lambda = 0
    zeroes every state, both certified."""
    g = explore(bundled("M2"))
    res = solve_discounted(g, Fraction(1, 2))
    assert res.certified
    assert res.values[0] == Fraction(2, 3)
    zero = solve_discounted(g, 0)
    assert zero.certified
    assert all(v == 0 for v in zero.values)


def test_criterion_05_grid_consistency():
    """At 20 sampled concrete states (5 per game), the best one-step value
    over a 1/64 delay grid is within 1e-2 of the certified state value, and
    refining to 1/256 never widens the gap."""
    tol = Fraction(1, 100)
    checked = 0
    for name in BUNDLED:
        arena = bundled(name)
        for state in sample_states(arena, 5, seed=101):
            exact = value_at(arena, state.location, state.valuation)
            gap64 = abs(grid_one_step_value(arena, state, denominator=64) - exact)
            gap256 = abs(grid_one_step_value(arena, state, denominator=256) - exact)
            assert gap64 <= tol, (arena.name, state)
            assert gap256 <= gap64, (arena.name, state)
            checked += 1
    assert checked == 20


def test_criterion_06_quasi_simple_everywhere_and_fault_detected():
    """With K = 1 + number of clocks and 200 sampled pairs, the value
    function passes the Lipschitz and shift checks on every reachable
    region of every game; warping it by +nu(c)^2 is caught."""
    for name in BUNDLED:
        arena = bundled(name)
        g = explore(arena)
        seen = {}
        for s in g.states:
            seen.setdefault((s.location, s.region.key()), s)
        for (loc, _), s in seen.items():
            rep = check_quasi_simple(arena, loc, s.region, pairs=200, seed=13)
            assert rep.ok, (name, rep.summary())

    m1 = bundled("M1")
    bent = lambda loc, v: value_at(m1, loc, v) + v.value("c") ** 2
    g = explore(m1)
    seen = {}
    for s in g.states:
        seen.setdefault((s.location, s.region.key()), s)
    caught = 0
    for (loc, _), s in seen.items():
        rep = check_quasi_simple(m1, loc, s.region, pairs=200, seed=13,
                                 evaluator=bent)
        caught += len(rep.lipschitz_violations)
        caught += len(rep.monotonicity_violations)
        caught += len(rep.nonexpansive_violations)
    assert caught > 0


def test_criterion_07_symbolic_forms_match_exact_solve():
    """The region-level symbolic solve of M1 and M1x produces integer-offset
    forms whose evaluation reproduces the certified value at every graph
    state exactly."""
    for name in ("M1", "M1x"):
        arena = bundled(name)
        g = explore(arena)
        res = solve_exact(g)
        forms = oracles.solve_simple_forms(g)
        assert forms
        for i, s in enumerate(g.states):
            form = forms[(s.location, s.region)]
            assert isinstance(form.e, int)
            assert form.eval(s.valuation) == res.values[i], s.label()


def test_criterion_08_simulation_estimates_value():
    """100000 simulated M2 runs at epsilon = 1/1000 with a fixed seed: every
    run reaches the final set within 10000 steps, and the sample mean is
    within max(3 halfwidths, 2 epsilon) of the certified value 2."""
    m2 = bundled("M2")
    g = explore(m2)
    res = solve_exact(g)
    strat = ConcretizedStrategy.from_solution(g, res.choice)
    est = estimate_value(m2, strat, 100_000, seed=20240817,
                         epsilon=Fraction(1, 1000), step_cap=10_000)
    assert est.reached == est.runs
    bound = max(3 * est.halfwidth, 2e-3)
    assert abs(float(est.mean_exact) - 2.0) <= bound


def test_criterion_09_graph_sizes_bounded():
    """Exploration terminates without hitting the state cap and the state
    count respects |locations| * (k+1)^|clocks| * |regions|."""
    for name in BUNDLED:
        arena = bundled(name)
        g = explore(arena)
        regions = len(enumerate_regions(arena.ctx))
        bound = (len(arena.locations)
                 * (arena.ctx.k + 1) ** len(arena.ctx.clocks)
                 * regions)
        assert g.n <= bound, name


def test_criterion_10_improvement_order_irrelevant():
    """Strategy improvement certifies the same values whether the minimizer
    or the maximizer moves first."""
    for name in BUNDLED:
        g = explore(bundled(name))
        a = solve_exact(g, SolveConfig(improve_order="min_first"))
        b = solve_exact(g, SolveConfig(improve_order="max_first"))
        assert a.certified and b.certified
        assert a.values == b.values, name
