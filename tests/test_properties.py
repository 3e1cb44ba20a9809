"""Property-layer tests against hand-computed value functions.

Closed forms used as oracles, each derived from the optimality equations:

  M1   V(l0, x) = 1 - x on [0, 1], and 0 on [1, 2] (fire immediately).
  M1x  V(l0, x) = 2 - x on [0, 2] (maximizer waits until c = 2).
  M2   V(l0, 0) = 1 + (1/2) V(l0, 0) so V(l0, 0) = 2, and from x the wait
       to c = 1 costs 1 - x, so V(l0, x) = 2 - x on [0, 1].
  M3   V(l1, y) = 1 - y (maximizer delays to c = 1, then must move);
       V(l0, x) = (1 - x) + (1/2) V(l1, 0) = 3/2 - x on [0, 1].

3/2 - x is affine with slope -1 but its offset is not an integer, so the
integer-offset fit must reject it; that asymmetry between M2 and M3 is the
point of several tests below.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bundled import bundled
from oracles import chain_document
from test_cli import CHAINS
from timedgames import brg, properties, regions
from timedgames.brg import BrgState
from timedgames.model import ConcreteState, TimedAction, parse_model, timed_action_allowed
from timedgames.properties import (
    SimpleForm,
    check_quasi_simple,
    check_time_monotone,
    fit_simple,
    grid_one_step_value,
    sample_states,
    value_at,
)
from timedgames.regions import ClockValuation, region_of, sample_closure_scaled, scaled_point

M1 = bundled("M1")
M1X = bundled("M1x")
M2 = bundled("M2")
M3 = bundled("M3")


def val(arena, x) -> ClockValuation:
    return ClockValuation(arena.ctx, (Fraction(x),))


def reg(arena, x):
    return region_of(val(arena, x))


def test_value_at_m2_midpoint():
    assert value_at(M2, "l0", val(M2, "1/2")) == Fraction(3, 2)


def test_value_closed_forms_on_grid():
    for j in range(17):
        x = Fraction(j, 8)
        expect = Fraction(1) - x if x <= 1 else Fraction(0)
        assert value_at(M1, "l0", val(M1, x)) == expect
        assert value_at(M1X, "l0", val(M1X, x)) == 2 - x
    for j in range(9):
        x = Fraction(j, 8)
        assert value_at(M2, "l0", val(M2, x)) == 2 - x
        assert value_at(M3, "l0", val(M3, x)) == Fraction(3, 2) - x
        assert value_at(M3, "l1", val(M3, x)) == 1 - x


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=64))
def test_value_m1_affine_everywhere(n):
    x = Fraction(n, 64)
    assert value_at(M1, "l0", val(M1, x)) == 1 - x


def test_value_at_is_cached(monkeypatch):
    """A query fills the arena's table with its root and every state below
    it; a repeated query, or one rooted at a state already solved, answers
    from the table without exploring."""
    arena = bundled("M2")
    explores = []
    real = properties.explore

    def counted(*args, **kwargs):
        explores.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(properties, "explore", counted)
    v = val(arena, "3/8")
    root = BrgState("l0", *scaled_point(v), region_of(v))
    assert value_at(arena, "l0", v) == Fraction(13, 8)
    assert len(explores) == 1 and arena._solved[root] == Fraction(13, 8)
    table = dict(arena._solved)
    assert value_at(arena, "l0", v) == Fraction(13, 8)
    zero = val(arena, 0)
    assert BrgState("l0", *scaled_point(zero), region_of(zero)) in table
    assert value_at(arena, "l0", zero) == 2
    assert len(explores) == 1 and arena._solved == table


def test_cached_query_builds_no_valuation_region_or_graph(monkeypatch):
    """A query the table answers, at a point solved before or at another
    point of an already queried region, builds no valuation, no region and
    no graph: its root state, made from integers, is the table's key."""
    arena = bundled("M3")
    first, other = val(arena, "1/4"), val(arena, "3/8")
    assert value_at(arena, "l0", first) == Fraction(5, 4)
    assert value_at(arena, "l1", other) == Fraction(5, 8)
    built = []

    def refuse(*args, **kwargs):
        built.append(args)
        raise AssertionError("built on a cached query")

    for owner, name in ((regions.ClockValuation, "__post_init__"),
                        (regions.ClockValuation, "trusted"), (brg, "ClockRegion"),
                        (regions, "region_of"), (properties, "explore"),
                        (brg, "Brg")):
        monkeypatch.setattr(owner, name, refuse)
    assert value_at(arena, "l0", first) == Fraction(5, 4)
    assert value_at(arena, "l1", other) == Fraction(5, 8)
    assert built == []


def test_fit_simple_slope_forms():
    assert fit_simple(M1, "l0", reg(M1, "1/2")) == SimpleForm(1, "c")
    assert fit_simple(M1X, "l0", reg(M1X, "1/2")) == SimpleForm(2, "c")
    assert fit_simple(M2, "l0", reg(M2, "1/2")) == SimpleForm(2, "c")
    assert fit_simple(M3, "l1", reg(M3, "1/2")) == SimpleForm(1, "c")


def test_fit_simple_constant_regions():
    assert fit_simple(M1, "l0", reg(M1, "3/2")) == SimpleForm(0, None)
    assert fit_simple(M1, "lf", reg(M1, "1/2")) == SimpleForm(0, None)
    # on a thin region every sample coincides, so the constant wins
    assert fit_simple(M1, "l0", reg(M1, 1)) == SimpleForm(0, None)


def test_fit_simple_rejects_fractional_offset():
    assert fit_simple(M3, "l0", reg(M3, "1/2")) is None


def test_fit_simple_rejects_other_slopes():
    steep = lambda loc, v: 2 - 2 * v.value("c")
    assert fit_simple(M1, "l0", reg(M1, "1/2"), evaluator=steep) is None


CLEAN_CASES = [
    (M1, "l0", "1/2"),
    (M1, "l0", "3/2"),
    (M1X, "l0", "1/2"),
    (M2, "l0", "1/2"),
    (M3, "l0", "1/2"),
    (M3, "l1", "1/2"),
]


@pytest.mark.parametrize("arena,loc,x", CLEAN_CASES)
def test_quasi_simple_clean(arena, loc, x):
    report = check_quasi_simple(arena, loc, reg(arena, x), pairs=80, seed=5)
    assert report.ok, report.summary()
    assert report.pairs_checked == 80
    assert report.diag_pairs_checked == 80
    assert report.max_lipschitz_ratio <= report.k_bound


def test_quasi_simple_slope_is_tight():
    # V = 1 - x makes every pair hit the Lipschitz and shift bounds exactly
    report = check_quasi_simple(M1, "l0", reg(M1, "1/2"), pairs=60, seed=1)
    assert report.max_lipschitz_ratio == 1


def test_quasi_simple_refuses_a_negative_bound():
    with pytest.raises(ValueError, match="must be at least 0, got -1/2"):
        check_quasi_simple(M1, "l0", reg(M1, "1/2"), pairs=10, k_bound=Fraction(-1, 2))
    # K = 0 is a bound like any other, which V = 1 - x breaks
    assert not check_quasi_simple(M1, "l0", reg(M1, "1/2"), pairs=10, k_bound=Fraction(0)).ok


def test_quasi_simple_point_region_is_vacuous():
    report = check_quasi_simple(M1, "l0", reg(M1, 0), pairs=10, seed=2)
    assert report.ok
    assert report.pairs_checked == 0
    assert report.diag_pairs_checked == 0


TWO_CLOCKS = """
clocks: [c, d]
k: 2
locations:
  - {name: l0, owner: min, final: false, invariant: "c <= 2 & d <= 2"}
  - {name: lf, owner: min, final: true}
edges:
  - {source: l0, action: a, guard: "c >= 1", branches: [{prob: "1/1", resets: [c], target: lf}]}
initial: {location: l0, valuation: {c: "0", d: "0"}}
"""


def test_quasi_simple_single_point_closure_evaluates_nothing(monkeypatch):
    """With every clock on an integer the closure is one point; the check
    returns the empty report without drawing a sample or calling the
    evaluator.  The patched sampler is the one the check draws from: on a
    region whose closure is more than one point, it is called."""
    calls, drawn = [], []

    def counting(loc, v):
        calls.append((loc, v))
        return Fraction(0)

    def drawing(region, rng, denominator=64):
        drawn.append(region)
        return sample_closure_scaled(region, rng, denominator)

    monkeypatch.setattr(properties, "sample_closure_scaled", drawing)

    two = parse_model(TWO_CLOCKS)
    corner = region_of(ClockValuation(two.ctx, (Fraction(1), Fraction(2))))
    cases = [(M1, "l0", reg(M1, 0)), (M3, "l1", reg(M3, 1)), (two, "l0", corner)]
    for arena, loc, region in cases:
        assert len(region.blocks) == 1
        report = check_quasi_simple(arena, loc, region, pairs=50, evaluator=counting)
        assert (report.pairs_checked, report.diag_pairs_checked) == (0, 0)
        assert report.ok and report.max_lipschitz_ratio is None
    assert calls == [] and drawn == []
    wide = reg(M1, "1/2")
    report = check_quasi_simple(M1, "l0", wide, pairs=5, evaluator=counting)
    assert report.pairs_checked == 5 and calls
    assert set(drawn) == {wide}


def test_quasi_simple_detects_planted_fault():
    # adding nu(c)^2 keeps continuity but breaks monotone decrease, and on
    # [1, 2] the difference quotient reaches x + y > 2 = K
    bent = lambda loc, v: value_at(M1, loc, v) + v.value("c") ** 2
    report = check_quasi_simple(M1, "lf", reg(M1, "3/2"), pairs=60, seed=7,
                                evaluator=bent)
    assert not report.ok
    assert report.monotonicity_violations
    assert report.lipschitz_violations
    assert report.max_lipschitz_ratio > report.k_bound


def test_quasi_simple_detects_decrease_faster_than_time():
    # 1 - 2x falls by 2t along a shift by t: every shift pair breaks
    # nonexpansiveness, while the value still decreases and the difference
    # quotient stays at 2 = K
    steep = lambda loc, v: value_at(M1, loc, v) - v.value("c")
    region = reg(M1, "1/2")
    report = check_quasi_simple(M1, "l0", region, pairs=60, seed=7, evaluator=steep)
    assert len(report.nonexpansive_violations) == report.diag_pairs_checked == 60
    assert not report.monotonicity_violations and not report.lipschitz_violations
    assert repr(report) == repr(oracles.check_quasi_simple_fractions(
        M1, "l0", region, pairs=60, seed=7, evaluator=steep))


def test_time_monotone_clean():
    state = ConcreteState("l0", val(M1, 0))
    assert check_time_monotone(M1, state, "a", reg(M1, "3/2"), grid=12) == []
    # a thin target admits one delay only
    assert check_time_monotone(M1, state, "a", reg(M1, 1)) == []


def test_time_monotone_detects_decreasing_evaluator():
    sink = lambda loc, v: -2 * v.value("c")
    state = ConcreteState("l0", val(M1, 0))
    bad = check_time_monotone(M1, state, "a", reg(M1, "3/2"), grid=8,
                              evaluator=sink)
    assert bad
    t1, t2, f1, f2 = bad[0]
    assert t1 < t2 and f2 < f1


def test_time_monotone_rejects_bad_inputs():
    state = ConcreteState("l0", val(M1, 0))
    with pytest.raises(ValueError, match="no edge"):
        check_time_monotone(M1, state, "zzz", reg(M1, "3/2"))
    with pytest.raises(ValueError, match="not enabled"):
        check_time_monotone(M1, state, "a", reg(M1, "1/2"))
    late = ConcreteState("l0", val(M1, "3/2"))
    with pytest.raises(ValueError, match="future"):
        check_time_monotone(M1, late, "a", reg(M1, 1))


def test_time_monotone_refuses_target_past_the_invariant():
    # the guard holds on 1 < c < 2, but the invariant ends the stay at c = 1
    arena = parse_model("""
clocks: [c]
k: 2
locations:
  - {name: l0, owner: min, final: false, invariant: "c <= 1"}
  - {name: lf, owner: min, final: true, invariant: "c <= 2"}
edges:
  - {source: l0, action: a, guard: "c >= 1", branches: [{prob: "1/1", resets: [], target: lf}]}
  - {source: lf, action: f, guard: "c >= 1", branches: [{prob: "1/1", resets: [c], target: lf}]}
initial: {location: l0, valuation: {c: "0"}}
""")
    state = ConcreteState("l0", val(arena, 0))
    assert not timed_action_allowed(arena, state, TimedAction(Fraction(3, 2), "a"))
    with pytest.raises(ValueError, match="invariant of l0"):
        check_time_monotone(arena, state, "a", reg(arena, "3/2"))
    assert check_time_monotone(arena, state, "a", reg(arena, 1)) == []


def test_grid_one_step_matches_exact_value():
    cases = [
        (M1, ConcreteState("l0", val(M1, 0))),
        (M1X, ConcreteState("l0", val(M1X, 0))),
        (M2, ConcreteState("l0", val(M2, "1/2"))),
        (M3, ConcreteState("l1", val(M3, "1/4"))),
    ]
    for arena, state in cases:
        g = grid_one_step_value(arena, state)
        assert g == value_at(arena, state.location, state.valuation)


def test_grid_refinement_never_degrades():
    for state in sample_states(M2, 4, seed=3):
        exact = value_at(M2, state.location, state.valuation)
        gap64 = abs(grid_one_step_value(M2, state, denominator=64) - exact)
        gap256 = abs(grid_one_step_value(M2, state, denominator=256) - exact)
        assert gap256 <= gap64


def test_grid_one_step_refuses_a_state_without_an_enabled_window():
    # c = 2 lies past l0's invariant c <= 1, so no delay window is left
    with pytest.raises(ValueError, match=r"^no legal timed action from \(l0, c=2\)$"):
        grid_one_step_value(M2, ConcreteState("l0", val(M2, 2)))


def test_delays_are_lazy_and_match_the_list_oracle():
    """The delay grid is yielded point by point in the order of the list
    it replaced: 10**12 parts give their first points at once."""
    thin = regions.DelayWindow(Fraction(1), Fraction(1), True)
    windows = [thin, regions.DelayWindow(Fraction(0), Fraction(1), True),
               regions.DelayWindow(Fraction(1, 3), Fraction(5, 2), False)]
    for w in windows:
        for parts in (1, 2, 3, 7, 64):
            assert list(properties._delays(w, parts)) == oracles.delays_list(w, parts)
    huge = properties._delays(windows[1], 10**12)
    assert list(itertools.islice(huge, 3)) == [0, Fraction(1, 10**12), Fraction(2, 10**12)]
    assert list(properties._delays(thin, 10**12)) == [1]


def test_sample_states_deterministic_and_legal():
    a = sample_states(M3, 6, seed=11)
    b = sample_states(M3, 6, seed=11)
    assert a == b
    assert len(a) == 6
    for loc, v in a:
        assert not M3.is_final(loc)
        assert all(0 <= x <= M3.ctx.k for x in v.values)


# the games whose every reached (location, region) the integer check is
# compared on with the Fraction oracle: the bundled ones, a one-clock chain
# with a violation, and a 2- and a 3-clock chain
DIFFERENTIAL_GAMES = ("M1", "M1x", "M2", "M3", "chain1_4_3", "chain2_2_2", "chain3_2_2")


@pytest.mark.parametrize("seed", (0, 7, 13))
@pytest.mark.parametrize("name", DIFFERENTIAL_GAMES)
def test_quasi_simple_matches_fraction_oracle(name, seed):
    """Every report equals the one of the earlier check on Fractions: pair
    counts, the largest ratio and every violation tuple, with their types,
    at 40 and 200 pairs, for the default evaluator and for one bent by
    nu(c)^2, which shows violations wherever a closure is more than a
    point (M2 reaches only points)."""
    arena = parse_model(chain_document(*CHAINS[name])) if name in CHAINS else bundled(name)
    bent = lambda loc, v: value_at(arena, loc, v) + v.value("c") ** 2
    reached = dict.fromkeys((s.location, s.region) for s in brg.explore(arena).states)
    bent_failures = 0
    for (loc, region), pairs, ev in itertools.product(reached, (40, 200), (None, bent)):
        got = check_quasi_simple(arena, loc, region, pairs=pairs, seed=seed, evaluator=ev)
        want = oracles.check_quasi_simple_fractions(arena, loc, region, pairs=pairs,
                                                    seed=seed, evaluator=ev)
        assert repr(got) == repr(want), (loc, region.label(), pairs)
        bent_failures += ev is bent and not got.ok
    assert bent_failures or all(len(region.blocks) == 1 for _, region in reached)
