"""The certificate's integer sweep against the earlier Fraction certificate.

`solver.certify` puts every reward, probability and value of one sweep over
one common denominator and sweeps Python ints.  `oracles.certify_fraction_rows`
sweeps the graph's own Fractions.  Every report is compared whole: the
residual's value and type, the violations, the improper rows and the
switches.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from bundled import BUNDLED, bundled
from oracles import certify_fraction_rows, chain_document
from test_solver import SWEEP_OBJECTIVES, hand_graph, sweep_cases, uniform
from timedgames import brg as bg
from timedgames import properties
from timedgames import solver as sv
from timedgames.model import parse_model
from timedgames.regions import ClockValuation

PROBS = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 4), Fraction(3, 4))


def assert_same_report(g, values, choice, lam=None, zero_final=True, case=None):
    got = sv.certify(g, values, choice, lam=lam, zero_final=zero_final)
    want = certify_fraction_rows(g, values, choice, lam=lam, zero_final=zero_final)
    assert got == want, case
    assert type(got.residual) is type(want.residual), case
    return got


def checked_certify(monkeypatch) -> list:
    """Make every `certify` the solver calls also run the Fraction oracle
    and compare the two reports; the returned list counts the calls."""
    calls = []
    real = sv.certify

    def checked(g, values, choice, *, lam=None, zero_final=True, rows=None):
        got = real(g, values, choice, lam=lam, zero_final=zero_final, rows=rows)
        want = certify_fraction_rows(g, values, choice, lam=lam, zero_final=zero_final)
        assert got == want and type(got.residual) is type(want.residual)
        calls.append(got)
        return got

    monkeypatch.setattr(sv, "certify", checked)
    return calls


def perturbed(values, rng: random.Random) -> list:
    """`values` with about a third of them moved by a small random
    fraction."""
    return [v + Fraction(rng.randint(-5, 5), rng.randint(1, 9))
            if rng.random() < 1 / 3 else v for v in values]


def chain_graphs(seed: int) -> dict[str, bg.Brg]:
    rng = random.Random(seed)
    graphs = {}
    for n, k, clocks in ((2, 2, 2), (4, 3, 2), (12, 3, 1), (3, 2, 3)):
        owners = [rng.choice(("min", "max")) for _ in range(n)]
        doc = chain_document(n, k, clocks, owners, [rng.choice(PROBS) for _ in range(n)])
        graphs["chain(%d,%d,%d)" % (n, k, clocks)] = bg.explore(parse_model(doc))
    return graphs


# ------------------------------------------------------------ differential

def test_every_certified_evaluation_matches_fraction_oracle(monkeypatch):
    """Every evaluation the improvement loop certifies, on the 504 cases of
    its differential test: warm starts good and bad, both orders, expected
    time and three discounted objectives."""
    calls = checked_certify(monkeypatch)
    cases = 0
    for name, g, lam, zero_final, order, start, choice in sweep_cases():
        cfg = sv.SolveConfig(improve_order=order)
        sv._alternating_best_response(g, choice, cfg, lam=lam, zero_final=zero_final)
        cases += 1
    assert cases == 504
    assert len(calls) > cases and any(report.switches for report in calls)


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_models_at_optimal_and_perturbed_values(name):
    rng = random.Random(name)
    g = bg.explore(bundled(name))
    for lam, zero_final in SWEEP_OBJECTIVES:
        res = (sv.solve_exact(g) if lam is None
               else sv.solve_discounted(g, lam, zero_final=zero_final))
        case = (name, lam, zero_final)
        assert assert_same_report(g, res.values, res.choice, lam, zero_final, case).ok
        for _ in range(5):
            bad = perturbed(res.values, rng)
            choice = [j if j is None else rng.randrange(len(g.actions[i]))
                      for i, j in enumerate(res.choice)]
            assert_same_report(g, bad, choice, lam, zero_final, case)


def test_seeded_chains_under_both_objectives():
    """Seeded retry chains, expected time and discounted with final states
    absorbing or acting, at the solved values and perturbed ones."""
    rng = random.Random(4)
    moved = 0
    for seed in range(2):
        for name, g in chain_graphs(seed).items():
            for lam, zero_final in SWEEP_OBJECTIVES:
                res = (sv.solve_exact(g) if lam is None
                       else sv.solve_discounted(g, lam, zero_final=zero_final))
                case = (seed, name, lam, zero_final)
                assert assert_same_report(g, res.values, res.choice, lam, zero_final, case).ok
                report = assert_same_report(g, perturbed(res.values, rng), res.choice,
                                            lam, zero_final, case)
                moved += bool(report.violations)
    assert moved > 0


def test_rooted_graphs_with_fixed_states(monkeypatch):
    """`value_at`'s fallback to `solve_exact`, on a cyclic rooted graph
    whose other states the arena has solved already: M2 rooted at l0 after
    a query at lf (a fixed state of value zero), and a retry chain rooted
    at l0 after a query at l1 (fixed states of nonzero value)."""
    calls = checked_certify(monkeypatch)
    fixed = []
    real = properties.solve_exact

    def solve(g, cfg=None):
        fixed.append(dict(g.fixed))
        return real(g, cfg)

    monkeypatch.setattr(properties, "solve_exact", solve)
    m2 = bundled("M2")
    chain = parse_model(chain_document(2, 2, 1, ("min", "max"), PROBS[1:3]))
    for arena, first in ((m2, "lf"), (chain, "l1")):
        for location in (first, "l0"):
            properties.value_at(arena, location, ClockValuation(arena.ctx, (Fraction(0),)))
    assert calls and len(fixed) >= 2
    assert any(fixed) and any(v != 0 for f in fixed for v in f.values())


@pytest.mark.parametrize("name", BUNDLED + ("chain",))
def test_discount_near_one(name):
    """lam = 999999/1000000 at the exact value of the expected-time optimal
    pair (float value iteration would take millions of sweeps to warm
    start it), at that value perturbed, and from a random pair."""
    lam = Fraction(999999, 1000000)
    rng = random.Random(name)
    g = (chain_graphs(0)["chain(4,3,2)"] if name == "chain"
         else bg.explore(bundled(name)))
    optimal = sv.solve_exact(g).choice
    for zero_final in (True, False):
        choice = [j if j is not None or not g.actions[i] else 0
                  for i, j in enumerate(optimal)] if not zero_final else optimal
        for pair in (choice, [j if j is None else rng.randrange(len(g.actions[i]))
                              for i, j in enumerate(choice)]):
            values = sv.evaluate_pair_discounted(g, pair, lam, zero_final=zero_final)
            case = (name, zero_final, pair)
            assert_same_report(g, values, pair, lam, zero_final, case)
            assert_same_report(g, perturbed(values, rng), pair, lam, zero_final, case)


# ------------------------------------------------------------------- edges

def test_switch_at_a_gap_below_float_precision():
    """Two actions whose backups differ by 2**-80 tie in floats; the integer
    sweep still names the switch to the cheaper one."""
    m1 = bg.explore(bundled("M1"))
    eps = Fraction(1, 2 ** 80)
    g = bg.Brg(m1.arena, states=m1.states[:2], actions=[m1.actions[0][:1] * 2, []],
               rewards=[[1 + eps, Fraction(1)], []],
               dists=[[((1, Fraction(1)),), ((1, Fraction(1)),)], []],
               owners=["min", "min"], finals=[False, True])
    assert float(1 + eps) == float(1)
    report = assert_same_report(g, [Fraction(1), Fraction(0)], [0, None])
    assert report.residual == 0 and report.switches == [(0, 1)] and not report.ok
    # at the dearer action's value the state moves by exactly 2**-80
    report = assert_same_report(g, [1 + eps, Fraction(0)], [0, None])
    assert report.residual == eps and report.violations == [0]


def test_values_over_the_first_forty_primes(monkeypatch):
    """Values 1/p over the first 40 primes: V is their product, and every
    backup is an int over S = Q V, 228 bits with Q = 2."""
    primes = [p for p in range(2, 180) if all(p % d for d in range(2, p))][:40]
    n = len(primes)
    # state i: reward 1, to state i+1 (or the final state n) or to n, 1/2 each
    g = hand_graph([[uniform(i + 1, n)] for i in range(n)] + [[uniform(n)]],
                   [False] * n + [True])
    values = [Fraction(1, p) for p in primes] + [Fraction(0)]
    swept = []
    real = sv._sweep

    def spy(table, vals, choice=None):
        out = real(table, vals, choice)
        swept.append((vals, out[0]))
        return out

    monkeypatch.setattr(sv, "_sweep", spy)
    report = assert_same_report(g, values, [0] * n + [None])
    assert report.violations == list(range(n))
    (scaled, improved), (_, want) = swept  # certify's ints, the oracle's Fractions
    vscale = math.prod(primes)
    assert scaled == [vscale // p for p in primes] + [0]
    q = sv._exact_table(g, True).scale
    assert q == 2 and (q * vscale).bit_length() == 228
    assert all(type(x) is int for x in improved)
    assert [Fraction(x, q * vscale) for x in improved] == want


def test_ints_past_float_range():
    """Values 3**700 and 1/3**700 scale every backup past 2**1024, and a
    discount whose numerator passes 2**1024 multiplies each: the integer
    sweep gives the Fraction certificate's report, where a float could
    hold none of its ints."""
    g = hand_graph([[uniform(1), uniform(2)], [uniform(1)], [uniform(2)]],
                   (False, False, True))
    for values in ([Fraction(3**700), Fraction(1, 3**700), Fraction(0)],
                   [Fraction(1, 3**700), Fraction(3**700), Fraction(0)]):
        for lam in (None, Fraction(0), Fraction(2**1100 - 1, 2**1100)):
            for choice in ([0, 0, None], [1, 0, None]):
                assert_same_report(g, values, choice, lam, case=(values, lam, choice))


def test_discount_zero():
    """At lam = 0 every backup is zero, over any rows and values."""
    for name in BUNDLED:
        g = bg.explore(bundled(name))
        res = sv.solve_discounted(g, 0)
        assert all(v == 0 for v in res.values) and res.certified
        report = assert_same_report(g, res.values, res.choice, Fraction(0))
        assert report.ok
        assert_same_report(g, perturbed(res.values, random.Random(name)), res.choice,
                           Fraction(0))
