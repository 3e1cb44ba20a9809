"""Region algebra against brute-force oracles and its own invariants."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from timedgames import regions as rg

import oracles

NAMES = ("x", "y", "z")


@st.composite
def contexts(draw, max_clocks: int = 3, max_k: int = 2):
    n = draw(st.integers(1, max_clocks))
    k = draw(st.integers(1, max_k))
    return rg.ClockContext(NAMES[:n], k)


@st.composite
def valuations(draw, max_den: int = 16, max_k: int = 2):
    ctx = draw(contexts(max_k=max_k))
    vals = []
    for _ in ctx.clocks:
        den = draw(st.integers(1, max_den))
        vals.append(Fraction(draw(st.integers(0, ctx.k * den)), den))
    return rg.ClockValuation(ctx, tuple(vals))


@st.composite
def constraints(draw, ctx):
    atoms = []
    for _ in range(draw(st.integers(0, 3))):
        left = draw(st.sampled_from(ctx.clocks))
        right = None
        if len(ctx.clocks) > 1 and draw(st.booleans()):
            right = draw(st.sampled_from([c for c in ctx.clocks if c != left]))
        op = draw(st.sampled_from(rg.OPS))
        atoms.append(rg.SimpleConstraint(left, right, op, draw(st.integers(0, ctx.k))))
    return rg.ClockConstraint(tuple(atoms))


@st.composite
def upper_bounds(draw, ctx):
    """An invariant ``c < n`` or ``c <= n``, which cuts the future chain."""
    atom = rg.SimpleConstraint(draw(st.sampled_from(ctx.clocks)), None,
                               draw(st.sampled_from(("<", "<="))), draw(st.integers(1, ctx.k)))
    return rg.ClockConstraint((atom,))


# ---------------------------------------------------------------- region_of

def test_region_of_partition_matches_signature_oracle():
    """region_of induces exactly the constraint-signature partition."""
    rng = random.Random(20240817)
    for n in (1, 2, 3):
        for k in (1, 2):
            ctx = rg.ClockContext(NAMES[:n], k)
            sig_to_region: dict = {}
            region_to_sig: dict = {}
            for _ in range(400):
                values = oracles.random_valuation(rng, n, k)
                sig = oracles.constraint_signature(values, k)
                reg = rg.region_of(rg.ClockValuation(ctx, values))
                assert sig_to_region.setdefault(sig, reg) == reg
                assert region_to_sig.setdefault(reg, sig) == sig


def test_region_of_rejects_out_of_range():
    ctx = rg.ClockContext(("x",), 2)
    with pytest.raises(rg.RegionError):
        rg.region_of(rg.ClockValuation(ctx, (Fraction(5, 2),)))


@given(valuations())
@settings(max_examples=300)
def test_region_of_canonical_and_thin(v):
    r = rg.region_of(v)
    # canonical form is validated by the constructor; spot-check meaning
    for i, val in enumerate(v.values):
        assert r.ints[i] == val.numerator // val.denominator
    assert rg.is_thin(r) == any(val.denominator == 1 for val in v.values)
    assert rg.closure_contains(r, v)


@given(valuations())
@settings(max_examples=200)
def test_representative_and_interior_sampling_round_trip(v):
    r = rg.region_of(v)
    assert rg.region_of(rg.representative(r)) == r
    rng = random.Random(7)
    for _ in range(3):
        assert rg.region_of(rg.sample_interior(r, rng)) == r
        assert rg.closure_contains(r, rg.sample_closure(r, rng))


# ---------------------------------------------------------- time successors

def test_time_successor_matches_elapse_oracle():
    rng = random.Random(99)
    for n in (1, 2, 3):
        for k in (1, 2):
            ctx = rg.ClockContext(NAMES[:n], k)
            for _ in range(400):
                values = oracles.random_valuation(rng, n, k)
                v = rg.ClockValuation(ctx, values)
                eps = oracles.elapse_witness(values, k)
                succ = rg.time_successor(rg.region_of(v))
                if eps is None:
                    assert succ is None
                else:
                    assert succ == rg.region_of(v.shift(eps))


@given(valuations())
@settings(max_examples=200)
def test_future_chain_alternates_and_terminates(v):
    chain = list(rg.invariant_chain(rg.region_of(v), rg.TRUE))
    assert len(chain) <= 2 * len(v.ctx.clocks) * (v.ctx.k + 1) + 1
    for a, b in zip(chain, chain[1:]):
        assert rg.is_thin(a) != rg.is_thin(b)
    last = chain[-1]
    assert rg.is_thin(last)
    assert any(last.ints[i] == v.ctx.k for i in last.blocks[0])
    # thick regions always have a successor, so the chain can only stop thin
    for r in chain[:-1]:
        assert rg.time_successor(r) is not None


@given(valuations())
@settings(max_examples=200)
def test_reset_commutes_with_region_of(v):
    ctx = v.ctx
    for mask in range(1, 1 << len(ctx.clocks)):
        names = {ctx.clocks[i] for i in range(len(ctx.clocks)) if mask >> i & 1}
        assert rg.reset_region(rg.region_of(v), names) == rg.region_of(v.reset(names))


@given(valuations())
@settings(max_examples=200)
def test_equal_regions_hash_equal_whatever_built_them(v):
    """A region's hash is computed once, from the fields that equality
    compares, and is itself neither compared nor shown: equal regions built
    directly, by `region_of`, by `time_successor` and by `reset_region`
    hash equal."""
    ctx = v.ctx
    r = rg.region_of(v)
    twin = rg.ClockRegion(rg.ClockContext(ctx.clocks, ctx.k), tuple(r.ints), r.blocks)
    assert twin == r and hash(twin) == hash(r) == hash((r.ctx, r.ints, r.blocks))
    assert repr(twin) == repr(r) and "_hash" not in repr(r)
    eps = oracles.elapse_witness(v.values, ctx.k)
    if eps is not None:
        succ, direct = rg.time_successor(r), rg.region_of(v.shift(eps))
        assert succ == direct and hash(succ) == hash(direct)
    for mask in range(1, 1 << len(ctx.clocks)):
        names = {ctx.clocks[i] for i in range(len(ctx.clocks)) if mask >> i & 1}
        reset, direct = rg.reset_region(r, names), rg.region_of(v.reset(names))
        assert reset == direct and hash(reset) == hash(direct)


# ------------------------------------------------------------- constraints

@given(st.data())
@settings(max_examples=300)
def test_satisfies_agrees_with_pointwise_check(data):
    v = data.draw(valuations())
    phi = data.draw(constraints(v.ctx))
    r = rg.region_of(v)
    assert rg.satisfies(r, phi) == rg.valuation_satisfies(v, phi)
    # and the answer is the same anywhere else in the region
    w = rg.sample_interior(r, random.Random(3)) if not rg.is_thin(r) else rg.representative(r)
    assert rg.region_of(w) == r
    assert rg.valuation_satisfies(w, phi) == rg.valuation_satisfies(v, phi)


@given(st.data())
@settings(max_examples=200)
def test_parsed_atoms_carry_their_clock_indices(data):
    """A parsed constraint equals, hashes and prints like one built from bare
    atoms, decides every region and valuation alike, and looks no clock up
    by name on its own context; on a context that orders the same clocks
    differently it still reads its clocks by name."""
    v = data.draw(valuations())
    bare = data.draw(constraints(v.ctx))
    parsed = rg.parse_constraint(bare.render(), v.ctx)
    assert parsed == bare and hash(parsed) == hash(bare) and repr(parsed) == repr(bare)
    r = rg.region_of(v)
    expected = rg.satisfies(r, bare), rg.valuation_satisfies(v, bare)
    lookups = []
    real = rg.ClockContext.index
    rg.ClockContext.index = lambda ctx, c: lookups.append(c) or real(ctx, c)
    try:
        assert (rg.satisfies(r, parsed), rg.valuation_satisfies(v, parsed)) == expected
    finally:
        rg.ClockContext.index = real
    assert lookups == []
    flipped = rg.ClockContext(v.ctx.clocks[::-1], v.ctx.k)
    w = rg.ClockValuation(flipped, v.values[::-1])
    assert (rg.satisfies(rg.region_of(w), parsed), rg.valuation_satisfies(w, parsed)) == expected


def all_atoms(ctx: rg.ClockContext) -> list[rg.SimpleConstraint]:
    """Every single-clock and diagonal atom of ctx with every operator and
    every bound from -1 to k + 1, carrying its clock indices as parsed
    atoms do."""
    pairs = [(i, None) for i in range(len(ctx.clocks))]
    pairs += [(i, j) for i in range(len(ctx.clocks)) for j in range(len(ctx.clocks)) if i != j]
    return [
        rg.SimpleConstraint(ctx.clocks[i], None if j is None else ctx.clocks[j], op, n, ctx, i, j)
        for i, j in pairs for op in rg.OPS for n in range(-1, ctx.k + 2)
    ]


@pytest.mark.parametrize("n,k", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_satisfies_matches_symbolic_oracle_on_every_region(n, k):
    """Deciding an atom at a region's representative agrees with the
    symbolic case analysis of the canonical form, on every region and for
    every atom."""
    ctx = rg.ClockContext(NAMES[:n], k)
    atoms = all_atoms(ctx)
    for r in rg.enumerate_regions(ctx):
        for atom in atoms:
            phi = rg.ClockConstraint((atom,))
            assert rg.satisfies(r, phi) == oracles.satisfies_symbolic(r, phi), (r, atom)


@given(st.data())
@settings(max_examples=300)
def test_valuation_satisfies_matches_fraction_oracle(data):
    """The pointwise check agrees with one case per operator on the
    Fractions, also for clocks above k and bounds outside [0, k], and so
    does the same point as integers over any common denominator."""
    ctx = data.draw(contexts())
    vals = []
    for _ in ctx.clocks:
        den = data.draw(st.integers(1, 8))
        vals.append(Fraction(data.draw(st.integers(0, (ctx.k + 2) * den)), den))
    v = rg.ClockValuation(ctx, tuple(vals))
    atoms = data.draw(st.lists(st.sampled_from(all_atoms(ctx)), max_size=3))
    phi = rg.ClockConstraint(tuple(atoms))
    expected = oracles.valuation_satisfies_fractions(v, phi)
    assert rg.valuation_satisfies(v, phi) == expected
    point, scale = rg.scaled_point(v)
    multiple = data.draw(st.integers(1, 4))
    assert rg.satisfies_scaled(ctx, [p * multiple for p in point], scale * multiple,
                               phi) == expected


@given(valuations(), st.integers(1, 6))
@settings(max_examples=300)
def test_closure_contains_scaled_agrees(v, multiple):
    """The integer closure test of a point scaled by any multiple of its
    denominators agrees with the earlier Fraction one on every region of
    the context, and accepts the point's own region."""
    scale = multiple * math.lcm(*(x.denominator for x in v.values))
    point = tuple(int(x * scale) for x in v.values)
    for r in rg.enumerate_regions(v.ctx):
        assert (rg.closure_contains_scaled(r, point, scale)
                == oracles.closure_contains_fractions(r, v))
    assert rg.closure_contains_scaled(rg.region_of(v), point, scale)


def test_closure_contains_matches_fraction_oracle():
    """On seeded valuations, random ones, points of a region's closure with
    coordinates on block boundaries (integer or equal fractions) and the
    same points pushed just outside, the closure test agrees with the
    earlier Fraction one on every region; both outcomes occur."""
    rng = random.Random(41)
    outcomes = set()
    for n in (1, 2, 3):
        for k in (1, 2):
            ctx = rg.ClockContext(NAMES[:n], k)
            regions = list(rg.enumerate_regions(ctx))
            points = [rg.ClockValuation(ctx, oracles.random_valuation(rng, n, k))
                      for _ in range(20)]
            for r in rng.sample(regions, min(len(regions), 12)):
                closed = rg.sample_closure(r, rng, denominator=rng.choice((1, 2, 4)))
                points.append(closed)
                for i in range(n):
                    nudged = list(closed.values)
                    nudged[i] += Fraction(rng.choice((-1, 1)), 128)
                    if 0 <= nudged[i] <= k:
                        points.append(rg.ClockValuation(ctx, tuple(nudged)))
            for v in points:
                for r in regions:
                    got = rg.closure_contains(r, v)
                    assert got == oracles.closure_contains_fractions(r, v), (r, v)
                    outcomes.add(got)
    assert outcomes == {True, False}
    other = rg.region_of(rg.ClockValuation(rg.ClockContext(("y",), 1), (Fraction(0),)))
    with pytest.raises(rg.RegionError):
        rg.closure_contains(other, rg.ClockValuation(rg.ClockContext(("x",), 1),
                                                     (Fraction(0),)))


def test_parse_constraint():
    ctx = rg.ClockContext(("x", "y"), 2)
    phi = rg.parse_constraint("x >= 1 & x <= 2 & x - y < 1", ctx)
    assert len(phi.atoms) == 3
    assert phi.render() == "x >= 1 & x <= 2 & x - y < 1"
    assert rg.parse_constraint("true", ctx) == rg.TRUE
    with pytest.raises(rg.RegionError):
        rg.parse_constraint("x <= 3", ctx)  # constant above k
    with pytest.raises(rg.RegionError):
        rg.parse_constraint("w <= 1", ctx)
    with pytest.raises(rg.RegionError):
        rg.parse_constraint("x ==", ctx)
    with pytest.raises(rg.RegionError):
        rg.parse_constraint("x - x < 1", ctx)


# ------------------------------------------------- boundaries and windows

@given(valuations())
@settings(max_examples=200)
def test_boundary_coordinates_name_the_exact_hit_time(v):
    for target in rg.invariant_chain(rg.region_of(v), rg.TRUE):
        if not rg.is_thin(target):
            assert oracles.delay_window_oracle(v, target) is not None
            with pytest.raises(rg.RegionError):
                rg.boundary(target)
            continue
        b, c = rg.boundary(target)
        t = b - v.values[c]
        assert t >= 0
        assert rg.region_of(v.shift(t)) == target
        # every zero-block clock of the target names the same instant
        for i in target.blocks[0]:
            assert target.ints[i] - v.values[i] == t
        assert c == min(target.blocks[0])


@given(st.data())
@settings(max_examples=300)
def test_invariant_chain_is_the_prefix_inside_the_invariant(data):
    v = data.draw(valuations())
    inv = data.draw(constraints(v.ctx))
    start = rg.region_of(v)
    chain = list(rg.invariant_chain(start, inv))
    future = list(rg.invariant_chain(start, rg.TRUE))
    assert chain == future[:len(chain)]
    assert all(rg.satisfies(r, inv) for r in chain)
    if len(chain) < len(future):
        assert not rg.satisfies(future[len(chain)], inv)


@given(valuations())
@settings(max_examples=200)
def test_delay_window_endpoints(v):
    for target, w in rg.delay_windows(v, rg.TRUE):
        assert w is not None
        if rg.is_thin(target):
            assert w.lo == w.hi and w.closed_lo
            assert rg.region_of(v.shift(w.lo)) == target
        else:
            assert w.lo < w.hi
            assert w.closed_lo == (target == rg.region_of(v))
            mid = (w.lo + w.hi) / 2
            assert rg.region_of(v.shift(mid)) == target
            if w.closed_lo:
                assert rg.region_of(v.shift(w.lo)) == target
            # just past hi is out
            assert rg.region_of(v.shift(w.hi)) != target


@given(st.data())
@settings(max_examples=400)
def test_delay_windows_match_the_per_target_oracle(data):
    """One walk gives each region of the invariant chain the window that
    the earlier walk of the whole future chain gives it: 1-3 clocks, k up to
    3, valuations on the integer lattice and off it, and invariants that
    may cut the chain anywhere."""
    v = data.draw(st.one_of(valuations(max_den=1, max_k=3), valuations(max_k=3)))
    inv = data.draw(st.one_of(st.just(rg.TRUE), constraints(v.ctx), upper_bounds(v.ctx)))
    chain = list(rg.invariant_chain(rg.region_of(v), inv))
    assert list(rg.delay_windows(v, inv)) == [
        (r, oracles.delay_window_oracle(v, r)) for r in chain]


def test_delay_window_none_for_unreachable_region():
    ctx = rg.ClockContext(("x",), 2)
    v = rg.ClockValuation(ctx, (Fraction(3, 2),))
    past = rg.region_of(rg.ClockValuation(ctx, (Fraction(1, 2),)))
    assert past not in dict(rg.delay_windows(v, rg.TRUE))
    assert oracles.delay_window_oracle(v, past) is None


# ------------------------------------------------------------ enumeration

def test_enumerate_regions_one_clock():
    ctx = rg.ClockContext(("x",), 2)
    regs = rg.enumerate_regions(ctx)
    assert len(regs) == 5
    labels = [r.label() for r in regs]
    # the canonical key orders an open interval before the point below it
    assert labels == ["0<x<1", "x=0", "1<x<2", "x=1", "x=2"]


def test_enumerate_regions_covers_samples():
    rng = random.Random(5)
    for n in (1, 2, 3):
        ctx = rg.ClockContext(NAMES[:n], 2)
        regs = rg.enumerate_regions(ctx)
        assert len(set(regs)) == len(regs)
        universe = set(regs)
        for _ in range(200):
            values = oracles.random_valuation(rng, n, 2)
            assert rg.region_of(rg.ClockValuation(ctx, values)) in universe
        # every region is populated by its own representative
        for r in regs:
            assert rg.region_of(rg.representative(r)) == r
