"""Boundary region graph construction against hand-derived structure.

The expected state lists, action sets, rewards, and distributions below were
worked out by hand from the bundled game definitions before this module
was written; the tests freeze them.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from fractions import Fraction

import pytest

import oracles
from bundled import BUNDLED, MODELS, bundled
from timedgames import brg as bg
from timedgames import properties
from timedgames.model import Arena, ModelError, load_model, parse_model
from timedgames.regions import (
    ClockContext,
    ClockRegion,
    ClockValuation,
    RegionError,
    closure_contains_scaled,
    enumerate_regions,
    invariant_chain,
    region_of,
    sample_closure_scaled,
    scaled_point,
    time_successor,
    valuation_satisfies,
)


def F(*args) -> Fraction:
    return Fraction(*args)


def val(arena: Arena, x) -> ClockValuation:
    return ClockValuation(arena.ctx, (Fraction(x),))


def state(arena: Arena, loc: str, x, region_point=None) -> bg.BrgState:
    v = val(arena, x)
    r = region_of(val(arena, region_point)) if region_point is not None else region_of(v)
    return bg.BrgState(loc, *scaled_point(v), r)


def test_m1_structure():
    arena = bundled("M1")
    g = bg.explore(arena)
    assert g.states == [
        state(arena, "l0", 0),
        state(arena, "lf", 1, region_point="3/2"),   # infimum endpoint of (1,2)
        state(arena, "lf", 1),
        state(arena, "lf", 2, region_point="3/2"),   # supremum endpoint of (1,2)
        state(arena, "lf", 2),
        state(arena, "lf", 0),
    ]
    assert [len(a) for a in g.actions] == [4, 3, 4, 3, 1, 4]
    assert g.rewards[0] == [F(1), F(1), F(2), F(2)]
    # every action of the root moves to the matching endpoint state
    assert g.dists[0] == [(((1, F(1)),)), ((2, F(1)),), ((3, F(1)),), ((4, F(1)),)]
    # interval states at the same region share one action set: fire now,
    # steer to the supremum, or steer to the next boundary point
    assert g.actions[1] == g.actions[3]
    assert [a.label() for a in g.actions[1]] == [
        "f now in [1<c<2]",
        "f at c=2 in [1<c<2]",
        "f at c=2 in [c=2]",
    ]
    assert g.rewards[1] == [F(0), F(1), F(1)]
    assert g.rewards[3] == [F(0), F(0), F(0)]
    # all lf states funnel into (lf, 0) which loops on itself
    assert all(d == ((5, F(1)),) for d in g.dists[1] + g.dists[2] + g.dists[3] + g.dists[4])
    assert g.rewards[5] == [F(1), F(1), F(2), F(2)]
    assert all(d == ((5, F(1)),) for d in g.dists[5])
    assert [g.is_final(i) for i in range(g.n)] == [False, True, True, True, True, True]


def test_m1x_same_graph_different_owner():
    g = bg.explore(bundled("M1x"))
    assert g.n == 6
    assert g.owner(0) == "max"
    assert all(g.owner(i) == "min" for i in range(1, 6))


def test_m2_structure():
    arena = bundled("M2")
    g = bg.explore(arena)
    assert g.states == [
        state(arena, "l0", 0),
        state(arena, "lf", 1),
        state(arena, "lf", 0),
    ]
    assert [len(a) for a in g.actions] == [1, 4, 4]
    assert g.rewards[0] == [F(1)]
    assert g.dists[0] == [((0, F(1, 2)), (1, F(1, 2)))]
    assert g.rewards[1] == [F(0), F(0), F(1), F(1)]
    assert g.rewards[2] == [F(1), F(1), F(2), F(2)]


def test_m3_structure():
    arena = bundled("M3")
    g = bg.explore(arena)
    assert g.states == [
        state(arena, "l0", 0),
        state(arena, "lf", 1),
        state(arena, "l1", 0),
        state(arena, "lf", 0),
        state(arena, "lf", 0, region_point="1/2"),
        state(arena, "lf", 1, region_point="1/2"),
    ]
    assert g.owner(2) == "max"
    assert g.dists[0] == [((1, F(1, 2)), (2, F(1, 2)))]
    assert [a.label() for a in g.actions[2]] == [
        "b at c=0 in [0<c<1]",
        "b at c=0 in [c=0]",
        "b at c=1 in [0<c<1]",
        "b at c=1 in [c=1]",
    ]
    assert g.rewards[2] == [F(0), F(0), F(1), F(1)]
    assert g.dists[2] == [((4, F(1)),), ((3, F(1)),), ((5, F(1)),), ((1, F(1)),)]


def test_every_state_valuation_in_region_closure():
    """Every state's point lies in the closure of its region at the state's
    own scale, and every reward is at least 0: the fact `_Lattice.expand`
    asserts per branch, which `python -O` strips.  On the arenas of the
    per-state differential test (the bundled models and the seeded chains
    of 1-3 clocks among them) and the back chains (3, 2, 2) and (4, 3, 2),
    explored from the initial state and rooted at a closure sample of every
    region the initial explore reaches."""
    arenas = differential_arenas()
    arenas["back3_2_2"] = parse_model(oracles.chain_document(
        3, 2, 2, ("min", "max", "min"), (F(1, 2), F(1, 3), F(3, 4)), back=True))
    arenas["back4_3_2"] = parse_model(oracles.chain_document(*oracles.CHAIN_4_3_2, back=True))
    rng = random.Random(5)
    for name, arena in arenas.items():
        g = bg.explore(arena)
        graphs = [g]
        for loc, region in dict.fromkeys((s.location, s.region) for s in g.states):
            d = rng.choice((1, 4, 64))
            root = bg.BrgState(loc, sample_closure_scaled(region, rng, d), d, region)
            graphs.append(bg.explore(arena, root=root))
        for h in graphs:
            for s in h.states:
                assert closure_contains_scaled(s.region, s.point, s.scale), (name, s.label())
            assert all(r >= 0 for row in h.rewards for r in row), name


def test_rewards_nonnegative_distributions_stochastic():
    for name in BUNDLED:
        g = bg.explore(bundled(name))
        for i in range(g.n):
            for r in g.rewards[i]:
                assert r >= 0
            for dist in g.dists[i]:
                assert sum(p for _, p in dist) == 1
                assert list(dist) == sorted(dist)
                assert all(p > 0 for _, p in dist)


def test_actions_sorted_and_unique():
    for name in BUNDLED:
        arena = bundled(name)
        g = bg.explore(arena)
        for acts in g.actions:
            keys = [a.sort_key() for a in acts]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)


def test_exploration_is_deterministic():
    a = bg.explore(bundled("M3"))
    b = bg.explore(bundled("M3"))
    assert a.states == b.states
    assert a.actions == b.actions
    assert a.rewards == b.rewards
    assert a.dists == b.dists
    assert bg.export_dot(a) == bg.export_dot(b)


def test_rooted_exploration_inside_thick_region_fires_now():
    """Starting strictly inside the enabled region, firing immediately must
    be one of the actions; it is what makes the graph agree with the
    concrete game there."""
    arena = bundled("M1")
    root = state(arena, "l0", "5/4")
    g = bg.explore(arena, root=root)
    labels = [a.label() for a in g.actions[0]]
    assert labels == [
        "a now in [1<c<2]",
        "a at c=2 in [1<c<2]",
        "a at c=2 in [c=2]",
    ]
    assert g.rewards[0] == [F(0), F(3, 4), F(3, 4)]


# the two ways into a rooted part of the graph; each checks its root alike
ROOTED_ENTRIES = (
    lambda arena, root: bg.explore(arena, root=root),
    lambda arena, root: bg.rooted_values(arena, root, {}),
)


@pytest.mark.parametrize("point,scale", [
    ((F(1, 2),), 1), ((0.5,), 1), ((1,), 2.0), ((-1,), 2), ((1,), 0),
])
def test_root_point_not_nonnegative_integers_is_refused(monkeypatch, point, scale):
    """A root whose point or scale is not made of integers, or is out of
    range, is refused with a RegionError naming the point, before the
    closure and invariant checks read it, by both entry points."""
    arena = bundled("M2")
    region = ClockRegion(arena.ctx, (0,), ((), (0,)))  # 0<c<1
    assert bg.explore(arena, root=bg.BrgState("l0", (1,), 2, region)).n > 1
    monkeypatch.setattr(bg, "closure_contains_scaled", lambda *a: pytest.fail("closure read"))
    monkeypatch.setattr(bg, "satisfies_scaled", lambda *a: pytest.fail("invariant read"))
    for enter in ROOTED_ENTRIES:
        with pytest.raises(RegionError, match=re.escape("%r over %r" % (point, scale))):
            enter(arena, bg.BrgState("l0", point, scale, region))


@pytest.mark.parametrize("enter", ROOTED_ENTRIES, ids=["explore", "rooted_values"])
@pytest.mark.parametrize("case, text", [
    ("outside closure", "root valuation must lie in the closure of its region"),
    ("outside invariant", "root state violates its location invariant"),
])
def test_root_outside_closure_or_invariant_is_refused(enter, case, text):
    if case == "outside closure":
        arena = bundled("M1")
        root = state(arena, "l0", "1/2", region_point="3/2")
    else:
        arena = bad_invariant_arena()
        root = state(arena, "lf", 2)
    with pytest.raises(ModelError, match="^%s$" % re.escape(text)):
        enter(arena, root)


def test_state_cap(monkeypatch):
    """Both entry points count states against the cap and refuse the first
    one over it with the same text."""
    arena = bundled("M1")
    with pytest.raises(bg.ExplorationLimit) as explored:
        bg.explore(arena, cap=3)
    assert str(explored.value) == "state cap 3 crossed while exploring M1"
    monkeypatch.setattr(bg, "DEFAULT_STATE_CAP", 3)
    with pytest.raises(bg.ExplorationLimit) as walked:
        bg.rooted_values(arena, bg.root_key(arena, *arena.initial), {})
    assert str(walked.value) == str(explored.value)


def test_branch_outside_target_invariant_is_an_error():
    import timedgames.model as md
    from timedgames.regions import ClockContext, parse_constraint

    ctx = ClockContext(("c",), 2)
    arena = md.Arena(
        name="badinv",
        ctx=ctx,
        locations=(
            md.Location("l0", "min", False, parse_constraint("c <= 2", ctx)),
            md.Location("lf", "min", True, parse_constraint("c <= 1", ctx)),
        ),
        edges=(
            md.Edge("l0", "a", parse_constraint("c = 2", ctx),
                    (md.Branch(Fraction(1), frozenset(), "lf"),)),
            md.Edge("lf", "f", parse_constraint("c <= 1", ctx),
                    (md.Branch(Fraction(1), frozenset({"c"}), "lf"),)),
        ),
        initial=md.ConcreteState("l0", ClockValuation(ctx, (Fraction(0),))),
    )
    with pytest.raises(ModelError, match="invariant"):
        bg.explore(arena)


def test_export_dot_shape():
    g = bg.explore(bundled("M2"))
    dot = bg.export_dot(g)
    assert dot.startswith("digraph brg {")
    assert dot.count("[shape=point]") == g.action_count()
    assert 's0 [shape=box, label="l0 | c=0 | [c=0]"];' in dot
    assert dot.endswith("}\n")


# ------------------------------------------- compiled moves vs per-state oracle

def differential_arenas() -> dict[str, Arena]:
    arenas = {p.stem: load_model(str(p)) for p in sorted(MODELS.glob("*.model"))}
    # parallel branches that land on one successor state merge their mass,
    # and b and c reach the same two successors with different masses
    arenas["merging"] = parse_model("""
clocks: [c, d]
k: 2
locations:
  - {name: l0, owner: max, final: false, invariant: "c <= 2 & d <= 2"}
  - {name: lf, owner: min, final: true}
edges:
  - source: l0
    action: a
    guard: "c >= 1"
    branches:
      - {prob: "1/4", resets: [], target: lf}
      - {prob: "1/4", resets: [], target: lf}
      - {prob: "1/4", resets: [c, d], target: l0}
      - {prob: "1/4", resets: [d, c], target: l0}
  - source: l0
    action: b
    guard: "c >= 1"
    branches:
      - {prob: "1/3", resets: [], target: lf}
      - {prob: "2/3", resets: [c, d], target: l0}
  - source: l0
    action: c
    guard: "c >= 1"
    branches:
      - {prob: "3/4", resets: [], target: lf}
      - {prob: "1/4", resets: [c, d], target: l0}
  - {source: lf, action: f, guard: "d >= 1", branches: [{prob: "1/1", resets: [d], target: lf}]}
initial: {location: l0, valuation: {c: "0", d: "0"}}
""")
    rng = random.Random(11)
    for clocks, n, k in [(1, 4, 3), (2, 2, 2), (2, 3, 2), (3, 2, 2)]:
        owners = [rng.choice(("min", "max")) for _ in range(n)]
        probs = [rng.choice((F(1, 2), F(1, 3), F(3, 4))) for _ in range(n)]
        arenas["chain%d_%d_%d" % (clocks, n, k)] = parse_model(
            oracles.chain_document(n, k, clocks, owners, probs))
    return arenas


def outcome(build, arena: Arena, **kwargs):
    """The graph's parallel lists and its labels, or the type and text of
    what was raised.  The oracle's states are converted to `BrgState`s."""
    try:
        g = build(arena, **kwargs)
    except (ModelError, RegionError, bg.ExplorationLimit) as exc:
        return type(exc), str(exc)
    states = g.states
    if build is oracles.explore_per_state:
        states = [oracles.scaled_state(s) for s in states]
    return (states, [s.label() for s in g.states], g.actions, g.rewards, g.dists,
            g.owners, g.finals, g.fixed)


def test_explore_matches_per_state_oracle():
    """Same graph and labels as the per-state construction from the initial
    state and from seeded points in the closure of every reachable region,
    on the lattices D = 1, 4 and 64, with every rooted explore of an arena
    sharing its compiled moves."""
    rng = random.Random(3)
    for name, arena in differential_arenas().items():
        assert arena._brg is None, name
        g = bg.explore(arena)
        assert outcome(bg.explore, arena) == outcome(oracles.explore_per_state, arena), name
        for key in dict.fromkeys((s.location, s.region) for s in g.states):
            for d in (1, 4, 64, 64, 64):
                root = bg.BrgState(key[0], sample_closure_scaled(key[1], rng, d), d, key[1])
                got = outcome(bg.explore, arena, root=root)
                assert got == outcome(oracles.explore_per_state, arena, root=root), (name, root)


@pytest.mark.parametrize("name, states", [("diagonal4_3_2", 355), ("strict4_3_2", 279)])
def test_guard_variants_match_per_state_oracle(name, states):
    """The strict and the diagonal guard variant of the (4, 3, 2) chain
    explore to the per-state construction's graph."""
    arena = parse_model(oracles.GUARD_VARIANTS[name])
    got = outcome(bg.explore, arena)
    assert len(got[0]) == states
    assert got == outcome(oracles.explore_per_state, arena)


def mixed_lattice_point(region: ClockRegion, rng, interior: bool = False) -> ClockValuation:
    """A point of the region's closure whose positive blocks take fractions
    with denominators 3, 7 and 64 in turn, in lowest terms when `interior`,
    so that an interior point of a region with three positive blocks lies on
    the lattice of D = lcm(3, 7, 64) = 1344."""
    def draw(d: int) -> Fraction:
        if interior:
            return F(rng.choice([a for a in range(1, d) if math.gcd(a, d) == 1]), d)
        return F(rng.randrange(d + 1), d)

    fracs = sorted(draw(d) for d, _ in zip((3, 7, 64), region.blocks[1:]))
    values = [F(m) for m in region.ints]
    for f, b in zip(fracs, region.blocks[1:]):
        for i in b:
            values[i] += f
    return ClockValuation(region.ctx, tuple(values))


def test_explore_matches_oracle_on_other_lattices_and_at_the_bound():
    """The same graph as the per-state construction from roots whose lattice
    is not a power of two, and from regions with a clock at the bound k
    (invariant violations included, which both refuse alike)."""
    rng = random.Random(5)
    scales = set()
    for name, arena in differential_arenas().items():
        g = bg.explore(arena)
        roots = []
        for key in dict.fromkeys((s.location, s.region) for s in g.states):
            roots.append(bg.BrgState(key[0], *scaled_point(mixed_lattice_point(key[1], rng)),
                                     key[1]))
        regions = enumerate_regions(arena.ctx)
        at_bound = [r for r in regions if arena.ctx.k in r.ints]
        three_blocks = [r for r in regions if len(r.blocks) == 4]
        for loc in arena.locations:
            for r in rng.sample(at_bound, min(4, len(at_bound))):
                roots.append(bg.BrgState(loc.name, *scaled_point(mixed_lattice_point(r, rng)), r))
            for r in rng.sample(three_blocks, min(4, len(three_blocks))):
                roots.append(bg.BrgState(loc.name,
                                         *scaled_point(mixed_lattice_point(r, rng, True)), r))
        for root in roots:
            scales.add(root.scale)
            got = outcome(bg.explore, arena, root=root)
            assert got == outcome(oracles.explore_per_state, arena, root=root), (name, root)
    assert 1344 in scales and 21 in scales


def test_explore_with_known_table_matches_oracle():
    """Rooted explores that stop at the states of a non-empty `known` table
    build the same graph and the same `fixed` values as the per-state
    construction, whether the root itself is known or not."""
    rng = random.Random(9)
    for name, arena in differential_arenas().items():
        g = bg.explore(arena)
        for _ in range(3):
            chosen = rng.sample(g.states, max(1, g.n // 3))
            known = {s: F(j, 7) for j, s in enumerate(chosen)}
            for root in [None] + rng.sample(g.states, min(4, g.n)):
                got = outcome(bg.explore, arena, root=root, known=known)
                expected = outcome(oracles.explore_per_state, arena, root=root, known=known)
                assert got == expected, (name, root)


def test_label_renders_each_coordinate_as_its_fraction():
    """Every coordinate n over D renders as str(Fraction(n, D)), on points
    in lowest terms or not."""
    ctx = ClockContext(("x", "y"), 3)
    for scale in (1, 2, 3, 4, 6, 64, 1344):
        for n in range(0, 3 * scale + 1, max(1, scale // 16)):
            point = (n, 3 * scale - n)
            s = bg.BrgState("l0", point, scale, region_of(
                ClockValuation(ctx, tuple(F(x, scale) for x in point))))
            old = oracles.FractionState(s.location, s.valuation, s.region)
            assert s.label() == old.label(), (point, scale)


def test_one_node_from_two_lattices_is_one_state():
    """A node reached from roots on the lattices D = 4 and D = 64 is one
    state, equal and equally hashed in both graphs, and one entry of the
    arena's table of solved states after a query from each root."""
    for name in ("M2", "M3", "chain2_2_2"):
        arena = differential_arenas()[name]
        loc, v = arena.initial
        r = region_of(v)
        quarter = ClockValuation(arena.ctx, tuple(x + F(1, 4) for x in v.values))
        fine = ClockValuation(arena.ctx, tuple(x + F(5, 64) for x in v.values))
        graphs = [bg.explore(arena, root=bg.root_key(arena, loc, w)) for w in (quarter, fine)]
        assert [g.states[0].scale for g in graphs] == [4, 64], name
        shared = set(graphs[0].states) & set(graphs[1].states)
        assert shared, name
        for w in (quarter, fine):
            properties.value_at(arena, loc, w)
        assert set(arena._solved) == set(graphs[0].states) | set(graphs[1].states), name
        # a root off its lowest terms is the same node as the reduced one
        point, scale = scaled_point(v)
        doubled = bg.BrgState(loc, tuple(2 * x for x in point), 2 * scale, r)
        assert bg.explore(arena, root=doubled).states[0] == bg.root_key(arena, loc, v)


def test_root_key_scaled_is_root_key_of_the_valuation():
    """The node made from a point's integers over d is the one `root_key`
    makes from the point as a valuation, with the arena's copy of its
    region, whether or not the point is in lowest terms, so both hit one
    entry of the arena's table of solved states.  Points are drawn on d =
    1, 2, 4 and 64 in the closure of every reached region, so corners and
    thin boundaries are among them.  A point above k is refused with the
    text `root_key` refuses it with."""
    arenas = differential_arenas()
    rng = random.Random(3)
    for name in ("M1", "M3", "chain3_2_2"):
        arena = arenas[name]
        for s in bg.explore(arena).states:
            for d, _ in itertools.product((1, 2, 4, 64), range(6)):
                point = sample_closure_scaled(s.region, rng, d)
                v = ClockValuation(arena.ctx, tuple(F(x, d) for x in point))
                want = bg.root_key(arena, s.location, v)
                for scale in (d, 3 * d):
                    got = bg.root_key_scaled(arena, s.location,
                                             tuple(scale // d * x for x in point), scale)
                    assert got == want and got.region is want.region, (name, point, d)
                properties.value_at(arena, s.location, v)
                assert want in arena._solved
        ctx, loc = arena.ctx, arena.initial.location
        above = (F(2 * ctx.k + 1, 2),) + (F(0),) * (len(ctx.clocks) - 1)
        with pytest.raises(RegionError) as by_valuation:
            bg.root_key(arena, loc, ClockValuation(ctx, above))
        with pytest.raises(RegionError) as by_point:
            bg.root_key_scaled(arena, loc, tuple(int(4 * x) for x in above), 4)
        assert str(by_point.value) == str(by_valuation.value) == (
            "clock value %d/2 exceeds bound k=%d" % (2 * ctx.k + 1, ctx.k))


def test_boundary_actions_match_rewalking_oracle():
    """The same action set as the earlier construction, which walked the
    future chain again from the start region for every boundary it named,
    on every region of every location, unreachable pairs included."""
    arenas = dict(differential_arenas(), bad_invariant=bad_invariant_arena())
    for name, arena in arenas.items():
        regions = enumerate_regions(arena.ctx)
        for loc in arena.locations:
            for r in regions:
                got = bg.boundary_actions(arena, loc.name, r)
                expected = oracles.boundary_actions_rewalk(arena, loc.name, r)
                assert got == expected, (name, loc.name, r.label())


def readable(arena: Arena, moves) -> list:
    """Compiled moves with each branch's reset getter read as the set of
    clock indices it zeroes, so moves of two equal arenas compare equal."""
    n = len(arena.ctx.clocks)
    probe = tuple(range(1, n + 1)) + (0,)

    def zeroed(reset):
        return None if reset is None else frozenset(
            i for i, v in enumerate(reset(probe)) if v == 0)

    return [(b, ci, [(t, zeroed(reset), region, p) for t, reset, region, p in branches])
            for b, ci, branches in moves]


def compiled(compile, arena: Arena, location: str, region: ClockRegion):
    """The actions and readable moves from (location, region), or the type
    and text of what was raised."""
    try:
        acts, moves = compile(arena, location, region)
    except (ModelError, RegionError) as exc:
        return type(exc), str(exc)
    return acts, readable(arena, moves)


def test_moves_match_per_key_oracle():
    """The same actions and moves, or the same error, as the earlier
    compile, which walked the whole invariant chain of each (location,
    region) and compiled every move again, on every region of every
    location, unreachable and invariant-breaking pairs included.  The two
    run on equal arenas, since both keep what they compile on the arena."""
    arenas = dict(differential_arenas(), bad_invariant=bad_invariant_arena())
    twins = dict(differential_arenas(), bad_invariant=bad_invariant_arena())
    clocks, errors = set(), 0
    for name, arena in arenas.items():
        twin = twins[name]
        assert twin == arena and twin is not arena
        clocks.add(len(arena.ctx.clocks))
        for loc in arena.locations:
            for r in enumerate_regions(arena.ctx):
                got = compiled(bg._moves, arena, loc.name, r)
                want = compiled(oracles.moves_per_key, twin, loc.name, r)
                assert got == want, (name, loc.name, r.label())
                errors += isinstance(got[0], type)
    assert clocks == {1, 2, 3} and errors > 0


def test_reset_getters_zero_their_clocks():
    """The getter each reset set is resolved to maps a point extended by a
    trailing 0 to the point with exactly those clocks zeroed."""
    for name, arena in differential_arenas().items():
        n = len(arena.ctx.clocks)
        point = tuple(range(1, n + 1))
        for e in arena.edges:
            for br in e.branches:
                reset = bg.tables(arena).resets[br.resets]
                want = tuple(0 if c in br.resets else v for c, v in zip(arena.ctx.clocks, point))
                assert (reset(point + (0,)) if reset else point) == want, (name, br)


def count_guard_reads(monkeypatch) -> list:
    reads = []
    real = bg.satisfies

    def counted(region, constraint):
        reads.append((region, id(constraint)))
        return real(region, constraint)

    monkeypatch.setattr(bg, "satisfies", counted)
    return reads


def test_guards_read_once_per_location_region_edge(monkeypatch):
    """Compiling every (location, region) of an arena, and exploring it
    from every state of its graph, reads each edge's guard at most once per
    region."""
    reads = count_guard_reads(monkeypatch)
    for name, arena in differential_arenas().items():
        edge_of = {id(e.guard): e for e in arena.edges}
        # each guard object belongs to one edge and is no invariant
        assert len(edge_of) == len(arena.edges), name
        assert not edge_of.keys() & {id(l.invariant) for l in arena.locations}, name
        reads.clear()
        g = bg.explore(arena)
        for s in g.states:
            bg.explore(arena, root=s)
        for loc in arena.locations:
            for r in enumerate_regions(arena.ctx):
                try:
                    bg._moves(arena, loc.name, r)
                except ModelError:
                    pass
        guard_reads = [(r, i) for r, i in reads if i in edge_of]
        assert guard_reads and len(guard_reads) == len(set(guard_reads)), name


def bad_invariant_arena() -> Arena:
    return parse_model("""
clocks: [c]
k: 2
locations:
  - {name: l0, owner: min, final: false, invariant: "c <= 2"}
  - {name: lf, owner: min, final: true, invariant: "c <= 1"}
edges:
  - {source: l0, action: w, guard: "c <= 1", branches: [{prob: "1/1", resets: [], target: l0}]}
  - {source: l0, action: a, guard: "c = 2", branches: [{prob: "1/1", resets: [], target: lf}]}
  - {source: lf, action: f, guard: "c <= 1", branches: [{prob: "1/1", resets: [c], target: lf}]}
initial: {location: l0, valuation: {c: "0"}}
""")


@pytest.mark.parametrize("case", ["target invariant", "root outside closure", "cap"])
def test_explore_errors_match_per_state_oracle(case):
    if case == "target invariant":
        arena, kwargs = bad_invariant_arena(), {}
    elif case == "root outside closure":
        arena = bundled("M1")
        kwargs = {"root": state(arena, "l0", "1/2", region_point="3/2")}
    else:
        arena, kwargs = bundled("M3"), {"cap": 4}
    expected = outcome(oracles.explore_per_state, arena, **kwargs)
    assert isinstance(expected[0], type)
    assert outcome(bg.explore, arena, **kwargs) == expected
    # a failed compile stores nothing, so a second explore fails alike
    assert outcome(bg.explore, arena, **kwargs) == expected


# ------------------------------------------------- the shared per-arena table

def count_calls(monkeypatch, name: str) -> list:
    """The (location, region or action) of every call of `bg.<name>`."""
    calls = []
    real = getattr(bg, name)

    def counted(arena, location, x):
        calls.append((location, x))
        return real(arena, location, x)

    monkeypatch.setattr(bg, name, counted)
    return calls


def count_compiles(monkeypatch) -> list:
    return count_calls(monkeypatch, "boundary_actions")


def test_moves_compile_once_per_location_region(monkeypatch):
    """Many rooted solves on a fresh arena compile each (location, region)
    once, build each slice once per (location, region) on their invariant
    chains and each move once per (location, action) in their action sets,
    and a second explore of the same arena compiles nothing new.  The
    states a query expands are the ones its walk values, or the ones its
    explore builds when the walk declines."""
    calls = count_compiles(monkeypatch)
    slices = count_calls(monkeypatch, "_slice")
    moves = count_calls(monkeypatch, "_compile_move")
    seen = set()
    real_explore, real_walk = properties.explore, properties.rooted_values

    def recording(arena, *args, **kwargs):
        g = real_explore(arena, *args, **kwargs)
        seen.update((s.location, s.region) for s in g.states)
        return g

    def walking(arena, *args, **kwargs):
        solved = real_walk(arena, *args, **kwargs)
        seen.update((s.location, s.region) for s in solved or ())
        return solved

    monkeypatch.setattr(properties, "explore", recording)
    monkeypatch.setattr(properties, "rooted_values", walking)
    for name in ("M1", "M3"):
        arena = bundled(name)
        assert arena._brg is None and not arena._solved
        for log in (calls, slices, moves, seen):
            log.clear()
        for loc in arena.locations:
            for j in range(17):
                point = val(arena, F(j, 8))
                if valuation_satisfies(point, loc.invariant):
                    properties.value_at(arena, loc.name, point)
        assert len(calls) == len(set(calls)) == len(seen)
        assert set(calls) == seen
        t = bg.tables(arena)
        assert len(slices) == len(set(slices)) == len(t.slices)
        assert set(slices) == chain_keys(arena)
        assert len(moves) == len(set(moves)) == len(t.action_moves)
        assert set(moves) == {(l, a) for (l, _), (acts, _) in t.moves.items() for a in acts}
        bg.explore(arena)
        assert (len(calls), len(slices), len(moves)) == (len(seen), len(set(slices)),
                                                         len(set(moves)))


def chain_keys(arena: Arena) -> set:
    """(location, region) of every region on the invariant chain of each
    compiled (location, region), with the region that ends the chain."""
    keys = set()
    for location, region in bg.tables(arena).moves:
        inv = arena.location_named(location).invariant
        r = region
        for r in invariant_chain(region, inv):
            keys.add((location, r))
            r = time_successor(r)
        if r is not None:
            keys.add((location, r))
    return keys


def count_regions(monkeypatch) -> list:
    built = []
    real = ClockRegion.__post_init__

    def counted(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(ClockRegion, "__post_init__", counted)
    return built


def test_regions_built_once_per_arena(monkeypatch):
    """An explore builds and validates the root's region and one region per
    time successor or reset it has not met before on the arena; a second
    explore, rooted anywhere in the first graph or at the initial state,
    builds none."""
    arenas = differential_arenas()
    built = count_regions(monkeypatch)
    for name in ("M3", "merging", "chain2_3_2", "chain3_2_2"):
        arena = arenas[name]
        built.clear()
        g = bg.explore(arena)
        t = bg.tables(arena)
        made = sum(r is not None for r in t.regions.values())
        assert made and len(built) == 1 + made, name
        # the slices and moves hold only canonical regions of the arena,
        # so they built none of their own
        canon = {id(r) for r in t.canon.values() if isinstance(r, ClockRegion)}
        for (_, region), entry in t.slices.items():
            if entry is not None:
                first, later, succ = entry
                assert all(id(a.target) in canon for _, a in first + later), name
                assert succ is None or id(succ) in canon, name
        for b, ci, branches in t.action_moves.values():
            assert all(id(region) in canon for _, _, region, _ in branches), name
        tables = (len(t.slices), len(t.action_moves), len(t.moves))
        built.clear()
        for s in g.states:
            bg.explore(arena, root=s)
        assert built == [], name
        assert (len(t.slices), len(t.action_moves), len(t.moves)) == tables
        # the default root's region is the arena's copy (`root_key`)
        bg.explore(arena)
        assert built == [], name


def test_action_label_rendered_once(monkeypatch):
    """Every occurrence of a canonical action shares one label, rendered the
    first time it is read; the memo is not part of equality or repr."""
    arena = differential_arenas()["chain3_2_2"]
    g = bg.explore(arena)
    acts = {id(a): a for row in g.actions for a in row}
    calls = []
    real = ClockRegion.label

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(ClockRegion, "label", counted)
    first = [[a.label() for a in row] for row in g.actions]
    assert [[a.label() for a in row] for row in g.actions] == first
    assert len(calls) == len(acts) < g.action_count()
    for a in acts.values():
        twin = bg.BoundaryAction(a.action, a.target, a.b, a.c)
        assert twin == a and hash(twin) == hash(a) and repr(twin) == repr(a)


def test_distribution_check_precedes_expansion():
    """A non-stochastic edge is refused with its text before any state is
    expanded, ahead of a bad root, and again on every later explore.  A
    direct compile of one (location, region) is refused alike, so it cannot
    let a later explore through, and no refusal leaves tables on the arena."""
    text = (MODELS / "M2.model").read_text()
    arena = parse_model(text.replace('prob: "1/2", resets: [c]', 'prob: "1/4", resets: [c]'))
    refused = r"^edge \(l0, a\): branch probabilities sum to 3/4, not 1$"
    with pytest.raises(ModelError, match=refused):
        bg._moves(arena, "l0", region_of(arena.initial.valuation))
    assert arena._brg is None
    bad_root = state(arena, "l0", "1/2", region_point="3/2")
    for root in (None, bad_root, state(arena, "l0", "1/2"), None):
        with pytest.raises(ModelError, match=refused):
            bg.explore(arena, root=root)
        assert arena._brg is None


def test_moves_table_is_invisible(monkeypatch):
    """Neither the tables of moves nor the table of solved states changes
    equality, hash or repr of the arena, and an equal arena with no tables
    yet computes the same value into its own tables."""
    used, fresh = bundled("M3"), bundled("M3")
    point = val(used, "1/4")
    assert properties.value_at(used, "l0", point) == F(5, 4)
    u = bg.tables(used)
    assert used._solved and u.moves and u.regions and u.slices and u.action_moves
    assert fresh._brg is None and not fresh._solved
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
    calls = count_compiles(monkeypatch)
    assert properties.value_at(fresh, "l0", point) == F(5, 4)
    f = bg.tables(fresh)
    assert sorted(calls, key=repr) == sorted(u.moves, key=repr)
    assert fresh._solved == used._solved and f.moves.keys() == u.moves.keys()
    assert f.regions == u.regions and f.slices == u.slices
    keys = list(u.action_moves)
    assert f.action_moves.keys() == u.action_moves.keys()
    assert (readable(fresh, [f.action_moves[k] for k in keys])
            == readable(used, [u.action_moves[k] for k in keys]))
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
