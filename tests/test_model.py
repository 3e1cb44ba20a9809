"""Model parsing, validation findings, and the concrete timed semantics."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
import yaml
from hypothesis import HealthCheck, given, settings

import oracles
from bundled import BUNDLED, MODELS, bundled
from oracles import chain_document, enumerate_zeno_cycles
from test_cli import m2_mutations
from timedgames import model as md
from timedgames import properties
from timedgames.brg import explore
from timedgames.regions import (
    ClockContext,
    ClockRegion,
    ClockValuation,
    enumerate_regions,
    parse_constraint,
    satisfies,
    valuation_satisfies,
)
from timedgames.simulate import ConcretizedStrategy, simulate_run
from timedgames.solver import solve_exact


def test_dump_parse_round_trip():
    for name in BUNDLED:
        arena = bundled(name)
        assert md.parse_model(md.dump_model(arena)) == arena, name


def test_fixtures_validate_clean():
    for name in BUNDLED:
        assert md.validate(bundled(name)) == [], name


def test_unreachable_variant_parses_and_validates():
    arena = bundled("M2-unreachable")
    # structurally fine: the trouble it exists for is semantic (no path to
    # the final location), which is the solver's job to detect
    assert md.validate(arena) == []


# ------------------------------------------------------------ YAML loaders

needs_libyaml = pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"),
                                   reason="PyYAML is installed without libyaml")
LOADERS = [pytest.param("libyaml", marks=needs_libyaml), "pure"]
M1_TEXT = (MODELS / "M1.model").read_text()


def parse_with(loader: str, text: str):
    """`parse_model(text)` with PyYAML's libyaml loader present, or hidden
    so that the pure-Python safe loader parses; an exception is returned as
    (type, message)."""
    with pytest.MonkeyPatch.context() as mp:
        if loader == "pure":
            mp.delattr(yaml, "CSafeLoader", raising=False)
        try:
            return md.parse_model(text)
        except Exception as exc:
            return type(exc), str(exc)


def assert_loaders_agree(text: str, case) -> None:
    docs = [yaml.load(text, Loader=loader) for loader in (yaml.CSafeLoader, yaml.SafeLoader)]
    assert docs[0] == docs[1], case
    assert parse_with("libyaml", text) == parse_with("pure", text), case


def test_parse_model_prefers_the_libyaml_loader(monkeypatch):
    """The libyaml loader parses when PyYAML has it, the pure-Python safe
    loader otherwise."""
    used = []
    real = yaml.load

    def recording(stream, Loader):
        used.append(Loader)
        return real(stream, Loader=Loader)

    want = bundled("M1")
    preferred = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    monkeypatch.setattr(yaml, "load", recording)
    assert md.parse_model(M1_TEXT, name="M1") == want
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    assert md.parse_model(M1_TEXT, name="M1") == want
    assert used == [preferred, yaml.SafeLoader]


@needs_libyaml
def test_loaders_agree_on_bundled_models_and_chains():
    """Both loaders give equal documents and equal arenas on every bundled
    model and on retry chains of one to three clocks."""
    texts = {path.name: path.read_text() for path in sorted(MODELS.glob("*.model"))}
    rng = random.Random(4)
    probs = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 4), Fraction(3, 4))
    for n, k, clocks in ((1, 1, 1), (2, 2, 2), (4, 3, 2), (12, 3, 1), (4, 3, 3)):
        owners = [rng.choice(("min", "max")) for _ in range(n)]
        texts["chain(%d,%d,%d)" % (n, k, clocks)] = chain_document(
            n, k, clocks, owners, [rng.choice(probs) for _ in range(n)])
    for name, text in texts.items():
        assert_loaders_agree(text, name)
        assert isinstance(parse_with("libyaml", text), md.Arena), name


@needs_libyaml
@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(m2_mutations())
def test_loaders_agree_on_mutated_models(text):
    """M2 documents mutated as in the CLI's exit-code test parse to equal
    documents under both loaders, and to equal arenas or equal errors."""
    assert_loaders_agree(text, text)


MALFORMED_YAML = {
    "unclosed flow collection": M1_TEXT.replace("clocks: [c]", "clocks: [c"),
    "tab indentation": M1_TEXT.replace("  location: l0", "\tlocation: l0"),
    "two documents": M1_TEXT + "---\n" + M1_TEXT,
    "python tag": M1_TEXT.replace("k: 2", "k: !!python/object:fractions.Fraction {}"),
    "control character": M1_TEXT.replace("name: l0", "name: l\x070"),
}


@pytest.mark.parametrize("loader", LOADERS)
@pytest.mark.parametrize("case", MALFORMED_YAML)
def test_malformed_yaml_is_a_model_error(loader, case):
    kind, message = parse_with(loader, MALFORMED_YAML[case])
    assert kind is md.ModelError and message.startswith("not valid YAML"), message


@pytest.mark.parametrize("loader", LOADERS)
def test_empty_text_is_not_a_mapping(loader):
    assert parse_with(loader, "") == (md.ModelError, "model document must be a mapping")


# ----------------------------------------------------------------- parsing

def test_parse_rational():
    assert md.parse_rational("1/2") == Fraction(1, 2)
    assert md.parse_rational(3) == Fraction(3)
    assert md.parse_rational("7") == Fraction(7)
    for bad in (0.5, "0.5", "1e-3", True, None, "1/", "1/0", "0/0"):
        with pytest.raises(md.ModelError):
            md.parse_rational(bad)
    assert md.format_rational(Fraction(2)) == "2/1"
    assert md.format_rational(Fraction(1, 3)) == "1/3"


def test_format_rational_of_an_int():
    assert [md.format_rational(n) for n in (0, 3, -4, 10**30)] == [
        "0/1", "3/1", "-4/1", "%d/1" % 10**30]


def test_format_rational_of_a_string():
    assert [md.format_rational(t) for t in ("6/4", "-2/8", " 7 ", "0/5", "-0.25")] == [
        "3/2", "-1/4", "7/1", "0/1", "-1/4"]


def test_format_rational_of_a_fraction():
    """A Fraction is read as it is, with the text a rebuilt one would give."""
    values = (Fraction(-6, 4), Fraction(0), Fraction(10**20 + 1, 3), Fraction(5))
    assert [md.format_rational(f) for f in values] == [
        "-3/2", "0/1", "%d/3" % (10**20 + 1), "5/1"]
    assert all(md.format_rational(f) == md.format_rational(Fraction(f)) for f in values)


def _m1_text(**edits) -> str:
    arena = bundled("M1")
    text = md.dump_model(arena)
    for old, new in edits.items():
        assert old in text
        text = text.replace(old, new)
    return text


def test_parse_rejects_float_probability():
    with pytest.raises(md.ModelError, match="float"):
        md.parse_model(_m1_text(**{"prob: 1/1": "prob: 0.5"}))


def test_parse_rejects_duplicate_source_action():
    text = _m1_text()
    dup = (
        "- source: l0\n"
        "  action: a\n"
        "  guard: c >= 1\n"
        "  branches:\n"
        "  - {prob: 1/1, resets: [], target: lf}\n"
    )
    text += "\n"  # dump ends without trailing blank line
    text = text.replace("edges:\n", "edges:\n" + dup)
    with pytest.raises(md.ModelError, match="share"):
        md.parse_model(text)


def test_parse_rejects_unknown_names():
    with pytest.raises(md.ModelError):
        md.parse_model(_m1_text(**{"target: lf": "target: nowhere"}))
    with pytest.raises(md.ModelError):
        md.parse_model(_m1_text(**{"guard: c >= 1 & c <= 2": "guard: d >= 1"}))
    with pytest.raises(md.ModelError):
        md.parse_model(_m1_text(**{"location: l0": "location: zz"}))


def test_parse_rejects_bad_bounds_and_k():
    with pytest.raises(md.ModelError):
        md.parse_model(_m1_text(**{"guard: c >= 1 & c <= 2": "guard: c >= 3"}))
    with pytest.raises(md.ModelError):
        md.parse_model(_m1_text(**{"k: 2": "k: 0"}))
    with pytest.raises(md.ModelError):
        md.parse_model(_m1_text(**{"k: 2": "k: 2.0"}))


def test_parse_rejects_nonpositive_probability():
    text = _m1_text(**{"prob: 1/1": "prob: 0/1"})
    with pytest.raises(md.ModelError, match="positive"):
        md.parse_model(text)


# -------------------------------------------------------------- validation

def test_validate_flags_probability_sum():
    arena = bundled("M2")
    edges = list(arena.edges)
    a = edges[0]
    edges[0] = md.Edge(a.source, a.action, a.guard, (a.branches[0],))
    broken = md.Arena(arena.name, arena.ctx, arena.locations, tuple(edges), arena.initial)
    findings = md.validate(broken)
    assert any("sum to 1/2" in f for f in findings)


def test_validate_flags_zeno_cycle():
    # self-loop that neither resets nor waits: firing at c = 0 forever
    ctx = ClockContext(("c",), 2)
    arena = md.Arena(
        name="zeno",
        ctx=ctx,
        locations=(
            md.Location("l0", "min", False, parse_constraint("c <= 2", ctx)),
            md.Location("lf", "min", True, parse_constraint("true", ctx)),
        ),
        edges=(
            md.Edge("l0", "spin", parse_constraint("true", ctx),
                    (md.Branch(Fraction(1), frozenset(), "l0"),)),
            md.Edge("lf", "f", parse_constraint("c >= 1", ctx),
                    (md.Branch(Fraction(1), frozenset({"c"}), "lf"),)),
        ),
        initial=md.ConcreteState("l0", ClockValuation(ctx, (Fraction(0),))),
    )
    findings = md.validate(arena)
    assert any("Zeno" in f for f in findings)


def _rotations(cycle: list[str]) -> set[tuple[str, ...]]:
    return {tuple(cycle[i:] + cycle[:i]) for i in range(len(cycle))}


def _assert_witnesses_flagged(arena: md.Arena) -> list[list[str]]:
    """The component check and the simple-cycle enumeration agree on the
    verdict, and every witness is a simple location cycle that the
    enumeration flags (up to rotation).  Returns the witnesses."""
    witnesses = md.check_structural_nonzeno(arena)
    flagged = set().union(*(_rotations(c) for c in enumerate_zeno_cycles(arena)))
    assert bool(witnesses) == bool(flagged), arena
    hops = {(e.source, br.target) for e in arena.edges for br in e.branches}
    for cycle in witnesses:
        assert len(set(cycle)) == len(cycle), cycle
        assert all((a, b) in hops for a, b in zip(cycle, cycle[1:] + cycle[:1])), cycle
        assert tuple(cycle) in flagged, (cycle, arena)
    assert len({min(_rotations(c)) for c in witnesses}) == len(witnesses)
    return witnesses


def _hop_arena(clocks: tuple[str, ...], n: int, edges) -> md.Arena:
    """An arena on locations l0..l{n-1} with the given
    (source, action, guard, [(resets, target), ...]) edges."""
    ctx = ClockContext(clocks, 2)
    true = parse_constraint("true", ctx)
    return md.Arena(
        name="hops",
        ctx=ctx,
        locations=tuple(md.Location("l%d" % i, "min", False, true) for i in range(n)),
        edges=tuple(
            md.Edge(src, action, parse_constraint(guard, ctx), tuple(
                md.Branch(Fraction(1, len(branches)), frozenset(resets), "l%d" % t)
                for resets, t in branches))
            for src, action, guard, branches in edges
        ),
        initial=md.ConcreteState("l0", ClockValuation(ctx, (Fraction(0),) * len(clocks))),
    )


GUARDS = {
    ("c",): ["true", "c >= 1", "c > 1", "c = 1", "c <= 1", "c > 0", "c = 2",
             "c > 1 & c < 1"],
    ("c", "d"): ["true", "c >= 1", "d >= 1", "c > 0", "d <= 1", "c >= 1 & d < 1",
                 "c - d >= 1", "d - c > 0", "c = 2 & d = 2", "c < 1 & d = 1"],
}


def test_nonzeno_components_match_cycle_enumeration():
    """Seeded random arenas with one or two clocks, up to five locations,
    parallel branches and self-loops: same verdict as the enumeration of
    every simple cycle, and only witnesses it flags."""
    rng = random.Random(4)
    verdicts = set()
    for _ in range(400):
        clocks = rng.choice(list(GUARDS))
        n = rng.randint(1, 5)
        edges = []
        for src in range(n):
            for a in range(rng.randint(0, 3)):
                branches = [
                    ([c for c in clocks if rng.random() < 0.3], rng.randrange(n))
                    for _ in range(rng.randint(1, 3))
                ]
                edges.append(("l%d" % src, "a%d" % a, rng.choice(GUARDS[clocks]), branches))
        arena = _hop_arena(clocks, n, edges)
        verdicts.add(bool(_assert_witnesses_flagged(arena)))
    assert verdicts == {True, False}


def test_nonzeno_two_clocks_need_different_avoid_choices():
    """l0 -> l1 resets c under a guard bounding d; l1 -> l0 does neither.
    The cycle never bounds c and never resets d, so only the choice that
    avoids the bounds of c and the resets of d exposes it."""
    zeno = _hop_arena(("c", "d"), 2, [
        ("l0", "a", "d >= 1", [(["c"], 1)]),
        ("l1", "b", "true", [([], 0)]),
    ])
    assert _assert_witnesses_flagged(zeno) == [["l0", "l1"]]
    assert any("Zeno location cycle: l0 -> l1 " in f for f in md.validate(zeno))
    # resetting d as well makes the cycle progress
    safe = _hop_arena(("c", "d"), 2, [
        ("l0", "a", "d >= 1", [(["c", "d"], 1)]),
        ("l1", "b", "true", [([], 0)]),
    ])
    assert _assert_witnesses_flagged(safe) == []


def test_nonzeno_reports_one_witness_per_component():
    """A complete graph on many locations has exponentially many bad simple
    cycles; the check names one per trapped component and stays fast."""
    n = 12
    arena = _hop_arena(("c",), n, [
        ("l%d" % s, "to%d" % t, "true", [([], t)]) for s in range(n) for t in range(n)
    ])
    assert md.check_structural_nonzeno(arena) == [["l0"]]


def test_arena_indexes_keep_lookups_equality_and_hash():
    arena = bundled("M2")
    twin = md.parse_model(md.dump_model(arena))
    assert twin == arena and hash(twin) == hash(arena)
    assert "_by_name" not in repr(arena)
    assert arena.location_named("l0") is arena.locations[0]
    assert arena.edge("l0", "a") is arena.edges[0]
    assert arena.edge("l0", "nope") is None
    assert list(arena.edges_from("l0")) == [e for e in arena.edges if e.source == "l0"]
    assert list(arena.edges_from("nowhere")) == []
    with pytest.raises(md.ModelError, match="unknown location"):
        arena.location_named("nowhere")


def test_validate_flags_dead_region():
    # the guard is only satisfiable outside the invariant
    ctx = ClockContext(("c",), 2)
    arena = md.Arena(
        name="dead",
        ctx=ctx,
        locations=(
            md.Location("l0", "min", False, parse_constraint("c <= 1", ctx)),
            md.Location("lf", "min", True, parse_constraint("c <= 2", ctx)),
        ),
        edges=(
            md.Edge("l0", "a", parse_constraint("c = 2", ctx),
                    (md.Branch(Fraction(1), frozenset(), "lf"),)),
            md.Edge("lf", "f", parse_constraint("c >= 1", ctx),
                    (md.Branch(Fraction(1), frozenset({"c"}), "lf"),)),
        ),
        initial=md.ConcreteState("l0", ClockValuation(ctx, (Fraction(0),))),
    )
    findings = md.validate(arena)
    assert any("no action available" in f for f in findings)
    # the same dead pairs as the earlier walk of the invariant chain
    dead = ["no action available from (%s, %s)" % (l.name, r.label())
            for l in arena.locations for r in enumerate_regions(ctx)
            if satisfies(r, l.invariant)
            and not oracles.region_actions_available(arena, l.name, r)]
    assert [f for f in findings if f.startswith("no action available")] == dead


def test_validate_flags_bad_initial():
    arena = bundled("M2")
    bad = md.Arena(
        arena.name, arena.ctx, arena.locations, arena.edges,
        md.ConcreteState("l0", ClockValuation(arena.ctx, (Fraction(3, 2),))),
    )
    findings = md.validate(bad)
    assert any("invariant" in f for f in findings)


# ------------------------------------------------------- concrete semantics

def test_timed_action_allowed_m1():
    arena = bundled("M1")
    s0 = arena.initial
    assert md.timed_action_allowed(arena, s0, md.TimedAction(Fraction(1), "a"))
    assert md.timed_action_allowed(arena, s0, md.TimedAction(Fraction(3, 2), "a"))
    assert md.timed_action_allowed(arena, s0, md.TimedAction(Fraction(2), "a"))
    assert not md.timed_action_allowed(arena, s0, md.TimedAction(Fraction(1, 2), "a"))
    assert not md.timed_action_allowed(arena, s0, md.TimedAction(Fraction(5, 2), "a"))
    assert not md.timed_action_allowed(arena, s0, md.TimedAction(Fraction(-1), "a"))
    assert not md.timed_action_allowed(arena, s0, md.TimedAction(Fraction(1), "nope"))


def invariant_cap_arena() -> md.Arena:
    # guard would allow c = 3/2 but the invariant caps the stay at c <= 1
    ctx = ClockContext(("c",), 2)
    return md.Arena(
        name="inv",
        ctx=ctx,
        locations=(
            md.Location("l0", "min", False, parse_constraint("c <= 1", ctx)),
            md.Location("lf", "min", True, parse_constraint("c <= 2", ctx)),
        ),
        edges=(
            md.Edge("l0", "a", parse_constraint("c >= 1", ctx),
                    (md.Branch(Fraction(1), frozenset(), "lf"),)),
            md.Edge("lf", "f", parse_constraint("c >= 1", ctx),
                    (md.Branch(Fraction(1), frozenset({"c"}), "lf"),)),
        ),
        initial=md.ConcreteState("l0", ClockValuation(ctx, (Fraction(0),))),
    )


def test_timed_action_blocked_by_invariant():
    arena = invariant_cap_arena()
    s0 = arena.initial
    assert md.timed_action_allowed(arena, s0, md.TimedAction(Fraction(1), "a"))
    assert not md.timed_action_allowed(arena, s0, md.TimedAction(Fraction(3, 2), "a"))


# invariants over clocks c, d with k = 2: all five operators, on single
# clocks and on differences
OPERATOR_INVARIANTS = (
    "c - d < 1", "d - c >= 0", "c = 1", "c > 0 & d < 2", "c <= 1 & d - c > 0",
    "c - d = 0 & d >= 1", "c - d <= 1 & d - c <= 1 & c < 2", "c - d > 0 & d <= 1",
)


def operator_arena(invariant: str) -> md.Arena:
    """l0 carries `invariant`; its edges fire unguarded, on d >= 1 and on
    c = 2, each to the final lf."""
    edges = "".join(
        '  - {source: l0, action: %s, guard: "%s", branches: [{prob: "1", target: lf}]}\n'
        % (action, guard) for action, guard in (("a", "true"), ("g", "d >= 1"), ("h", "c = 2")))
    return md.parse_model(
        "clocks: [c, d]\nk: 2\nlocations:\n"
        '  - {name: l0, owner: min, invariant: "%s"}\n'
        "  - {name: lf, owner: min, final: true}\n"
        "edges:\n%s"
        'initial: {location: l0, valuation: {c: "0", d: "0"}}\n' % (invariant, edges),
        name=invariant)


def legality_cases(arena: md.Arena, rng: random.Random, count: int):
    """Seeded (state, timed action) pairs: about a fifth of the delays are 0,
    two fifths land a clock on an integer from 0 to k + 1 (a region
    boundary, or past k), the rest are multiples of 1/16, some negative."""
    ctx = arena.ctx
    actions = sorted({e.action for e in arena.edges}) + ["nope"]
    for _ in range(count):
        loc = rng.choice(arena.locations).name
        v = ClockValuation(ctx, oracles.random_valuation(rng, len(ctx.clocks), ctx.k))
        roll = rng.random()
        if roll < 0.2:
            delay = Fraction(0)
        elif roll < 0.6:
            delay = rng.randint(0, ctx.k + 1) - rng.choice(v.values)
        else:
            delay = Fraction(rng.randint(-4, 16 * ctx.k + 8), 16)
        yield md.ConcreteState(loc, v), md.TimedAction(delay, rng.choice(actions))


def test_timed_action_allowed_matches_walking_oracle():
    """The same verdict as the earlier region-by-region walk of the
    invariant, on seeded states, actions and delays, with both verdicts on
    every arena.  The operator arenas cover starts outside the invariant,
    zero delays, delays that land on a region boundary and delays past k."""
    arenas = [bundled(name) for name in BUNDLED] + [invariant_cap_arena()]
    arenas += [md.parse_model(oracles.chain_document(2, 2, clocks, ("min", "max"),
                                                     (Fraction(1, 2), Fraction(1, 3))))
               for clocks in (1, 2, 3)]
    arenas += [operator_arena(inv) for inv in OPERATOR_INVARIANTS]
    rng = random.Random(5)
    for arena in arenas:
        verdicts = set()
        seen = set()
        for state, ta in legality_cases(arena, rng, 400):
            expected = oracles.timed_action_allowed_walk(arena, state, ta)
            assert md.timed_action_allowed(arena, state, ta) == expected, (arena.name, state, ta)
            verdicts.add(expected)
            v, inv = state.valuation, arena.location_named(state.location).invariant
            shifted = [x + ta.delay for x in v.values]
            seen.add(("start inside", valuation_satisfies(v, inv)))
            seen.add(("zero delay", ta.delay == 0))
            seen.add(("on a boundary", ta.delay > 0 and any(x.denominator == 1 for x in shifted)))
            seen.add(("past k", max(shifted) > arena.ctx.k))
        assert verdicts == {True, False}, arena.name
        if arena.name in OPERATOR_INVARIANTS:
            kinds = ("start inside", "zero delay", "on a boundary", "past k")
            assert seen == {(kind, flag) for kind in kinds for flag in (True, False)}, arena.name


def test_legality_check_builds_no_region(monkeypatch):
    """Deciding a timed move builds no `ClockRegion`: the invariant is read
    at the move's two ends.  The walking oracle, under the same counter,
    does build regions."""
    built = []
    real = ClockRegion.__post_init__

    def counted(self):
        built.append(self)
        real(self)

    arenas = [bundled(name) for name in BUNDLED]
    arenas += [operator_arena(inv) for inv in OPERATOR_INVARIANTS]
    cases = [(arena, state, ta) for arena in arenas
             for state, ta in legality_cases(arena, random.Random(7), 100)]
    monkeypatch.setattr(ClockRegion, "__post_init__", counted)
    verdicts = set()
    for arena, state, ta in cases:
        allowed = md.timed_action_allowed(arena, state, ta)
        assert (md.timed_successors(arena, state, ta) is None) is not allowed
        if allowed:
            md.concrete_step(arena, state, ta)
        verdicts.add(allowed)
    assert verdicts == {True, False}
    assert built == []
    for arena, state, ta in cases:
        oracles.timed_action_allowed_walk(arena, state, ta)
    assert built


def test_concrete_step_retry():
    arena = bundled("M2")
    out = md.concrete_step(arena, arena.initial, md.TimedAction(Fraction(1), "a"))
    ctx = arena.ctx
    assert out == {
        md.ConcreteState("lf", ClockValuation(ctx, (Fraction(1),))): Fraction(1, 2),
        md.ConcreteState("l0", ClockValuation(ctx, (Fraction(0),))): Fraction(1, 2),
    }
    with pytest.raises(md.ModelError):
        md.concrete_step(arena, arena.initial, md.TimedAction(Fraction(1, 2), "a"))


def test_concrete_step_merges_equal_branches():
    ctx = ClockContext(("c",), 2)
    arena = md.Arena(
        name="merge",
        ctx=ctx,
        locations=(
            md.Location("l0", "min", False, parse_constraint("c <= 2", ctx)),
            md.Location("lf", "min", True, parse_constraint("c <= 2", ctx)),
        ),
        edges=(
            md.Edge("l0", "a", parse_constraint("c >= 1", ctx), (
                md.Branch(Fraction(1, 2), frozenset(), "lf"),
                md.Branch(Fraction(1, 2), frozenset(), "lf"),
            )),
            md.Edge("lf", "f", parse_constraint("c >= 1", ctx),
                    (md.Branch(Fraction(1), frozenset({"c"}), "lf"),)),
        ),
        initial=md.ConcreteState("l0", ClockValuation(ctx, (Fraction(0),))),
    )
    out = md.concrete_step(arena, arena.initial, md.TimedAction(Fraction(1), "a"))
    assert out == {
        md.ConcreteState("lf", ClockValuation(ctx, (Fraction(1),))): Fraction(1),
    }


# a three-branch edge whose first and last branch reach the same state
THREE_BRANCHES = """\
clocks: [c]
k: 2
locations:
  - {name: l0, owner: min, invariant: "c <= 2"}
  - {name: l1, owner: max, invariant: "c <= 2"}
  - {name: lf, owner: min, final: true, invariant: "c <= 2"}
edges:
  - source: l0
    action: a
    guard: "c >= 1"
    branches:
      - {prob: "1/4", resets: [], target: lf}
      - {prob: "1/2", resets: [c], target: l1}
      - {prob: "1/4", resets: [], target: lf}
  - source: l1
    action: b
    guard: "c = 1"
    branches:
      - {prob: "1/1", resets: [c], target: lf}
  - source: lf
    action: f
    guard: "c >= 1"
    branches:
      - {prob: "1/1", resets: [c], target: lf}
initial: {location: l0, valuation: {c: "0"}}
"""


def test_successors_keep_the_edge_order():
    """Every concrete caller sees the branches of a timed move in the edge's
    order: `concrete_step` merges the two that reach the same state, the
    compiled simulator step keeps a cumulative weight for each with one
    successor id, and the one-step value asks the evaluator in edge order."""
    arena = md.parse_model(THREE_BRANCHES, name="three")
    ctx = arena.ctx
    move = md.TimedAction(Fraction(1), "a")
    to_lf = md.ConcreteState("lf", ClockValuation(ctx, (Fraction(1),)))
    to_l1 = md.ConcreteState("l1", ClockValuation(ctx, (Fraction(0),)))
    assert md.timed_successors(arena, arena.initial, move) == [
        (Fraction(1, 4), to_lf), (Fraction(1, 2), to_l1), (Fraction(1, 4), to_lf)]
    assert md.concrete_step(arena, arena.initial, move) == {
        to_lf: Fraction(1, 2), to_l1: Fraction(1, 2)}

    g = explore(arena)
    strat = ConcretizedStrategy.from_solution(g, solve_exact(g).choice)
    simulate_run(arena, strat, random.Random(0))
    steps = strat._steps[id(arena)]
    action, t, den, branches = steps.entries[steps.roots[Fraction(1, 1000), False]]
    assert (action, den) == ("a", 4)
    assert [acc for acc, _ in branches] == [1, 3, 4]
    ids = [j for _, j in branches]
    assert ids[0] == ids[2] != ids[1]
    played = md.timed_successors(arena, arena.initial, md.TimedAction(t, action))
    assert [steps.keys[j][0] for j in ids] == [succ for _, succ in played]
    assert [succ.location for _, succ in played] == ["lf", "l1", "lf"]

    asked = []

    def recording(location, valuation):
        asked.append(md.ConcreteState(location, valuation))
        return Fraction(len(asked))

    e = arena.edge("l0", "a")
    value = properties._one_step(recording, e, arena.initial.valuation, Fraction(1))
    assert asked == [to_lf, to_l1, to_lf]
    assert value == 1 + Fraction(1, 4) * 1 + Fraction(1, 2) * 2 + Fraction(1, 4) * 3
