"""Game arenas over probabilistic timed automata and their concrete semantics.

An arena is a finite set of locations, each owned by the minimizer or the
maximizer and carrying an invariant, plus guarded probabilistic edges.  An
edge is identified by its source location and action name; its distribution
is a list of branches, each with an exact rational probability, a reset set,
and a target location.  Final locations are where the reachability objective
stops the clock; they are not forced to be absorbing.

The file format is YAML.  Probabilities and initial clock values are written
as strings like "1/2" (plain integers allowed); float literals are rejected
so nothing inexact can enter the pipeline, and every field must have its
YAML type (a quoted "no" is not a `final` flag).

`timed_successors` executes every concrete timed move: it decides the
move's legality, reading the invariant at the delay's two ends, and returns
the branches that `concrete_step`, the simulator and the property checks read.

`validate` reports what makes the game degenerate, including structurally
Zeno cycles.  That check, like the solver's end-component and chain
decompositions, runs on `sccs`, the package's one graph algorithm (an
iterative Tarjan); the package needs no graph library.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, NamedTuple

import yaml

from .regions import (
    ClockConstraint,
    ClockContext,
    ClockValuation,
    RegionError,
    enumerate_regions,
    invariant_chain,
    parse_constraint,
    satisfies,
    valuation_satisfies,
)

MIN = "min"
MAX = "max"

_RATIONAL_RE = re.compile(r"^-?\d+(/\d+)?$")


class ModelError(ValueError):
    """Raised for unparseable or structurally broken model inputs."""


def parse_rational(value) -> Fraction:
    """Exact rational from an int or a "num/den" string; floats are refused."""
    if isinstance(value, bool):
        raise ModelError("expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ModelError(
            "float literal %r is not allowed; write an exact rational like \"1/2\"" % value
        )
    if isinstance(value, str) and _RATIONAL_RE.match(value.strip()):
        return Fraction(value.strip())
    raise ModelError("cannot parse %r as an exact rational" % (value,))


def format_rational(value) -> str:
    """Render as "num/den" (denominator kept even when it is 1)."""
    f = value if isinstance(value, Fraction) else Fraction(value)
    return "%d/%d" % (f.numerator, f.denominator)


@dataclass(frozen=True)
class Location:
    name: str
    owner: str
    final: bool
    invariant: ClockConstraint


@dataclass(frozen=True)
class Branch:
    prob: Fraction
    resets: frozenset[str]
    target: str


@dataclass(frozen=True)
class Edge:
    source: str
    action: str
    guard: ClockConstraint
    branches: tuple[Branch, ...]


class ConcreteState(NamedTuple):
    location: str
    valuation: ClockValuation


class TimedAction(NamedTuple):
    delay: Fraction
    action: str


@dataclass(frozen=True)
class Arena:
    """A probabilistic timed game: locations with owners, guarded edges,
    and a designated initial state."""

    name: str
    ctx: ClockContext
    locations: tuple[Location, ...]
    edges: tuple[Edge, ...]
    initial: ConcreteState
    # lookup indexes built once; not part of equality, hashing or repr
    _by_name: dict[str, Location] = field(init=False, repr=False, compare=False)
    _by_key: dict[tuple[str, str], Edge] = field(init=False, repr=False, compare=False)
    _from: dict[str, tuple[Edge, ...]] = field(init=False, repr=False, compare=False)
    # `brg`'s record of the boundary region graph's region-level moves,
    # made by `brg.tables` once the arena's distributions are checked and
    # shared by every explore of the arena
    _brg: object = field(default=None, init=False, repr=False, compare=False)
    # the certified value of every boundary region graph state solved so far,
    # written by `properties.value_at` and closed under successors
    _solved: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        names = {l.name: l for l in self.locations}
        if len(names) != len(self.locations):
            raise ModelError("duplicate location names")
        for l in self.locations:
            if l.owner not in (MIN, MAX):
                raise ModelError("owner of %s must be %r or %r" % (l.name, MIN, MAX))
        by_key: dict[tuple[str, str], Edge] = {}
        outgoing: dict[str, list[Edge]] = {}
        for e in self.edges:
            if e.source not in names:
                raise ModelError("edge from unknown location %r" % e.source)
            if (e.source, e.action) in by_key:
                raise ModelError(
                    "two edges share (source, action) = (%s, %s); the action "
                    "relation must be a partial function" % (e.source, e.action)
                )
            by_key[e.source, e.action] = e
            outgoing.setdefault(e.source, []).append(e)
            if not e.branches:
                raise ModelError("edge (%s, %s) has no branches" % (e.source, e.action))
            for br in e.branches:
                if br.target not in names:
                    raise ModelError("branch to unknown location %r" % br.target)
                if br.prob <= 0:
                    raise ModelError(
                        "branch probability must be positive, got %s on (%s, %s)"
                        % (br.prob, e.source, e.action)
                    )
        if self.initial.location not in names:
            raise ModelError("initial location %r does not exist" % self.initial.location)
        object.__setattr__(self, "_by_name", names)
        object.__setattr__(self, "_by_key", by_key)
        object.__setattr__(self, "_from", {s: tuple(es) for s, es in outgoing.items()})
        object.__setattr__(self, "_solved", {})

    def location_named(self, name: str) -> Location:
        try:
            return self._by_name[name]
        except KeyError:
            raise ModelError("unknown location %r" % name) from None

    def is_final(self, name: str) -> bool:
        return self.location_named(name).final

    def owner_of(self, name: str) -> str:
        return self.location_named(name).owner

    def edge(self, location: str, action: str) -> Edge | None:
        return self._by_key.get((location, action))

    def edges_from(self, location: str) -> tuple[Edge, ...]:
        return self._from.get(location, ())


# ----------------------------------------------------------------- parsing

def _require(mapping: dict, key: str, where: str):
    if not isinstance(mapping, dict):
        raise ModelError("%s must be a mapping" % where)
    if key not in mapping:
        raise ModelError("missing %r in %s" % (key, where))
    return mapping[key]


def _typed(value, kind: type, what: str):
    """`value` itself when it has the expected YAML type; ModelError (not a
    TypeError or AttributeError further down) otherwise."""
    if not isinstance(value, kind):
        raise ModelError("%s must be a %s, got %r" % (what, kind.__name__, value))
    return value


def parse_model(text: str, name: str = "") -> Arena:
    """The arena of a model document.  PyYAML's libyaml loader parses it
    when that extension is installed, its pure-Python safe loader
    otherwise; both build documents with the same safe constructor and
    resolver."""
    try:
        doc = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        raise ModelError("not valid YAML: %s" % exc) from exc
    if not isinstance(doc, dict):
        raise ModelError("model document must be a mapping")
    clocks = _require(doc, "clocks", "model")
    if not isinstance(clocks, list) or not all(isinstance(c, str) for c in clocks):
        raise ModelError("clocks must be a list of names")
    k = _require(doc, "k", "model")
    if not isinstance(k, int) or isinstance(k, bool):
        raise ModelError("k must be an integer")
    try:
        ctx = ClockContext(tuple(clocks), k)
    except RegionError as exc:
        raise ModelError(str(exc)) from exc

    locations = []
    for entry in _typed(_require(doc, "locations", "model"), list, "locations"):
        lname = _typed(_require(entry, "name", "location"), str, "location name")
        owner = entry.get("owner", MIN)
        final = _typed(entry.get("final", False), bool, "final of %s" % lname)
        inv_text = _typed(entry.get("invariant", "true"), str, "invariant of %s" % lname)
        try:
            inv = parse_constraint(inv_text, ctx)
        except RegionError as exc:
            raise ModelError("invariant of %s: %s" % (lname, exc)) from exc
        locations.append(Location(lname, owner, final, inv))

    edges = []
    for entry in _typed(doc.get("edges", []), list, "edges"):
        source = _typed(_require(entry, "source", "edge"), str, "edge source")
        action = _typed(_require(entry, "action", "edge"), str, "edge action")
        where = "edge (%s, %s)" % (source, action)
        try:
            guard = parse_constraint(
                _typed(entry.get("guard", "true"), str, "guard of %s" % where), ctx
            )
        except RegionError as exc:
            raise ModelError("guard of (%s, %s): %s" % (source, action, exc)) from exc
        branches = []
        for br in _typed(_require(entry, "branches", where), list, "branches of %s" % where):
            prob = parse_rational(_require(br, "prob", "branch"))
            resets = br.get("resets", [])
            if not isinstance(resets, list):
                raise ModelError("resets must be a list of clock names")
            for c in resets:
                ctx.index(c)
            target = _typed(_require(br, "target", "branch"), str, "branch target")
            branches.append(Branch(prob, frozenset(resets), target))
        edges.append(Edge(source, action, guard, tuple(branches)))

    init = _require(doc, "initial", "model")
    iloc = _typed(_require(init, "location", "initial"), str, "initial location")
    ival = _require(init, "valuation", "initial")
    if not isinstance(ival, dict):
        raise ModelError("initial valuation must map clock names to rationals")
    vmap = {c: parse_rational(x) for c, x in ival.items()}
    try:
        valuation = ClockValuation.from_map(ctx, vmap)
    except RegionError as exc:
        raise ModelError("initial valuation: %s" % exc) from exc

    doc_name = _typed(doc.get("name", ""), str, "model name")
    try:
        return Arena(
            name=name or doc_name,
            ctx=ctx,
            locations=tuple(locations),
            edges=tuple(edges),
            initial=ConcreteState(iloc, valuation),
        )
    except RegionError as exc:
        raise ModelError(str(exc)) from exc


def load_model(path: str) -> Arena:
    import os

    with open(path) as fh:
        text = fh.read()
    base = os.path.splitext(os.path.basename(path))[0]
    return parse_model(text, name=base)


def dump_model(arena: Arena) -> str:
    """Serialize back to the file format (used for file round-trips)."""
    doc = {
        "name": arena.name,
        "clocks": list(arena.ctx.clocks),
        "k": arena.ctx.k,
        "locations": [
            {
                "name": l.name,
                "owner": l.owner,
                "final": l.final,
                "invariant": l.invariant.render(),
            }
            for l in arena.locations
        ],
        "edges": [
            {
                "source": e.source,
                "action": e.action,
                "guard": e.guard.render(),
                "branches": [
                    {
                        "prob": format_rational(br.prob),
                        "resets": sorted(br.resets),
                        "target": br.target,
                    }
                    for br in e.branches
                ],
            }
            for e in arena.edges
        ],
        "initial": {
            "location": arena.initial.location,
            "valuation": {
                c: format_rational(v) for c, v in arena.initial.valuation.as_dict().items()
            },
        },
    }
    return yaml.safe_dump(doc, sort_keys=False)


# -------------------------------------------------------------- validation

def sccs(nodes: Iterable[int], succ) -> list[list[int]]:
    """Strongly connected components of the digraph on `nodes` whose edges
    are succ[v] (every successor must be a node), by an iterative Tarjan
    (1972).  A component comes after every component it reaches: sinks
    first."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    stack: list[int] = []
    on_stack: set[int] = set()
    out = []
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ[w])))
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    comp = []
                    while not comp or comp[-1] != v:
                        comp.append(stack.pop())
                        on_stack.discard(comp[-1])
                    out.append(comp)
    return out


def check_structural_nonzeno(arena: Arena) -> list[list[str]]:
    """Witness location cycles that fail the structural non-Zenoness test.

    Every cycle (every way of choosing branches around a cycle of locations)
    must contain a clock that is reset on one of its hops and bounded from
    below by 1 on the guard of another (or the same) hop (Tripakis 1999).
    Guard-implies checks are done region-exactly: a guard bounds c from
    below by 1 when every region satisfying the guard also satisfies c >= 1.

    A cycle fails exactly when, for each clock, it avoids every hop that
    resets the clock or every hop whose guard bounds it.  So for each of the
    2^|clocks| ways to pick the avoided kind per clock, the hops that keep
    the pick span a location graph in which every nontrivial strongly
    connected component holds failing cycles, and every failing cycle lies
    in one.  Each component yields one witness: walk from its first location
    (in declaration order) to the first successor inside the component until
    a location repeats, and rotate the loop closed that way to start at its
    first location.  Empty means structurally non-Zeno.
    """
    return _nonzeno_witnesses(arena, enumerate_regions(arena.ctx))


def _nonzeno_witnesses(arena: Arena, regions) -> list[list[str]]:
    """`check_structural_nonzeno` on the given list of all regions of the
    arena's clock context, so `validate` enumerates them once."""
    ctx = arena.ctx
    ge_one = {c: parse_constraint("%s >= 1" % c, ctx) for c in ctx.clocks}
    pos = {l.name: i for i, l in enumerate(arena.locations)}
    hops = []  # (source, target, resets, clocks the guard bounds below by 1)
    for e in arena.edges:
        inside = [r for r in regions if satisfies(r, e.guard)]
        bounds = {c for c in ctx.clocks if all(satisfies(r, ge_one[c]) for r in inside)}
        hops += [(pos[e.source], pos[br.target], br.resets, bounds) for br in e.branches]

    bad: list[list[str]] = []
    for pick in itertools.product((True, False), repeat=len(ctx.clocks)):
        no_reset = {c for c, avoid_resets in zip(ctx.clocks, pick) if avoid_resets}
        no_bound = set(ctx.clocks) - no_reset
        succ: list[list[int]] = [[] for _ in arena.locations]
        for s, t, resets, bounds in hops:
            if no_reset.isdisjoint(resets) and no_bound.isdisjoint(bounds):
                succ[s].append(t)
        for comp in sccs(range(len(succ)), succ):
            v = min(comp)
            if len(comp) == 1 and v not in succ[v]:
                continue
            members = set(comp)
            path: list[int] = []
            while v not in path:
                path.append(v)
                v = next(t for t in succ[v] if t in members)
            loop = path[path.index(v):]
            first = loop.index(min(loop))
            cycle = [arena.locations[i].name for i in loop[first:] + loop[:first]]
            if cycle not in bad:
                bad.append(cycle)
    return bad


def distribution_findings(arena: Arena) -> list[str]:
    """Edges whose branch probabilities do not sum to exactly 1."""
    findings = []
    for e in arena.edges:
        total = sum(br.prob for br in e.branches)
        if total != 1:
            findings.append(
                "edge (%s, %s): branch probabilities sum to %s, not 1"
                % (e.source, e.action, total)
            )
    return findings


def validate(arena: Arena) -> list[str]:
    """Structural findings that make the game semantics degenerate.

    Covers probability sums, constraint constants outside [0, k] (possible
    when arenas are built in code rather than parsed), initial-state sanity,
    location/region pairs with no available action, and structurally Zeno
    location cycles.  Returns human-readable findings; empty means clean.
    """
    findings = distribution_findings(arena)
    for e in arena.edges:
        for atom in e.guard.atoms:
            if not (0 <= atom.bound <= arena.ctx.k):
                findings.append(
                    "edge (%s, %s): guard constant %d outside [0, %d]"
                    % (e.source, e.action, atom.bound, arena.ctx.k)
                )
    for l in arena.locations:
        for atom in l.invariant.atoms:
            if not (0 <= atom.bound <= arena.ctx.k):
                findings.append(
                    "invariant of %s: constant %d outside [0, %d]"
                    % (l.name, atom.bound, arena.ctx.k)
                )

    init_loc, init_val = arena.initial
    if any(v > arena.ctx.k for v in init_val.values):
        findings.append("initial valuation exceeds the clock bound")
    else:
        inv = arena.location_named(init_loc).invariant
        if not valuation_satisfies(init_val, inv):
            findings.append("initial valuation violates the invariant of %s" % init_loc)

    all_regions = enumerate_regions(arena.ctx)
    for l in arena.locations:
        edges = arena.edges_from(l.name)
        for r in all_regions:
            if satisfies(r, l.invariant) and not any(
                satisfies(c, e.guard) for c in invariant_chain(r, l.invariant) for e in edges
            ):
                findings.append(
                    "no action available from (%s, %s)" % (l.name, r.label())
                )

    for cycle in _nonzeno_witnesses(arena, all_regions):
        findings.append(
            "structurally Zeno location cycle: %s (no clock is both reset "
            "and bounded below by 1 around it)" % " -> ".join(cycle)
        )
    return findings


# ------------------------------------------------------- concrete semantics

def branch_states(edge: Edge, shifted: ClockValuation) -> list[tuple[Fraction, ConcreteState]]:
    """(probability, successor) of each branch of `edge` fired at the
    delayed valuation `shifted`, in the edge's order."""
    return [(br.prob, ConcreteState(br.target, shifted.reset(br.resets)))
            for br in edge.branches]


def timed_successors(arena: Arena, state: ConcreteState, ta: TimedAction) -> list | None:
    """The `branch_states` of delaying by ta.delay and firing ta.action at
    state, or None when the move is illegal: the edge is missing, the delay
    negative, the delayed valuation past k or outside the guard, or the
    invariant fails at either end of the delay.  An invariant conjoins
    half-spaces and hyperplanes x ~ n and x - y ~ n, so it is convex and
    holds throughout the delay when it holds at both ends."""
    loc, v = state
    e = arena.edge(loc, ta.action)
    if e is None or ta.delay < 0:
        return None
    shifted = v.shift(ta.delay)
    if any(x > arena.ctx.k for x in shifted.values) or not valuation_satisfies(shifted, e.guard):
        return None
    inv = arena.location_named(loc).invariant
    if not (valuation_satisfies(v, inv) and valuation_satisfies(shifted, inv)):
        return None
    return branch_states(e, shifted)


def timed_action_allowed(arena: Arena, state: ConcreteState, ta: TimedAction) -> bool:
    """Whether delaying by ta.delay and firing ta.action is legal at state."""
    return timed_successors(arena, state, ta) is not None


def concrete_step(
    arena: Arena, state: ConcreteState, ta: TimedAction
) -> dict[ConcreteState, Fraction]:
    """The successor distribution of a legal timed action, branches with the
    same outcome merged."""
    succs = timed_successors(arena, state, ta)
    if succs is None:
        raise ModelError(
            "timed action (%s, %s) not allowed at (%s, %s)"
            % (ta.delay, ta.action, state.location, dict(state.valuation.as_dict()))
        )
    out: dict[ConcreteState, Fraction] = {}
    for p, succ in succs:
        out[succ] = out.get(succ, Fraction(0)) + p
    return out
