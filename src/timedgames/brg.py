"""The boundary region graph: a finite stochastic game whose values agree
with the expected-time game on the underlying timed arena.

A node is a pair of a concrete state and a region, ((l, nu), (l, zeta)) with
nu in the closure of zeta; we store it as the tuple `BrgState` (location,
point, scale, region), nu being point/scale in lowest terms.
The region component says which region's action set the node plays; the
valuation component pins the exact point whose value the node carries.  The
root uses the region of its own valuation; off-diagonal nodes (valuation on
the boundary of the region) appear as targets of the interval-endpoint
actions below.

Actions are region-determined.  For every region zeta_a on the future chain
of zeta whose prefix stays inside the location invariant (`invariant_chain`)
and whose points satisfy the guard of an edge (l, a), with `boundary` naming
each boundary (b, c):

  * zeta_a thin: one action firing exactly when the boundary (b, c) of
    zeta_a is hit; it costs b - nu(c).
  * zeta_a thick, reached later than zeta: two actions, one approaching the
    infimum of the firing interval (boundary of the thin region just before
    zeta_a) and one approaching the supremum (boundary of the thin successor
    of zeta_a, which is exempt from the invariant because it is only a
    limit).  The guard is read in zeta_a in both cases.
  * zeta_a = zeta thick: one zero-cost action firing right now.  Waiting is
    available separately through the other cases, and the one-step value is
    monotone in the delay within a region, so the interval [0, w) of stays
    inside the current region needs exactly this one extra endpoint.

Two actions with the same (action, b, c, target region) are the same action
and are emitted once.  Rewards b - nu(c) are nonnegative for every valuation
in the closure of zeta because b is at least the supremum of c over zeta.

Construction splits every move into a region-level half and a point half.
The region-level half depends only on (l, zeta): the canonical action list,
each action's boundary (b, c), and per branch the target location, the
reset and the target region, whose target invariant is checked there.  It
is kept in one record of tables per arena (`tables`), so every explore of
the arena, rooted anywhere, shares it; each table is filled once per key:

  * a slice per (l, r): whether r lies inside the invariant of l, and if
    so r's time successor and the actions r adds to the action set of
    every (l, zeta) whose invariant chain passes through it, with their
    sort keys, once for r starting the chain and once for r reached later
    (they differ only in a thick r's infimum endpoint, which for a later r
    is read off r itself, so no predecessor is built).  Each invariant and
    guard is read once per region here.  The action list of (l, zeta) is
    the merge of the slices along its chain;
  * a move per (l, action): the boundary b, the index of the boundary
    clock c and the branches, compiled in canonical order the first time an
    action list holds the action, so a branch outside its target invariant
    raises for the first such action of the first state that needs it;
  * per (l, zeta), the action list and its moves, looked up once per
    expanded state;
  * the time successor and the resets of every region the slices and moves
    were built from, so each region is built and validated once per arena.

Equal actions and regions are stored once per arena, and regions cache
their hash, since they key every table.  Reset sets are resolved, with the
record, to getters that zero their clocks on an integer point.  The record
is made only once every edge's branch probabilities sum to exactly 1, so
that check runs before anything is compiled, and once per arena rather
than once per explore.

The point half runs on the integer lattice, and one object owns it,
`_Lattice`.  Every valuation reachable from the root nu lies in
(1/D) Z^n, where D is the lcm of the denominators of nu: a move adds the
delay b - nu(c) to every clock and a reset sets clocks to 0.  So the
lattice checks the root and carries each point as a tuple of integers
scaled by D.  Per state and action it computes the scaled cost b*D - p(c),
shifts and resets the integer tuple, checks that the successor lies in the
closure of its region (`closure_contains_scaled`), and interns it on
(location, point, region), numbering states in discovery order up to the
state cap.  Only a state seen for the first time is reduced by the gcd of
its point and D into its `BrgState` (`_node`, which `root_key_scaled`
shares); no `Fraction` valuation is built for it.  `explore` visits the
lattice's states in that order, which is breadth first, and assembles the
graph.  Its rewards are the fractions t/D, built once per distinct t.
Equal reward lists are shared, and so are equal distributions: a
one-branch action's per successor, any other's per branches and
successors, so only their first occurrence is merged and sorted.

A node's successors, and so its value, depend only on the node, not on the
root it was reached from.  `explore` therefore takes a table `known` of
states already solved, with their values: such a state is visited but not
expanded, and `Brg.fixed` records its value, which the solver substitutes
as a constant.  A rooted query then builds only the part of the graph below
its root that no earlier query has solved.  The table is keyed by the
states themselves: a `BrgState` is in lowest terms, so a node is one key
whatever the lattice of the root it was reached from, and `root_key_scaled`
makes a query's root from a point given as integers, reduced to lowest
terms, building its region once per (ints, blocks) form and arena;
`root_key` is the same for a valuation.

A rooted query needs only values, so `rooted_values` expands the same
states depth first, through the same lattice, without building a graph:
it values each live state in post-order, once its successors are valued,
on unreduced integer pairs, and declines a part whose live states are not
acyclic or where one has no action, which `explore` and the certified
solve then take.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from operator import itemgetter
from typing import Callable, NamedTuple

from .model import Arena, ModelError, distribution_findings
from .regions import (
    ClockContext,
    ClockRegion,
    ClockValuation,
    RegionError,
    boundary,
    closure_contains_scaled,
    is_thin,
    region_form,
    reset_region,
    satisfies,
    satisfies_scaled,
    scaled_point,
    time_successor,
)

DEFAULT_STATE_CAP = 100_000
# the trailing 0 a reset getter reads for each clock it zeroes
_ZERO = (0,)


class ExplorationLimit(RuntimeError):
    """Raised when the explored graph crosses the configured state cap."""


class BrgState(NamedTuple):
    """A node ((l, nu), (l, zeta)) as (location, point, scale, region): nu
    is point/scale, in lowest terms, so equal nodes are equal tuples
    whichever lattice they were explored on, and a state is its own key in
    a table of solved states."""

    location: str
    point: tuple[int, ...]
    scale: int
    region: ClockRegion

    @property
    def valuation(self) -> ClockValuation:
        """point/scale as Fractions, built on every read."""
        scale = self.scale
        return ClockValuation(self.region.ctx, tuple([Fraction(n, scale) for n in self.point]))

    def label(self) -> str:
        """Each coordinate as str(Fraction(n, scale)) would render it,
        reduced from the integers."""
        scale, vals = self.scale, []
        for c, n in zip(self.region.ctx.clocks, self.point):
            d = math.gcd(n, scale)
            vals.append("%s=%d" % (c, n // d) if d == scale
                        else "%s=%d/%d" % (c, n // d, scale // d))
        return "%s | %s | [%s]" % (self.location, ",".join(vals), self.region.label())


@dataclass(frozen=True)
class BoundaryAction:
    """An abstract timed move: action name, the region the guard is read in,
    and the boundary instant (b, c) the delay steers to, c a clock index.
    b = c = None is the fire-now endpoint of a thick current region."""

    action: str
    target: ClockRegion
    b: int | None
    c: int | None
    # the label, made on first use; not part of equality, hashing or repr
    _label: str | None = field(default=None, init=False, repr=False, compare=False)

    def sort_key(self) -> tuple:
        return (self.action, -1 if self.b is None else self.b,
                -1 if self.c is None else self.c, self.target.key())

    def label(self) -> str:
        text = self._label
        if text is None:
            if self.b is None:
                text = "%s now in [%s]" % (self.action, self.target.label())
            else:
                text = "%s at %s=%d in [%s]" % (self.action, self.target.ctx.clocks[self.c],
                                                self.b, self.target.label())
            object.__setattr__(self, "_label", text)
        return text


def _reset_getter(ctx: ClockContext, resets: frozenset[str]) -> Callable | None:
    """A getter that zeroes the clocks of `resets` on a point of ctx
    extended by a trailing 0, reading that 0 for each reset clock; None for
    the empty set.  One clock reads the slice holding the 0, since a single
    index would give a number rather than a tuple."""
    if not resets:
        return None
    idxs = set(map(ctx.index, resets))  # refuses an unknown clock
    n = len(ctx.clocks)
    if n == 1:
        return itemgetter(slice(1, 2))
    return itemgetter(*(n if i in idxs else i for i in range(n)))


class ArenaTables(NamedTuple):
    """The per-arena record: the tables the module docstring lists, filled
    by `_moves`, `boundary_actions`, `_compile_move`, `_successor`,
    `_reset` and `root_key_scaled`, and the getter of each branch's reset
    set."""

    moves: dict
    slices: dict
    action_moves: dict
    regions: dict
    canon: dict
    resets: dict[frozenset[str], Callable | None]
    # the canonical region of each (ints, blocks) form `root_key_scaled` was
    # asked for
    forms: dict


def tables(arena: Arena) -> ArenaTables:
    """The arena's tables, made empty the first time the arena is compiled
    or explored, once every edge's branch probabilities sum to exactly 1;
    until then each call refuses the first edge that does not."""
    t = arena._brg
    if t is None:
        improper = distribution_findings(arena)
        if improper:
            raise ModelError(improper[0])
        resets = {br.resets: _reset_getter(arena.ctx, br.resets)
                  for e in arena.edges for br in e.branches}
        t = ArenaTables({}, {}, {}, {}, {}, resets, {})
        object.__setattr__(arena, "_brg", t)
    return t


class _Fractions(dict):
    """n / scale per integer n, each built once, on first lookup."""

    def __init__(self, scale: int):
        super().__init__()
        self.scale = scale

    def __missing__(self, n: int) -> Fraction:
        f = self[n] = Fraction(n, self.scale)
        return f


def _successor(arena: Arena, region: ClockRegion) -> ClockRegion | None:
    """`time_successor`, built once per region and arena."""
    key = (region, None)
    t = tables(arena)
    if key not in t.regions:
        succ = time_successor(region)
        t.regions[key] = None if succ is None else t.canon.setdefault(succ, succ)
    return t.regions[key]


def _reset(arena: Arena, region: ClockRegion, clocks: frozenset[str]) -> ClockRegion:
    """`reset_region`, built once per region, reset set and arena."""
    key = (region, clocks)
    t = tables(arena)
    if key not in t.regions:
        target = reset_region(region, clocks)
        t.regions[key] = t.canon.setdefault(target, target)
    return t.regions[key]


def root_key(arena: Arena, location: str, valuation: ClockValuation) -> BrgState:
    """The node (location, valuation, region of the valuation):
    `root_key_scaled` at the valuation as integers."""
    return root_key_scaled(arena, location, *scaled_point(valuation))


def root_key_scaled(arena: Arena, location: str, point: tuple[int, ...],
                    scale: int) -> BrgState:
    """The node (location, point/scale, region of the point), for
    nonnegative integers over a positive integer scale, in lowest terms
    (`_node`), so it is the key `root_key` makes for the same valuation.
    Its region is the arena's copy, which is built and validated once per
    (ints, blocks) form and arena; a clock above k is refused."""
    form = region_form(point, scale, arena.ctx.k)
    t = tables(arena)
    region = t.forms.get(form)
    if region is None:
        region = ClockRegion(arena.ctx, *form)
        region = t.forms[form] = t.canon.setdefault(region, region)
    return _node(location, point, scale, region)


def _slice(arena: Arena, location: str, region: ClockRegion) -> tuple | None:
    """What `region` adds to the action set of every (location, zeta) whose
    invariant chain passes through it: None when the region breaks the
    invariant of the location, which ends the chain, else (first, later,
    successor).  `first` holds the region's actions when it starts the
    chain and `later` when it does not, each as (sort key, canonical
    action); `successor` is its time successor.  The two differ only for a
    thick region, whose infimum endpoint is fire-now when it starts the
    chain and otherwise the boundary of the thin region time passed before
    it, the instant its first positive block left the integer: (ints[c], c)
    for the first clock c of that block."""
    if not satisfies(region, arena.location_named(location).invariant):
        return None
    edges = [e for e in arena.edges_from(location) if satisfies(region, e.guard)]
    succ = _successor(arena, region)
    canon = tables(arena).canon

    def items(b, c) -> list[tuple]:
        out = []
        for e in edges:
            act = BoundaryAction(e.action, region, b, c)
            act = canon.setdefault(act, act)
            out.append((act.sort_key(), act))
        return out

    if is_thin(region):
        first = later = items(*boundary(region))
    else:
        assert succ is not None  # thick regions always have one
        c = min(region.blocks[1])
        hi = items(*boundary(succ))
        first = items(None, None) + hi
        later = items(region.ints[c], c) + hi
    return first, later, succ


def boundary_actions(arena: Arena, location: str, region: ClockRegion) -> list[BoundaryAction]:
    """The action set shared by all nodes with this location and region, as
    the arena's shared copy of each action: the slices of the regions on
    its invariant chain, in canonical order.  Each slice is built once per
    (location, region) and arena, so each invariant and guard is read once
    per region there."""
    slices = tables(arena).slices
    items = []
    r, first = region, True
    while r is not None:
        key = (location, r)
        if key not in slices:
            slices[key] = _slice(arena, location, r)
        entry = slices[key]
        if entry is None:
            break
        items += entry[0] if first else entry[1]
        r, first = entry[2], False
    items.sort(key=itemgetter(0))
    return [act for _, act in items]


def _compile_move(arena: Arena, location: str, act: BoundaryAction) -> tuple:
    """The move of `act` from `location`: its boundary b, the index of its
    boundary clock c (None for the fire-now endpoint) and its branches as
    (target location, reset getter, target region, probability).  Raises
    ModelError when a branch lands outside the invariant of its target."""
    e = arena.edge(location, act.action)
    assert e is not None
    resets, branches = tables(arena).resets, []
    for br in e.branches:
        target_region = _reset(arena, act.target, br.resets)
        if not satisfies(target_region, arena.location_named(br.target).invariant):
            raise ModelError(
                "edge (%s, %s) lands in [%s], outside the invariant of %s"
                % (location, act.action, target_region.label(), br.target)
            )
        branches.append((br.target, resets[br.resets], target_region, br.prob))
    return act.b, act.c, tuple(branches)


def _moves(arena: Arena, location: str, region: ClockRegion) -> tuple:
    """The region-level half of every move from (location, region), kept in
    the arena's tables: the canonical action list and the move of each
    action, which is compiled once per (location, action) and arena.  The
    moves are compiled in canonical order, so a branch outside its target
    invariant raises for the first such action, and nothing is kept for it."""
    key = (location, region)
    t = tables(arena)
    entry = t.moves.get(key)
    if entry is None:
        acts = boundary_actions(arena, location, region)
        table = t.action_moves
        moves = []
        for act in acts:
            move = table.get((location, act))
            if move is None:
                move = table[location, act] = _compile_move(arena, location, act)
            moves.append(move)
        entry = t.moves[key] = (acts, tuple(moves))
    return entry


@dataclass
class Brg:
    """The explored graph.  Parallel lists indexed by state id: each state
    is its `BrgState`, which is also its key in a table of solved states,
    its action list is in canonical order, each distribution is a tuple
    of (successor id, probability) sorted by successor id, and `owners` and
    `finals` hold the owner and final flag of the state's location.
    `fixed` maps the id of each state taken from `explore`'s `known` table
    to its value; such a state is not expanded, so its action, reward and
    distribution lists are empty."""

    arena: Arena
    states: list[BrgState] = field(default_factory=list)
    actions: list[list[BoundaryAction]] = field(default_factory=list)
    rewards: list[list[Fraction]] = field(default_factory=list)
    dists: list[list[tuple[tuple[int, Fraction], ...]]] = field(default_factory=list)
    owners: list[str] = field(default_factory=list)
    finals: list[bool] = field(default_factory=list)
    fixed: dict[int, Fraction] = field(default_factory=dict)
    # the float row table the last `solver.value_iterate` built, with its
    # objective, for the `solver.extract_strategies` that follows it
    _float_rows: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def n(self) -> int:
        return len(self.states)

    def owner(self, i: int) -> str:
        return self.owners[i]

    def is_final(self, i: int) -> bool:
        return self.finals[i]

    def action_count(self) -> int:
        return sum(len(a) for a in self.actions)

    def transition_count(self) -> int:
        return sum(len(d) for dist in self.dists for d in dist)


def _check_root(arena: Arena, root: BrgState) -> None:
    """Refuse a root whose point is not one nonnegative integer per clock
    of its region over a positive integer scale, or that lies outside the
    closure of its region or the invariant of its location."""
    location, root_point, scale, region = root
    if len(root_point) != len(region.ctx.clocks):
        raise RegionError("context mismatch")
    if (not all([isinstance(x, int) for x in (scale, *root_point)])
            or scale < 1 or min(root_point) < 0):
        raise RegionError("root point must be nonnegative integers over a positive "
                          "integer scale: %r over %r" % (root_point, scale))
    if not closure_contains_scaled(region, root_point, scale):
        raise ModelError("root valuation must lie in the closure of its region")
    if not satisfies_scaled(region.ctx, root_point, scale,
                            arena.location_named(location).invariant):
        raise ModelError("root state violates its location invariant")


def _node(location: str, point: tuple[int, ...], scale: int,
          region: ClockRegion) -> BrgState:
    """The node (location, point/scale, region), reduced by the gcd of the
    point and the scale into lowest terms."""
    d = math.gcd(scale, *point)
    if d > 1:
        point, scale = tuple([x // d for x in point]), scale // d
    return BrgState(location, point, scale, region)


class _Lattice:
    """The point half of every move from one root, on the root's lattice
    (see the module docstring): the states reached so far, in discovery
    order from the root, each with its point as integers over the root's
    scale D.  The root must pass `_check_root`; its region is replaced by
    the arena's copy.  At most `cap` states are interned."""

    def __init__(self, arena: Arena, root: BrgState, cap: int):
        t = tables(arena)
        _check_root(arena, root)
        location, point, self.scale, region = root
        self.arena, self.cap, self.table = arena, cap, t.moves
        # states by (location, point on the root's lattice, id of the canonical
        # region); every region in a key is an object of the arena's table, so
        # equal regions are the same object there
        self.index: dict[tuple, int] = {}
        self.points: list[tuple[int, ...]] = []
        self.states: list[BrgState] = []
        self.intern(location, point, t.canon.setdefault(region, region))

    def intern(self, location: str, point: tuple[int, ...], region: ClockRegion) -> int:
        """The id of a state not in the index, which it adds; a state past
        the cap is refused."""
        states = self.states
        if len(states) >= self.cap:
            raise ExplorationLimit("state cap %d crossed while exploring %s"
                                   % (self.cap, self.arena.name or "arena"))
        i = self.index[location, point, id(region)] = len(states)
        self.points.append(point)
        states.append(_node(location, point, self.scale, region))
        return i

    def expand(self, i: int) -> tuple:
        """The moves of state i as (actions, their region-level halves,
        their scaled delays, the successor id of each branch of each action
        in turn), interning successors not seen before.  A delay b*D - p(c)
        is the cost of steering from the state's point p to the action's
        boundary; a negative one is refused."""
        s, p, scale = self.states[i], self.points[i], self.scale
        entry = self.table.get((s.location, s.region))
        acts, moves = entry if entry is not None else _moves(self.arena, s.location, s.region)
        delays = tuple([0 if ci is None else b * scale - p[ci] for b, ci, _ in moves])
        if delays and min(delays) < 0:
            k = next(k for k, t in enumerate(delays) if t < 0)
            raise ModelError(
                "negative delay %s for %s at %s; valuation outside the region closure"
                % (Fraction(delays[k], scale), acts[k].label(), s.label())
            )
        index, intern = self.index, self.intern
        succ = []
        for t, (_, _, branches) in zip(delays, moves):
            # shift to the boundary, then branch and reset
            shifted = tuple(map(t.__add__, p)) if t else p
            for target, reset, region, _ in branches:
                point = reset(shifted + _ZERO) if reset else shifted
                assert closure_contains_scaled(region, point, scale)
                j = index.get((target, point, id(region)))
                succ.append(intern(target, point, region) if j is None else j)
        return acts, moves, delays, succ


def explore(
    arena: Arena,
    root: BrgState | None = None,
    cap: int = DEFAULT_STATE_CAP,
    known: dict[BrgState, Fraction] | None = None,
) -> Brg:
    """Breadth-first reachable construction from the root, stopping at the
    states of `known`, a table of solved states, whose values go to
    `Brg.fixed`.

    The default root pairs the arena's initial state with the region of its
    own valuation (`root_key`).  A root's point must have one nonnegative
    integer per clock of its region, over a positive integer scale, and lie in
    the closure of its region and inside the invariant of its location.
    States are numbered in discovery order, which together with the
    canonical action order makes the graph a deterministic function of the
    input.  Edges whose branch probabilities do not sum to exactly 1
    are refused, so nothing downstream solves or plays a non-stochastic game.
    """
    if root is None:
        tables(arena)  # an improper edge is refused before the root is made
        root = root_key(arena, *arena.initial)
    lattice = _Lattice(arena, root, cap)
    expand, named = lattice.expand, arena.location_named
    g = Brg(arena, lattice.states)
    fraction = _Fractions(lattice.scale).__getitem__
    # equal reward lists and distributions are shared: reward lists by their
    # scaled delays, the distribution ((j, 1),) of a one-branch edge by its
    # successor j, and any other by its branches and their successors
    reward_lists: dict[tuple[int, ...], list[Fraction]] = {}
    certain: dict[int, tuple] = {}
    merged: dict[tuple, tuple] = {}
    # the lattice appends each new state to g.states, so this visits them
    # breadth first
    for i, s in enumerate(g.states):
        loc = named(s.location)
        g.owners.append(loc.owner)
        g.finals.append(loc.final)
        value = known.get(s) if known else None
        if value is not None:
            g.fixed[i] = value
            g.actions.append([])
            g.rewards.append([])
            g.dists.append([])
            continue
        acts, moves, delays, succ = expand(i)
        g.actions.append(acts)
        rewards = reward_lists.get(delays)
        if rewards is None:
            rewards = reward_lists[delays] = list(map(fraction, delays))
        g.rewards.append(rewards)
        row = []
        js = iter(succ)
        for _, _, branches in moves:
            if len(branches) == 1:
                j = next(js)
                dist = certain.get(j)
                if dist is None:
                    dist = certain[j] = ((j, branches[0][3]),)
                row.append(dist)
                continue
            key = (id(branches), *islice(js, len(branches)))
            dist = merged.get(key)
            if dist is None:
                mass: dict[int, Fraction] = {}
                for j, (_, _, _, prob) in zip(key[1:], branches):
                    mass[j] = mass[j] + prob if j in mass else prob
                dist = merged[key] = tuple(sorted(mass.items()))
            row.append(dist)
        g.dists.append(row)
    return g


# the mark of a state on the path of `rooted_values`'s walk, whose value is open
_OPEN = object()
_FINAL_VALUE = Fraction(0)


def rooted_values(arena: Arena, root: BrgState,
                  known: dict[BrgState, Fraction]) -> dict[BrgState, Fraction] | None:
    """The expected-time value of every state `explore(arena, root,
    known=known)` would build and not take from `known`, from one
    depth-first walk that builds no graph; None when a live state, neither
    final nor known, lies on a cycle or has no action, so that `explore`
    and the certified `solver.solve_exact` decide.

    The walk expands states through the same lattice as `explore`, so it
    refuses what `explore` refuses and counts the same states against
    `DEFAULT_STATE_CAP`.  A known state is a leaf at its value.  A final
    state is worth 0, and its successors are walked once the walk that
    reached it is done, so a cycle through a final state is no cycle of
    live states.  Each live state is valued in post-order, once every
    successor is: the owner's best of r + sum of p v over its actions, the
    first in canonical order on a tie.  That is the one solution of the
    optimality equations, since every play then reaches a final or known
    state (topological value iteration, Dai et al. 2011).  A backup is an
    int pair, reward t/D plus each p v, compared by cross-multiplication, so
    each state builds one `Fraction`, its value.  A successor on the walk's
    path, the state itself included, closes a cycle."""
    lattice = _Lattice(arena, root, DEFAULT_STATE_CAP)
    states, scale = lattice.states, lattice.scale
    named = arena.location_named
    # per state its value as (numerator, denominator), _OPEN while on the
    # walk's path, None before the walk reaches it
    pairs: list = []
    out: dict[BrgState, Fraction] = {}
    finals: list[int] = []

    def mark() -> None:
        """Mark each state the lattice interned since the last call known,
        final or unreached."""
        for j in range(len(pairs), len(states)):
            s = states[j]
            value = known.get(s)
            if value is not None:
                pairs.append((value.numerator, value.denominator))
            elif named(s.location).final:
                out[s] = _FINAL_VALUE
                pairs.append((0, 1))
                finals.append(j)
            else:
                pairs.append(None)

    def expand(i: int) -> tuple:
        moves = lattice.expand(i)
        mark()
        return moves

    def open_frame(i: int) -> tuple | None:
        """Put state i on the path: (i, its moves, their delays, their
        successors, the successors to walk), or None when it has no action
        or a successor on the path."""
        pairs[i] = _OPEN
        acts, moves, delays, succ = expand(i)
        if not acts or any(pairs[j] is _OPEN for j in succ):
            return None
        return i, moves, delays, succ, iter(succ)

    def walk(start: int) -> bool:
        """Value every live state below `start`; False on a cycle or a
        state without an action."""
        frame = open_frame(start)
        if frame is None:
            return False
        path = [frame]
        while path:
            i, moves, delays, succ, walking = path[-1]
            for j in walking:
                if pairs[j] is None:
                    frame = open_frame(j)
                    if frame is None:
                        return False
                    path.append(frame)
                    break
            else:
                path.pop()
                minimize = named(states[i].location).owner == "min"
                bn = bd = None
                js = iter(succ)
                for delay, (_, _, branches) in zip(delays, moves):
                    n, d = delay, scale
                    for (_, _, _, p), j in zip(branches, js):
                        vn, vd = pairs[j]
                        if vn:
                            m = p.denominator * vd
                            n = n * m + p.numerator * vn * d
                            d *= m
                    if bn is None or (n * bd < bn * d if minimize else n * bd > bn * d):
                        bn, bd = n, d
                value = out[states[i]] = Fraction(bn, bd)
                pairs[i] = (value.numerator, value.denominator)
        return True

    mark()
    if pairs[0] is None and not walk(0):
        return None
    while finals:
        for j in expand(finals.pop())[3]:
            if pairs[j] is None and not walk(j):
                return None
    return out


def _gvquote(s: str) -> str:
    return '"%s"' % s.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(g: Brg) -> str:
    """Graphviz rendering: boxes for min states, diamonds for max states,
    double border on finals, one point node per action."""
    lines = ["digraph brg {", "  rankdir=LR;", '  node [fontname="Helvetica"];']
    for i, s in enumerate(g.states):
        shape = "box" if g.owner(i) == "min" else "diamond"
        extra = ", peripheries=2" if g.is_final(i) else ""
        lines.append(
            "  s%d [shape=%s%s, label=%s];" % (i, shape, extra, _gvquote(s.label()))
        )
    # each reward and probability rendered once per object: `explore` shares
    # one object per distinct reward and branch probability, and `g` keeps
    # them alive, so their ids are stable keys
    costs: dict[int, str] = {}
    probs: dict[int, str] = {}
    for i in range(g.n):
        for j, (a, r, dist) in enumerate(zip(g.actions[i], g.rewards[i], g.dists[i])):
            mid = "s%d_a%d" % (i, j)
            cost = costs.get(id(r))
            if cost is None:
                cost = costs[id(r)] = str(r)
            lines.append("  %s [shape=point];" % mid)
            lines.append(
                "  s%d -> %s [label=%s];"
                % (i, mid, _gvquote("%s  cost %s" % (a.label(), cost)))
            )
            for t, p in dist:
                prob = probs.get(id(p))
                if prob is None:
                    prob = probs[id(p)] = _gvquote(str(p))
                lines.append("  %s -> s%d [label=%s];" % (mid, t, prob))
    lines.append("}")
    return "\n".join(lines) + "\n"
