"""Executable checks of the structural properties the solver relies on.

The central object is `value_at`, the certified game value from an arbitrary
concrete state, computed by rooting the boundary region graph there and
solving only the states that no earlier query on the arena has solved: by
one exact Bellman pass sinks first when none of them lies on a cycle, as on
almost every rooted graph, else by the certified `solve_exact`.  Solved
states are kept per arena, each its own key, so a repeated query builds no
valuation, region or graph.  On top of it:

  * `fit_simple` reconstructs a one-clock affine form e - nu(c) (or a
    constant), a `SimpleForm`, for the value function on a region, when
    one exists;
  * `check_quasi_simple` samples pairs in a region's closure and tests the
    value function for K-Lipschitz continuity (sup norm) and, along
    diagonal shifts by t on a subset of clocks, for monotone decrease by at
    most t;
  * `check_time_monotone` tests that the one-step function
    t + sum_branches p * value(successor at delay t) is nondecreasing in t
    inside one enabled region's delay window, which it reads off the walk
    of `regions.delay_windows` within the location invariant;
  * `grid_one_step_value` optimizes that one-step function over a dense
    delay grid, the reference point for consistency between the graph
    abstraction and the concrete semantics; it walks the windows once per
    state, and yields each window's grid lazily.

All checks take an `evaluator` override so a deliberately broken value
function can be used to prove the checks have teeth.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator

from .brg import explore, root_key
from .model import Arena, ConcreteState, Edge, branch_states
from .regions import (
    REGION_CAP,
    ClockRegion,
    ClockValuation,
    DelayWindow,
    closure_contains,
    delay_windows,
    representative,
    sample_closure,
    sample_interior,
    satisfies,
    valuation_satisfies,
)
from .solver import ConvergenceError, acyclic_values, solve_exact

Evaluator = Callable[[str, ClockValuation], Fraction]

# Interior samples `fit_simple` values, the denominator of the closure points
# `check_quasi_simple` draws, and the grid `sample_states` draws states from.
FIT_SAMPLES = 6
PAIR_DENOMINATOR = 64
STATE_DENOMINATOR = 8


def value_at(arena: Arena, location: str, valuation: ClockValuation) -> Fraction:
    """Certified expected time to the final set from a concrete state, the
    value of the boundary region graph node rooted at that exact state.

    A node's value does not depend on the root it was explored from, so the
    arena keeps one table of every node solved so far (`Arena._solved`),
    keyed by the `BrgState`s themselves.  The root state is made from the
    valuation as integers (`brg.root_key`) and is looked up, explored from
    and stored as it is, so a query the table answers builds no valuation,
    region or graph.  Otherwise the query explores below its root only as
    far as the table does not reach and solves that part with the table's
    values as constants: when no live state of it lies on a cycle, by one exact
    Bellman pass sinks first (`solver.acyclic_values`), which needs no
    certificate since it solves the optimality equations outright; else by
    the certified `solve_exact`, with its reach check and its refusal of an
    uncertified solve.  The newly solved nodes go to the table.  A query
    that raises leaves the table unchanged.
    """
    root = root_key(arena, location, valuation)
    table = arena._solved
    value = table.get(root)
    if value is None:
        g = explore(arena, root=root, known=table)
        values = acyclic_values(g)
        if values is None:
            res = solve_exact(g)
            if not res.certified:
                raise ConvergenceError("the exact solve rooted at %s is not certified"
                                       % root.label())
            values = res.values
        table.update((s, v) for i, (s, v) in enumerate(zip(g.states, values))
                     if i not in g.fixed)
        value = values[0]
    return value


def _default_evaluator(arena: Arena) -> Evaluator:
    return lambda location, valuation: value_at(arena, location, valuation)


# ------------------------------------------------------------- simple fit

@dataclass(frozen=True)
class SimpleForm:
    """A value function of the shape e - nu(clock) (or the constant e when
    clock is None), with integer e.  On one region such forms are totally
    ordered, and two of them agree on the region as soon as they agree at
    its interior representative."""

    e: int
    clock: str | None = None

    def eval(self, valuation: ClockValuation) -> Fraction:
        if self.clock is None:
            return Fraction(self.e)
        return self.e - valuation.value(self.clock)

    def render(self) -> str:
        return str(self.e) if self.clock is None else "%d - %s" % (self.e, self.clock)


def fit_simple(
    arena: Arena,
    location: str,
    region: ClockRegion,
    *,
    seed: int = 0,
    evaluator: Evaluator | None = None,
) -> SimpleForm | None:
    """A constant or e - nu(c) form matching the value on interior samples.

    Values at the representative plus random interior points pin the form
    down: such forms differ on a region as soon as they differ anywhere on
    it, so agreement on the samples identifies the form whenever one exists.
    Returns None when no sampled form has an integer offset or fits.
    """
    ev = evaluator or _default_evaluator(arena)
    rng = random.Random(seed)
    points = [representative(region)]
    for _ in range(FIT_SAMPLES - 1):
        points.append(sample_interior(region, rng))
    points = list(dict.fromkeys(points))
    vals = [ev(location, p) for p in points]
    first = vals[0]
    if all(v == first for v in vals) and first.denominator == 1:
        return SimpleForm(int(first), None)
    for c in arena.ctx.clocks:
        offsets = {v + p.value(c) for v, p in zip(vals, points)}
        if len(offsets) == 1:
            e = offsets.pop()
            if e.denominator == 1:
                return SimpleForm(int(e), c)
    return None


# --------------------------------------------------------- quasi-simpleness

def lipschitz_bound(arena: Arena, k_bound=None) -> Fraction:
    """The Lipschitz bound K that `check_quasi_simple` tests: `k_bound`, by
    default 1 + the number of clocks.  A negative K is refused."""
    K = Fraction(1 + len(arena.ctx.clocks)) if k_bound is None else Fraction(k_bound)
    if K < 0:
        raise ValueError("Lipschitz bound K must be at least 0, got %s" % K)
    return K


@dataclass
class PropertyReport:
    location: str
    region: ClockRegion
    k_bound: Fraction
    pairs_checked: int = 0
    diag_pairs_checked: int = 0
    lipschitz_violations: list = field(default_factory=list)
    monotonicity_violations: list = field(default_factory=list)
    nonexpansive_violations: list = field(default_factory=list)
    max_lipschitz_ratio: Fraction | None = None

    @property
    def ok(self) -> bool:
        return not (
            self.lipschitz_violations
            or self.monotonicity_violations
            or self.nonexpansive_violations
        )

    def summary(self) -> str:
        return (
            "%s [%s]: %d pairs, %d shift pairs, violations %d/%d/%d"
            % (
                self.location,
                self.region.label(),
                self.pairs_checked,
                self.diag_pairs_checked,
                len(self.lipschitz_violations),
                len(self.monotonicity_violations),
                len(self.nonexpansive_violations),
            )
        )


def check_quasi_simple(
    arena: Arena,
    location: str,
    region: ClockRegion,
    *,
    pairs: int = 200,
    k_bound: Fraction | None = None,
    seed: int = 0,
    evaluator: Evaluator | None = None,
) -> PropertyReport:
    """Sampled check that the value function is K-Lipschitz on the region's
    closure and, along diagonal time shifts, decreases by at most the shift.

    Pairs are rational points of the closure with bounded denominators.  The
    diagonal part draws a base point, a shift t > 0, and a nonempty clock
    subset, keeping only shifted points that stay inside the closure; kept
    pairs must satisfy F(nu) >= F(nu') and F(nu) - F(nu') <= t.
    """
    ev = evaluator or _default_evaluator(arena)
    K = lipschitz_bound(arena, k_bound)
    report = PropertyReport(location, region, K)
    if len(region.blocks) == 1:
        # every clock sits on an integer: the closure is a single point, so
        # there is neither a distinct pair nor a shifted pair to draw
        return report
    rng = random.Random(seed)

    attempts = 0
    while report.pairs_checked < pairs and attempts < 50 * pairs:
        attempts += 1
        u = sample_closure(region, rng, PAIR_DENOMINATOR)
        v = sample_closure(region, rng, PAIR_DENOMINATOR)
        if u == v:
            continue
        fu, fv = ev(location, u), ev(location, v)
        dist = max(abs(a - b) for a, b in zip(u.values, v.values))
        ratio = abs(fu - fv) / dist
        if report.max_lipschitz_ratio is None or ratio > report.max_lipschitz_ratio:
            report.max_lipschitz_ratio = ratio
        if ratio > K:
            report.lipschitz_violations.append((u.values, v.values, fu, fv, ratio))
        report.pairs_checked += 1

    attempts = 0
    n = len(arena.ctx.clocks)
    while report.diag_pairs_checked < pairs and attempts < 50 * pairs:
        attempts += 1
        u = sample_closure(region, rng, PAIR_DENOMINATOR)
        t = Fraction(rng.randint(1, arena.ctx.k * PAIR_DENOMINATOR), PAIR_DENOMINATOR)
        mask = rng.randint(1, (1 << n) - 1)
        shifted = tuple(
            x + t if mask >> i & 1 else x for i, x in enumerate(u.values)
        )
        if any(x > arena.ctx.k for x in shifted):
            continue
        v = ClockValuation(arena.ctx, shifted)
        if not closure_contains(region, v):
            continue
        fu, fv = ev(location, u), ev(location, v)
        if fu < fv:
            report.monotonicity_violations.append((u.values, v.values, fu, fv, t))
        if fu - fv > t:
            report.nonexpansive_violations.append((u.values, v.values, fu, fv, t))
        report.diag_pairs_checked += 1
    return report


# --------------------------------------------------------- one-step value

def _one_step(ev: Evaluator, e: Edge, v: ClockValuation, t: Fraction) -> Fraction:
    """t + sum_branches p * F(successor): the value of delaying by t from v
    and then firing e."""
    total = Fraction(t)
    for p, (location, valuation) in branch_states(e, v.shift(t)):
        total += p * ev(location, valuation)
    return total


def _delays(w: DelayWindow, parts: int) -> Iterator[Fraction]:
    """A thin window's one instant; otherwise the points cutting the window
    into `parts` equal pieces, after its left end when that end is closed.
    Lazy, so a grid is never held whole."""
    if w.lo == w.hi or w.closed_lo:
        yield w.lo
    if w.lo < w.hi:
        step = (w.hi - w.lo) / parts
        for j in range(1, parts):
            yield w.lo + step * j


def check_time_monotone(
    arena: Arena,
    state: ConcreteState,
    action: str,
    target: ClockRegion,
    *,
    grid: int = 16,
    evaluator: Evaluator | None = None,
) -> list:
    """Violations of one-step monotonicity in the delay.

    Restricted to delays steering into one region, the one-step function
    t + sum p * F(successor) must be nondecreasing; this compares it at
    consecutive grid points of the delay window.  A thin target admits a
    single delay, so the check is vacuous there.  The target's window comes
    from the walk of `delay_windows` within the location invariant.
    """
    ev = evaluator or _default_evaluator(arena)
    loc, v = state
    e = arena.edge(loc, action)
    if e is None:
        raise ValueError("no edge (%s, %s)" % (loc, action))
    if not satisfies(target, e.guard):
        raise ValueError("action %s is not enabled on [%s]" % (action, target.label()))
    window = next((w for r, w in delay_windows(v, arena.location_named(loc).invariant)
                   if r == target), None)
    if window is None:
        raise ValueError("[%s] is not in the future of the state within the invariant of %s"
                         % (target.label(), loc))
    out = []
    prev_t = prev_f = None
    for t in _delays(window, grid + 1):
        f = _one_step(ev, e, v, t)
        if prev_f is not None and f < prev_f:
            out.append((prev_t, t, prev_f, f))
        prev_t, prev_f = t, f
    return out


# ------------------------------------------------------- grid consistency

def grid_one_step_value(
    arena: Arena,
    state: ConcreteState,
    *,
    denominator: int = 64,
    evaluator: Evaluator | None = None,
) -> Fraction:
    """Best one-step value over a dense grid of legal delays.

    Thin enabled regions contribute their exact instant; thick ones an
    evenly spaced grid strictly inside their delay window, plus the left
    endpoint when the state already sits in the region.  The optimum over
    this grid converges to the true one-step optimum as the grid refines,
    and the two agree outright when the guards are closed on the optimal
    side, as in the bundled models.
    """
    ev = evaluator or _default_evaluator(arena)
    loc, v = state
    minimize = arena.owner_of(loc) == "min"
    # one walk of the windows, which every edge reads
    windows = list(delay_windows(v, arena.location_named(loc).invariant))
    best: Fraction | None = None
    enabled = False
    for e in arena.edges_from(loc):
        for r, w in windows:
            if not satisfies(r, e.guard):
                continue
            enabled = True
            for t in _delays(w, denominator):
                val = _one_step(ev, e, v, t)
                if best is None or (val < best if minimize else val > best):
                    best = val
    if best is None:
        at = "(%s, %s)" % (loc, ",".join("%s=%s" % cv for cv in zip(arena.ctx.clocks, v.values)))
        if enabled:
            # an open window cut into one piece has no inner grid point
            raise ValueError("the delay grid of denominator %d has no point in any "
                             "enabled window from %s" % (denominator, at))
        raise ValueError("no legal timed action from %s" % at)
    return best


def sample_states(arena: Arena, count: int, *, seed: int = 0) -> list[ConcreteState]:
    """Deterministic sample of non-final concrete states on a rational grid,
    each satisfying its location invariant.  A grid of more than REGION_CAP
    points per location is refused before any is built."""
    points = arena.ctx.k * STATE_DENOMINATOR + 1
    if points > REGION_CAP:
        raise ValueError("a sample grid of %d points per location exceeds the cap of %d"
                         % (points, REGION_CAP))
    pool = []
    clocks = len(arena.ctx.clocks)
    for l in arena.locations:
        if l.final:
            continue
        # a grid over all clocks would explode for many clocks; the diagonal
        # slice, every clock at one grid value, is the whole grid for one clock
        for j in range(points):
            v = ClockValuation(arena.ctx, (Fraction(j, STATE_DENOMINATOR),) * clocks)
            if valuation_satisfies(v, l.invariant):
                pool.append(ConcreteState(l.name, v))
    rng = random.Random(seed)
    if count >= len(pool):
        return pool
    return rng.sample(pool, count)
