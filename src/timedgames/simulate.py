"""Monte Carlo play of a solved game against its own certified strategies.

The solver's choice vector picks one abstract move per graph node.  Abstract
moves name a boundary instant, which a concrete run cannot always hit: an
infimum or supremum of an open delay window is approached, not attained.
`concretize_action` turns the abstract move into an exact rational delay,
stepping epsilon inside the window on the correct side, so a simulated run
costs at most epsilon more (minimizer) or less (maximizer) per step than the
abstract move.  With `decaying=True` the slack at step n is epsilon/2^(n+1),
keeping the total drift of an arbitrarily long run under epsilon.

Strategies are keyed by (location, region): every valuation a run can reach
inside one region shares its action set, so the table built from the first
explored node per key plays from any point of the region's closure.  When
several nodes share a key with genuinely different optimal moves the table
keeps the first, which can cost accuracy on models beyond the bundled ones;
`ConcretizedStrategy.conflicts` counts such keys (the CLI does not report
it yet), and the run legality check guards the delays themselves either way.

Play is a walk over a step table compiled lazily on the strategy.  Every
quantity a step computes is a pure function of the concrete state and the
step's effective epsilon: the strategy's move, the exact delay, and the
move's branches from `model.timed_successors`, which decides its legality,
with their weights over the lcm of their denominators.  So the first visit
of a (state, epsilon) key computes them exactly as the per-step semantics
does, raising the same errors at the same step, and stores them under an
integer id with the successors' ids, in the edge's order.
Every later visit is one `randrange` over the same denominator, a scan over
the cumulative weights, an integer add and a list index: a run keeps its
time as one int over the lcm of the delays' denominators seen so far (a
decaying run's grow by a factor 2 a step, so their product would grow
quadratically in bits), and builds one `Fraction`, its time, at its end.
`estimate_value` sums the run times the same way.  The table
lives on the strategy, one per arena played, so every run and estimate of
the strategy shares it; the strategy's move table must not change once it
has been played.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .brg import BoundaryAction, Brg
from .model import Arena, ConcreteState, TimedAction, timed_successors
from .regions import TRUE, ClockRegion, ClockValuation, delay_windows, region_of


class StrategyGapError(Exception):
    """The strategy table has no move for a reached (location, region)."""


class _StepTable:
    """The compiled steps of one strategy on one arena.

    Ids number (state, effective epsilon, decaying) keys in first-reached
    order; `keys`, `final` and `entries` are indexed by id.  An entry is
    None until the state is first played, then (action, delay, den,
    ((cumulative weight, successor id), ...)).  Successors of a
    decaying run carry half the epsilon of their predecessor, which is
    epsilon/2^(n+1) at step n exactly."""

    def __init__(self, arena: Arena, action_for):
        self.arena = arena
        self.action_for = action_for
        self.ids: dict = {}
        self.keys: list = []
        self.final: list[bool] = []
        self.entries: list = []
        self.roots: dict = {}

    def root(self, epsilon, decaying: bool) -> int:
        """The id of the initial state's key for this epsilon, found without
        hashing the state again; keyed by epsilon's integer ratio, so no
        `Fraction` is hashed per run."""
        key = (epsilon.as_integer_ratio(), decaying)
        i = self.roots.get(key)
        if i is None:
            eps = epsilon / 2 if decaying else epsilon
            i = self.roots[key] = self.intern(self.arena.initial, eps, decaying)
        return i

    def intern(self, state: ConcreteState, eps, decaying: bool) -> int:
        key = (state, eps, decaying)
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = len(self.keys)
            self.keys.append(key)
            self.final.append(self.arena.is_final(state.location))
            self.entries.append(None)
        return i

    def compile(self, i: int) -> tuple:
        """Compile entry i on its first play.  Raises what the per-step
        semantics raises at this state, before any draw."""
        state, eps, decaying = self.keys[i]
        act = self.action_for(state.location, region_of(state.valuation))
        action, t = act.action, concretize_action(state.valuation, act, eps)
        move = TimedAction(t, action)
        succs = timed_successors(self.arena, state, move)
        if succs is None:
            raise StrategyGapError(
                "concretized move %s is illegal from (%s, %s)"
                % (move, state.location, dict(state.valuation.as_dict()))
            )
        den = math.lcm(*(p.denominator for p, _ in succs))
        nxt = eps / 2 if decaying else eps
        acc = 0
        branches = []
        for p, succ in succs:
            acc += p.numerator * (den // p.denominator)
            branches.append((acc, self.intern(succ, nxt, decaying)))
        entry = self.entries[i] = (action, t, den, tuple(branches))
        return entry


@dataclass(frozen=True)
class ConcretizedStrategy:
    """One abstract move per (location, region key).  `conflicts` counts the
    keys whose graph nodes chose different moves, of which the table keeps
    the first.  `_steps` holds the compiled step table per played arena; like
    `conflicts` it is not part of equality, hashing or repr."""

    arena: Arena
    table: dict
    conflicts: int = field(default=0, compare=False)
    _steps: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_steps", {})

    @classmethod
    def from_solution(cls, g: Brg, choice) -> "ConcretizedStrategy":
        table = {}
        conflicted = set()
        for i, s in enumerate(g.states):
            if choice[i] is None:
                continue
            key = (s.location, s.region.key())
            act = g.actions[i][choice[i]]
            if table.setdefault(key, act) != act:
                conflicted.add(key)
        return cls(g.arena, table, len(conflicted))

    def action_for(self, location: str, region: ClockRegion) -> BoundaryAction:
        try:
            return self.table[(location, region.key())]
        except KeyError:
            raise StrategyGapError(
                "no move for %s in [%s]" % (location, region.label())
            ) from None


def concretize_action(
    valuation: ClockValuation, act: BoundaryAction, epsilon: Fraction
) -> Fraction:
    """An exact delay realizing the abstract move from this valuation.

    Fire-now and thin-boundary moves are exact.  A move naming an endpoint
    of an open window steps epsilon inside it, clamped to half the window
    so the delay always lands in the target region.
    """
    if act.b is None:
        return Fraction(0)
    t0 = act.b - valuation.values[act.c]
    if t0 < 0:
        raise StrategyGapError(
            "boundary %s=%d lies in the past of %s"
            % (valuation.ctx.clocks[act.c], act.b, dict(valuation.as_dict()))
        )
    if region_of(valuation.shift(t0)) == act.target:
        return t0
    w = next((w for r, w in delay_windows(valuation, TRUE) if r == act.target), None)
    if w is None:
        raise StrategyGapError(
            "[%s] is not reachable by delay from %s"
            % (act.target.label(), dict(valuation.as_dict()))
        )
    delta = min(Fraction(epsilon), (w.hi - w.lo) / 2)
    if t0 == w.hi:
        return t0 - delta
    if t0 == w.lo:
        return t0 + delta
    raise AssertionError("boundary instant %s is not an endpoint of the window" % t0)


def _add(num: int, scale: int, t: Fraction) -> tuple[int, int]:
    """num/scale + t as an int over the lcm of scale and t's denominator,
    not their product, which would grow by every step's epsilon/2^(n+1) of
    a decaying run."""
    q = t.denominator
    if scale % q:
        m = q // math.gcd(scale, q)
        num *= m
        scale *= m
    return num + t.numerator * (scale // q), scale


@dataclass(frozen=True)
class RunRecord:
    reached: bool
    total_time: Fraction
    steps: int
    last: ConcreteState
    trace: tuple = ()


def simulate_run(
    arena: Arena,
    strategy: ConcretizedStrategy,
    rng: random.Random,
    *,
    epsilon: Fraction = Fraction(1, 1000),
    step_cap: int = 10_000,
    decaying: bool = False,
    record_trace: bool = False,
) -> RunRecord:
    """One run from the initial state until a final location or the step
    cap.  Step n delays by the strategy's move concretized with epsilon, or
    with epsilon/2^(n+1) when decaying, and draws its branch with one
    `rng.randrange` over the lcm of the edge's probability denominators."""
    steps_table = strategy._steps.get(id(arena))
    if steps_table is None:
        steps_table = strategy._steps[id(arena)] = _StepTable(arena, strategy.action_for)
    keys, final, entries = steps_table.keys, steps_table.final, steps_table.entries
    i = steps_table.root(epsilon, decaying)
    # the run's time as num/scale, scale the lcm of the delays' denominators
    num, scale = 0, 1
    trace: list = []
    steps = 0
    while not final[i]:
        if steps >= step_cap:
            return RunRecord(False, Fraction(num, scale), steps, keys[i][0], tuple(trace))
        entry = entries[i]
        if entry is None:
            entry = steps_table.compile(i)
        action, t, den, branches = entry
        if record_trace:
            trace.append((keys[i][0], action, t))
        r = rng.randrange(den)
        for acc, j in branches:
            if r < acc:
                break
        else:
            raise AssertionError("branch probabilities do not cover the unit interval")
        num, scale = _add(num, scale, t)
        i = j
        steps += 1
    return RunRecord(True, Fraction(num, scale), steps, keys[i][0], tuple(trace))


@dataclass
class EstimateResult:
    runs: int
    reached: int
    mean_exact: Fraction | None
    mean: float
    halfwidth: float
    epsilon: Fraction
    seed: int

    @property
    def unreached_fraction(self) -> float:
        return (self.runs - self.reached) / self.runs

    def summary(self) -> str:
        if self.reached == 0:
            return "0/%d runs reached the final set" % self.runs
        return "mean %.6f +/- %.6f over %d/%d runs (seed %d)" % (
            self.mean,
            self.halfwidth,
            self.reached,
            self.runs,
            self.seed,
        )


def estimate_value(
    arena: Arena,
    strategy: ConcretizedStrategy,
    runs: int,
    *,
    seed: int = 0,
    epsilon: Fraction = Fraction(1, 1000),
    step_cap: int = 10_000,
    decaying: bool = False,
) -> EstimateResult:
    """Sample mean of the accumulated time over runs that reach the final
    set, with a normal-approximation 95% halfwidth.  Runs cut off by the
    step cap are excluded from the mean and reported via `reached`."""
    if runs <= 0:
        raise ValueError("runs must be positive")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    rng = random.Random(seed)
    times: list[Fraction] = []
    num, scale = 0, 1
    for _ in range(runs):
        rec = simulate_run(
            arena,
            strategy,
            rng,
            epsilon=epsilon,
            step_cap=step_cap,
            decaying=decaying,
        )
        if rec.reached:
            times.append(rec.total_time)
            num, scale = _add(num, scale, rec.total_time)
    if not times:
        return EstimateResult(runs, 0, None, float("nan"), float("nan"),
                              epsilon, seed)
    n = len(times)
    mean_exact = Fraction(num, scale * n)
    mean = float(mean_exact)
    if n > 1:
        var = sum((float(t) - mean) ** 2 for t in times) / (n - 1)
        halfwidth = 1.96 * math.sqrt(var / n)
    else:
        halfwidth = 0.0
    return EstimateResult(runs, n, mean_exact, mean, halfwidth, epsilon, seed)
