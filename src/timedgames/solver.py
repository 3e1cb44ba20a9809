"""Solvers for the finite min/max game induced by a boundary region graph.

The expected-time pipeline is: check that the target set is reached almost
surely under every strategy pair (no end component among non-final states;
one Tarjan pass splits those states into strongly connected components, and
only a component of several states or with a self-loop is searched),
run float value iteration for a warm start, extract positional strategies,
then improve them in exact rational arithmetic, alternating best responses
until neither player can switch.  Every strategy pair is valued by an exact
solve of its Markov chain, `_evaluate`: one pass that splits the live states
into strongly connected components and values them sinks first, each with
the values of the successors already solved as constants (Tarjan 1972; the
decomposition of topological value iteration, Dai et al. 2011).  A
component of one state without a self-loop takes one exact backup, a larger
one a small rational system.  The same pass marks the components whose
expected time diverges.

Each evaluation is followed by one exact Bellman sweep, `certify`, which
yields both the residual of the optimality equations and every action that
strictly beats the chosen one.  The improvement loop switches from that
report, and the report of the last pair, with no switch left, is the
certificate: zero residual, no better action and stochastic rows.  The
certificate is exact integer arithmetic over one common denominator: the
exact row table, built once per solve, holds every reward and probability
as an int over their common denominator Q, and each `certify` scales the
values and the rewards to one denominator S, so that every backup is an
exact integer sum and scaling by S > 0 keeps every comparison.  The rows
are checked once per solve, as that table is built, and there once per
distribution object: `explore` shares one among all the actions with the
same branches to the same successors.  That sweep is the one Bellman
kernel, `_sweep`, which also runs every value iteration step and the
warm-start choice, on a float row table.

The discounted variant contracts, so it needs no reachability assumption;
by default it treats final states as absorbing with value zero, which is the
reading under which the discounted initial value tends to the expected-time
value as the discount factor tends to one.  `zero_final=False` gives the
pure infinite-horizon payoff where final locations keep acting.

All public entry points work on the explored graph, not the arena, so a
rooted graph for an arbitrary start state solves the game from there.  The
states of `Brg.fixed`, already solved by an earlier query, are absorbed like
final states, each at its value instead of zero: every pass substitutes that
value as a constant, and the reach check and the certificate cover only the
other states.  That is sound because no action of a solved state leads
outside the solved part, so no end component straddles the two.

A rooted query needs only values, which are unique; on a graph without a
cycle among its live states `brg.rooted_values` gives them in one
depth-first pass that builds no graph, and only the other rooted graphs
come here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, repeat
from typing import Iterable, NamedTuple, Sequence

from .brg import Brg
from .model import sccs

INF = math.inf


class TargetUnreachableError(RuntimeError):
    """The explored graph has an end component avoiding the final states, so
    expected reachability times are not finite under every strategy pair.
    `witness` holds the state labels of each component."""

    def __init__(self, g: Brg, components: list[list[int]]):
        self.components = components
        self.witness = [[g.states[i].label() for i in comp] for comp in components]
        super().__init__(
            "final states are not reached almost surely; end components: %s"
            % (components,)
        )


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted before meeting the tolerance."""


@dataclass
class SolveConfig:
    tolerance: float = 1e-9
    max_iterations: int = 1_000_000
    improve_order: str = "min_first"  # or "max_first"


@dataclass
class CertifyReport:
    residual: Fraction | float
    violations: list[int]
    # (state, action) pairs whose distribution is not stochastic
    improper_rows: list[tuple[int, int]]
    # (state, action) where the action strictly beats the chosen one
    switches: list[tuple[int, int]]

    @property
    def ok(self) -> bool:
        return self.residual == 0 and not self.improper_rows and not self.switches


@dataclass
class SolveResult:
    values: list
    choice: list
    certified: bool
    zero_final: bool
    vi_iterations: int
    improvement_rounds: int
    exact_evaluations: int


# ------------------------------------------------------------ assumptions

def _end_components(g: Brg, states: Iterable[int]) -> list[list[int]]:
    """Maximal end components of the sub-MDP on `states` (actions restricted
    to those whose whole support stays inside), by iterated SCC refinement."""
    result = []
    stack = [frozenset(states)]
    while stack:
        T = stack.pop()
        if not T:
            continue
        allowed = {
            s: [
                j
                for j in range(len(g.actions[s]))
                if all(t in T for t, _ in g.dists[s][j])
            ]
            for s in T
        }
        dead = {s for s in T if not allowed[s]}
        if dead:
            stack.append(T - dead)
            continue
        succ = {s: [t for j in allowed[s] for t, _ in g.dists[s][j]] for s in T}
        comps = sccs(T, succ)
        if len(comps) == 1:
            # strongly connected and every state can stay: an end component
            # (a singleton only survives `dead` with a genuine self-loop)
            result.append(sorted(T))
            continue
        stack.extend(frozenset(c) for c in comps)
    result.sort()
    return result


def _live_components(g: Brg, choice: Sequence | None = None,
                     zero_final: bool = True) -> tuple[list[list[int]], list]:
    """The strongly connected components of the live states, neither fixed
    nor absorbed final, sinks first (one Tarjan pass), and each live state's
    set of live successors: under the actions of `choice`, or under all
    actions without one.  A state that `choice` leaves unset has none."""
    live = [not (zero_final and final) and i not in g.fixed
            for i, final in enumerate(g.finals)]
    states = [i for i, ok in enumerate(live) if ok]
    succ: list = [()] * g.n
    for s in states:
        if choice is None:
            succ[s] = {t for dist in g.dists[s] for t, _ in dist if live[t]}
        elif choice[s] is not None:
            succ[s] = {t for t, _ in g.dists[s][choice[s]] if live[t]}
    return sccs(states, succ), succ


def _trivial(comp: list[int], succ: list) -> bool:
    """A component of one state without a self-loop."""
    return len(comp) == 1 and comp[0] not in succ[comp[0]]


def check_almost_sure_reach(g: Brg) -> list[list[int]]:
    """End components among the non-final states outside `g.fixed`; empty
    means every strategy pair reaches the final set (or a fixed state) with
    probability one.  An end component is strongly connected under all
    actions, so it lies inside one strongly connected component of the live
    states' graph that has several states or a self-loop.  One Tarjan pass
    finds those, and the end-component search runs only on them."""
    comps, succ = _live_components(g)
    components = []
    for comp in comps:
        if not _trivial(comp, succ):
            components += _end_components(g, comp)
    components.sort()
    return components


# ------------------------------------------------------------ Bellman sweep

class _Rows(NamedTuple):
    """All that a sweep reads of one graph under one objective; see `_row_table`."""

    rows: list  # per state: [(index, reward, distribution), ...], or None
    base: list  # per state: its value when it has no row or no action
    minimize: list[bool]
    lam: object  # the discount, None for expected time


class _ExactRows(NamedTuple):
    """The exact row table of one graph, every reward and probability an int
    over one common denominator; see `_exact_table`."""

    rows: list  # per state: (rewards, [((successor, p), ...), ...]), or None
    minimize: list[bool]
    improper: list[tuple[int, int]]  # non-stochastic (state, action) pairs
    scale: int  # the common denominator


def _stochastic(dist, scale: int) -> bool:
    """Whether the probabilities, ints over `scale`, are nonnegative and sum
    to exactly `scale`.  Most rows have one entry, which needs no sum."""
    if len(dist) == 1:
        return dist[0][1] == scale
    return sum(p for _, p in dist) == scale and all(p >= 0 for _, p in dist)


def _row_table(g: Brg, lam, zero_final: bool) -> _Rows:
    """The float row table of `g`, built once per call site.  A state's row
    lists its actions in canonical order as (index, reward, distribution); a
    fixed state and an absorbed final state have None and keep their base
    value, the fixed value or zero.  Every number is converted as numerator
    / denominator (float() of a Fraction, less its dispatch), so a sweep
    gives the floats that the graph's Fractions give on float values.
    `explore` shares one object per distinct distribution and reward list,
    so each distinct object is converted once, keyed by its id() while `g`
    keeps it alive.  Every solve builds it first, so it refuses the first
    live state without an action as `_evaluate` does."""
    rows = []
    floats: dict[int, list] = {}
    for i in range(g.n):
        if i in g.fixed or zero_final and g.is_final(i):
            rows.append(None)
            continue
        if not g.actions[i]:
            raise ValueError("state %s has no action" % g.states[i].label())
        rewards = floats.get(id(g.rewards[i]))
        if rewards is None:
            rewards = floats[id(g.rewards[i])] = [r.numerator / r.denominator
                                                  for r in g.rewards[i]]
        dists = []
        for dist in g.dists[i]:
            pairs = floats.get(id(dist))
            if pairs is None:
                pairs = floats[id(dist)] = [(t, p.numerator / p.denominator)
                                            for t, p in dist]
            dists.append(pairs)
        rows.append(list(zip(count(), rewards, dists)))
    base = [0.0] * g.n
    for i, x in g.fixed.items():
        base[i] = float(x)
    return _Rows(rows, base, [o == "min" for o in g.owners],
                 None if lam is None else float(lam))


def _exact_table(g: Brg, zero_final: bool) -> _ExactRows:
    """The exact row table of `g`, built once per solve: Q is the least
    common multiple of the denominators of every reward and probability of
    the graph, and each becomes the int r Q or p Q.  A state's row is its
    reward list and its distributions, in canonical order; a fixed state
    and an absorbed final state have None.  `explore` shares one object per
    distinct distribution and reward list, so each distinct object is
    converted once, keyed by its id() while `g` keeps it alive, and each
    distinct distribution of the graph is checked for stochasticity once,
    on its ints; every (state, action) pair whose distribution fails is
    listed."""
    rewards = {id(r): r for r in g.rewards}
    dists = {id(dist): dist for row in g.dists for dist in row}
    dens = {x.denominator for r in rewards.values() for x in r}
    dens.update(p.denominator for dist in dists.values() for _, p in dist)
    scale = math.lcm(*dens)
    per = {d: scale // d for d in dens}
    ints: dict[int, object] = {
        key: [x.numerator * per[x.denominator] for x in r] for key, r in rewards.items()}
    for key, dist in dists.items():
        ints[key] = tuple((t, p.numerator * per[p.denominator]) for t, p in dist)
    bad = {key for key in dists if not _stochastic(ints[key], scale)}
    improper = [(i, j) for i, row in enumerate(g.dists)
                for j, dist in enumerate(row) if id(dist) in bad] if bad else []
    rows = [None if i in g.fixed or zero_final and g.is_final(i)
            else (ints[id(g.rewards[i])], [ints[id(dist)] for dist in g.dists[i]])
            for i in range(g.n)]
    return _ExactRows(rows, [o == "min" for o in g.owners], improper, scale)


def _sweep(table: _Rows, values: Sequence, choice: Sequence | None = None) -> tuple[list, list]:
    """One application of the optimality operator: per state the owner's
    optimal one-step value, lam (r + sum of p v), against `values` and the
    action attaining it, `choice[i]` unless another action is strictly
    better (without a choice, the first in canonical order).  A state
    without a row or an action gets its base value and action None.
    Ints and Fractions stay exact, and math.inf flows through."""
    lam = table.lam
    starts = repeat(None) if choice is None else choice
    out, acts = [], []
    for row, mini, base, start in zip(table.rows, table.minimize, table.base, starts):
        best = j = None
        if row:
            if start is not None:
                row = [row[start], *(a for a in row if a[0] != start)]
            for k, r, succ in row:
                acc = r
                for t, p in succ:
                    acc = acc + p * values[t]
                if lam is not None:
                    acc = lam * acc
                if best is None or (acc < best if mini else acc > best):
                    best, j = acc, k
        out.append(base if best is None else best)
        acts.append(j)
    return out, acts


def value_iterate(
    g: Brg, cfg: SolveConfig, *, lam=None, zero_final: bool = True
) -> tuple[list[float], int, float]:
    """Float fixpoint iteration from all zeros, fixed states at their
    values; returns (values, iterations, last residual).  Monotone from
    below for the expected-time objective, a contraction for the discounted
    one.  Every iteration is one sweep of one float row table, which is
    kept on `g` for the `extract_strategies` that follows."""
    table = _row_table(g, lam, zero_final)
    v = list(table.base)
    for it in range(1, cfg.max_iterations + 1):
        w = _sweep(table, v)[0]
        residual = max((abs(a - b) for a, b in zip(v, w)), default=0.0)
        v = w
        if residual <= cfg.tolerance:
            g._float_rows = (lam, zero_final, table)
            return v, it, residual
    raise ConvergenceError(
        "value iteration did not reach tolerance %g in %d iterations"
        % (cfg.tolerance, cfg.max_iterations)
    )


def extract_strategies(
    g: Brg, values: Sequence, *, lam=None, zero_final: bool = True
) -> list:
    """Greedy positional choice per state against float values (argmin for
    the minimizer, argmax for the maximizer, first action in canonical order
    on ties): the action column of one sweep over a float row table, the
    form `value_iterate` sweeps.  Final states get None when they are
    treated as absorbing.  The table is the one the last `value_iterate` on
    `g` kept when it had the same objective, else a new one; either way `g`
    keeps none afterwards."""
    kept, g._float_rows = g._float_rows, None
    if kept is not None and kept[:2] == (lam, zero_final):
        table = kept[2]
    else:
        table = _row_table(g, lam, zero_final)
    return _sweep(table, values)[1]


# ------------------------------------------------------- exact evaluation

def _solve_linear_exact(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Gaussian elimination over Fractions for a square nonsingular system."""
    n = len(rows)
    a = [row + [b] for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise ArithmeticError("singular system in exact evaluation")
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


def _evaluate(g: Brg, choice: Sequence, lam: Fraction | None = None,
              zero_final: bool = True) -> list:
    """Exact values of the Markov chain that `choice` fixes on `g`, v = lam
    (r + P v) with lam = 1 for expected time (lam None), from one pass over
    its live states, sinks first.  Absorbed final states are zero and fixed
    states keep their value.

    A trivial component, one state without a self-loop, takes one exact
    backup of its chosen action; a state with none is refused here.  A
    larger component is a rational system with the values outside it as
    constants.  Only expected time can diverge: a component is infinite
    when it has no successor outside itself (it never reaches the absorbed
    set, and time keeps accumulating on it by non-Zenoness) or when such a
    successor is infinite, checked outright since 0 * inf is nan.
    Otherwise its system is nonsingular, as discounting (lam < 1) makes
    every system.
    """
    comps, succ = _live_components(g, choice, zero_final)
    diverges = lam is None
    factor = Fraction(1) if lam is None else lam
    values: list = [g.fixed.get(i, Fraction(0)) for i in range(g.n)]
    for comp in comps:
        if _trivial(comp, succ):
            s = comp[0]
            j = choice[s]
            if j is None:
                raise ValueError("state %s has no action" % g.states[s].label())
            r, dist = g.rewards[s][j], g.dists[s][j]
            if diverges and (not dist or any(values[t] == INF for t, _ in dist)):
                r = INF
            else:
                for t, p in dist:
                    r = r + p * values[t]
                if lam is not None:
                    r = lam * r
            values[s] = r
            continue
        pos = {i: r for r, i in enumerate(comp)}
        if diverges:
            outside = [values[t] for i in comp for t, _ in g.dists[i][choice[i]]
                       if t not in pos]
            if not outside or INF in outside:
                for i in comp:
                    values[i] = INF
                continue
        rows, rhs = [], []
        for i in comp:
            j = choice[i]
            row = [Fraction(0)] * len(comp)
            row[pos[i]] += 1
            b = g.rewards[i][j]
            for t, p in g.dists[i][j]:
                if t in pos:
                    row[pos[t]] -= factor * p
                else:
                    b += p * values[t]
            rows.append(row)
            rhs.append(factor * b)
        for i, x in zip(comp, _solve_linear_exact(rows, rhs)):
            values[i] = x
    return values


def evaluate_pair_exact(g: Brg, choice: Sequence) -> list:
    """Exact expected time to the final set in the Markov chain fixed by the
    choice vector: zero on final states, math.inf where it diverges."""
    return _evaluate(g, choice, None, True)


def evaluate_pair_discounted(
    g: Brg, choice: Sequence, lam: Fraction, *, zero_final: bool = True
) -> list:
    """Exact discounted value of a strategy pair: v = lam * (r + P v)."""
    return _evaluate(g, choice, Fraction(lam), zero_final)


def _infinite_terms(action: tuple, infinite: set[int], num: int | None) -> tuple:
    """A swept action (index, reward, distribution) with the discount's
    numerator `num` (None without a discount) multiplied in.  An action
    whose distribution reaches a state of `infinite` backs up to inf, -inf
    or nan whatever its finite terms, so it keeps reward 0 and only its
    branches there, each probability as the sign of its product with num."""
    j, r, dist = action
    a = 1 if num is None else num
    terms = [(t, (a * p > 0) - (a * p < 0)) for t, p in dist if t in infinite]
    if terms:
        return j, 0, terms
    return action if num is None else (j, num * r, [(t, num * p) for t, p in dist])


def certify(
    g: Brg,
    values: Sequence,
    choice: Sequence,
    *,
    lam=None,
    zero_final: bool = True,
    rows: _ExactRows | None = None,
) -> CertifyReport:
    """Certificate of a strategy pair at `values`, from one exact sweep of
    the optimality operator: its residual, the states where it moves the
    values, and the switches, the states where an action strictly beats
    `choice` against `values`.  Zero residual and no switch certify that
    `values` are the game's values and `choice` an optimal pair (for the
    expected-time objective this relies on the almost-sure reachability
    check, under which the optimality equations pin down a unique solution),
    provided every action's distribution is stochastic: nonnegative, summing
    to exactly 1.  The exact row table is built unless `rows` passes the
    one of an earlier call on the same graph and `zero_final`.

    The sweep is exact integer arithmetic over one common denominator.  The
    values, ints or Fractions or math.inf, are scaled by V, the least common
    multiple of the denominators of the finite values and the fixed values,
    each reward list of the table (over Q) by V once, and the discount
    lam = a / b is applied as a.  A backup then is S = Q V b times its
    rational value, an exact int (or inf, or nan where 0 * inf is), and
    scaling by the positive S keeps every comparison, the sweep's ties
    included; the residual is the largest gap over S.  Infinite values are
    carried beside the ints, so that no float meets an int past 2**1024:
    with one, every action takes the discount into its row, an action that
    reaches one keeps only the signs of its branches there
    (`_infinite_terms`), and the residual counts a finite int beside a
    non-finite value as 0."""
    if rows is None:
        rows = _exact_table(g, zero_final)
    num, den = (None, 1) if lam is None else Fraction(lam).as_integer_ratio()
    dens = {x.denominator for x in values if not isinstance(x, float)}
    dens.update(x.denominator for x in g.fixed.values())
    vscale = math.lcm(*dens)
    per = {d: vscale // d for d in dens}
    scale = rows.scale * vscale * den
    scaled = [x if isinstance(x, float) else x.numerator * per[x.denominator]
              for x in values]
    infinite = {i for i, x in enumerate(values) if isinstance(x, float)}
    rewards: dict[int, list] = {}
    sweep_rows = []
    for row in rows.rows:
        if row is not None:
            r, dists = row
            key = id(r)
            if key not in rewards:
                rewards[key] = [x * vscale for x in r]
            row = list(zip(count(), rewards[key], dists))
            if infinite:
                row = [_infinite_terms(action, infinite, num) for action in row]
        sweep_rows.append(row)
    base = [0] * g.n
    for i, x in g.fixed.items():
        base[i] = x.numerator * (scale // x.denominator)
    improved, best = _sweep(_Rows(sweep_rows, base, rows.minimize,
                                  None if infinite else num), scaled, choice)
    switches = [(i, j) for i, j in enumerate(best) if j is not None and j != choice[i]]
    violations = []
    gap = 0
    factor = scale // vscale
    for i, (a, b) in enumerate(zip(scaled, improved)):
        if i not in infinite:
            a = a * factor
        if a == b:
            continue
        violations.append(i)
        if isinstance(a, float) or isinstance(b, float):
            a, b = [x if isinstance(x, float) else 0 for x in (a, b)]
        gap = max(gap, INF if INF in (a, b) else abs(a - b))
    residual = INF if gap == INF else Fraction(gap, scale)
    return CertifyReport(residual, violations, rows.improper, switches)


# ------------------------------------------------------ strategy improvement

def _alternating_best_response(
    g: Brg, choice: list, cfg: SolveConfig, *, lam, zero_final
) -> tuple[list, list, int, int, CertifyReport]:
    """Alternating best response from a warm-start pair; returns the values
    and choice of the final pair, the rounds, the exact evaluations and the
    certificate of the final pair.  The exact row table is built once, so
    its one stochasticity scan serves every report.

    The inner loop is exact policy iteration for one player against the
    other's fixed strategy; once it stabilizes the other player switches.
    Both switch from the `certify` report of the last evaluation.  Every
    switch strictly improves for its owner and every pair's value is well
    defined (by the almost-sure reachability check, or by discounting), so
    the finitely many positional pairs cannot recur and the loop stops at a
    pair whose report has no switch left.
    """
    first = "min" if cfg.improve_order == "min_first" else "max"
    choice = list(choice)
    rows = _exact_table(g, zero_final)
    rounds = 0
    evaluations = 0
    while True:
        rounds += 1
        if rounds > cfg.max_iterations:
            raise ConvergenceError(
                "strategy improvement exceeded %d rounds" % cfg.max_iterations
            )
        # exact policy iteration: full best response of the first player
        while True:
            if lam is None:
                values = evaluate_pair_exact(g, choice)
            else:
                values = evaluate_pair_discounted(g, choice, lam, zero_final=zero_final)
            evaluations += 1
            if evaluations > cfg.max_iterations:
                raise ConvergenceError(
                    "strategy improvement exceeded %d evaluations" % cfg.max_iterations
                )
            report = certify(g, values, choice, lam=lam, zero_final=zero_final, rows=rows)
            switches = [(i, j) for i, j in report.switches if g.owner(i) == first]
            if not switches:
                break
            for i, j in switches:
                choice[i] = j
        # one greedy switch batch for the second player against that value;
        # its value climbs strictly each round, so pairs cannot recur.  With
        # no switch left, `report` certifies the returned pair.
        if not report.switches:
            return values, choice, rounds, evaluations, report
        for i, j in report.switches:
            choice[i] = j


def _solve(g: Brg, cfg: SolveConfig, lam: Fraction | None, zero_final: bool) -> SolveResult:
    """Float warm start, then exact alternating best response, whose last
    report is the certificate."""
    v_float, vi_iters, _ = value_iterate(g, cfg, lam=lam, zero_final=zero_final)
    choice = extract_strategies(g, v_float, lam=lam, zero_final=zero_final)
    values, choice, rounds, evaluations, report = _alternating_best_response(
        g, choice, cfg, lam=lam, zero_final=zero_final
    )
    return SolveResult(
        values=values,
        choice=choice,
        certified=report.ok,
        zero_final=zero_final,
        vi_iterations=vi_iters,
        improvement_rounds=rounds,
        exact_evaluations=evaluations,
    )


def solve_exact(g: Brg, cfg: SolveConfig | None = None) -> SolveResult:
    """Certified exact values and positional strategies for expected time."""
    components = check_almost_sure_reach(g)
    if components:
        raise TargetUnreachableError(g, components)
    return _solve(g, cfg or SolveConfig(), None, True)


def solve_discounted(
    g: Brg,
    lam,
    cfg: SolveConfig | None = None,
    *,
    zero_final: bool = True,
) -> SolveResult:
    """Certified exact discounted values; lam must satisfy 0 <= lam < 1."""
    lam = Fraction(lam)
    if not (0 <= lam < 1):
        raise ValueError("discount factor must lie in [0, 1), got %s" % lam)
    return _solve(g, cfg or SolveConfig(), lam, zero_final)

