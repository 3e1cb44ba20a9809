"""Independent reference computations used to cross-check the package.

Everything here works directly on raw Fraction arithmetic, truth tables of
atomic constraints and brute-force enumeration, without the canonical region
representation (except to decide guards), the solver's decomposition or the
component search of the non-Zenoness check, so a test that compares the two
really compares two different derivations.  `explore_per_state` is the
exception: it is the earlier boundary region graph construction, which
redoes the region-level work of every move (resets, target invariants,
fresh regions) at every state instead of compiling it once per arena, and
carries every valuation as a tuple of Fractions instead of integer points
of the root's lattice: its states are `FractionState`s, the earlier node
record, whose `label` is the earlier rendering of a node through its
Fractions, and `scaled_state` converts one to the package's `BrgState`.
`simulate_run_per_step` is the earlier simulator, which redoes the region
lookup, the concretization, the legality check and the branch weights at
every step instead of playing a compiled step table, and adds each delay
to a `Fraction`, where the simulator keeps an int over the lcm of the
delays' denominators; `estimate_value_fraction_sum` is the earlier
estimate, which plays it and sums the run times as `Fraction`s.  Both use the earlier
walks of the future chain: `boundary_actions_rewalk` walks it again from the
start region for every boundary it names (`boundary_coordinates`),
`timed_action_allowed_walk` checks the invariant region by region along
the chain, where `model.timed_successors` reads it at the move's two ends,
and `region_actions_available` is the earlier dead-region test of `validate`.
`delay_window_oracle` is the earlier delay window, which walks the whole
future chain (`future_chain`) again from the valuation's region for every
target, where `regions.delay_windows` reads every window off one walk, and
`delays_list` the earlier delay grid of the property checks, built whole
where `properties._delays` yields it lazily.
`moves_per_key` and `boundary_actions_per_key` are the earlier compile of
the region-level moves, which walked the whole invariant chain of every
(location, region), read every guard on each region of it and built every
action's move again, instead of assembling the action set from per-region
slices and compiling each move once per (location, action); the moves they
compile keep the arena's reset getters, as the package's do.
`end_components_whole` is the earlier reach check, which searched all
live states for end components at once instead of only the cyclic
components of one Tarjan pass, and `row_table_per_action` and
`exact_table_per_action` the earlier row tables, which converted (and
checked) the distribution of every action instead of each distinct
distribution object once.  `certify_fraction_rows` is the earlier
certificate, which swept the graph's own Fractions, where the solver sweeps
ints over one common denominator.
`evaluate_per_component_system` is the earlier pair evaluation, which
solves every component of the chain as a linear system, a single state
without a self-loop too, and `acyclic_values_own_pass` the earlier value
pass of a rooted query, with its own successor graph, Tarjan pass and
backup loop in Fractions over the explored graph, where
`brg.rooted_values` walks the arena's tables depth first and values each
state on integers without building a graph; `value_at_own_pass` is the
`properties.value_at` that ran it on the graph `explore` builds below the
root, or `solve_exact` where it declined.
`check_quasi_simple_fractions` is the earlier quasi-simpleness check, which
drew every sample as a `Fraction` valuation, valued it through `value_at`
and computed distances, shifts and ratios in `Fraction`s, where
`properties.check_quasi_simple` keeps them integers on the lattice of the
samples.
`closure_contains_fractions` is the earlier closure test, on the Fractions
of the valuation instead of its integer point.
`satisfies_symbolic` is the earlier region-level constraint check, which
decides each atom by cases on the integer parts, the zero block and the
order of the fraction blocks instead of at the region's representative, and
`valuation_satisfies_fractions` the earlier pointwise check, one case per
operator on the valuation's Fractions.
`solve_two_sweeps` is the earlier improvement loop, which after each
evaluation sweeps once to find switches and, at the end, once more to
certify, instead of switching from and returning one `certify` report.
`sweep_per_state` is the earlier Bellman sweep: it reads the graph's
Fraction rows state by state (`one_step`, `_best`), converting them again
on every float sweep, where the solver sweeps a row table built once per
call site.  The two-sweep loop uses its arithmetic, not the solver's.
`rooted_value_fresh` is the first `properties.value_at`, which explores
and solves a whole fresh graph for every rooted query instead of reusing
the arena's table of solved states.  `value_at_solve_exact` is the next
one: it reuses the table, but finds the root's region through `region_of`
on the valuation's Fractions, and solves every rooted graph with the
certified `solve_exact` instead of one exact pass sinks first where the
graph's live states are acyclic.  `chain_document` writes the retry
chains that the differential tests generate.  `json_indent2` is the earlier
rendering of every CLI document, `json.dumps` with indent=2, which the
streaming writer of `timedgames.cli` must reproduce byte for byte.
`solve_simple_forms` is a symbolic region-level solve for games without
probabilistic branching, a reference for `properties.fit_simple` and the
exact solver on point-distribution games.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import networkx as nx

from timedgames.brg import (
    DEFAULT_STATE_CAP,
    BoundaryAction,
    Brg,
    BrgState,
    ExplorationLimit,
    _reset,
    _successor,
    tables,
    explore,
)
from timedgames.model import (
    Arena,
    Branch,
    ConcreteState,
    Edge,
    ModelError,
    TimedAction,
    distribution_findings,
    sccs,
)
from timedgames.regions import (
    TRUE,
    ClockConstraint,
    ClockRegion,
    ClockValuation,
    DelayWindow,
    RegionError,
    boundary,
    closure_contains,
    enumerate_regions,
    invariant_chain,
    is_thin,
    parse_constraint,
    region_of,
    representative,
    reset_region,
    sample_closure,
    satisfies,
    scaled_point,
    time_successor,
    valuation_satisfies,
)
from timedgames import solver as sv
from timedgames.properties import (
    PAIR_DENOMINATOR,
    Evaluator,
    PropertyReport,
    SimpleForm,
    _default_evaluator,
    lipschitz_bound,
)
from timedgames.solver import INF, _solve_linear_exact
from timedgames.simulate import (
    ConcretizedStrategy,
    EstimateResult,
    RunRecord,
    StrategyGapError,
    concretize_action,
)


def constraint_signature(values: tuple[Fraction, ...], k: int) -> tuple[int, ...]:
    """Truth vector of every atomic constraint with constants in [0, k].

    Two valuations over the same clocks lie in the same region exactly when
    they agree on all single-clock atoms ``c ~ i`` and all diagonal atoms
    ``c - c' ~ i`` (both clock orders), ``~`` ranging over <, =, >.  The
    sign of the difference encodes all three comparisons at once.
    """
    sig = []
    n = len(values)
    for a in range(n):
        for i in range(k + 1):
            d = values[a] - i
            sig.append(0 if d == 0 else (1 if d > 0 else -1))
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            for i in range(k + 1):
                d = (values[a] - values[b]) - i
                sig.append(0 if d == 0 else (1 if d > 0 else -1))
    return tuple(sig)


def elapse_witness(values: tuple[Fraction, ...], k: int) -> Fraction | None:
    """A delay that lands nu exactly in the time successor of its region.

    For a valuation with some clock on an integer the successor is reached
    by any small positive delay; half the smallest distance to the next
    fraction event is small enough.  Otherwise the successor is entered at
    the exact instant the largest fractional part reaches one.  When a
    clock already sits at k no time can pass inside the bounded space and
    the result is None.
    """
    fracs = [v - (v.numerator // v.denominator) for v in values]
    if any(f == 0 for f in fracs):
        if any(v == k for v in values):
            return None
        pos = [f for f in fracs if f > 0]
        return min(pos + [1 - f for f in pos] + [Fraction(1)]) / 2
    return min((v.numerator // v.denominator) + 1 - v for v in values)


def random_valuation(rng, n: int, k: int, max_den: int = 16) -> tuple[Fraction, ...]:
    """n coordinates in [0, k] with denominators up to max_den."""
    out = []
    for _ in range(n):
        den = rng.randint(1, max_den)
        out.append(Fraction(rng.randint(0, k * den), den))
    return tuple(out)


def dense_evaluate(g, choice, lam=None, zero_final: bool = True) -> list:
    """Value of the Markov chain that `choice` fixes on the explored graph
    `g`, from one dense Gauss-Jordan solve over every state at once.

    Solves v = lam (r + P v), lam = 1 when None (expected time), on the
    states that are neither absorbed (final, with `zero_final`) nor
    infinite; a state is infinite, for expected time only, when its chain
    reaches with positive probability a state that cannot reach the
    absorbed set.  The reference for the solver's component-wise
    evaluation.
    """
    n = g.n
    absorbed = [zero_final and g.is_final(i) for i in range(n)]
    pred: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        if not absorbed[i]:
            for t, _ in g.dists[i][choice[i]]:
                pred[t].append(i)

    def back_reach(seed: list[int]) -> set[int]:
        seen = set(seed)
        todo = list(seed)
        while todo:
            for p in pred[todo.pop()]:
                if p not in seen:
                    seen.add(p)
                    todo.append(p)
        return seen

    infinite: set[int] = set()
    if lam is None:
        can_reach = back_reach([i for i in range(n) if absorbed[i]])
        infinite = back_reach([i for i in range(n) if i not in can_reach])
    factor = Fraction(1) if lam is None else Fraction(lam)
    active = [i for i in range(n) if not absorbed[i] and i not in infinite]
    pos = {i: r for r, i in enumerate(active)}
    m = len(active)
    a = []
    for i in active:
        j = choice[i]
        row = [Fraction(0)] * (m + 1)
        row[pos[i]] += 1
        for t, p in g.dists[i][j]:
            if t in pos:
                row[pos[t]] -= factor * p
        row[m] = factor * g.rewards[i][j]
        a.append(row)
    for col in range(m):
        pivot = next(r for r in range(col, m) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(m):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    values: list = [Fraction(0)] * n
    for i in infinite:
        values[i] = math.inf
    for i in active:
        values[i] = a[pos[i]][m]
    return values


def one_step(g, i: int, j: int, values, lam):
    """lam (r + sum of p v) of action j at state i, lam = 1 when None."""
    acc = g.rewards[i][j]
    for t, p in g.dists[i][j]:
        acc = acc + p * values[t]
    if lam is not None:
        acc = lam * acc
    return acc


def _best(g, i: int, values, lam, start=None) -> tuple:
    """The owner's optimal one-step value at state i against `values` and
    the first action in canonical order attaining it; `start` is kept unless
    another action is strictly better.  (None, None) when i has no action."""
    minimize = g.owner(i) == "min"
    best_j = start
    best = None if start is None else one_step(g, i, start, values, lam)
    for j in range(len(g.actions[i])):
        if j == start:
            continue
        cand = one_step(g, i, j, values, lam)
        if best is None or (cand < best if minimize else cand > best):
            best, best_j = cand, j
    return best, best_j


def sweep_per_state(g, values, choice, lam, zero_final: bool) -> tuple[list, list]:
    """One application of the optimality operator: per state the owner's
    optimal one-step value against `values` and the action attaining it,
    `choice[i]` unless another action is strictly better (without a choice,
    the first in canonical order).  Absorbed final states and states without
    an action get value zero and action None; a fixed state gets its value
    and action None.  Exactness follows the input: Fraction values give a
    Fraction result, floats give floats.  math.inf flows through either
    way.  The reference for the solver's sweep over a row table."""
    out, acts = [], []
    fixed = g.fixed
    for i in range(g.n):
        best = j = None
        if i in fixed:
            best = fixed[i] if isinstance(values[i], Fraction) else float(fixed[i])
        elif not (zero_final and g.is_final(i)):
            best, j = _best(g, i, values, lam, None if choice is None else choice[i])
        if best is None:
            best = Fraction(0) if isinstance(values[i], Fraction) else 0.0
        out.append(best)
        acts.append(j)
    return out, acts


def _improve_step(g, values, *, lam=None, zero_final: bool = True) -> list:
    out = []
    for i in range(g.n):
        best = None
        if not (zero_final and g.is_final(i)):
            best, _ = _best(g, i, values, lam)
        if best is None:
            best = Fraction(0) if isinstance(values[i], Fraction) else 0.0
        out.append(best)
    return out


def _certified(g, values, *, lam=None, zero_final: bool = True) -> bool:
    """Zero residual of the optimality equations at `values`, with every
    row stochastic."""
    improper_rows = [
        (i, j)
        for i, row in enumerate(g.dists)
        for j, dist in enumerate(row)
        if sum(p for _, p in dist) != 1 or any(p < 0 for _, p in dist)
    ]
    improved = _improve_step(g, values, lam=lam, zero_final=zero_final)
    residual = Fraction(0)
    for i in range(g.n):
        a, b = values[i], improved[i]
        if a == b:
            continue
        gap = math.inf if math.inf in (a, b) else abs(a - b)
        residual = max(residual, gap)
    return residual == 0 and not improper_rows


def _improvable(g, values, choice, owner: str, lam, zero_final) -> list:
    """(state, action) switches that strictly improve against `values`."""
    switches = []
    for i in range(g.n):
        if (zero_final and g.is_final(i)) or g.owner(i) != owner:
            continue
        _, j = _best(g, i, values, lam, choice[i])
        if j != choice[i]:
            switches.append((i, j))
    return switches


def solve_two_sweeps(g, choice, cfg, *, lam, zero_final) -> tuple:
    """Alternating best response from a warm-start pair with a separate
    stopping sweep per player, then a separate certificate sweep; returns
    (values, choice, rounds, evaluations, certified).  The reference for
    the solver's one-sweep loop."""
    order = ("min", "max") if cfg.improve_order == "min_first" else ("max", "min")
    first, second = order
    choice = list(choice)
    rounds = 0
    evaluations = 0
    while True:
        rounds += 1
        if rounds > cfg.max_iterations:
            raise sv.ConvergenceError(
                "strategy improvement exceeded %d rounds" % cfg.max_iterations
            )
        while True:
            if lam is None:
                values = sv.evaluate_pair_exact(g, choice)
            else:
                values = sv.evaluate_pair_discounted(g, choice, lam, zero_final=zero_final)
            evaluations += 1
            if evaluations > cfg.max_iterations:
                raise sv.ConvergenceError(
                    "strategy improvement exceeded %d evaluations" % cfg.max_iterations
                )
            switches = _improvable(g, values, choice, first, lam, zero_final)
            if not switches:
                break
            for i, j in switches:
                choice[i] = j
        switches = _improvable(g, values, choice, second, lam, zero_final)
        if not switches:
            certified = _certified(g, values, lam=lam, zero_final=zero_final)
            return values, choice, rounds, evaluations, certified
        for i, j in switches:
            choice[i] = j


def end_components_whole(g) -> list[list[int]]:
    """End components among the non-final states outside `g.fixed`, from one
    end-component search over all of them at once.  The reference for the
    solver's reach check, which searches only inside the cyclic strongly
    connected components of the live states."""
    return sv._end_components(
        g, [i for i in range(g.n) if not g.is_final(i) and i not in g.fixed])


def row_table_per_action(g, lam, zero_final: bool):
    """The solver's float row table, built by converting the distribution
    and reward of every action, however many actions share one object.  The
    reference for `solver._row_table`."""
    rows = []
    for i in range(g.n):
        if i in g.fixed or zero_final and g.is_final(i):
            rows.append(None)
        else:
            rows.append([(j, r.numerator / r.denominator,
                          [(t, p.numerator / p.denominator) for t, p in dist])
                         for j, r, dist in zip(itertools.count(), g.rewards[i], g.dists[i])])
    base = [0.0] * g.n
    for i, x in g.fixed.items():
        base[i] = float(x)
    return sv._Rows(rows, base, [o == "min" for o in g.owners],
                    None if lam is None else float(lam))


def fraction_stochastic(dist) -> bool:
    """Whether the Fraction probabilities are nonnegative and sum to 1."""
    return sum(p for _, p in dist) == 1 and all(p >= 0 for _, p in dist)


def exact_table_per_action(g, zero_final: bool):
    """The solver's exact row table, built by converting the reward and the
    distribution of every action to ints over the common denominator, and
    checking every action's distribution on its Fractions, however many
    actions share one object.  The reference for `solver._exact_table`."""
    scale = math.lcm(*{x.denominator for row in g.rewards for x in row},
                     *{p.denominator for row in g.dists for dist in row for _, p in dist})
    improper = [(i, j) for i, row in enumerate(g.dists)
                for j, dist in enumerate(row) if not fraction_stochastic(dist)]
    rows = [None if i in g.fixed or zero_final and g.is_final(i)
            else ([int(r * scale) for r in g.rewards[i]],
                  [tuple((t, int(p * scale)) for t, p in dist) for dist in g.dists[i]])
            for i in range(g.n)]
    return sv._ExactRows(rows, [o == "min" for o in g.owners], improper, scale)


def fraction_row_table(g, lam, zero_final: bool):
    """The earlier exact row table: the graph's own Fractions in the form a
    sweep reads, a fixed state at its value and an absorbed final state at
    zero, with the (state, action) pairs whose distribution is not
    stochastic."""
    rows = [None if i in g.fixed or zero_final and g.is_final(i)
            else list(zip(itertools.count(), g.rewards[i], g.dists[i]))
            for i in range(g.n)]
    base = [Fraction(0)] * g.n
    for i, x in g.fixed.items():
        base[i] = x
    improper = [(i, j) for i, row in enumerate(g.dists)
                for j, dist in enumerate(row) if not fraction_stochastic(dist)]
    return sv._Rows(rows, base, [o == "min" for o in g.owners], lam), improper


def certify_fraction_rows(g, values, choice, *, lam=None, zero_final: bool = True):
    """The earlier certificate: one sweep of the solver's kernel over the
    graph's Fraction rows, a gcd on every add and multiply, and the residual
    as the largest gap between the values and the sweep.  The reference for
    `solver.certify`, which sweeps ints over one common denominator."""
    rows, improper = fraction_row_table(g, lam, zero_final)
    improved, best = sv._sweep(rows, values, choice)
    switches = [(i, j) for i, j in enumerate(best) if j is not None and j != choice[i]]
    violations = []
    residual = Fraction(0)
    for i in range(g.n):
        a, b = values[i], improved[i]
        if a == b:
            continue
        violations.append(i)
        gap = INF if INF in (a, b) else abs(a - b)
        residual = max(residual, gap)
    return sv.CertifyReport(residual, violations, improper, switches)


def evaluate_per_component_system(g, choice, lam, zero_final: bool) -> list:
    """Exact value of the Markov chain fixed by the choice vector, the
    solution of v = lam (r + P v) with lam = 1 for expected time (lam None).
    Absorbed final states have value zero and fixed states their value; only
    expected time can diverge.

    Components of the chain are solved sinks first, so every successor
    outside the component at hand already has its value.  For expected time
    a component is infinite when it has no successor outside itself (it
    never reaches the absorbed set, and time keeps accumulating on it by
    non-Zenoness) or when such a successor is infinite; otherwise it reaches
    the absorbed set and its system is nonsingular.  Discounting (lam < 1)
    makes every system nonsingular.
    """
    absorbed = [i in g.fixed or zero_final and g.is_final(i) for i in range(g.n)]
    succ: list = []
    for i in range(g.n):
        if absorbed[i]:
            succ.append(())
        elif choice[i] is None:
            raise ValueError("choice vector leaves state %d unset" % i)
        else:
            succ.append([t for t, _ in g.dists[i][choice[i]]])
    factor = Fraction(1) if lam is None else lam
    values: list = [g.fixed.get(i, Fraction(0)) for i in range(g.n)]
    for comp in sccs(range(g.n), succ):
        if absorbed[comp[0]]:  # no successors, so a singleton
            continue
        pos = {i: r for r, i in enumerate(comp)}
        if lam is None:
            outside = [values[t] for i in comp for t in succ[i] if t not in pos]
            if not outside or INF in outside:
                for i in comp:
                    values[i] = INF
                continue
        rows = []
        rhs = []
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


def _live_components_all_actions(g) -> tuple[list[list[int]], list]:
    """The strongly connected components of the live states, neither final
    nor fixed, under all actions, sinks first (one Tarjan pass), and each
    live state's set of live successors."""
    live = [not final and i not in g.fixed for i, final in enumerate(g.finals)]
    states = [i for i, ok in enumerate(live) if ok]
    succ: list = [()] * g.n
    for s in states:
        succ[s] = {t for dist in g.dists[s] for t, _ in dist if live[t]}
    return sccs(states, succ), succ


def acyclic_values_own_pass(g) -> list | None:
    """Exact expected-time values of `g` from one Bellman pass, sinks first,
    when every strongly connected component of its live states is trivial;
    None when one is not, and `solve_exact` has to decide.

    On such a graph each live state takes its owner's exact optimum of
    r + sum p v over successors valued before it; final states are 0 and
    fixed states keep their value.  Every play reaches a final or fixed
    state, so the optimality equations have one solution and this is it,
    the values `solve_exact` would certify (topological value iteration,
    Dai et al. 2011, with one sweep per trivial component).  A live state
    with no action raises the `ValueError` that `solve_exact` raises for
    it, the first in state order.  No strategy is computed."""
    comps, succ = _live_components_all_actions(g)
    if not all(len(comp) == 1 and comp[0] not in succ[comp[0]] for comp in comps):
        return None
    missing = [s for (s,) in comps if not g.actions[s]]
    if missing:
        raise ValueError("state %s has no action" % g.states[min(missing)].label())
    values: list = [g.fixed.get(i, Fraction(0)) for i in range(g.n)]
    for (s,) in comps:
        minimize = g.owners[s] == "min"
        best = None
        for r, dist in zip(g.rewards[s], g.dists[s]):
            for t, p in dist:
                r = r + p * values[t]
            if best is None or (r < best if minimize else r > best):
                best = r
        values[s] = best
    return values


def closure_contains_fractions(region: ClockRegion, valuation: ClockValuation) -> bool:
    """Whether the valuation lies in the topological closure of the region.

    The closure keeps zero-block clocks pinned to their integer, lets a
    positive-block clock range over the closed unit interval above its
    integer part, keeps fractions inside one block equal, and relaxes the
    strict fraction order between blocks to non-strict.
    """
    if valuation.ctx != region.ctx:
        raise RegionError("context mismatch")
    fracs: list[Fraction | None] = [None] * len(valuation.values)
    for i, v in enumerate(valuation.values):
        m = region.ints[i]
        if i in region.blocks[0]:
            if v != m:
                return False
            continue
        if not (m <= v <= m + 1):
            return False
        fracs[i] = v - m
    positive = region.blocks[1:]
    for b in positive:
        vals = {fracs[i] for i in b}
        if len(vals) != 1:
            return False
    for b1, b2 in zip(positive, positive[1:]):
        if fracs[b1[0]] > fracs[b2[0]]:  # type: ignore[operator]
            return False
    return True


def _atom_holds_symbolic(region: ClockRegion, atom) -> bool:
    """The atom decided from the canonical form alone: integer parts, the
    zero block and the order of the fraction blocks."""
    ctx = region.ctx
    i = ctx.index(atom.left)
    m = region.ints[i]
    n = atom.bound
    if atom.right is None:
        zero = i in region.blocks[0]
        if atom.op == "<":
            return m < n
        if atom.op == "<=":
            return m < n or (m == n and zero)
        if atom.op == "=":
            return m == n and zero
        if atom.op == ">=":
            return m >= n
        return m > n or (m == n and not zero)
    j = ctx.index(atom.right)
    d = m - region.ints[j]
    bi, bj = (next(b for b, block in enumerate(region.blocks) if c in block) for c in (i, j))
    if bi == bj:
        # equal fractions, the difference is exactly the integer d
        if atom.op == "<":
            return d < n
        if atom.op == "<=":
            return d <= n
        if atom.op == "=":
            return d == n
        if atom.op == ">=":
            return d >= n
        return d > n
    if bi > bj:
        lo = d  # difference lies strictly inside (d, d+1)
    else:
        lo = d - 1  # strictly inside (d-1, d)
    if atom.op in ("<", "<="):
        return lo + 1 <= n
    if atom.op == "=":
        return False
    return n <= lo


def satisfies_symbolic(region: ClockRegion, constraint: ClockConstraint) -> bool:
    """Whether the constraint holds on the region, decided symbolically."""
    return all(_atom_holds_symbolic(region, atom) for atom in constraint.atoms)


def valuation_satisfies_fractions(valuation: ClockValuation, constraint: ClockConstraint) -> bool:
    """Whether the valuation satisfies the constraint, one case per operator
    on the Fractions of its coordinates."""
    ctx, values = valuation.ctx, valuation.values
    for atom in constraint.atoms:
        lhs = values[ctx.index(atom.left)]
        if atom.right is not None:
            lhs -= values[ctx.index(atom.right)]
        n = atom.bound
        ok = (
            lhs < n if atom.op == "<"
            else lhs <= n if atom.op == "<="
            else lhs == n if atom.op == "="
            else lhs >= n if atom.op == ">="
            else lhs > n
        )
        if not ok:
            return False
    return True


def enumerate_zeno_cycles(arena: Arena) -> list[list[str]]:
    """Every simple location cycle that fails the structural non-Zenoness
    test, by enumerating the cycles and their branch combinations.

    Every cycle (every way of choosing branches around a cycle of locations)
    must contain a clock that is reset on one of its edges and bounded from
    below by 1 on the guard of another (or the same) edge.  Guard-implies
    checks are done region-exactly: a guard bounds c from below by 1 when
    every region satisfying the guard also satisfies c >= 1.
    """
    ctx = arena.ctx
    regions = enumerate_regions(ctx)
    ge_one = {c: parse_constraint("%s >= 1" % c, ctx) for c in ctx.clocks}

    def guard_forces_ge_one(guard: ClockConstraint, clock: str) -> bool:
        return all(
            satisfies(r, ge_one[clock]) for r in regions if satisfies(r, guard)
        )

    graph = nx.DiGraph()
    graph.add_nodes_from(l.name for l in arena.locations)
    hop: dict[tuple[str, str], list[tuple[Edge, Branch]]] = {}
    for e in arena.edges:
        for br in e.branches:
            graph.add_edge(e.source, br.target)
            hop.setdefault((e.source, br.target), []).append((e, br))

    bad: list[list[str]] = []
    for cycle in nx.simple_cycles(graph):
        pairs = list(zip(cycle, cycle[1:] + cycle[:1]))
        # every combination of parallel branches along the cycle must pass
        def combinations(i: int, chosen: list[tuple[Edge, Branch]]):
            if i == len(pairs):
                yield list(chosen)
                return
            for eb in hop[pairs[i]]:
                yield from combinations(i + 1, chosen + [eb])

        for combo in combinations(0, []):
            ok = False
            for c in ctx.clocks:
                resets_c = any(c in br.resets for _, br in combo)
                forces_c = any(guard_forces_ge_one(e.guard, c) for e, _ in combo)
                if resets_c and forces_c:
                    ok = True
                    break
            if not ok:
                bad.append(list(cycle))
                break
    return bad


def boundary_coordinates(region: ClockRegion, thin: ClockRegion) -> tuple[int, int] | None:
    """The (b, c) pair naming the time at which `thin` is hit from `region`,
    c the index of a clock.

    Defined when `thin` lies on the future chain of `region` (reflexively).
    Any clock of the target's zero block works, since from a fixed start
    point they all name the same delay b - nu(c); the first such clock in
    context order is returned so the choice is deterministic.
    """
    if not is_thin(thin):
        raise RegionError("boundary coordinates target a thin region")
    for r in invariant_chain(region, TRUE):
        if r == thin:
            c = min(thin.blocks[0])
            return (thin.ints[c], c)
    return None


def future_chain(region: ClockRegion) -> Iterator[ClockRegion]:
    """The region itself followed by its iterated time successors."""
    r: ClockRegion | None = region
    while r is not None:
        yield r
        r = time_successor(r)


def delay_window_oracle(valuation: ClockValuation, target: ClockRegion) -> DelayWindow | None:
    """Exact delay interval from a valuation into a region of its future chain.

    Thin targets are hit at a single instant.  A thick target is an open
    interval between two boundary instants, except that the valuation's own
    region contributes a half-open interval starting now.  Returns None when
    the target is not in the future of the valuation's region.
    """

    def hit(thin: ClockRegion) -> Fraction:
        c = min(thin.blocks[0])
        return thin.ints[c] - valuation.values[c]

    prev: Fraction | None = None  # the instant of the last thin region passed
    for r in future_chain(region_of(valuation)):
        if is_thin(r):
            prev = hit(r)
            if r == target:
                return DelayWindow(prev, prev, True)
        elif r == target:
            succ = time_successor(r)
            assert succ is not None  # thick regions always have one
            now = prev is None  # the target is the current region
            return DelayWindow(Fraction(0) if now else prev, hit(succ), now)
    return None


def delays_list(w: DelayWindow, parts: int) -> list[Fraction]:
    """A thin window's one instant; otherwise the points cutting the window
    into `parts` equal pieces, after its left end when that end is closed."""
    if w.lo == w.hi:
        return [w.lo]
    ts = [w.lo] if w.closed_lo else []
    step = (w.hi - w.lo) / parts
    ts.extend(w.lo + step * j for j in range(1, parts))
    return ts


def boundary_actions_rewalk(arena: Arena, location: str, region: ClockRegion) -> list[BoundaryAction]:
    """The action set shared by all nodes with this location and region."""
    loc = arena.location_named(location)
    chain: list[ClockRegion] = []
    for r in invariant_chain(region, TRUE):
        if not satisfies(r, loc.invariant):
            break
        chain.append(r)
    out: dict[tuple, BoundaryAction] = {}
    for idx, r in enumerate(chain):
        for e in arena.edges_from(location):
            if not satisfies(r, e.guard):
                continue
            if is_thin(r):
                bc = boundary_coordinates(region, r)
                assert bc is not None  # r is on the future chain of region
                acts = [BoundaryAction(e.action, r, bc[0], bc[1])]
            else:
                acts = []
                if r == region:
                    acts.append(BoundaryAction(e.action, r, None, None))
                else:
                    lo = boundary_coordinates(region, chain[idx - 1])
                    assert lo is not None
                    acts.append(BoundaryAction(e.action, r, lo[0], lo[1]))
                succ = time_successor(r)
                assert succ is not None  # thick regions always have one
                hi = boundary_coordinates(region, succ)
                assert hi is not None
                acts.append(BoundaryAction(e.action, r, hi[0], hi[1]))
            for a in acts:
                out.setdefault((a.action, a.b, a.c, a.target.key()), a)
    return sorted(out.values(), key=lambda a: a.sort_key())


def boundary_actions_per_key(arena: Arena, location: str, region: ClockRegion) -> list[BoundaryAction]:
    """The action set shared by all nodes with this location and region, as
    the arena's shared copy of each action."""
    inv = arena.location_named(location).invariant
    chain = []
    r = region
    while r is not None and satisfies(r, inv):
        chain.append(r)
        r = _successor(arena, r)
    out: dict[tuple, BoundaryAction] = {}
    for idx, r in enumerate(chain):
        for e in arena.edges_from(location):
            if not satisfies(r, e.guard):
                continue
            if is_thin(r):
                ends = [boundary(r)]
            else:
                succ = _successor(arena, r)
                assert succ is not None  # thick regions always have one
                lo = (None, None) if idx == 0 else boundary(chain[idx - 1])
                ends = [lo, boundary(succ)]
            for b, c in ends:
                out.setdefault((e.action, b, c, r.key()), BoundaryAction(e.action, r, b, c))
    canon = tables(arena).canon
    return sorted((canon.setdefault(a, a) for a in out.values()),
                  key=lambda a: a.sort_key())


def moves_per_key(arena: Arena, location: str, region: ClockRegion) -> tuple:
    """The region-level half of every move from (location, region), compiled
    once per arena and kept in its tables: the canonical action list, and for
    each action its boundary b, the index of its boundary clock c (None for
    the fire-now endpoint) and its branches as (target location, the arena's
    reset getter, target region, probability).  Raises ModelError when a branch
    lands outside the invariant of its target."""
    key = (location, region)
    t = tables(arena)
    entry = t.moves.get(key)
    if entry is not None:
        return entry
    canon = t.canon
    acts = boundary_actions_per_key(arena, location, region)
    moves = []
    for act in acts:
        e = arena.edge(location, act.action)
        assert e is not None
        branches = []
        for br in e.branches:
            target_region = _reset(arena, act.target, br.resets)
            inv = arena.location_named(br.target).invariant
            if not satisfies(target_region, inv):
                raise ModelError(
                    "edge (%s, %s) lands in [%s], outside the invariant of %s"
                    % (location, act.action, target_region.label(), br.target)
                )
            branches.append((br.target, t.resets[br.resets], target_region, br.prob))
        move = (act.b, act.c, tuple(branches))
        moves.append(canon.setdefault(move, move))
    entry = t.moves[key] = (acts, tuple(moves))
    return entry


def timed_action_allowed_walk(arena: Arena, state: ConcreteState, ta: TimedAction) -> bool:
    """Whether delaying by ta.delay and firing ta.action is legal at state.

    Requires the edge to exist, the delayed valuation to stay within the
    clock bound and satisfy the guard, and the location invariant to hold
    throughout the delay (checked region by region along the future chain,
    which is exact because invariants are region-constant).
    """
    loc, v = state
    e = arena.edge(loc, ta.action)
    if e is None:
        return False
    if ta.delay < 0:
        return False
    shifted = v.shift(ta.delay)
    if any(x > arena.ctx.k for x in shifted.values):
        return False
    if not valuation_satisfies(shifted, e.guard):
        return False
    inv = arena.location_named(loc).invariant
    target_region = region_of(shifted)
    for r in invariant_chain(region_of(v), TRUE):
        if not satisfies(r, inv):
            return False
        if r == target_region:
            return True
    raise ModelError("delay did not land on the future chain")  # unreachable


def region_actions_available(arena: Arena, location: str, region: ClockRegion) -> bool:
    """Whether some action can be taken from (location, region): a region on
    the invariant-respecting future chain satisfies some guard."""
    loc = arena.location_named(location)
    outgoing = arena.edges_from(location)
    for r in invariant_chain(region, TRUE):
        if not satisfies(r, loc.invariant):
            break
        for e in outgoing:
            if satisfies(r, e.guard):
                return True
    return False


@dataclass(frozen=True)
class FractionState:
    """The earlier record of a graph node: (location, valuation, region),
    the valuation a tuple of Fractions."""

    location: str
    valuation: ClockValuation
    region: ClockRegion

    def label(self) -> str:
        vals = ",".join(
            "%s=%s" % (c, v) for c, v in self.valuation.as_dict().items()
        )
        return "%s | %s | [%s]" % (self.location, vals, self.region.label())


def scaled_state(s: FractionState) -> BrgState:
    """The package's state of the same node: its valuation through `scaled_point`."""
    return BrgState(s.location, *scaled_point(s.valuation), s.region)


def action_delay(state: FractionState, act: BoundaryAction) -> Fraction:
    """The exact cost b - nu(c) of steering to the action's boundary."""
    if act.b is None:
        return Fraction(0)
    assert act.c is not None
    t = act.b - state.valuation.values[act.c]
    if t < 0:
        raise ModelError(
            "negative delay %s for %s at %s; valuation outside the region closure"
            % (t, act.label(), state.label())
        )
    return t


def action_successors(
    arena: Arena, state: FractionState, act: BoundaryAction
) -> dict[FractionState, Fraction]:
    """Successor distribution: shift to the boundary, then branch and reset."""
    e = arena.edge(state.location, act.action)
    assert e is not None
    shifted = state.valuation.shift(action_delay(state, act))
    out: dict[FractionState, Fraction] = {}
    for br in e.branches:
        target_region = reset_region(act.target, br.resets)
        inv = arena.location_named(br.target).invariant
        if not satisfies(target_region, inv):
            raise ModelError(
                "edge (%s, %s) lands in [%s], outside the invariant of %s"
                % (state.location, act.action, target_region.label(), br.target)
            )
        succ = FractionState(br.target, shifted.reset(br.resets), target_region)
        assert closure_contains_fractions(succ.region, succ.valuation)
        out[succ] = out.get(succ, Fraction(0)) + br.prob
    return out


def explore_per_state(arena: Arena, root: BrgState | None = None,
                      cap: int = DEFAULT_STATE_CAP,
                      known: dict[tuple, Fraction] | None = None) -> Brg:
    """Breadth-first reachable construction from the root, every move
    derived afresh at every state (action sets cached per explore only),
    on `FractionState`s; a root is given as a package `BrgState`.  A state
    whose `scaled_state` is in `known` is interned with its value in
    `Brg.fixed` but not expanded."""
    improper = distribution_findings(arena)
    if improper:
        raise ModelError(improper[0])
    if root is None:
        loc, v = arena.initial
        root = FractionState(loc, v, region_of(v))
    else:
        root = FractionState(root.location, root.valuation, root.region)
    if not closure_contains_fractions(root.region, root.valuation):
        raise ModelError("root valuation must lie in the closure of its region")
    if not valuation_satisfies(root.valuation, arena.location_named(root.location).invariant):
        raise ModelError("root state violates its location invariant")

    g = Brg(arena)
    index: dict[FractionState, int] = {}
    action_cache: dict[tuple[str, ClockRegion], list[BoundaryAction]] = {}

    def intern(s: FractionState) -> int:
        i = index.get(s)
        if i is None:
            if len(g.states) >= cap:
                raise ExplorationLimit(
                    "state cap %d crossed while exploring %s" % (cap, arena.name or "arena")
                )
            i = len(g.states)
            index[s] = i
            g.states.append(s)
            loc = arena.location_named(s.location)
            g.owners.append(loc.owner)
            g.finals.append(loc.final)
            if known is not None and scaled_state(s) in known:
                g.fixed[i] = known[scaled_state(s)]
            queue.append(i)
        return i

    queue: deque[int] = deque()
    intern(root)
    while queue:
        i = queue.popleft()
        if i in g.fixed:
            g.actions.append([])
            g.rewards.append([])
            g.dists.append([])
            continue
        s = g.states[i]
        key = (s.location, s.region)
        acts = action_cache.get(key)
        if acts is None:
            acts = boundary_actions_rewalk(arena, s.location, s.region)
            action_cache[key] = acts
        g.actions.append(acts)
        g.rewards.append([action_delay(s, a) for a in acts])
        row = []
        for a in acts:
            dist = action_successors(arena, s, a)
            row.append(tuple(sorted((intern(t), p) for t, p in dist.items())))
        g.dists.append(row)
    return g


def rooted_value_fresh(arena: Arena, location: str, valuation,
                       region: ClockRegion | None = None) -> Fraction:
    """The value of the graph node (location, valuation, region), the region
    of the valuation by default, from a graph explored and solved afresh
    from that node alone."""
    root = BrgState(location, *scaled_point(valuation), region or region_of(valuation))
    return sv.solve_exact(explore(arena, root=root)).values[0]


def value_at_solve_exact(arena: Arena, location: str, valuation) -> Fraction:
    """The value of the node rooted at (location, valuation), from the
    arena's table of solved states or from `solve_exact` on the graph
    explored below the root as far as the table does not reach, whose
    solved states it adds to the table."""
    root = BrgState(location, *scaled_point(valuation), region_of(valuation))
    table = arena._solved
    value = table.get(root)
    if value is None:
        g = explore(arena, root=root, known=table)
        res = sv.solve_exact(g)
        if not res.certified:
            raise sv.ConvergenceError("the exact solve rooted at %s is not certified"
                                      % root.label())
        table.update((s, v) for i, (s, v) in enumerate(zip(g.states, res.values))
                     if i not in g.fixed)
        value = res.values[0]
    return value


def value_at_own_pass(arena: Arena, location: str, valuation) -> Fraction:
    """The value of the node rooted at (location, valuation), from the
    arena's table of solved states, or from `acyclic_values_own_pass` on the
    graph explored below the root as far as the table does not reach, or
    from `solve_exact` there when the pass declines the graph; the solved
    states go to the table."""
    root = BrgState(location, *scaled_point(valuation), region_of(valuation))
    table = arena._solved
    value = table.get(root)
    if value is None:
        g = explore(arena, root=root, known=table)
        values = acyclic_values_own_pass(g)
        if values is None:
            res = sv.solve_exact(g)
            if not res.certified:
                raise sv.ConvergenceError("the exact solve rooted at %s is not certified"
                                          % root.label())
            values = res.values
        table.update((s, v) for i, (s, v) in enumerate(zip(g.states, values))
                     if i not in g.fixed)
        value = values[0]
    return value


def check_quasi_simple_fractions(
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


def json_indent2(payload) -> str:
    """`payload` as json.dumps(payload, indent=2), json's pure-Python
    encoder, followed by a newline."""
    return json.dumps(payload, indent=2) + "\n"


def chain_document(n: int, k: int, clocks: int, owners, probs, back: bool = False) -> str:
    """A retry chain: at l_i action `a` (guard c >= 1) advances with the
    location's probability and otherwise resets c and retries; `b` (guard
    c <= k-1) resets one other clock and advances; lf escapes on each clock
    by resetting all of them.  With `back`, half of each retry goes back to
    l0 instead, also resetting c, so the live locations form cycles; at l0
    the two halves are equal parallel branches."""
    cs = ("c", "d", "e")[:clocks]
    inv = " & ".join("%s <= %d" % (c, k) for c in cs)
    lines = ["clocks: [%s]" % ", ".join(cs), "k: %d" % k, "locations:"]
    for i in range(n):
        lines.append('  - {name: l%d, owner: %s, final: false, invariant: "%s"}'
                     % (i, owners[i], inv))
    lines.append('  - {name: lf, owner: min, final: true, invariant: "%s"}' % inv)
    lines.append("edges:")
    for i in range(n):
        nxt = "l%d" % (i + 1) if i + 1 < n else "lf"
        p = probs[i]
        other = [cs[1 + i % (clocks - 1)]] if clocks > 1 else []
        lines += [
            "  - source: l%d" % i,
            "    action: a",
            '    guard: "c >= 1"',
            "    branches:",
            '      - {prob: "%s", resets: [], target: %s}' % (p, nxt),
        ]
        retry = [((1 - p) / 2, i), ((1 - p) / 2, 0)] if back else [(1 - p, i)]
        lines += ['      - {prob: "%s", resets: [c], target: l%d}' % r for r in retry]
        lines += [
            "  - source: l%d" % i,
            "    action: b",
            '    guard: "c <= %d"' % (k - 1),
            "    branches:",
            '      - {prob: "1/1", resets: [%s], target: %s}' % (", ".join(other), nxt),
        ]
    for c in cs:
        lines += [
            "  - source: lf",
            "    action: esc_%s" % c,
            '    guard: "%s >= 1"' % c,
            "    branches:",
            '      - {prob: "1/1", resets: [%s], target: lf}' % ", ".join(cs),
        ]
    lines += ["initial:", "  location: l0",
              "  valuation: {%s}" % ", ".join('%s: "0/1"' % c for c in cs)]
    return "\n".join(lines) + "\n"


def _sample_branch(edge, rng: random.Random):
    den = math.lcm(*(br.prob.denominator for br in edge.branches))
    r = rng.randrange(den)
    acc = 0
    for br in edge.branches:
        acc += br.prob.numerator * (den // br.prob.denominator)
        if r < acc:
            return br
    raise AssertionError("branch probabilities do not cover the unit interval")


def simulate_run_per_step(
    arena: Arena,
    strategy: ConcretizedStrategy,
    rng: random.Random,
    *,
    epsilon: Fraction = Fraction(1, 1000),
    step_cap: int = 10_000,
    decaying: bool = False,
    record_trace: bool = False,
) -> RunRecord:
    state = arena.initial
    total = Fraction(0)
    trace: list = []
    steps = 0
    while not arena.is_final(state.location):
        if steps >= step_cap:
            return RunRecord(False, total, steps, state, tuple(trace))
        act = strategy.action_for(state.location, region_of(state.valuation))
        eps_eff = epsilon / (1 << (steps + 1)) if decaying else epsilon
        t = concretize_action(state.valuation, act, eps_eff)
        move = TimedAction(t, act.action)
        if not timed_action_allowed_walk(arena, state, move):
            raise StrategyGapError(
                "concretized move %s is illegal from (%s, %s)"
                % (move, state.location, dict(state.valuation.as_dict()))
            )
        if record_trace:
            trace.append((state, act.action, t))
        shifted = state.valuation.shift(t)
        br = _sample_branch(arena.edge(state.location, act.action), rng)
        total += t
        state = ConcreteState(br.target, shifted.reset(br.resets))
        steps += 1
    return RunRecord(True, total, steps, state, tuple(trace))


def estimate_value_fraction_sum(
    arena: Arena,
    strategy: ConcretizedStrategy,
    runs: int,
    *,
    seed: int = 0,
    epsilon: Fraction = Fraction(1, 1000),
    step_cap: int = 10_000,
    decaying: bool = False,
) -> EstimateResult:
    """The estimate of `runs` runs of `simulate_run_per_step` from one
    seeded rng: the `Fraction` sum of the reached runs' times over their
    count, and the normal-approximation 95% halfwidth of their floats."""
    rng = random.Random(seed)
    times = []
    for _ in range(runs):
        rec = simulate_run_per_step(arena, strategy, rng, epsilon=epsilon,
                                    step_cap=step_cap, decaying=decaying)
        if rec.reached:
            times.append(rec.total_time)
    if not times:
        return EstimateResult(runs, 0, None, float("nan"), float("nan"), epsilon, seed)
    n = len(times)
    mean_exact = sum(times, Fraction(0)) / n
    mean = float(mean_exact)
    halfwidth = 0.0
    if n > 1:
        var = sum((float(t) - mean) ** 2 for t in times) / (n - 1)
        halfwidth = 1.96 * math.sqrt(var / n)
    return EstimateResult(runs, n, mean_exact, mean, halfwidth, epsilon, seed)


def _compose_form(act: BoundaryAction, resets: frozenset[str], f: SimpleForm) -> SimpleForm:
    """Pull a successor's form back through one boundary action.

    Waiting to the boundary (b, c) costs b - nu(c) and afterwards the
    boundary clock reads b, so a constant e' becomes (b + e') - nu(c) and a
    slope on a reset clock turns into the same; a slope on a clock that
    survives the jump is unchanged because the wait it charges cancels the
    wait just paid.  The fire-now action only applies the resets.
    """
    if act.b is None:
        if f.clock is not None and f.clock in resets:
            return SimpleForm(f.e, None)
        return f
    assert act.c is not None
    if f.clock is None or f.clock in resets:
        return SimpleForm(act.b + f.e, act.target.ctx.clocks[act.c])
    return SimpleForm(f.e, f.clock)


def solve_simple_forms(g: Brg) -> dict[tuple[str, ClockRegion], SimpleForm]:
    """Symbolic region-level solve for games without probabilistic branching.

    Iterates the optimality operator on the lattice of simple forms per
    (location, region) node, starting from zero on final locations and
    "undefined" (plus infinity) elsewhere.  Under the almost-sure
    reachability check the non-final region graph is acyclic, so the
    iteration reaches its fixpoint and every node gets a finite form.
    """
    for row in g.dists:
        for dist in row:
            if len(dist) != 1:
                raise ValueError(
                    "simple-form solving needs point distributions; "
                    "this graph branches probabilistically"
                )
    components = sv.check_almost_sure_reach(g)
    if components:
        raise sv.TargetUnreachableError(g, components)

    arena = g.arena
    reps: dict[tuple[str, ClockRegion], ClockValuation] = {}
    node_state: dict[tuple[str, ClockRegion], int] = {}
    for i, s in enumerate(g.states):
        key = (s.location, s.region)
        if key not in node_state:
            node_state[key] = i
            reps[key] = representative(s.region)

    forms: dict[tuple[str, ClockRegion], SimpleForm | None] = {}
    for key in node_state:
        forms[key] = SimpleForm(0, None) if arena.is_final(key[0]) else None

    def successor_key(key, j: int) -> tuple[tuple[str, ClockRegion], frozenset[str]]:
        i = node_state[key]
        act = g.actions[i][j]
        e = arena.edge(key[0], act.action)
        assert e is not None and len(e.branches) == 1
        br = e.branches[0]
        (t, _p), = g.dists[i][j]
        succ = g.states[t]
        return (succ.location, succ.region), br.resets

    cap = 64 * len(node_state) + 64
    for _ in range(cap):
        changed = False
        for key in node_state:
            if arena.is_final(key[0]):
                continue
            i = node_state[key]
            maximize = arena.owner_of(key[0]) == "max"
            rep = reps[key]
            best: SimpleForm | None = None
            dead = False
            for j in range(len(g.actions[i])):
                skey, resets = successor_key(key, j)
                f = forms[skey]
                if f is None:
                    if maximize:
                        dead = True
                        break
                    continue
                cand = _compose_form(g.actions[i][j], resets, f)
                if best is None:
                    best = cand
                else:
                    a, b = cand.eval(rep), best.eval(rep)
                    if (a > b) if maximize else (a < b):
                        best = cand
            new = None if dead else best
            old = forms[key]
            same = (
                (new is None and old is None)
                or (new is not None and old is not None and new.eval(rep) == old.eval(rep))
            )
            if not same:
                forms[key] = new
                changed = True
        if not changed:
            break
    else:
        raise sv.ConvergenceError("simple-form iteration did not stabilize")

    out: dict[tuple[str, ClockRegion], SimpleForm] = {}
    for key, f in forms.items():
        if f is None:
            raise sv.ConvergenceError(
                "no finite simple form for %s in [%s]" % (key[0], key[1].label())
            )
        out[key] = f
    return out
