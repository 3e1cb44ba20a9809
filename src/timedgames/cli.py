"""Command line front end.

Subcommands:

  validate          load a model file and report structural findings
  brg               build the boundary region graph, optionally as DOT
  solve             expected time to the final set (float, or --exact)
  discounted        exact expected discounted time for a rational lambda
  check-properties  value-function property checks on reachable regions
  simulate          Monte Carlo play of the certified strategies

Exit codes: 0 success and all checks clean, 1 a property check found
violations, 2 bad input (file, model, constraint, or option), 3 the final
set is not reached almost surely under some strategy pair (an end-component
witness goes to stderr), 4 iteration budget exhausted.

Every numeric option is checked over its whole range as it is parsed, before
any model is loaded; a value outside it exits with 2 and argparse names the
option.  The ranges: --tolerance a finite number of at least 0; --cap,
--max-iterations, --pairs, --states and --runs an integer of at least 1;
--step-cap an integer of at least 0; --seed any integer; --grid an integer
from 1 to regions.REGION_CAP; --lambda a rational in [0, 1); --K a rational
of at least 0; --epsilon a rational greater than 0.

JSON output is deterministic: rationals appear as "num/den" strings next to
a 12-significant-digit decimal rendering, and repeated invocations on the
same inputs and seeds produce identical bytes.

The document is streamed by `write_json`, which writes the bytes of
`json.dumps(payload, indent=2)` without holding the whole text: string
leaves go through json's C string encoder, and the long row lists (brg
`nodes`, solve and discounted `values`) are generators whose rows are
written as they are produced.  brg's node rows are filled into templates
laid out once at their fixed depth, with each distinct reward and
probability rendered once per command.  Text mode builds only what its
lines print.  check-properties keeps its rows in lists: its `ok` key comes
before them, so every check has run before the first byte is written.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _string
from types import GeneratorType

from .brg import Brg, ExplorationLimit, explore, export_dot, DEFAULT_STATE_CAP
from .model import ModelError, format_rational, load_model, parse_rational, validate
from .properties import (
    check_quasi_simple,
    fit_simple,
    grid_one_step_value,
    lipschitz_bound,
    sample_states,
    value_at,
)
from .regions import REGION_CAP, RegionError
from .simulate import ConcretizedStrategy, StrategyGapError, estimate_value
from .solver import (
    ConvergenceError,
    SolveConfig,
    TargetUnreachableError,
    check_almost_sure_reach,
    extract_strategies,
    solve_discounted,
    solve_exact,
    value_iterate,
)


def _num(v):
    """Uniform JSON rendering of a value: exact rational plus decimal."""
    if v is None:
        return None
    if isinstance(v, Fraction):
        return {"rational": format_rational(v), "decimal": "%.12g" % float(v)}
    if v == math.inf:
        return {"rational": "inf", "decimal": "inf"}
    return {"rational": None, "decimal": "%.12g" % v}


class Encoded(str):
    """JSON text already laid out for its place in the document."""


def _layout(value, nl: str, buf: list, flush=None) -> None:
    """Append the text json.dumps(value, indent=2) gives for `value`, placed
    where its line breaks are `nl`, to `buf`.  Keys must be strings.
    Generators are laid out as lists; after each of their items `flush`,
    when given, writes the buffer out."""
    if isinstance(value, str):
        buf.append(value if type(value) is Encoded else _string(value))
    elif value is None:
        buf.append("null")
    elif value is True:
        buf.append("true")
    elif value is False:
        buf.append("false")
    elif isinstance(value, int):
        buf.append(int.__repr__(value))
    elif isinstance(value, float):
        buf.append("NaN" if value != value else "Infinity" if value == math.inf
                   else "-Infinity" if value == -math.inf else float.__repr__(value))
    elif isinstance(value, dict):
        inner = nl + "  "
        sep = "{" + inner
        for key, item in value.items():
            buf.append(sep + _string(key) + ": ")
            _layout(item, inner, buf, flush)
            sep = "," + inner
        buf.append("{}" if sep[0] == "{" else nl + "}")
    elif isinstance(value, (list, tuple, GeneratorType)):
        streamed = flush is not None and type(value) is GeneratorType
        inner = nl + "  "
        sep = "[" + inner
        for item in value:
            buf.append(sep)
            _layout(item, inner, buf, flush)
            if streamed:
                flush()
            sep = "," + inner
        buf.append("[]" if sep[0] == "[" else nl + "]")
    else:
        raise TypeError("Object of type %s is not JSON serializable"
                        % type(value).__name__)


def _text(value, nl: str) -> Encoded:
    """The layout of `value` where its line breaks are `nl`."""
    buf: list[str] = []
    _layout(value, nl, buf)
    return Encoded("".join(buf))


def write_json(write, payload) -> None:
    """Write json.dumps(payload, indent=2) and a newline through `write`,
    one call per item of each generator and one for the rest."""
    buf: list[str] = []

    def flush():
        write("".join(buf))
        buf.clear()

    _layout(payload, "\n", buf, flush)
    buf.append("\n")
    flush()


def _emit(args, payload: dict, lines) -> None:
    """Write the JSON document to --out, or under --json to stdout; print the
    text lines otherwise.  Both may be generators, consumed only here."""
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            write_json(fh.write, payload)
    if getattr(args, "json", False) and not out:
        write_json(sys.stdout.write, payload)
    else:
        for line in lines:
            print(line)


# ------------------------------------------------------------- subcommands

def cmd_validate(args) -> int:
    arena = load_model(args.model)
    findings = validate(arena)
    payload = {"model": arena.name, "ok": not findings, "findings": findings}
    lines = ["%s: no findings" % arena.name] if not findings else [
        "%s: %d finding(s)" % (arena.name, len(findings))
    ] + ["  " + f for f in findings]
    _emit(args, payload, lines)
    return 0 if not findings else 2


# brg's node rows sit at fixed depths: D[2] for the node, D[3] for its
# actions, D[4] for an action, D[5] for its reward and successors, D[6] for a
# successor pair.  Each template is laid out once, with %-placeholders.
_D = ["\n" + "  " * depth for depth in range(7)]
_NODE = _text({"id": Encoded("%d"), "state": Encoded("%s"), "owner": Encoded("%s"),
               "final": Encoded("%s"), "actions": Encoded("%s")}, _D[2])
_ACTION = _text({"label": Encoded("%s"), "reward": Encoded("%s"),
                 "successors": Encoded("%s")}, _D[4])
_PAIR = _text([Encoded("%d"), Encoded("%s")], _D[6])


def _list(items: list[str], nl: str) -> str:
    """Laid-out items as a list whose line breaks are `nl`."""
    if not items:
        return "[]"
    inner = nl + "  "
    return "[" + inner + ("," + inner).join(items) + nl + "]"


def _brg_nodes(g: Brg):
    """brg's `nodes` rows.  Rewards and probabilities are rendered once per
    object: `explore` shares one object per distinct reward and per branch
    probability, and `g` keeps every object alive, so their ids are stable
    keys that spare hashing a Fraction per lookup."""
    rewards: dict[int, str] = {}
    probs: dict[int, str] = {}
    for i, s in enumerate(g.states):
        acts = []
        for a, r, dist in zip(g.actions[i], g.rewards[i], g.dists[i]):
            reward = rewards.get(id(r))
            if reward is None:
                reward = rewards[id(r)] = _text(_num(r), _D[5])
            pairs = []
            for t, p in dist:
                prob = probs.get(id(p))
                if prob is None:
                    prob = probs[id(p)] = _string(format_rational(p))
                pairs.append(_PAIR % (t, prob))
            acts.append(_ACTION % (_string(a.label()), reward, _list(pairs, _D[5])))
        yield Encoded(_NODE % (i, _string(s.label()), _string(g.owner(i)),
                               "true" if g.is_final(i) else "false", _list(acts, _D[3])))


def _brg_lines(name: str, g: Brg, dot: str | None):
    yield ("%s: %d states, %d actions, %d transitions"
           % (name, g.n, g.action_count(), g.transition_count()))
    for i, s in enumerate(g.states):
        moves = ", ".join(a.label() for a in g.actions[i]) or "-"
        yield "  %2d %-28s %s" % (i, s.label(), moves)
    if dot:
        yield "wrote %s" % dot


def cmd_brg(args) -> int:
    arena = load_model(args.model)
    g = explore(arena, cap=args.cap)
    payload = {
        "model": arena.name,
        "states": g.n,
        "actions": g.action_count(),
        "transitions": g.transition_count(),
        "nodes": _brg_nodes(g),
    }
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(export_dot(g))
        payload["dot"] = args.dot
    _emit(args, payload, _brg_lines(arena.name, g, args.dot))
    return 0


def _solve_rows(g: Brg, values, choice):
    for i in range(g.n):
        move = None
        if choice[i] is not None:
            move = g.actions[i][choice[i]].label()
        yield {"id": i, "state": g.states[i].label(),
               "value": _num(values[i]), "move": move}


def _solve_lines(head: str, g: Brg, values, choice):
    """The text lines: the head, then one per state with its value as a
    rational, or as a decimal where it has none."""
    yield head
    for row in _solve_rows(g, values, choice):
        val = row["value"]["rational"] or row["value"]["decimal"]
        yield "  %2d %-28s %-10s %s" % (row["id"], row["state"], val, row["move"] or "-")


def cmd_solve(args) -> int:
    arena = load_model(args.model)
    g = explore(arena)
    cfg = SolveConfig(args.tolerance, args.max_iterations)
    if args.exact:
        res = solve_exact(g, cfg)
        values, choice = res.values, res.choice
        payload_extra = {
            "certified": res.certified,
            "value_iterations": res.vi_iterations,
            "improvement_rounds": res.improvement_rounds,
            "exact_evaluations": res.exact_evaluations,
        }
    else:
        components = check_almost_sure_reach(g)
        if components:
            raise TargetUnreachableError(g, components)
        values, iters, residual = value_iterate(g, cfg)
        choice = extract_strategies(g, values)
        payload_extra = {
            "certified": False,
            "value_iterations": iters,
            "residual": _num(residual),
        }
    v0 = _num(values[0])
    payload = {
        "model": arena.name,
        "objective": "expected-time",
        "exact": bool(args.exact),
        "states": g.n,
        "initial": {"state": g.states[0].label(), "value": v0},
        **payload_extra,
        "values": _solve_rows(g, values, choice),
    }
    head = ("%s: value %s at %s"
            % (arena.name, v0["rational"] or v0["decimal"], g.states[0].label()))
    _emit(args, payload, _solve_lines(head, g, values, choice))
    return 0


def cmd_discounted(args) -> int:
    arena = load_model(args.model)
    g = explore(arena)
    res = solve_discounted(g, args.lam, SolveConfig(args.tolerance, args.max_iterations),
                           zero_final=not args.keep_final_rewards)
    v0 = _num(res.values[0])
    payload = {
        "model": arena.name,
        "objective": "expected-discounted-time",
        "lambda": format_rational(args.lam),
        "zero_final": res.zero_final,
        "states": g.n,
        "certified": res.certified,
        "initial": {"state": g.states[0].label(), "value": v0},
        "values": _solve_rows(g, res.values, res.choice),
    }
    head = ("%s: discounted value %s at lambda=%s"
            % (arena.name, v0["rational"], format_rational(args.lam)))
    _emit(args, payload, _solve_lines(head, g, res.values, res.choice))
    return 0


def cmd_check_properties(args) -> int:
    arena = load_model(args.model)
    g = explore(arena)
    k_bound = lipschitz_bound(arena, args.k_bound)
    seen = {}
    for s in g.states:
        seen.setdefault((s.location, s.region.key()), s)
    region_rows = []
    violations = 0
    for (loc, _), s in seen.items():
        form = fit_simple(arena, loc, s.region, seed=args.seed)
        rep = check_quasi_simple(arena, loc, s.region, pairs=args.pairs,
                                 k_bound=k_bound, seed=args.seed)
        if not rep.ok:
            violations += 1
        region_rows.append({
            "location": loc,
            "region": s.region.label(),
            "simple_form": form.render() if form is not None else None,
            "pairs": rep.pairs_checked,
            "shift_pairs": rep.diag_pairs_checked,
            "lipschitz_violations": len(rep.lipschitz_violations),
            "monotonicity_violations": len(rep.monotonicity_violations),
            "nonexpansive_violations": len(rep.nonexpansive_violations),
            "max_ratio": _num(rep.max_lipschitz_ratio),
        })
    grid_rows = []
    tolerance = Fraction(1, 100)
    for state in sample_states(arena, args.states, seed=args.seed):
        exact = value_at(arena, state.location, state.valuation)
        approx = grid_one_step_value(arena, state, denominator=args.grid)
        gap = abs(approx - exact)
        if gap > tolerance:
            violations += 1
        grid_rows.append({
            "location": state.location,
            "valuation": {c: format_rational(v)
                          for c, v in state.valuation.as_dict().items()},
            "exact": _num(exact),
            "grid_value": _num(approx),
            "gap": _num(gap),
        })
    payload = {
        "model": arena.name,
        "k_bound": format_rational(k_bound),
        "pairs": args.pairs,
        "grid": args.grid,
        "seed": args.seed,
        "ok": violations == 0,
        "regions": region_rows,
        "grid_states": grid_rows,
    }
    lines = ["%s: %s" % (arena.name, "all checks clean" if violations == 0
                         else "%d check(s) failed" % violations)]
    for row in region_rows:
        lines.append("  %s [%s] form=%s violations=%d/%d/%d"
                     % (row["location"], row["region"],
                        row["simple_form"] or "-",
                        row["lipschitz_violations"],
                        row["monotonicity_violations"],
                        row["nonexpansive_violations"]))
    for row in grid_rows:
        vals = ",".join("%s=%s" % cv for cv in row["valuation"].items())
        lines.append("  grid %s %s gap=%s"
                     % (row["location"], vals, row["gap"]["rational"]))
    _emit(args, payload, lines)
    return 0 if violations == 0 else 1


def cmd_simulate(args) -> int:
    arena = load_model(args.model)
    g = explore(arena)
    res = solve_exact(g)
    if not res.certified:
        raise ConvergenceError("the exact solve of %s is not certified" % arena.name)
    strategy = ConcretizedStrategy.from_solution(g, res.choice)
    est = estimate_value(
        arena,
        strategy,
        args.runs,
        seed=args.seed,
        epsilon=args.epsilon,
        step_cap=args.step_cap,
        decaying=args.decaying_epsilon,
    )
    value = res.values[0]
    abs_error = None
    if est.mean_exact is not None:
        abs_error = abs(est.mean_exact - value)
    payload = {
        "model": arena.name,
        "runs": est.runs,
        "seed": est.seed,
        "epsilon": format_rational(est.epsilon),
        "step_cap": args.step_cap,
        "decaying": args.decaying_epsilon,
        "reached": est.reached,
        "unreached_fraction": est.unreached_fraction,
        "estimate": _num(est.mean_exact),
        "halfwidth": est.halfwidth if est.reached else None,
        "certified_value": _num(value),
        "abs_error": _num(abs_error),
    }
    lines = [
        "%s: %s" % (arena.name, est.summary()),
        "certified value %s, |estimate - value| = %s"
        % (format_rational(value),
           format_rational(abs_error) if abs_error is not None else "n/a"),
    ]
    _emit(args, payload, lines)
    return 0


# ------------------------------------------------------------------ parser

def _number(parse, ok, domain: str):
    """The argparse type of a numeric option: `parse` reads the text and
    `ok` tells whether the value lies in `domain`, the words the message
    names it by.  A text outside the domain exits with 2, the option named,
    before any model is loaded."""

    def check(text: str):
        try:
            value = parse(text)
            if ok(value):
                return value
        except (ValueError, ZeroDivisionError):
            pass
        raise argparse.ArgumentTypeError("expected %s, got %r" % (domain, text))

    return check


_TOLERANCE = _number(float, lambda x: math.isfinite(x) and x >= 0,
                     "a finite number of at least 0")
_COUNT = _number(int, lambda n: n >= 1, "an integer of at least 1")
_SEED = _number(int, lambda n: True, "an integer")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="timedgames",
        description="Solve and check expected-time games on timed automata "
                    "through their boundary region graphs.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, func, **kw):
        sp = sub.add_parser(name, **kw)
        sp.add_argument("model", help="path to a .model file")
        sp.add_argument("--json", action="store_true",
                        help="print a JSON document instead of text")
        sp.set_defaults(func=func)
        return sp

    def add_solve_options(sp):
        sp.add_argument("--tolerance", type=_TOLERANCE, default=SolveConfig.tolerance,
                        help="value iteration stopping tolerance")
        sp.add_argument("--max-iterations", type=_COUNT,
                        default=SolveConfig.max_iterations,
                        help="value iteration budget")
        sp.add_argument("--out", metavar="FILE", help="write the JSON document here")

    add("validate", cmd_validate, help="report structural findings")

    sp = add("brg", cmd_brg, help="build the boundary region graph")
    sp.add_argument("--cap", type=_COUNT, default=DEFAULT_STATE_CAP,
                    help="abort exploration beyond this many states")
    sp.add_argument("--dot", metavar="FILE", help="also write a DOT rendering")

    sp = add("solve", cmd_solve, help="expected time to the final set")
    sp.add_argument("--exact", action="store_true",
                    help="certify exact rational values (default: float "
                         "value iteration)")
    add_solve_options(sp)

    sp = add("discounted", cmd_discounted, help="expected discounted time")
    sp.add_argument("--lambda", dest="lam", required=True, metavar="NUM/DEN",
                    type=_number(parse_rational, lambda q: 0 <= q < 1,
                                 "a rational in [0, 1)"),
                    help="discount factor, a rational in [0, 1)")
    sp.add_argument("--keep-final-rewards", action="store_true",
                    help="let final states keep acting instead of absorbing "
                         "them at value zero")
    add_solve_options(sp)

    sp = add("check-properties", cmd_check_properties,
             help="test value-function properties on reachable regions")
    sp.add_argument("--pairs", type=_COUNT, default=40,
                    help="sampled pairs per region and per check")
    sp.add_argument("--grid", default=64,
                    type=_number(int, lambda n: 1 <= n <= REGION_CAP,
                                 "an integer from 1 to %d" % REGION_CAP),
                    help="delay grid denominator for the one-step check")
    sp.add_argument("--K", dest="k_bound", default=None, metavar="NUM/DEN",
                    type=_number(parse_rational, lambda q: q >= 0,
                                 "a rational of at least 0"),
                    help="Lipschitz bound (default 1 + number of clocks)")
    sp.add_argument("--states", type=_COUNT, default=6,
                    help="sampled states for the one-step check")
    sp.add_argument("--seed", type=_SEED, default=0)

    sp = add("simulate", cmd_simulate, help="Monte Carlo play of the "
                                            "certified strategies")
    sp.add_argument("--runs", type=_COUNT, default=10_000)
    sp.add_argument("--seed", type=_SEED, default=0)
    sp.add_argument("--epsilon", default="1/1000", metavar="NUM/DEN",
                    type=_number(parse_rational, lambda q: q > 0,
                                 "a rational greater than 0"),
                    help="concretization slack inside open windows")
    sp.add_argument("--step-cap", default=10_000,
                    type=_number(int, lambda n: n >= 0, "an integer of at least 0"))
    sp.add_argument("--decaying-epsilon", action="store_true",
                    help="halve the slack after every step of a run")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TargetUnreachableError as exc:
        print("the final set is not reached almost surely", file=sys.stderr)
        for labels in exc.witness:
            print("  end component: %s" % "; ".join(labels), file=sys.stderr)
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 4
    except (ModelError, RegionError, ExplorationLimit, StrategyGapError,
            ValueError, ZeroDivisionError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
