#!/usr/bin/env python3
"""Solve the bundled games of models/ and print a comparison table.

For each game: graph size, certified exact value with the optimal moves,
the float value-iteration result it warm-started from, and a sweep of
discounted values over a list of rational discount factors.

    python3 scripts/solve_fixtures.py
    python3 scripts/solve_fixtures.py --names M2,M3 --lambdas 1/4,1/2,3/4
"""

from __future__ import annotations

import argparse
from fractions import Fraction
from pathlib import Path

from timedgames.brg import explore
from timedgames.model import format_rational, load_model
from timedgames.solver import (
    SolveConfig,
    solve_discounted,
    solve_exact,
    value_iterate,
)

MODELS = Path(__file__).resolve().parent.parent / "models"
GAMES = ("M1", "M1x", "M2", "M3")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--names", default=",".join(GAMES),
                    help="comma-separated model names under models/, "
                         "default: %s" % ", ".join(GAMES))
    ap.add_argument("--lambdas", default="1/4,1/2,9/10",
                    help="comma-separated rational discount factors")
    ap.add_argument("--keep-final-rewards", action="store_true",
                    help="discounted sweep without absorbing final states")
    args = ap.parse_args()
    lams = [Fraction(s) for s in args.lambdas.split(",") if s]

    for name in args.names.split(","):
        arena = load_model(str(MODELS / ("%s.model" % name)))
        g = explore(arena)
        res = solve_exact(g)
        approx, iters, residual = value_iterate(g, SolveConfig())
        print("== %s: %d states, %d actions, %d transitions"
              % (name, g.n, g.action_count(), g.transition_count()))
        print("   value %s  (float %.9f after %d iterations, residual %.2e)"
              % (format_rational(res.values[0]), approx[0], iters, residual))
        print("   improvement rounds %d, exact evaluations %d"
              % (res.improvement_rounds, res.exact_evaluations))
        for i, s in enumerate(g.states):
            move = "-"
            if res.choice[i] is not None:
                move = g.actions[i][res.choice[i]].label()
            print("   %2d  %-26s %-8s %s"
                  % (i, s.label(), format_rational(res.values[i]), move))
        for lam in lams:
            d = solve_discounted(g, lam,
                                 zero_final=not args.keep_final_rewards)
            print("   lambda=%-6s discounted %s"
                  % (format_rational(lam), format_rational(d.values[0])))
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
