#!/usr/bin/env python3
"""Property report over every reachable region of the bundled games in models/.

For each (location, region) reached by the graph exploration this prints
the fitted value-function form (when one exists), the sampled Lipschitz /
shift-monotonicity check counts, and the worst observed difference
quotient.  A second section repeats one game's checks with a deliberately
warped evaluator to demonstrate the checks fail loudly rather than pass
vacuously.

    python3 scripts/property_report.py
    python3 scripts/property_report.py --pairs 400 --seed 7
"""

from __future__ import annotations

import argparse
from pathlib import Path

from timedgames.brg import explore
from timedgames.model import load_model
from timedgames.properties import (
    check_quasi_simple,
    fit_simple,
    value_at,
)

MODELS = Path(__file__).resolve().parent.parent / "models"
GAMES = ("M1", "M1x", "M2", "M3")


def bundled(name: str):
    return load_model(str(MODELS / ("%s.model" % name)))


def reachable_keys(g):
    seen = {}
    for s in g.states:
        seen.setdefault((s.location, s.region.key()), s)
    return seen


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pairs", type=int, default=200,
                    help="sampled pairs per region and per check")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    header = "%-4s %-4s %-10s %-9s %-11s %-9s %s"
    print(header % ("game", "loc", "region", "form", "pairs", "worst", "ok"))
    for name in GAMES:
        arena = bundled(name)
        g = explore(arena)
        for (loc, _), s in reachable_keys(g).items():
            form = fit_simple(arena, loc, s.region, seed=args.seed)
            rep = check_quasi_simple(arena, loc, s.region,
                                     pairs=args.pairs, seed=args.seed)
            worst = ("%.3f" % float(rep.max_lipschitz_ratio)
                     if rep.max_lipschitz_ratio is not None else "-")
            print(header % (
                name, loc, "[%s]" % s.region.label(),
                form.render() if form else "-",
                "%d+%d" % (rep.pairs_checked, rep.diag_pairs_checked),
                worst,
                "yes" if rep.ok else "NO",
            ))

    print()
    print("same checks with the evaluator warped by +nu(c)^2 on M1:")
    m1 = bundled("M1")
    bent = lambda loc, v: value_at(m1, loc, v) + v.value("c") ** 2
    g = explore(m1)
    for (loc, _), s in reachable_keys(g).items():
        rep = check_quasi_simple(m1, loc, s.region, pairs=args.pairs,
                                 seed=args.seed, evaluator=bent)
        print("  %s%s" % (rep.summary(), "" if rep.ok else "  <- caught"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
