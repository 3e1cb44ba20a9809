"""Checks of one repetition's outputs, run after its timed region.

For each operation: the exit code must be allowed, the document must pass
its checks in `checks.py` (the Bellman checks on a graph explored afresh),
and, for the seed the digests were pinned on, its exact values must match
the pinned digest.
Returns per-operation problem lists plus the property-check counts.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import checks

ALLOWED_EXIT = {"check_properties": (0, 1)}
STEP_SAMPLE_RUNS = 300


def _mean_steps(arena, g, solve_exact) -> float:
    """Mean steps per run of the certified strategies, from a short replay."""
    from timedgames.simulate import ConcretizedStrategy, simulate_run

    strategy = ConcretizedStrategy.from_solution(g, solve_exact(g).choice)
    rng = random.Random(1)
    steps = [simulate_run(arena, strategy, rng).steps for _ in range(STEP_SAMPLE_RUNS)]
    return sum(steps) / len(steps)


def op_problems(op, text, rec, pinned, shapes) -> tuple[list[str], dict | None]:
    from timedgames.brg import explore
    from timedgames.model import load_model
    from timedgames.solver import solve_exact

    kind = op["kind"]
    if rec["rc"] not in ALLOWED_EXIT.get(kind, (0,)):
        return ["exit code %s: %s" % (rec["rc"], rec["error"])], None
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return ["output is not JSON: %s" % exc], None
    problems = []
    if kind in ("solve_exact", "discounted") and doc["certified"] is not True:
        problems.append("certified is %r" % doc["certified"])
    if kind in ("solve_exact", "discounted", "solve_float", "simulate"):
        arena = load_model(op["argv"][-1])
        g = explore(arena)
        if kind == "simulate":
            problems += checks.simulate_problems(doc, _mean_steps(arena, g, solve_exact))
        else:
            lam = Fraction(9, 10) if kind == "discounted" else None
            problems += checks.bellman_problems(g, doc["values"], lam=lam,
                                                exact=kind != "solve_float")
    elif kind == "brg":
        problems += checks.graph_problems(doc)
        if shapes is not None and checks.graph_shape(doc) != shapes.get(op["label"]):
            problems.append("graph shape differs from the pinned one")
    elif kind == "check_properties":
        problems += checks.properties_problems(doc)
    if pinned is not None:
        if op["label"] not in pinned:
            problems.append("no pinned digest")
        elif checks.digest(kind, doc) != pinned[op["label"]]:
            problems.append("exact values differ from the pinned digest")
    return problems, doc


def check_outputs(spec, outputs, recs) -> dict:
    pinned, shapes = spec["pinned"], spec["shapes"]
    problems = {}
    props = {"violations": 0, "pairs_checked": 0, "pairs_requested": 0,
             "regions": 0, "vacuous_regions": 0}
    digests = {}
    for op, text, rec in zip(spec["ops"], outputs, recs):
        found, doc = op_problems(op, text, rec, pinned, shapes)
        problems[op["label"]] = found
        if doc is None:
            continue
        digests[op["label"]] = checks.digest(op["kind"], doc)
        if op["kind"] == "brg":
            digests["shape " + op["label"]] = checks.graph_shape(doc)
        if op["kind"] == "check_properties":
            props["violations"] += checks.property_violations(doc)
            for row in doc["regions"]:
                checked = row["pairs"] + row["shift_pairs"]
                props["regions"] += 1
                props["pairs_checked"] += checked
                props["pairs_requested"] += 2 * doc["pairs"]
                props["vacuous_regions"] += checked == 0
        if op["kind"] == "simulate" and doc["halfwidth"]:
            err = abs(Fraction(doc["estimate"]["rational"])
                      - Fraction(doc["certified_value"]["rational"]))
            props.setdefault("err_halfwidths", []).append(float(err) / doc["halfwidth"])
    return {"problems": problems, "properties": props, "digests": digests}
