"""Output checks behind the benchmark's failure count.

Every check reads the JSON document an operation printed and returns a list
of problems; an empty list means the output is correct.  The exact checks
recompute the Bellman optimality equations in this file's own code, on a
graph explored afresh, so they hold for any seed.  They run after the timed
region of a repetition.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

# a simulated mean may sit this many 95% halfwidths (plus the concretization
# drift of at most epsilon per step) away from the certified value
SIM_HALFWIDTHS = 3
GRID_TOLERANCE = Fraction(1, 100)
FLOAT_RESIDUAL = 1e-7


def _frac(text: str):
    if text == "inf":
        return math.inf
    return Fraction(text)


def _one_step(g, i, j, values, lam):
    acc = g.rewards[i][j]
    for t, p in g.dists[i][j]:
        acc = acc + p * values[t]
    return acc if lam is None else lam * acc


def bellman_problems(g, rows, *, lam=None, exact=True) -> list[str]:
    """Problems with `rows` (the "values" list of a solve or discounted
    document) as a solution of the optimality equations of graph `g`.

    Final states are absorbing at value zero.  Exact documents must satisfy
    the equations with zero residual and name a move attaining the optimum;
    float documents must do so within FLOAT_RESIDUAL.
    """
    if len(rows) != g.n:
        return ["%d value rows for %d states" % (len(rows), g.n)]
    out = []
    if exact:
        values = [_frac(r["value"]["rational"]) for r in rows]
    else:
        values = [float(r["value"]["decimal"]) for r in rows]
    lam = None if lam is None else (Fraction(lam) if exact else float(lam))
    for i, row in enumerate(rows):
        s = g.states[i]
        if row["state"] != s.label():
            out.append("row %d names %r, graph has %r" % (i, row["state"], s.label()))
            break
        loc = g.arena.location_named(s.location)
        if loc.final:
            if values[i] != 0:
                out.append("final state %d has value %s" % (i, values[i]))
            continue
        cands = [_one_step(g, i, j, values, lam) for j in range(len(g.actions[i]))]
        if not cands:
            out.append("state %d has no action" % i)
            continue
        best = min(cands) if loc.owner == "min" else max(cands)
        labels = [a.label() for a in g.actions[i]]
        if row["move"] not in labels:
            out.append("state %d: move %r is not an action" % (i, row["move"]))
            continue
        chosen = cands[labels.index(row["move"])]
        if exact:
            if values[i] != best or chosen != best:
                out.append("state %d: value %s, optimum %s, move gives %s"
                           % (i, values[i], best, chosen))
        else:
            scale = max(1.0, abs(best))
            if abs(values[i] - best) > FLOAT_RESIDUAL * scale:
                out.append("state %d: value %r, optimum %r" % (i, values[i], best))
            if abs(chosen - best) > FLOAT_RESIDUAL * scale:
                out.append("state %d: move gives %r, optimum %r" % (i, chosen, best))
        if len(out) >= 5:
            break
    return out


def graph_problems(doc) -> list[str]:
    """Internal consistency of a `brg --json` document: the sizes it states
    match its node list, and every action is a distribution over states."""
    n = len(doc["nodes"])
    actions = sum(len(node["actions"]) for node in doc["nodes"])
    transitions = sum(len(a["successors"]) for node in doc["nodes"] for a in node["actions"])
    if (doc["states"], doc["actions"], doc["transitions"]) != (n, actions, transitions):
        return ["sizes %s/%s/%s, node list has %d/%d/%d"
                % (doc["states"], doc["actions"], doc["transitions"], n, actions, transitions)]
    for i, node in enumerate(doc["nodes"]):
        for act in node["actions"]:
            total = sum(Fraction(p) for _, p in act["successors"])
            if total != 1 or any(not 0 <= t < n for t, _ in act["successors"]):
                return ["node %d: action %s is not a distribution over states"
                        % (i, act["label"])]
    return []


def graph_shape(doc) -> str:
    """Digest of a `brg --json` graph without probabilities and owners, which
    are the only parts a workload seed changes."""
    shape = [(n["state"], [(a["label"], a["reward"]["rational"],
                            [t for t, _ in a["successors"]]) for a in n["actions"]])
             for n in doc["nodes"]]
    blob = json.dumps(shape, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


def simulate_problems(doc, mean_steps: float) -> list[str]:
    """The estimate must lie within SIM_HALFWIDTHS halfwidths, plus epsilon
    per expected step, of the certified value."""
    if doc["reached"] != doc["runs"]:
        return ["%d of %d runs did not reach the final set"
                % (doc["runs"] - doc["reached"], doc["runs"])]
    err = abs(float(_frac(doc["estimate"]["rational"])
                    - _frac(doc["certified_value"]["rational"])))
    allowed = (SIM_HALFWIDTHS * doc["halfwidth"]
               + mean_steps * float(Fraction(doc["epsilon"])))
    if err > allowed:
        return ["estimate off by %.6g, allowed %.6g" % (err, allowed)]
    return []


def properties_problems(doc) -> list[str]:
    """Internal consistency of a check-properties document; violations are
    findings, not problems."""
    out = []
    for row in doc["grid_states"]:
        gap = abs(_frac(row["grid_value"]["rational"]) - _frac(row["exact"]["rational"]))
        if gap != _frac(row["gap"]["rational"]):
            out.append("grid state %s: reported gap is not |grid - exact|" % row["valuation"])
    if doc["ok"] != (property_violations(doc) == 0):
        out.append("ok=%s disagrees with the violation counts" % doc["ok"])
    return out


def property_violations(doc) -> int:
    """Regions with a violated property plus grid states over tolerance: the
    count behind check-properties exit code 1."""
    bad = sum(1 for r in doc["regions"]
              if r["lipschitz_violations"] or r["monotonicity_violations"]
              or r["nonexpansive_violations"])
    return bad + sum(1 for r in doc["grid_states"]
                     if _frac(r["gap"]["rational"]) > GRID_TOLERANCE)


def exact_values(kind: str, doc) -> object:
    """The part of a document that the pinned digest covers: exact values
    and graph shape, not timing or formatting."""
    if kind in ("solve_exact", "discounted"):
        return [doc["states"], doc["certified"],
                [(r["state"], r["value"]["rational"], r["move"]) for r in doc["values"]]]
    if kind == "solve_float":
        return [doc["states"], [r["state"] for r in doc["values"]]]
    if kind == "brg":
        return [doc["states"], doc["actions"], doc["transitions"],
                [(n["state"], [(a["label"], a["reward"]["rational"], a["successors"])
                               for a in n["actions"]]) for n in doc["nodes"]]]
    if kind == "simulate":
        return [doc["runs"], doc["reached"], doc["estimate"]["rational"],
                doc["certified_value"]["rational"]]
    if kind == "check_properties":
        return [[(r["location"], r["region"], r["simple_form"], r["pairs"], r["shift_pairs"],
                  r["lipschitz_violations"], r["monotonicity_violations"],
                  r["nonexpansive_violations"]) for r in doc["regions"]],
                [(r["location"], r["valuation"], r["exact"]["rational"],
                  r["grid_value"]["rational"]) for r in doc["grid_states"]]]
    raise ValueError("unknown operation kind %r" % kind)


def digest(kind: str, doc) -> str:
    blob = json.dumps(exact_values(kind, doc), separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:32]
