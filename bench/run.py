"""Layered benchmark of the timedgames CLI on generated retry-chain games.

Run from the root of a source checkout:

    python3 bench/run.py --workload exact-certify --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --self-test

Each repetition is a fresh interpreter (bench/rep.py) that imports
`timedgames.cli`, parses and validates the workload's generated models, and
runs the workload's CLI operations in-process through `timedgames.cli.main`.
Repetitions continue until --seconds have been spent measuring.  With
--trace 1 every other repetition runs with spans around the calls into each
layer (bench/tracing.py) and the run reports per-layer metrics plus the
tracing overhead instead of the end-to-end metrics.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it are a
readable report.  See bench/NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import chains  # noqa: E402

DEFAULT_SEED = 0
MIN_REPS = 2
SETUP_SAMPLES = 7
# a run must end within 180 s whatever --seconds asks for
RUN_BUDGET_S = 160
LAMBDA = "9/10"

# (name, n, k, clocks) of the retry chains each workload generates from its
# seed, and the operations run on them; "{name}" is a generated model file.
WORKLOADS = {
    "exact-certify": {
        "chains": [("e2", 4, 3, 2), ("e1", 12, 3, 1)],
        "ops": [
            ("solve_exact", ["solve", "--exact", "--json", "{e2}"]),
            ("solve_exact", ["solve", "--exact", "--json", "{e1}"]),
            ("discounted", ["discounted", "--lambda", LAMBDA, "--json", "{e2}"]),
            ("discounted", ["discounted", "--lambda", LAMBDA, "--json", "{e1}"]),
        ],
    },
    "float-large": {
        "chains": [("f2", 12, 4, 2), ("f3", 4, 3, 3)],
        "ops": [
            ("solve_float", ["solve", "--json", "{f2}"]),
            ("brg", ["brg", "--json", "{f3}"]),
        ],
    },
    "play-check": {
        "chains": [("p2", 2, 2, 2)],
        "ops": [
            ("simulate", ["simulate", "--json", "models/M3.model"]),
            ("simulate", ["simulate", "--json", "--runs", "3000", "{p2}"]),
            ("check_properties", ["check-properties", "--json", "models/M1.model"]),
            ("check_properties", ["check-properties", "--json", "{p2}"]),
        ],
    },
}
SIMULATE_DEFAULT_RUNS = 10_000

# end-to-end time of each operation kind, as the report names it
OP_METRICS = {
    "solve_exact": "solve_exact_s",
    "discounted": "discounted_s",
    "solve_float": "solve_float_s",
    "brg": "brg_s",
    "check_properties": "check_properties_s",
}

UNIT_SUFFIXES = (("_s", "s"), ("_mb", "MB"), ("_ratio", "ratio"), ("_frac", "ratio"),
                 ("_halfwidths", "ratio"), ("ns_per_action", "ns"), ("us_per_action", "us"),
                 ("us_per_run", "us"), ("us_per_step", "us"), ("runs_per_s", "runs/s"))


def unit_of(name: str) -> str:
    units = [unit for suffix, unit in UNIT_SUFFIXES if name.endswith(suffix)]
    return units[-1] if units else "count"


def _op_label(argv) -> str:
    return "%s %s" % (argv[0], os.path.splitext(os.path.basename(argv[-1]))[0])


def make_spec(root: str, work: str, workload: str, seed: int, digests: dict | None) -> dict:
    """Generate the workload's models from the seed and describe its ops;
    `digests` None leaves the outputs unpinned."""
    wl = WORKLOADS[workload]
    rng = random.Random("%s/%d" % (workload, seed))
    paths = {}
    for name, n, k, clocks in wl["chains"]:
        paths[name] = os.path.join(work, name + ".model")
        with open(paths[name], "w") as fh:
            fh.write(chains.random_chain(rng, n, k, clocks, name))
    ops = []
    for kind, argv in wl["ops"]:
        argv = [a.format(**paths) for a in argv]
        ops.append({"kind": kind, "argv": argv, "label": _op_label(argv)})
    return {
        "src": os.path.join(root, "src"),
        "docs": list(paths.values()),
        "ops": ops,
        "pinned": (digests["values"][workload]
                   if digests and seed == digests["seed"] else None),
        "shapes": digests["shapes"][workload] if digests else None,
    }


def run_rep(root: str, work: str, spec: dict, timeout: float, **flags) -> dict:
    """One repetition in a fresh interpreter; returns its result record."""
    spec = dict(spec, **flags)
    path = os.path.join(work, "spec.json")
    with open(path, "w") as fh:
        json.dump(spec, fh)
    t_spawn = time.perf_counter()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "rep.py"), path],
                          cwd=root, capture_output=True, text=True,
                          timeout=max(1.0, timeout))
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError("repetition failed (exit %d): %s"
                           % (proc.returncode, proc.stderr.strip()[-2000:]))
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    rec["setup_s"] = rec["t_setup_end"] - t_spawn
    rec["pass_s"] = sum(op["wall"] for op in rec["ops"])
    return rec


def measure(root: str, work: str, spec: dict, seconds: float, trace: bool,
            deadline: float) -> tuple[list, list]:
    """Repetitions until about `seconds` are spent (at least MIN_REPS, and
    the first one checked), then set-up-only probes up to SETUP_SAMPLES.
    Another repetition starts while it would end at most half a repetition
    past `seconds`, so a run measures for `seconds` on average."""
    start = time.perf_counter()
    reps = []
    while True:
        traced = trace and len(reps) % 2 == 0
        reps.append(run_rep(root, work, spec, deadline - time.perf_counter(),
                            trace=traced, check=not reps))
        now = time.perf_counter()
        typical = statistics.median(r["pass_s"] + r["setup_s"] for r in reps)
        if now + typical > deadline or (
                len(reps) >= MIN_REPS and now - start + typical / 2 > seconds):
            break
    probes = []
    while len(reps) + len(probes) < SETUP_SAMPLES and time.perf_counter() + 5 < deadline:
        probes.append(run_rep(root, work, spec, deadline - time.perf_counter(),
                              trace=False, check=False, setup_only=True))
    return reps, probes


def failures(spec: dict, reps: list) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over every operation of every
    repetition.  The first repetition is checked in full; later ones must
    print the same bytes, since the CLI output is deterministic."""
    first = reps[0]
    problems = first["checks"]["problems"]
    attempted = failed = 0
    messages = []
    for rep in reps:
        if rep["findings"]:
            messages.append("validate reported %d finding(s)" % rep["findings"])
        for op, ref in zip(rep["ops"], first["ops"]):
            attempted += 1
            found = list(problems[op["label"]])
            if (op["sha"], op["rc"]) != (ref["sha"], ref["rc"]):
                found.append("output differs from the first repetition")
            if found:
                failed += 1
                messages += ["%s: %s" % (op["label"], p) for p in found]
    return attempted, failed, messages


def _median(values):
    return statistics.median(values) if values else None


def end_to_end(spec: dict, reps: list, probes: list, attempted: int, failed: int) -> dict:
    m = {
        "setup_s": _median([r["setup_s"] for r in reps + probes]),
        "pass_s": _median([r["pass_s"] for r in reps]),
        "peak_rss_mb": _median([r["maxrss_kb"] / 1024 for r in reps]),
        "failed_frac": failed / attempted,
    }
    kinds = [op["kind"] for op in spec["ops"]]
    for kind in sorted(set(kinds)):
        walls = [sum(op["wall"] for k, op in zip(kinds, r["ops"]) if k == kind) for r in reps]
        if kind == "simulate":
            runs = sum(int(op["argv"][op["argv"].index("--runs") + 1])
                       if "--runs" in op["argv"] else SIMULATE_DEFAULT_RUNS
                       for op in spec["ops"] if op["kind"] == "simulate")
            m["simulate_runs_per_s"] = runs / _median(walls)
        else:
            m[OP_METRICS[kind]] = _median(walls)
    return m


def _layers(rep: dict, checks: dict) -> dict:
    """Per-layer metrics of one traced repetition."""
    tr = rep["trace"]
    total, calls, counts = tr["total"], tr["calls"], tr["counts"]
    t = lambda name: total.get(name, 0.0)  # noqa: E731
    c = lambda name: counts.get(name, 0)  # noqa: E731
    m = {
        "cli.import_s": rep["import_s"],
        "model.parse_s": rep["parse_s"],
        "model.validate_s": rep["validate_s"],
        "model.findings": rep["findings"],
        "cli.self_s": tr["self"]["cli.op"],
        "brg.explore_s": t("brg.explore"),
        "brg.explores": calls.get("brg.explore", 0),
        "brg.states": c("brg.states"),
        "brg.actions": c("brg.actions"),
        "brg.transitions": c("brg.transitions"),
        "brg.us_per_action": 1e6 * t("brg.explore") / c("brg.actions"),
        "solver.reach_check_s": t("solver.reach_check"),
        "solver.vi_s": t("solver.vi"),
        "solver.vi_iterations": c("solver.vi_iterations"),
        "solver.vi_ns_per_action": 1e9 * t("solver.vi") / c("vi_action_sweeps"),
        "solver.extract_s": t("solver.extract"),
    }
    if "brg.export_dot" in total:
        m["brg.export_dot_s"] = t("brg.export_dot")
    evals = calls.get("solver.evaluate", 0) + calls.get("solver.evaluate_discounted", 0)
    if evals:
        for name in ("solver.evaluate", "solver.evaluate_discounted"):
            if calls.get(name):
                m[name + "_s"] = t(name) / calls[name]
        m.update({
            "solver.eval_unknowns": c("solver.eval_unknowns"),
            "solver.exact_evaluations": evals,
            "solver.improvement_rounds": c("solver.improvement_rounds"),
            "solver.value_den_bits": c("solver.value_den_bits"),
            "solver.certify_s": t("solver.certify"),
        })
    if c("simulate.runs"):
        run_s = t("simulate.run")
        m.update({
            "simulate.from_solution_s": t("simulate.from_solution"),
            "simulate.us_per_run": 1e6 * run_s / c("simulate.runs"),
            "simulate.steps_per_run": c("simulate.steps") / c("simulate.runs"),
            "simulate.us_per_step": 1e6 * run_s / c("simulate.steps"),
            "simulate.reached_ratio": c("simulate.reached") / c("simulate.runs"),
            "simulate.err_halfwidths": max(checks["properties"].get("err_halfwidths", []),
                                           default=float("nan")),
        })
    if calls.get("properties.value_at"):
        props = checks["properties"]
        m.update({
            "properties.value_at_calls": calls["properties.value_at"],
            "properties.value_at_distinct": c("properties.value_at_distinct"),
            "properties.value_at_s": t("properties.value_at"),
            "properties.fit_simple_s": t("properties.fit_simple"),
            "properties.quasi_simple_s": t("properties.quasi_simple"),
            "properties.grid_one_step_s": t("properties.grid_one_step"),
            "properties.pairs_checked_ratio": props["pairs_checked"] / props["pairs_requested"],
            "properties.vacuous_regions": props["vacuous_regions"],
            "properties.violations": props["violations"],
        })
    return m


def per_layer(reps: list) -> dict:
    """Median over the traced repetitions of each per-layer metric, plus the
    tracing overhead against the untraced ones."""
    checks = reps[0]["checks"]
    traced = [_layers(r, checks) for r in reps if "trace" in r]
    m = {name: _median([t[name] for t in traced]) for name in traced[0]}
    on = _median([r["pass_s"] for r in reps if "trace" in r])
    off = _median([r["pass_s"] for r in reps if "trace" not in r])
    m["trace.overhead_s"] = on - off
    m["trace.overhead_ratio"] = on / off
    return m


def _fmt(value) -> str:
    return "%d" % value if isinstance(value, int) else "%.6g" % value


def report(workload: str, seed: int, metrics: dict, samples: dict) -> None:
    print("workload %s, seed %d" % (workload, seed))
    for name, value in metrics.items():
        n = samples.get(name)
        print("  %-34s %14s %-6s%s" % (name, _fmt(value), unit_of(name),
                                        "  (median of %d)" % n if n else ""))


def teeth_check(root: str, work: str) -> list[str]:
    """Perturb one certified value of a small solved chain and require the
    output checks to count the operation as failed; returns problems with
    the checks themselves (empty when they have teeth)."""
    import contextlib
    import io

    sys.path.insert(0, os.path.join(root, "src"))
    import verify
    from timedgames import cli

    path = os.path.join(work, "teeth.model")
    with open(path, "w") as fh:
        fh.write(chains.random_chain(random.Random(7), 3, 2, 1, "teeth"))
    op = {"kind": "solve_exact", "label": "solve teeth",
          "argv": ["solve", "--exact", "--json", path]}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(op["argv"])
    text = out.getvalue()
    rec = {"rc": rc, "error": ""}
    found = []
    if verify.op_problems(op, text, rec, None, None)[0]:
        found.append("the unperturbed solution fails its checks")
    doc = json.loads(text)
    row = next(r for r in doc["values"] if r["move"] is not None)
    v = Fraction(row["value"]["rational"]) + Fraction(1, 1000)
    row["value"]["rational"] = "%d/%d" % (v.numerator, v.denominator)
    if not verify.op_problems(op, json.dumps(doc), rec, None, None)[0]:
        found.append("a perturbed value passes the Bellman check")
    pinned = {op["label"]: verify.checks.digest("solve_exact", json.loads(text))}
    if not verify.op_problems(op, json.dumps(doc), rec, pinned, None)[0]:
        found.append("a perturbed value matches the pinned digest")
    return found


def self_test(root: str, work: str) -> int:
    """Generator and checker self-checks; exit status 0 when all hold."""
    sys.path.insert(0, os.path.join(root, "src"))
    from timedgames.brg import explore
    from timedgames.model import parse_model, validate

    problems = teeth_check(root, work)
    for workload, wl in WORKLOADS.items():
        for seed in range(3):
            rng = random.Random("%s/%d" % (workload, seed))
            for name, n, k, clocks in wl["chains"]:
                found = validate(parse_model(chains.random_chain(rng, n, k, clocks, name)))
                if found:
                    problems.append("%s seed %d %s: %s" % (workload, seed, name, found[0]))
    states = explore(parse_model(chains.alternating_chain(6, 3, 2, "ref"))).n
    if states != 524:
        problems.append("reference 2-clock chain has %d states, not 524" % states)
    small = {m: explore(parse_model(chains.alternating_chain(2, 2, m, "ref"))).n
             for m in (2, 3)}
    if small[3] == small[2]:
        problems.append("3-clock chain collapses to the 2-clock graph")
    for p in problems:
        print("FAIL", p)
    print("self-test %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


def pin(root: str, work: str) -> None:
    """Record the digests of the default seed's outputs in digests.json."""
    digests = {"seed": DEFAULT_SEED, "values": {}, "shapes": {}}
    for workload in WORKLOADS:
        spec = make_spec(root, work, workload, DEFAULT_SEED, None)
        checked = run_rep(root, work, spec, RUN_BUDGET_S, trace=False, check=True)["checks"]
        wrong = [(label, p) for label, found in checked["problems"].items() for p in found]
        if wrong:
            raise SystemExit("not pinning %s: %s" % (workload, wrong))
        found = checked["digests"]
        digests["values"][workload] = {k: v for k, v in found.items()
                                       if not k.startswith("shape ")}
        digests["shapes"][workload] = {k[len("shape "):]: v for k, v in found.items()
                                       if k.startswith("shape ")}
    with open(os.path.join(HERE, "digests.json"), "w") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true",
                   help="check the model generator and the output checks")
    p.add_argument("--pin", action="store_true",
                   help="rewrite digests.json from the default seed's outputs")
    args = p.parse_args(argv)

    # on SIGTERM, unwind so that subprocess.run kills the running repetition
    # and the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.perf_counter() + RUN_BUDGET_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "timedgames", "cli.py")):
        print("error: run from the root of a timedgames checkout", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    work = os.path.join(root, ".bench_build", "work-%d" % os.getpid())
    os.makedirs(work)
    try:
        if args.self_test:
            return self_test(root, work)
        if args.pin:
            pin(root, work)
            return 0
        if args.workload is None:
            p.error("--workload is required")
        with open(os.path.join(HERE, "digests.json")) as fh:
            digests = json.load(fh)
        spec = make_spec(root, work, args.workload, args.seed, digests)
        teeth = teeth_check(root, work)
        reps, probes = measure(root, work, spec, args.seconds, bool(args.trace), deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed, messages = failures(spec, reps)
    for msg in teeth + messages:
        print("FAIL", msg)
    e2e = end_to_end(spec, reps, probes, attempted, failed)
    n_reps = len(reps)
    samples = {name: n_reps for name in e2e if name != "failed_frac"}
    samples["setup_s"] = n_reps + len(probes)
    if args.trace:
        metrics = per_layer(reps)
        samples = {name: (n_reps + 1) // 2 for name in metrics}
        keys = [m["name"] for m in declared["per_layer"]]
    else:
        metrics = e2e
        keys = [m["name"] for m in declared["end_to_end"]]
    report(args.workload, args.seed, metrics, samples)
    print("  repetitions: " + ", ".join("%.3f s%s" % (r["pass_s"], " traced" * ("trace" in r))
                                        for r in reps))
    print(json.dumps({
        "correct": not teeth and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit_of(k)} for k in keys},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
