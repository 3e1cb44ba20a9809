"""One repetition of a workload, in a fresh interpreter.

Usage: python3 bench/rep.py SPEC.json

The spec names the source tree, the generated model files and the CLI
operations.  The repetition imports `timedgames.cli`, parses and validates
the generated models (together the set-up), then runs each operation
through `timedgames.cli.main` in this process with its output captured.
Peak RSS is read right after the operations.  Only then, outside the timed
region, are outputs checked, when the spec asks for it.  The result is one
JSON line on standard output.
"""

import sys
import time


def main(spec_path: str) -> None:
    import json

    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])

    t0 = time.perf_counter()
    import timedgames.cli as cli
    t1 = time.perf_counter()
    from timedgames.model import parse_model, validate

    arenas = []
    for path in spec["docs"]:
        with open(path) as fh:
            arenas.append(parse_model(fh.read(), name=path))
    t2 = time.perf_counter()
    findings = sum(len(validate(a)) for a in arenas)
    t3 = time.perf_counter()
    if not cli.__file__.startswith(spec["src"]):
        raise SystemExit("timedgames imported from %s, not from %s"
                         % (cli.__file__, spec["src"]))
    result = {"t_setup_end": t3, "import_s": t1 - t0, "parse_s": t2 - t1,
              "validate_s": t3 - t2, "findings": findings, "ops": []}
    if spec.get("setup_only"):
        print(json.dumps(result))
        return

    import contextlib
    import io

    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        explored, export_dot = tracing.install(tracer)
    main_fn = tracer.wrap("cli.op", cli.main) if tracer else cli.main
    outputs = []
    for op in spec["ops"]:
        out, err = io.StringIO(), io.StringIO()
        rc = None
        error = None
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main_fn(op["argv"])
        except Exception as exc:  # an op that raises is a failed op, not a crash
            error = "%s: %s" % (type(exc).__name__, exc)
        wall = time.perf_counter() - t
        outputs.append(out.getvalue())
        result["ops"].append({"label": op["label"], "wall": wall, "rc": rc,
                              "error": error or err.getvalue()[-500:]})
        if tracer:
            # the CLI never exports DOT here; time it on the op's own graph
            g, explored[0] = explored[0], None
            if op["kind"] == "brg" and g is not None:
                export_dot(g)

    import resource

    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    import hashlib

    for rec, text in zip(result["ops"], outputs):
        rec["sha"] = hashlib.sha256(text.encode()).hexdigest()
    if tracer:
        result["trace"] = {"total": tracer.total, "self": tracer.self_time,
                           "calls": tracer.calls, "counts": tracer.counts}
    if spec["check"]:
        import verify

        result["checks"] = verify.check_outputs(spec, outputs, result["ops"])
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
