"""Spans around the public calls into each layer, for the traced run.

`install` rebinds the layer functions that `timedgames.cli`, `solver`,
`properties` and `simulate` look up at call time to timing wrappers, so the
program itself is unchanged.  A wrapper records one span per call: its
inclusive time, and its self time, which is the inclusive time minus the time
covered by spans it caused.  Spans are aggregated per name in memory; a
post-hook per span name reads counts (states, iterations, steps) off the
returned objects after the span's clock has stopped.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.stack: list[list[float]] = []
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)

    def wrap(self, name, fn, hook=None):
        def traced(*args, **kwargs):
            frame = [0.0]
            self.stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = time.perf_counter() - t0
                self.stack.pop()
                if self.stack:
                    self.stack[-1][0] += d
                self.total[name] += d
                self.self_time[name] += d - frame[0]
                self.calls[name] += 1
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return traced


def _graph_sizes(counts, args, g):
    counts["brg.states"] += g.n
    counts["brg.actions"] += g.action_count()
    counts["brg.transitions"] += g.transition_count()


def _vi_work(counts, args, result):
    g = args[0]
    iterations = result[1]
    counts["solver.vi_iterations"] += iterations
    counts["vi_action_sweeps"] += iterations * g.action_count()


def _solve_result(counts, args, res):
    counts["solver.improvement_rounds"] += res.improvement_rounds
    bits = [v.denominator.bit_length() for v in res.values if hasattr(v, "denominator")]
    counts["solver.value_den_bits"] = max([counts["solver.value_den_bits"]] + bits)


def _eval_unknowns(counts, args, values):
    g = args[0]
    n = sum(1 for i, v in enumerate(values)
            if not g.is_final(i) and v != float("inf"))
    counts["solver.eval_unknowns"] = max(counts["solver.eval_unknowns"], n)


def _run_steps(counts, args, rec):
    counts["simulate.runs"] += 1
    counts["simulate.steps"] += rec.steps
    counts["simulate.reached"] += rec.reached


def install(tracer: Tracer):
    """Wrap the layer entry points.  Returns a one-slot list holding the
    last explored graph and a traced `export_dot`, for the DOT export the
    CLI's benchmark operations do not make."""
    from timedgames import cli, properties, simulate, solver

    explored = [None]
    distinct = set()

    def keep_graph(counts, args, g):
        _graph_sizes(counts, args, g)
        explored[0] = g

    def value_at_key(counts, args, value):
        distinct.add((id(args[0]),) + tuple(args[1:]))
        counts["properties.value_at_distinct"] = len(distinct)

    w = tracer.wrap
    explore = w("brg.explore", cli.explore, keep_graph)
    reach = w("solver.reach_check", solver.check_almost_sure_reach)
    vi = w("solver.vi", solver.value_iterate, _vi_work)
    extract = w("solver.extract", solver.extract_strategies)
    solve_exact = w("solver.solve_exact", solver.solve_exact, _solve_result)
    value_at = w("properties.value_at", properties.value_at, value_at_key)
    patches = {
        cli: {
            "load_model": w("model.load", cli.load_model),
            "explore": explore,
            "check_almost_sure_reach": reach,
            "value_iterate": vi,
            "extract_strategies": extract,
            "solve_exact": solve_exact,
            "solve_discounted": w("solver.solve_discounted", cli.solve_discounted,
                                  _solve_result),
            "fit_simple": w("properties.fit_simple", cli.fit_simple),
            "check_quasi_simple": w("properties.quasi_simple", cli.check_quasi_simple),
            "grid_one_step_value": w("properties.grid_one_step", cli.grid_one_step_value),
            "sample_states": w("properties.sample_states", cli.sample_states),
            "value_at": value_at,
            "estimate_value": w("simulate.estimate_value", cli.estimate_value),
        },
        solver: {
            "check_almost_sure_reach": reach,
            "value_iterate": vi,
            "extract_strategies": extract,
            "evaluate_pair_exact": w("solver.evaluate", solver.evaluate_pair_exact,
                                     _eval_unknowns),
            "evaluate_pair_discounted": w("solver.evaluate_discounted",
                                          solver.evaluate_pair_discounted,
                                          _eval_unknowns),
            "certify": w("solver.certify", solver.certify),
        },
        # the default evaluator of every property check calls value_at
        properties: {"value_at": value_at, "explore": explore,
                     "solve_exact": solve_exact},
        simulate: {"simulate_run": w("simulate.run", simulate.simulate_run, _run_steps)},
    }
    for module, names in patches.items():
        for name, fn in names.items():
            setattr(module, name, fn)
    strategy = simulate.ConcretizedStrategy
    strategy.from_solution = classmethod(
        w("simulate.from_solution", strategy.from_solution.__func__))
    return explored, w("brg.export_dot", cli.export_dot)
