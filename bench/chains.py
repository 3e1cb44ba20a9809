"""Retry-chain model generator for the benchmark.

A retry chain has locations l0 .. l{n-1} and a final location lf.  At l_i
action `a` (guard `c >= 1`) advances to the next location with probability
p and otherwise resets `c` and retries; action `b` (guard `c <= k-1`)
resets one other clock and advances.  Every clock has invariant `x <= k`
everywhere, and lf carries one `x >= 1 -> reset all` escape edge per
clock so that no (location, region) pair is left without an action.

Sizes (n, k, clocks) fix the graph; the seed only picks the owner of each
location and each location's probability p, so a seed changes values,
strategies and denominators but not the graph's shape.
"""

from __future__ import annotations

import random
from fractions import Fraction

PROBS = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 4), Fraction(3, 4))
CLOCK_NAMES = ("c", "d", "e", "f")


def _q(x: Fraction) -> str:
    return '"%d/%d"' % (x.numerator, x.denominator)


def chain_document(n: int, k: int, clocks: int, owners, probs, name: str) -> str:
    """YAML text of one retry chain with the given per-location owners and
    advance probabilities."""
    if not (2 <= k and 1 <= clocks <= len(CLOCK_NAMES) and n >= 1):
        raise ValueError("need n >= 1, k >= 2 and 1..%d clocks" % len(CLOCK_NAMES))
    cs = CLOCK_NAMES[:clocks]
    inv = " & ".join("%s <= %d" % (c, k) for c in cs)
    lines = ["name: %s" % name, "clocks: [%s]" % ", ".join(cs), "k: %d" % k,
             "locations:"]
    for i in range(n):
        lines.append('  - {name: l%d, owner: %s, final: false, invariant: "%s"}'
                     % (i, owners[i], inv))
    lines.append('  - {name: lf, owner: min, final: true, invariant: "%s"}' % inv)
    lines.append("edges:")
    for i in range(n):
        nxt = "l%d" % (i + 1) if i + 1 < n else "lf"
        p = probs[i]
        lines += [
            "  - source: l%d" % i,
            "    action: a",
            '    guard: "c >= 1"',
            "    branches:",
            "      - {prob: %s, resets: [], target: %s}" % (_q(p), nxt),
            "      - {prob: %s, resets: [c], target: l%d}" % (_q(1 - p), i),
        ]
        # one other clock per location: resetting all of them together
        # would keep them equal and collapse the graph to the 2-clock one
        other = [cs[1 + i % (clocks - 1)]] if clocks > 1 else []
        lines += [
            "  - source: l%d" % i,
            "    action: b",
            '    guard: "c <= %d"' % (k - 1),
            "    branches:",
            "      - {prob: \"1/1\", resets: [%s], target: %s}" % (", ".join(other), nxt),
        ]
    for c in cs:
        lines += [
            "  - source: lf",
            "    action: esc_%s" % c,
            '    guard: "%s >= 1"' % c,
            "    branches:",
            "      - {prob: \"1/1\", resets: [%s], target: lf}" % ", ".join(cs),
        ]
    lines += ["initial:", "  location: l0",
              "  valuation: {%s}" % ", ".join('%s: "0/1"' % c for c in cs)]
    return "\n".join(lines) + "\n"


def random_chain(rng: random.Random, n: int, k: int, clocks: int, name: str) -> str:
    """A chain whose owners and probabilities are drawn from `rng`."""
    owners = [rng.choice(("min", "max")) for _ in range(n)]
    probs = [rng.choice(PROBS) for _ in range(n)]
    return chain_document(n, k, clocks, owners, probs, name)


def alternating_chain(n: int, k: int, clocks: int, name: str) -> str:
    """Alternating owners and p = 1/2 everywhere: the reference chain."""
    owners = ["min" if i % 2 == 0 else "max" for i in range(n)]
    return chain_document(n, k, clocks, owners, [Fraction(1, 2)] * n, name)
