"""The bundled games of `models/`, loaded afresh on every call.

M1   one guarded jump: wait into 1 <= c <= 2, then move to the final
     location.  Minimizer fires as early as possible, expected time 1.
M1x  the same automaton with the first location owned by the maximizer,
     who waits until c = 2; expected time 2.
M2   retry loop: firing at c = 1 succeeds with probability 1/2 and
     otherwise resets the clock and tries again; expected time 2.
M3   min/max handoff: the failed branch of M2 hands control to a
     maximizer location that must move within one unit; value 3/2.

`models/M2-unreachable.model` is the fifth file: M2 with the success branch
removed, so the final location is never reached.

`STUCK % target` is a three-location game whose l1 has no edge: l0 fires at
c = 1 and reaches lf or, with probability 1/2, the given target with c
reset, l1 (stuck) or l0 itself (a retry loop).

`FINAL_BACK` is a game whose final location has an edge back to a live
one: lf resets c and returns to l0, so every play cycles through lf while
the live states alone are acyclic.
"""

from __future__ import annotations

from pathlib import Path

from timedgames.model import Arena, load_model

MODELS = Path(__file__).resolve().parent.parent / "models"
BUNDLED = ("M1", "M1x", "M2", "M3")


def bundled(name: str) -> Arena:
    """A fresh `Arena` of models/<name>.model."""
    return load_model(str(MODELS / ("%s.model" % name)))


STUCK = """clocks: [c]
k: 1
locations:
  - {name: l0, owner: min, final: false, invariant: "c <= 1"}
  - {name: l1, owner: max, final: false, invariant: "c <= 1"}
  - {name: lf, owner: min, final: true, invariant: "c <= 1"}
edges:
  - source: l0
    action: a
    guard: "c = 1"
    branches:
      - {prob: "1/2", resets: [c], target: %s}
      - {prob: "1/2", resets: [], target: lf}
initial: {location: l0, valuation: {c: "0/1"}}
"""


FINAL_BACK = """clocks: [c]
k: 2
locations:
  - {name: l0, owner: min, final: false, invariant: "c <= 2"}
  - {name: l1, owner: max, final: false, invariant: "c <= 2"}
  - {name: lf, owner: min, final: true, invariant: "c <= 2"}
edges:
  - source: l0
    action: a
    guard: "c > 1"
    branches:
      - {prob: "1/3", resets: [c], target: l1}
      - {prob: "2/3", resets: [], target: lf}
  - source: l1
    action: b
    guard: "c >= 1"
    branches:
      - {prob: "1/1", resets: [], target: lf}
  - source: lf
    action: back
    guard: "c >= 1"
    branches:
      - {prob: "1/1", resets: [c], target: l0}
initial: {location: l0, valuation: {c: "0/1"}}
"""
