"""Clock valuations, clock constraints, and the region construction.

A region is stored in canonical form as the integer part of every clock plus
an ordered partition of the clocks by fractional part.  ``blocks[0]`` is the
set of clocks with fractional part zero and is always present, possibly
empty; ``blocks[1:]`` are the nonempty groups of clocks with equal positive
fractional part, listed in increasing order of that fraction.  Clocks whose
integer part equals the bound ``k`` are forced into the zero block, which
caps the number of regions and makes time successors well defined.

A region is *thin* when the zero block is nonempty (some clock sits exactly
on an integer) and *thick* otherwise.  Letting time pass alternates between
the two kinds: from a thin region the zero-block clocks pick up a fresh
smallest positive fraction, and from a thick region the clocks with the
largest fraction reach the next integer.  `invariant_chain` is the part of
that future a location invariant lets time pass through, and `boundary`
names the instant (b, c), c a clock index, at which a thin region on it is
hit, as the delay b - nu(c).  Every delay window is read off one walk of
the two: `delay_windows` from a valuation, `brg` one memoized region at a
time.

Everything here is exact.  Valuation coordinates are ``fractions.Fraction``.
One evaluator, `satisfies_scaled`, decides every clock constraint at a
point: a valuation, an integer point of the boundary region graph's
lattice, or a region's representative, which each region computes once.  A
constraint with integer constants holds on every point of a region or on
none, so deciding it at the representative decides the region.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Mapping, Sequence


# the operators of an atom and the comparison each makes
_COMPARE = {"<": operator.lt, "<=": operator.le, "=": operator.eq,
            ">=": operator.ge, ">": operator.gt}
OPS = tuple(_COMPARE)
# The most regions `enumerate_regions` builds, and the most points per
# location of a sample grid: far above the contexts in use (4 clocks with
# k = 3 have 15,307 regions), far below what exhausts memory.
REGION_CAP = 1_000_000


class RegionError(ValueError):
    """Raised for malformed contexts, valuations, or regions."""


@dataclass(frozen=True)
class ClockContext:
    """A fixed ordered set of clock names and the shared integer bound k.

    The clock order is significant: it breaks ties whenever several clocks
    could serve as the boundary coordinate of a thin region, and it fixes
    the canonical ordering of action sets.
    """

    clocks: tuple[str, ...]
    k: int

    def __post_init__(self) -> None:
        if not self.clocks:
            raise RegionError("context needs at least one clock")
        if len(set(self.clocks)) != len(self.clocks):
            raise RegionError("duplicate clock names: %r" % (self.clocks,))
        if self.k < 1:
            raise RegionError("clock bound k must be at least 1, got %d" % self.k)

    def index(self, clock: str) -> int:
        try:
            return self.clocks.index(clock)
        except ValueError:
            raise RegionError("unknown clock %r" % clock) from None


@dataclass(frozen=True)
class ClockValuation:
    """An exact point in clock space, one Fraction per clock of the context."""

    ctx: ClockContext
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(self.ctx.clocks):
            raise RegionError("valuation arity mismatch")
        if any(v < 0 for v in self.values):
            raise RegionError("clock values must be nonnegative: %r" % (self.values,))

    @classmethod
    def trusted(cls, ctx: ClockContext, values: tuple[Fraction, ...]) -> "ClockValuation":
        """The valuation without the arity and sign checks, for coordinates
        already known to be nonnegative and one per clock of ctx: the
        boundary region graph builds its points n/D from nonnegative
        integers n, one per clock."""
        v = object.__new__(cls)
        object.__setattr__(v, "ctx", ctx)
        object.__setattr__(v, "values", values)
        return v

    @classmethod
    def from_map(cls, ctx: ClockContext, mapping: Mapping[str, Fraction]) -> "ClockValuation":
        missing = [c for c in ctx.clocks if c not in mapping]
        if missing:
            raise RegionError("valuation missing clocks %r" % missing)
        extra = [c for c in mapping if c not in ctx.clocks]
        if extra:
            raise RegionError("valuation has unknown clocks %r" % extra)
        return cls(ctx, tuple(Fraction(mapping[c]) for c in ctx.clocks))

    def value(self, clock: str) -> Fraction:
        return self.values[self.ctx.index(clock)]

    def shift(self, t: Fraction) -> "ClockValuation":
        """The valuation after t time units; t may push clocks past k."""
        t = Fraction(t)
        if t < 0:
            raise RegionError("cannot shift by negative time %s" % t)
        return ClockValuation.trusted(self.ctx, tuple([v + t for v in self.values]))

    def reset(self, clocks: frozenset[str] | set[str]) -> "ClockValuation":
        idxs = {self.ctx.index(c) for c in clocks}
        return ClockValuation.trusted(
            self.ctx,
            tuple([Fraction(0) if i in idxs else v for i, v in enumerate(self.values)]),
        )

    def as_dict(self) -> dict[str, Fraction]:
        return dict(zip(self.ctx.clocks, self.values))


@dataclass(frozen=True)
class SimpleConstraint:
    """One atom: ``left OP bound`` or ``left - right OP bound``.

    `parse_constraint` also records the context it parsed the atom in and
    the indices of its clocks there, so evaluating the atom on a region or
    valuation of that context looks no clock up by name.  They are not part
    of equality, hashing or repr; an atom built without them looks its
    clocks up on each evaluation."""

    left: str
    right: str | None
    op: str
    bound: int
    ctx: ClockContext | None = field(default=None, compare=False, repr=False)
    i: int = field(default=-1, compare=False, repr=False)
    j: int | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise RegionError("bad operator %r" % self.op)

    def render(self) -> str:
        lhs = self.left if self.right is None else "%s - %s" % (self.left, self.right)
        return "%s %s %d" % (lhs, self.op, self.bound)


@dataclass(frozen=True)
class ClockConstraint:
    """A conjunction of simple atoms; the empty conjunction is `true`."""

    atoms: tuple[SimpleConstraint, ...]

    def render(self) -> str:
        if not self.atoms:
            return "true"
        return " & ".join(a.render() for a in self.atoms)


TRUE = ClockConstraint(())


def parse_constraint(text: str, ctx: ClockContext) -> ClockConstraint:
    """Parse an `&`-conjunction of atoms ``c OP n`` / ``c - c' OP n``.

    Clock names must belong to the context and constants must lie in
    [0, k]; anything else is rejected so that region-level evaluation of
    the constraint is exact.
    """
    text = text.strip()
    if text in ("", "true"):
        return TRUE
    atom_re = re.compile(
        r"^\s*([A-Za-z_]\w*)\s*(?:-\s*([A-Za-z_]\w*))?\s*(<=|>=|=|<|>)\s*(\d+)\s*$"
    )
    atoms = []
    for part in text.split("&"):
        m = atom_re.match(part)
        if m is None:
            raise RegionError("cannot parse constraint atom %r" % part.strip())
        left, right, op, bound_s = m.groups()
        bound = int(bound_s)
        i = ctx.index(left)
        j = None
        if right is not None:
            j = ctx.index(right)
            if right == left:
                raise RegionError("diagonal atom compares %r with itself" % left)
        if bound > ctx.k:
            raise RegionError(
                "constant %d exceeds clock bound k=%d in %r" % (bound, ctx.k, part.strip())
            )
        atoms.append(SimpleConstraint(left, right, op, bound, ctx, i, j))
    return ClockConstraint(tuple(atoms))


@dataclass(frozen=True)
class ClockRegion:
    """Canonical region: per-clock integer parts plus the fraction partition.

    ``ints[i]`` is the integer part of clock i, in [0, k].  ``blocks`` is a
    tuple of tuples of clock indices: ``blocks[0]`` holds the clocks with
    zero fraction (possibly empty), the remaining blocks are nonempty and
    ordered by increasing fractional part.  Indices inside a block are
    ascending.  A clock with integer part k must sit in the zero block.
    """

    ctx: ClockContext
    ints: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]
    # the hash of the fields, computed once: regions key every table of the
    # boundary region graph's construction; not part of equality or repr
    _hash: int = field(init=False, repr=False, compare=False)
    # the representative as integers over len(blocks): a clock of block j
    # sits at its integer part plus j/len(blocks); not part of equality or repr
    _point: tuple[int, ...] = field(init=False, repr=False, compare=False)
    # the label, set on the instance on first use; a class attribute, not a
    # field, so a region that is never labelled does not carry it
    _label = None

    def __post_init__(self) -> None:
        n, k = len(self.ctx.clocks), self.ctx.k
        ints, blocks = self.ints, self.blocks
        if len(ints) != n:
            raise RegionError("region arity mismatch")
        if min(ints) < 0 or max(ints) > k:
            raise RegionError("integer parts out of range: %r" % (ints,))
        if sorted([i for b in blocks for i in b]) != list(range(n)):
            raise RegionError("blocks are not a partition of the clocks")
        if not blocks:
            raise RegionError("zero block must be present (possibly empty)")
        if not all(blocks[1:]):
            raise RegionError("positive fraction blocks must be nonempty")
        for b in blocks:
            if tuple(sorted(b)) != b:
                raise RegionError("blocks must list clock indices in ascending order")
        if k in ints and any(m == k and i not in blocks[0] for i, m in enumerate(ints)):
            raise RegionError("clock at the bound k must have zero fraction")
        object.__setattr__(self, "_hash", hash((self.ctx, self.ints, self.blocks)))
        scale, point = len(blocks), list(ints)
        for j, b in enumerate(blocks):
            for i in b:
                point[i] = point[i] * scale + j
        object.__setattr__(self, "_point", tuple(point))

    def __hash__(self) -> int:
        return self._hash

    def key(self) -> tuple:
        """Total order on regions of one context, used for determinism."""
        return (self.ints, self.blocks)

    def label(self) -> str:
        """Human-readable description, e.g. ``0<x<1, y=1, frac(x)<frac(z)``,
        built once per region."""
        if self._label is None:
            object.__setattr__(self, "_label", self._render())
        return self._label

    def _render(self) -> str:
        parts = []
        for i, name in enumerate(self.ctx.clocks):
            m = self.ints[i]
            if i in self.blocks[0]:
                parts.append("%s=%d" % (name, m))
            else:
                parts.append("%d<%s<%d" % (m, name, m + 1))
        positive = self.blocks[1:]
        if sum(len(b) for b in positive) > 1:
            order = "<".join(
                "=".join("frac(%s)" % self.ctx.clocks[i] for i in b) for b in positive
            )
            parts.append(order)
        return ", ".join(parts)


def scaled_point(valuation: ClockValuation) -> tuple[tuple[int, ...], int]:
    """(point, D): the valuation as integers over D, the lcm of the
    denominators of its coordinates.  The smallest such D, so no integer
    above 1 divides D and every coordinate of the point."""
    scale = math.lcm(*(v.denominator for v in valuation.values))
    return tuple([v.numerator * (scale // v.denominator) for v in valuation.values]), scale


def region_form(point: Sequence[int], scale: int, k: int) -> tuple[tuple, tuple]:
    """The (ints, blocks) of the canonical region holding the valuation
    point/scale, given as nonnegative integers scaled by `scale`: integer
    parts, then the clocks grouped by their fractional part, the zero block
    first and the others by increasing fraction.  A clock above k is
    refused."""
    limit = k * scale
    groups: dict[int, list[int]] = {}
    ints = []
    for i, p in enumerate(point):
        if p > limit:
            raise RegionError("clock value %s exceeds bound k=%d" % (Fraction(p, scale), k))
        m, f = divmod(p, scale)
        ints.append(m)
        groups.setdefault(f, []).append(i)
    zero = tuple(groups.pop(0, ()))
    return tuple(ints), (zero,) + tuple([tuple(groups[f]) for f in sorted(groups)])


def region_of(valuation: ClockValuation) -> ClockRegion:
    """The canonical region containing a valuation with all clocks in [0, k]."""
    return ClockRegion(valuation.ctx, *region_form(*scaled_point(valuation), valuation.ctx.k))


def is_thin(region: ClockRegion) -> bool:
    """Thin regions have some clock exactly on an integer."""
    return len(region.blocks[0]) > 0


def time_successor(region: ClockRegion) -> ClockRegion | None:
    """The next region hit when time flows, or None at the bound.

    From a thin region the zero-block clocks acquire a fresh smallest
    positive fraction (unless one of them already sits at k, in which case
    time cannot pass without leaving the bounded space).  From a thick
    region the clocks with the largest fraction reach their next integer.
    """
    if is_thin(region):
        if any(region.ints[i] == region.ctx.k for i in region.blocks[0]):
            return None
        blocks = ((), region.blocks[0]) + region.blocks[1:]
        return ClockRegion(region.ctx, region.ints, blocks)
    last = region.blocks[-1]
    ints = tuple(m + 1 if i in last else m for i, m in enumerate(region.ints))
    blocks = (last,) + region.blocks[1:-1]
    return ClockRegion(region.ctx, ints, blocks)


def invariant_chain(region: ClockRegion, invariant: ClockConstraint) -> Iterator[ClockRegion]:
    """The future chain of the region up to, not including, the first region
    that breaks the invariant: the regions time passes through while the
    invariant holds.  Empty when the region itself breaks it.  Lazy, so a
    caller that stops early walks no further."""
    r: ClockRegion | None = region
    while r is not None and satisfies(r, invariant):
        yield r
        r = time_successor(r)


def boundary(thin: ClockRegion) -> tuple[int, int]:
    """The (b, c) pair, c a clock index, naming the instant at which letting
    time pass hits the thin region: from any point whose future chain
    contains it, the delay is b - nu(c).  Every zero-block clock names the
    same delay; the first in context order is returned."""
    if not is_thin(thin):
        raise RegionError("boundary coordinates target a thin region")
    c = min(thin.blocks[0])
    return thin.ints[c], c


def reset_region(region: ClockRegion, clocks: frozenset[str] | set[str]) -> ClockRegion:
    """The region after setting the given clocks to zero."""
    idxs = {region.ctx.index(c) for c in clocks}
    ints = tuple([0 if i in idxs else m for i, m in enumerate(region.ints)])
    blocks = [tuple(sorted(idxs.union(region.blocks[0])))]
    for b in region.blocks[1:]:
        kept = tuple([i for i in b if i not in idxs])
        if kept:
            blocks.append(kept)
    return ClockRegion(region.ctx, ints, tuple(blocks))


def _clock_indices(atom: SimpleConstraint, ctx: ClockContext) -> tuple[int, int | None]:
    """The indices of the atom's clocks in ctx: the ones recorded when it was
    parsed in ctx, or looked up by name."""
    if atom.ctx is ctx:
        return atom.i, atom.j
    return ctx.index(atom.left), None if atom.right is None else ctx.index(atom.right)


def satisfies_scaled(ctx: ClockContext, point: Sequence, scale: int,
                     constraint: ClockConstraint) -> bool:
    """Whether the valuation point/scale of ctx satisfies every atom of the
    constraint: each atom compares point[i], or point[i] - point[j] for a
    diagonal, with its bound times `scale`.  The coordinates may be
    integers over a positive integer scale, or Fractions over 1."""
    for atom in constraint.atoms:
        i, j = _clock_indices(atom, ctx)
        lhs = point[i] if j is None else point[i] - point[j]
        if not _COMPARE[atom.op](lhs, atom.bound * scale):
            return False
    return True


def satisfies(region: ClockRegion, constraint: ClockConstraint) -> bool:
    """Whether every point of the region satisfies the constraint.

    Constraint constants are integers and every clock of the region is
    bounded by k, so a constraint holds either everywhere or nowhere on a
    region; this decides which at the region's representative.
    """
    return satisfies_scaled(region.ctx, region._point, len(region.blocks), constraint)


def valuation_satisfies(valuation: ClockValuation, constraint: ClockConstraint) -> bool:
    """Pointwise constraint check, used by the concrete semantics."""
    return satisfies_scaled(valuation.ctx, valuation.values, 1, constraint)


def closure_contains_scaled(region: ClockRegion, point: Sequence[int], scale: int) -> bool:
    """Whether the valuation point/scale, given as integers scaled by the
    positive integer `scale`, lies in the closure of the region: zero-block
    clocks sit on their integer, and the fractions of the positive blocks
    are equal within a block and nondecreasing from one block to the next,
    inside [0, 1].  A point it accepts is nonnegative."""
    ints = region.ints
    blocks = iter(region.blocks)
    for i in next(blocks):
        if point[i] != ints[i] * scale:
            return False
    low = 0
    for b in blocks:
        i = b[0]
        f = point[i] - ints[i] * scale
        if not low <= f <= scale:
            return False
        for i in b:
            if point[i] - ints[i] * scale != f:
                return False
        low = f
    return True


@dataclass(frozen=True)
class DelayWindow:
    """The delays {t >= 0 : nu + t in region}: one instant lo = hi, or the
    open interval (lo, hi), closed at lo when it starts now."""

    lo: Fraction
    hi: Fraction
    closed_lo: bool


def delay_windows(valuation: ClockValuation,
                  invariant: ClockConstraint) -> Iterator[tuple[ClockRegion, DelayWindow]]:
    """Each region of `invariant_chain` from the valuation's region, with its
    delay window: a thin region's instant b - nu(c) from its `boundary`; a
    thick region's interval from the instant before it (from 0, closed, for
    the valuation's own region) to the instant of its time successor, which
    is only a limit and so exempt from the invariant."""
    values = valuation.values
    lo, closed = Fraction(0), True
    for r in invariant_chain(region_of(valuation), invariant):
        if is_thin(r):
            b, c = boundary(r)
            lo = b - values[c]
            yield r, DelayWindow(lo, lo, True)
        else:
            b, c = boundary(time_successor(r))
            yield r, DelayWindow(lo, b - values[c], closed)
        closed = False


def representative(region: ClockRegion) -> ClockValuation:
    """The canonical interior point: positive block j gets fraction j/len(blocks)."""
    scale = len(region.blocks)
    return ClockValuation(region.ctx, tuple([Fraction(p, scale) for p in region._point]))


def sample_interior(region: ClockRegion, rng, denominator: int = 64) -> ClockValuation:
    """A random point of the region with coordinates in (1/d)*Z."""
    m = len(region.blocks) - 1
    if denominator - 1 < m:
        raise RegionError("denominator too small for %d fraction blocks" % m)
    numerators = sorted(rng.sample(range(1, denominator), m))
    values = [Fraction(region.ints[i]) for i in range(len(region.ints))]
    for j, b in enumerate(region.blocks[1:]):
        for i in b:
            values[i] += Fraction(numerators[j], denominator)
    return ClockValuation(region.ctx, tuple(values))


def sample_closure_scaled(region: ClockRegion, rng, denominator: int = 64) -> tuple[int, ...]:
    """A random point of the region's closure with coordinates in (1/d)*Z,
    as the integers d times its coordinates: one draw from [0, d] per
    positive block, sorted, is the numerator of each block's fraction."""
    numerators = sorted([rng.randrange(0, denominator + 1) for _ in region.blocks[1:]])
    point = [m * denominator for m in region.ints]
    for f, b in zip(numerators, region.blocks[1:]):
        for i in b:
            point[i] += f
    return tuple(point)


def _ordered_partitions(items: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
    if not items:
        yield ()
        return
    n = len(items)
    for mask in range(1, 1 << n):
        first = tuple(items[i] for i in range(n) if mask >> i & 1)
        rest = tuple(items[i] for i in range(n) if not mask >> i & 1)
        for tail in _ordered_partitions(rest):
            yield (first,) + tail


def region_count(ctx: ClockContext) -> int:
    """The number of regions of the context, in closed form: m clocks with a
    positive fraction take one of k integer parts each, the others one of
    k + 1, and the positive fractions fall into one of the F(m) ordered
    partitions of the m clocks (the Fubini numbers)."""
    n, k = len(ctx.clocks), ctx.k
    fubini = [1]
    for m in range(1, n + 1):
        fubini.append(sum(math.comb(m, j) * fubini[m - j] for j in range(1, m + 1)))
    return sum(math.comb(n, m) * k**m * (k + 1) ** (n - m) * fubini[m] for m in range(n + 1))


def enumerate_regions(ctx: ClockContext) -> list[ClockRegion]:
    """All regions of the context, sorted by canonical key; a context with
    more than REGION_CAP regions is refused before any is built."""
    count = region_count(ctx)
    if count > REGION_CAP:
        raise RegionError("%d regions (clocks %s, k = %d) exceed the cap of %d"
                          % (count, ", ".join(ctx.clocks), ctx.k, REGION_CAP))
    n = len(ctx.clocks)
    out = []
    for ints in itertools.product(range(ctx.k + 1), repeat=n):
        forced = tuple(i for i in range(n) if ints[i] == ctx.k)
        free = tuple(i for i in range(n) if ints[i] < ctx.k)
        fn = len(free)
        for zmask in range(1 << fn):
            zero_extra = tuple(free[i] for i in range(fn) if zmask >> i & 1)
            rest = tuple(free[i] for i in range(fn) if not zmask >> i & 1)
            zero = tuple(sorted(forced + zero_extra))
            for positive in _ordered_partitions(rest):
                out.append(ClockRegion(ctx, ints, (zero,) + positive))
    out.sort(key=lambda r: r.key())
    return out
