"""Interval-valued query probabilities, computed exactly.

For each choice space the admissible mass assignments over its classes
form a polytope: non-negative weights that sum to one and whose totals
over the classes containing each atomic choice equal that atom's mass.

A query is read once, by :class:`QueryGroups`: its worlds are the AND of
its literals' world sets (complemented when negated), the bits of an
``int``, and two classes of a space are in one group when the query
holds in alike worlds of theirs, whatever the other spaces' classes.
Its mass is multilinear in the spaces' class masses and reads a space
only through its group sums, so every bound and point value sums the
query's grouped table, one entry per profile of group representatives,
one space at a time: a weighted sum of slices, one per group of non-zero
weight.  Queries are bounded in three ways:

* ``credal_bounds_strong_extension`` - exact bounds for any number of
  spaces, attained with every space but one at a vertex of its
  polytope.  The space with the most classes (then groups, then the
  last declared) is solved by its ``lp.FeasibleSystem``'s
  ``bound_numerators``; the other spaces' vertices, projected to group
  sums and deduplicated, are walked, and each combination sums the
  table into an integer objective over the LP space's groups, read back
  over its classes.  Leaf optima are compared by cross-multiplying, and
  each space's vertices share one denominator, so the walk divides
  once, at the end;
* ``credal_bounds_single_space`` - the same bound for a one-space
  theory, where no vertex is enumerated and it is a pair of LPs;
* ``outer_bound`` - a cheap factorized relaxation: products of classwise
  probability bounds, summed over the worlds satisfying the query (upper
  end clipped to one).  Always contains the exact interval.

The point values are the product-of-masses proxy, one factor per space
(its class weights over their total).  When every space holds exactly
one alternative the theory reads as a fully independent one, and the
``icl_*`` functions are the proxy's.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product
from math import lcm, prod
from typing import Sequence

from . import lp
from .errors import CapExceededError
from .rational import format_fraction
from .theory import CCLTheory, Query
from .worlds import WorldSpace, build_world_space, class_blocks

DEFAULT_COMBO_CAP = 1_000_000

_ZERO = Fraction(0)
_ONE = Fraction(1)
_UNDEFINED = "every world has zero product weight; proxy undefined"


@dataclass(frozen=True)
class MassFunction:
    """Non-negative weights summing to one, aligned with a domain order."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        if any(v < 0 for v in self.values):
            raise ValueError("mass values must be non-negative")
        if sum(self.values, _ZERO) != _ONE:
            raise ValueError("mass values must sum to 1")


@dataclass(frozen=True)
class IntervalResult:
    """A closed probability interval with the method that produced it."""

    lower: Fraction
    upper: Fraction
    method: str
    epsilon: Fraction = _ZERO

    def __post_init__(self):
        if not (_ZERO <= self.lower <= self.upper <= _ONE):
            raise ValueError(f"not a probability interval: [{self.lower}, {self.upper}]")
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")

    def to_json_dict(self) -> dict:
        return {
            "lower": format_fraction(self.lower),
            "upper": format_fraction(self.upper),
            "lower_dec": float(self.lower),
            "upper_dec": float(self.upper),
            "method": self.method,
            "epsilon": format_fraction(self.epsilon),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


@dataclass(frozen=True)
class MarginalPolytope:
    """Admissible class masses of one space, as an equality system."""

    rows: tuple[tuple[int, ...], ...]
    rhs: tuple[Fraction, ...]

    @property
    def n_classes(self) -> int:
        return len(self.rows[0])

    def contains(self, values: Sequence[Fraction]) -> bool:
        if len(values) != self.n_classes or any(v < 0 for v in values):
            return False
        return all(
            sum(c * v for c, v in zip(row, values)) == b
            for row, b in zip(self.rows, self.rhs)
        )

    def feasible_system(self) -> lp.FeasibleSystem:
        """The equality system after phase one, ready for any objective."""
        return lp.FeasibleSystem(self.rows, self.rhs)


def marginal_polytope(ws: WorldSpace, s: int) -> MarginalPolytope:
    """The equality system of the classes of space ``s``: 0/1 ``int`` rows, one per atomic choice."""
    atoms = ws.theory.spaces[s].atomic_choices
    sels = ws.selections[s]
    rows = [[0] * len(sels) for _ in atoms]
    for c, sel in enumerate(sels):
        for a in sel:
            rows[a][c] = 1
    return MarginalPolytope(((1,) * len(sels), *map(tuple, rows)), (_ONE, *map(ws.theory.mu.__getitem__, atoms)))


def enumerate_vertices(p: MarginalPolytope, *, cap: int = lp.DEFAULT_BASIS_CAP) -> list[MassFunction]:
    """All extreme points of the class-mass polytope, exact and deduplicated."""
    vertices, den = lp.vertex_numerators(p.feasible_system(), cap=cap)
    return [MassFunction(tuple(Fraction(v, den) for v in x)) for x in vertices]


class QueryGroups:
    """The query's worlds, ``hits``, as the bits of an ``int``, and each space's classes in groups (module docstring).

    Class ``j`` of space ``s`` is in group ``group_of[s][j]``, and ``offsets[s][g]`` is group ``g``'s first
    class's shift onto class 0, ``j * stride`` (:func:`~credalchoice.worlds.class_blocks`).
    """

    def __init__(self, ws: WorldSpace, q: Query):
        q.check_against(ws.theory)
        index = ws.theory.ground_program.index
        self.hits = (1 << ws.n_worlds) - 1
        for lit in q.literals:
            column = ws.columns[index[lit.atom]]
            self.hits &= column if lit.positive else ~column
        self.group_of, self.offsets, sizes = [], [], [len(sels) for sels in ws.selections]
        for size, (stride, block) in zip(sizes, class_blocks(ws.n_worlds, sizes)):
            keys: dict[int, int] = {}  # the query's bits over a class's worlds, shifted onto class 0's: its group
            self.group_of.append([keys.setdefault(self.hits >> j * stride & block, len(keys)) for j in range(size)])
            self.offsets.append([self.group_of[-1].index(g) * stride for g in range(len(keys))])

    def table(self, order: Sequence[int]) -> list[int]:
        """The query's 0/1 value at each profile of group representatives, ``order[0]`` the most significant space."""
        return [self.hits >> sum(p) & 1 for p in product(*(self.offsets[s] for s in order))]

    def sums(self, s: int, nums: Sequence[int]) -> list[int]:
        """Per group of space ``s``, the sum of its classes' ``nums``."""
        out = [0] * len(self.offsets[s])
        for g, x in zip(self.group_of[s], nums):
            out[g] += x
        return out


def _proxy_factors(ws: WorldSpace) -> list[tuple[Fraction, ...] | None]:
    """Per space, its class weights over their total, or ``None`` when the total is 0.

    A class weight is the product of its selected masses; an atom
    selected by several overlapping alternatives counts once.
    """
    mu, out = ws.theory.mu, []
    for sp, sels in zip(ws.theory.spaces, ws.selections):
        raw = [prod((mu[sp.atomic_choices[a]] for a in set(sel)), start=_ONE) for sel in sels]
        total = sum(raw, _ZERO)
        out.append(MassFunction(tuple(v / total for v in raw)).values if total else None)
    return out


def _sum_out(table: list[int], nums: Sequence[int]) -> list[int]:
    """Sum the most significant space out of ``table``, the ``j``-th of its ``len(nums)`` equal slices weighted by ``nums[j]``, skipping a zero weight."""
    size = len(table) // len(nums)
    out = None
    for j, w in enumerate(nums):
        if w:
            part = table[j * size:(j + 1) * size]
            out = [w * v for v in part] if out is None else [o + w * v for o, v in zip(out, part)]
    return [0] * size if out is None else out


def icl_probability(t: CCLTheory, q: Query, *, world_space: WorldSpace | None = None) -> Fraction:
    """Point-valued query probability under the independence reading.

    Requires every choice space to hold exactly one alternative whose
    masses sum to one; the probability of a world is then the product of
    its selected masses, and this is :func:`proxy_query_value`.
    """
    _require_independent(t)  # before the world space is built
    return proxy_query_value(t, q, world_space=world_space)


def _require_independent(t: CCLTheory) -> None:
    if any(len(sp.alternatives) != 1 for sp in t.spaces):
        raise ValueError("the independence reading needs every choice space to be a single alternative")
    for sp in t.spaces:  # each space's masses, non-negative and summing to one
        MassFunction(tuple(map(t.mu.__getitem__, sp.atomic_choices)))


def icl_mass_function(t: CCLTheory, *, world_space: WorldSpace | None = None) -> MassFunction:
    """The world mass function of an independence-reading theory: the proxy's, behind the precondition."""
    _require_independent(t)
    return proxy_mass_function(t, world_space=world_space)


def credal_bounds_single_space(
    t: CCLTheory, q: Query, *, world_space: WorldSpace | None = None
) -> IntervalResult:
    """Exact lower/upper query probabilities for a one-space theory.

    The strong extension with one space: a pair of LPs over the class
    masses, with no vertex enumeration.
    """
    t.require_one_space("the lp method")
    return replace(credal_bounds_strong_extension(t, q, world_space=world_space), method="lp")


def credal_bounds_strong_extension(
    t: CCLTheory,
    q: Query,
    *,
    world_space: WorldSpace | None = None,
    vertex_cap: int = lp.DEFAULT_BASIS_CAP,
    combo_cap: int = DEFAULT_COMBO_CAP,
) -> IntervalResult:
    """Exact bounds over products of per-space admissible masses, on the query's grouped table.

    The walk is described in the module docstring.  ``vertex_cap`` bounds each vertex
    enumeration, ``combo_cap`` the vertex combinations before projection.
    """
    ws = world_space or build_world_space(t)
    groups = QueryGroups(ws, q)
    k = len(t.spaces)
    if k == 0:
        return IntervalResult(Fraction(groups.hits), Fraction(groups.hits), "vertex_product")
    # every system first: a space with no coherent selection raises InfeasibleError here
    systems = [marginal_polytope(ws, i).feasible_system() for i in range(k)]
    last = max(range(k), key=lambda i: (len(ws.selections[i]), len(groups.offsets[i]), i))
    walked = [i for i in range(k) if i != last]
    table = groups.table([*walked, last])  # the LP space the least significant digit

    vertex_sets = [lp.vertex_numerators(systems[i], cap=vertex_cap) for i in walked]
    combos = prod(len(vs) for vs, _ in vertex_sets)
    if combos > combo_cap:
        raise CapExceededError(f"{combos} vertex combinations, more than the cap of {combo_cap}")
    # each space's vertices as integer group sums over their one denominator, the repeats dropped
    scaled = [list(dict.fromkeys(tuple(groups.sums(i, v)) for v in vs)) for i, (vs, _) in zip(walked, vertex_sets)]
    den = prod(d for _, d in vertex_sets)

    lo = hi = None  # each a numerator and its denominator, compared by cross-multiplying

    def walk(depth: int, table: list[int]) -> None:
        # the table summed out against the group sums chosen for the first ``depth`` walked spaces
        nonlocal lo, hi
        if depth == len(scaled):
            low, high, d = systems[last].bound_numerators([table[g] for g in groups.group_of[last]])
            if lo is None or low * lo[1] < lo[0] * d:
                lo = (low, d)
            if hi is None or high * hi[1] > hi[0] * d:
                hi = (high, d)
            return
        for nums in scaled[depth]:
            walk(depth + 1, _sum_out(table, nums))

    walk(0, table)
    return IntervalResult(Fraction(lo[0], lo[1] * den), Fraction(hi[0], hi[1] * den), "vertex_product")


def outer_bound(t: CCLTheory, q: Query, *, world_space: WorldSpace | None = None) -> IntervalResult:
    """Factorized relaxation: each space's classwise bounds, summed per group, sum it out of the query's grouped table."""
    ws = world_space or build_world_space(t)
    groups = QueryGroups(ws, q)
    lo = hi = groups.table(range(len(t.spaces)))
    den = 1
    for i in range(len(t.spaces)):
        system = marginal_polytope(ws, i).feasible_system()
        ranges = [system.bound_numerators([int(jj == j) for jj in range(system.n)]) for j in range(system.n)]
        d = lcm(*(e for *_, e in ranges))  # every class's range over one denominator
        lo = _sum_out(lo, groups.sums(i, [r[0] * (d // r[2]) for r in ranges]))
        hi = _sum_out(hi, groups.sums(i, [r[1] * (d // r[2]) for r in ranges]))
        den *= d
    # every space is summed out: each table holds one entry
    return IntervalResult(Fraction(lo[0], den), min(Fraction(hi[0], den), _ONE), "outer_bound")


# ---------------------------------------------------------------------------
# The independence-style point proxy for general theories.


def proxy_mass_function(t: CCLTheory, *, world_space: WorldSpace | None = None) -> MassFunction:
    """Product-of-masses weights over the worlds, renormalized: the spaces' factors multiplied out in world order.

    With pairwise-disjoint alternatives in every space the raw weights
    already sum to one and the proxy is a genuine member of the credal
    set; with overlapping alternatives it is only a heuristic reference
    point (use :func:`proxy_in_credal_set` to check membership).
    """
    out = [_ONE]
    for f in _proxy_factors(world_space or build_world_space(t)):
        if f is None:
            raise ValueError(_UNDEFINED)
        out = [v * w for v in out for w in f]
    return MassFunction(tuple(out))


def proxy_query_value(t: CCLTheory, q: Query, *, world_space: WorldSpace | None = None) -> Fraction:
    """The proxy's query mass: each factor's integer numerators, summed per group, sum its space out of the query's grouped table."""
    ws = world_space or build_world_space(t)
    groups = QueryGroups(ws, q)
    table, den = groups.table(range(len(ws.selections))), 1
    for i, f in enumerate(_proxy_factors(ws)):
        if f is None:
            raise ValueError(_UNDEFINED)
        d = lcm(*(v.denominator for v in f))
        table, den = _sum_out(table, groups.sums(i, [v.numerator * (d // v.denominator) for v in f])), den * d
    return Fraction(table[0], den)


def proxy_in_credal_set(t: CCLTheory, *, world_space: WorldSpace | None = None) -> bool:
    """Does the proxy factor into admissible per-space class masses?

    The proxy always factorizes across spaces, so membership reduces to
    each factor satisfying its own marginal constraints.
    """
    ws = world_space or build_world_space(t)
    return all(f is not None and marginal_polytope(ws, i).contains(f) for i, f in enumerate(_proxy_factors(ws)))
