"""Interval-valued query probabilities, computed exactly.

For each choice space the admissible mass assignments over its classes
form a polytope: non-negative weights that sum to one and whose totals
over the classes containing each atomic choice equal that atom's mass.

A query is read once, by :class:`QueryGroups`: its worlds are the AND of
its literals' world sets (complemented when negated), the bits of an
``int``, and two classes of a space are in one group when the query
holds in alike worlds of theirs, whatever the other spaces' classes.
Its mass is multilinear in the spaces' class masses and reads a space
only through its group sums.  So every bound and point value is one
fold, :meth:`QueryGroups.fold`: the query's 0/1 table, one entry per
profile of group representatives, summed out one space at a time
against integer class weights, each space's over one denominator.  The
readouts differ only in those weights:

* ``credal_bounds_strong_extension`` - exact bounds for any number of
  spaces, attained with every space but one at a vertex of its
  polytope.  The other spaces are folded against their vertices,
  keeping the space with the most classes (then groups, then the last
  declared), and each row is one ``bound_numerators`` objective of its
  ``lp.FeasibleSystem``; every row's ends meet over one lcm, so the walk
  divides once, at the end.  ``credal_bounds_single_space`` is its
  one-space case, a pair of LPs with no vertex enumeration;
* ``outer_bound`` - a cheap factorized relaxation, folded against each
  space's classwise lower, then upper, probability bounds (upper end
  clipped to one).  Always contains the exact interval.  A space with
  pairwise-disjoint alternatives reads each class's range in closed form,
  its Fréchet bounds (Fréchet 1935; Hailperin 1965); coherence couples
  overlapping alternatives, so their classes take a pair of LPs each;
* the product-of-masses proxy, folded against one factor per space (its
  class weights over their total).  When every space holds exactly one
  alternative the theory reads as a fully independent one, and the
  ``icl_*`` functions are the proxy's.

A ``world_space`` passed to a readout must have been built from its
theory; one built from another theory raises ``ValueError``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product
from math import lcm, prod
from typing import Mapping, Sequence

from . import lp
from .errors import CapExceededError, InfeasibleError
from .rational import format_fraction, numerators
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


def class_polytope(sels: Sequence[Sequence[int]], masses: Sequence[Fraction]) -> MarginalPolytope:
    """The equality system of classes given as atom-index selections: the all-ones row, then a 0/1 ``int`` row per atom, equal to its mass."""
    rows = [[0] * len(sels) for _ in masses]
    for c, sel in enumerate(sels):
        for a in sel:
            rows[a][c] = 1
    return MarginalPolytope(((1,) * len(sels), *map(tuple, rows)), (_ONE, *masses))


def marginal_polytope(ws: WorldSpace, s: int) -> MarginalPolytope:
    """The :func:`class_polytope` of space ``s``'s classes, one row per atomic choice."""
    return class_polytope(ws.selections[s], [ws.theory.mu[a] for a in ws.theory.spaces[s].atomic_choices])


def enumerate_vertices(p: MarginalPolytope, *, cap: int = lp.DEFAULT_BASIS_CAP) -> list[MassFunction]:
    """All extreme points of the class-mass polytope, exact and deduplicated."""
    vertices, den = lp.vertex_numerators(p.feasible_system(), cap=cap)
    return [MassFunction(tuple(Fraction(v, den) for v in x)) for x in vertices]


class QueryGroups:
    """The query's worlds, ``hits``, as the bits of an ``int``, its classes' groups and the fold (module docstring).

    Class ``j`` of space ``s`` is in group ``group_of[s][j]``, and ``offsets[s][g]`` is group ``g``'s first class's
    shift onto class 0, ``j * stride`` (:func:`~credalchoice.worlds.class_blocks`).  The grouped table holds the
    query's 0/1 value at each profile of those representatives, spaces in declared order, the last fastest.
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
        bits = bin(self.hits | 1 << ws.n_worlds)[:2:-1].encode()  # bits[i] is world i's b"0" or b"1", odd iff set
        self._table = [bits[sum(p)] & 1 for p in product(*self.offsets)]

    def fold(self, weights: Mapping[int, Sequence[Sequence[int]]], keep: int | None = None) -> list[list[int]]:
        """Sum each space ``s`` but ``keep`` out of the grouped table against each of its integer class-weight vectors
        ``weights[s]``, a repeated group sum once: per combination of the distinct sums, in product order (earlier spaces
        more significant), the row over ``keep``'s classes, or one entry when ``keep`` is ``None``."""
        tables = [self._table]
        if keep is not None:  # keep's digit moved last, so each space summed out is the most significant one left
            t, n, inner = self._table, len(self.offsets[keep]), prod(map(len, self.offsets[keep + 1:]))
            tables = [[t[o + g * inner + i] for o in range(0, len(t), n * inner) for i in range(inner) for g in range(n)]]
        for s in (s for s in range(len(self.offsets)) if s != keep):
            distinct: dict[tuple[int, ...], None] = {}
            for w in weights[s]:  # per group, the sum of its classes' weights
                sums = [0] * len(self.offsets[s])
                for g, x in zip(self.group_of[s], w):
                    sums[g] += x
                distinct[tuple(sums)] = None
            size, folded = len(tables[0]) // len(self.offsets[s]), []
            for t, nums in product(tables, distinct):
                out = [0] * size
                for j, w in enumerate(nums):
                    if w:
                        out = [o + w * v for o, v in zip(out, t[j * size:(j + 1) * size])]
                folded.append(out)
            tables = folded
        return tables if keep is None else [[t[g] for g in self.group_of[keep]] for t in tables]


def _world_space(t: CCLTheory, ws: WorldSpace | None) -> WorldSpace:
    """``t``'s world space: ``ws`` when given, which must have been built from ``t``, else built now."""
    if ws is None:
        return build_world_space(t)
    if ws.theory is not t and ws.theory != t:
        raise ValueError("the world space was built from another theory")
    return ws


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
    """Exact bounds over products of per-space admissible masses: the fold against vertices (module docstring).

    ``vertex_cap`` bounds each vertex enumeration, ``combo_cap`` the vertex combinations before projection.
    """
    ws = _world_space(t, world_space)
    groups = QueryGroups(ws, q)
    k = len(ws.selections)
    if k == 0:
        return IntervalResult(Fraction(groups.hits), Fraction(groups.hits), "vertex_product")
    # every system first: a space with no coherent selection raises InfeasibleError here
    systems = [marginal_polytope(ws, i).feasible_system() for i in range(k)]
    last = max(range(k), key=lambda i: (len(ws.selections[i]), len(groups.offsets[i]), i))
    walked = {i: lp.vertex_numerators(systems[i], cap=vertex_cap) for i in range(k) if i != last}
    combos = prod(len(vs) for vs, _ in walked.values())
    if combos > combo_cap:
        raise CapExceededError(f"{combos} vertex combinations, more than the cap of {combo_cap}")
    ends = [systems[last].bound_numerators(row) for row in groups.fold({i: vs for i, (vs, _) in walked.items()}, last)]
    d = lcm(*(e for *_, e in ends))  # every row's ends over one denominator
    den = d * prod(e for _, e in walked.values())
    low, high = min(a * (d // e) for a, _, e in ends), max(b * (d // e) for _, b, e in ends)
    return IntervalResult(Fraction(low, den), Fraction(high, den), "vertex_product")


def outer_bound(t: CCLTheory, q: Query, *, world_space: WorldSpace | None = None) -> IntervalResult:
    """Factorized relaxation: the fold against classwise bounds (module docstring).

    Disjoint alternatives fix only their marginals, so a class picking k atoms ranges over ``[max(0, Σ μ − (k−1)), min μ]``,
    both ends attained (Fréchet 1935; Hailperin 1965); phase one's ``InfeasibleError`` is raised on a negative mass or an
    alternative not summing to one.  Coherence couples overlapping alternatives, so their classes take a pair of LPs each.
    """
    ws = _world_space(t, world_space)
    groups = QueryGroups(ws, q)
    lows, highs, den = {}, {}, 1
    for i, (sp, sels) in enumerate(zip(ws.theory.spaces, ws.selections)):
        if sum(len(alt.atoms) for alt in sp.alternatives) == len(sp.atomic_choices):
            nums, d = numerators([ws.theory.mu[a] for a in sp.atomic_choices])
            num, k = dict(zip(sp.atomic_choices, nums)), len(sp.alternatives)
            if min(nums) < 0 or any(sum(map(num.__getitem__, alt.atoms)) != d for alt in sp.alternatives):
                raise InfeasibleError("no feasible point")
            ranges = [(max(0, sum(nums[a] for a in sel) - (k - 1) * d), min(nums[a] for a in sel), d) for sel in sels]
        else:
            system = marginal_polytope(ws, i).feasible_system()
            ranges = [system.bound_numerators([int(jj == j) for jj in range(system.n)]) for j in range(system.n)]
        d = lcm(*(e for *_, e in ranges))  # every class's range over one denominator
        lows[i], highs[i] = [[a * (d // e) for a, _, e in ranges]], [[b * (d // e) for _, b, e in ranges]]
        den *= d
    [[lo]], [[hi]] = groups.fold(lows), groups.fold(highs)
    return IntervalResult(Fraction(lo, den), min(Fraction(hi, den), _ONE), "outer_bound")


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
    for f in _proxy_factors(_world_space(t, world_space)):
        if f is None:
            raise ValueError(_UNDEFINED)
        out = [v * w for v in out for w in f]
    return MassFunction(tuple(out))


def proxy_query_value(t: CCLTheory, q: Query, *, world_space: WorldSpace | None = None) -> Fraction:
    """The proxy's query mass: the fold against its factors (module docstring)."""
    ws = _world_space(t, world_space)
    groups, factors = QueryGroups(ws, q), _proxy_factors(ws)
    if None in factors:
        raise ValueError(_UNDEFINED)
    scaled = [numerators(f) for f in factors]
    [[value]] = groups.fold({i: [nums] for i, (nums, _) in enumerate(scaled)})
    return Fraction(value, prod(d for _, d in scaled))


def proxy_in_credal_set(t: CCLTheory, *, world_space: WorldSpace | None = None) -> bool:
    """Does the proxy factor into admissible per-space class masses?

    The proxy always factorizes across spaces, so membership reduces to
    each factor satisfying its own marginal constraints.
    """
    ws = _world_space(t, world_space)
    return all(f is not None and marginal_polytope(ws, i).contains(f) for i, f in enumerate(_proxy_factors(ws)))
