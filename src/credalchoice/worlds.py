"""Possible worlds of a theory and their grouping into classes.

A partial choice picks one atom from every alternative of a single
choice space, coherently: when the picked atom of one alternative also
belongs to another alternative of the same space, that other alternative
must pick the very same atom.  A total choice combines one partial
choice per space; its image, asserted as facts, determines a world (the
stable model of the program).

Worlds are enumerated in a canonical order: alternatives in declaration
order, atoms inside an alternative in declaration order, spaces in
declaration order.  Re-running the enumeration therefore reproduces
identical indices, which the textual world tables rely on.

A space's coherent selections are built level by level, one alternative
at a time, so no space recurses; the world cap bounds every level.  The
worlds are the product of the spaces' coherent selections, laid out
by :func:`class_blocks`.  A world space keeps each selection as atom
indices and, per atom, a column: the set of worlds holding the atom, as
the bits of an ``int``.  So every world is evaluated in one bit-sliced
pass, a query is an AND of columns, and profiles, classes and worlds are
decoded only when first read.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import log10, prod
from typing import Sequence

from .errors import CapExceededError
from .logic import Atom, Interpretation
from .theory import CCLTheory, ChoiceSpace, Query

DEFAULT_WORLD_CAP = 2**20


@dataclass(frozen=True)
class PartialChoice:
    """One coherent selection for a single choice space."""

    space_index: int
    selected: tuple[Atom, ...]  # aligned with the space's alternatives
    image: frozenset[Atom]

    def __str__(self) -> str:
        return "{" + ", ".join(str(a) for a in sorted(self.image)) + "}"


@dataclass(frozen=True)
class TotalChoice:
    """One partial choice per space."""

    parts: tuple[PartialChoice, ...]

    @property
    def image(self) -> frozenset[Atom]:
        return frozenset(a for p in self.parts for a in p.image)


@dataclass(frozen=True)
class World:
    """A total choice together with the stable model it induces."""

    index: int
    choice: TotalChoice
    model: Interpretation


@dataclass(frozen=True)
class WorldClass:
    """All worlds sharing one partial choice on one space."""

    partial: PartialChoice
    world_indices: tuple[int, ...]


@dataclass(frozen=True)
class WorldSpace:
    """Every world of a theory plus, per space, its partition into classes.

    ``selections[s][j]`` is class ``j`` of space ``s``, as indices into its ``atomic_choices``; no
    class is kept when ``n_worlds`` is 0.  ``columns[a]`` is the set of worlds (bit ``i`` for world
    ``i``) whose stable model holds the atom of slot ``a`` in ``GroundProgram.index``.
    """

    theory: CCLTheory
    selections: tuple[tuple[tuple[int, ...], ...], ...]
    n_worlds: int
    columns: tuple[int, ...]

    @cached_property
    def profiles(self) -> tuple[tuple[int, ...], ...]:
        """``profiles[i]`` is world ``i``'s class profile: its class index in each space."""
        return tuple(itertools.product(*(range(len(sels)) for sels in self.selections)))

    @cached_property
    def classes_by_space(self) -> tuple[tuple[WorldClass, ...], ...]:
        """Per space, its classes in selection order: world ``i`` is in class ``profiles[i][s]`` of space ``s``."""
        n, sizes = self.n_worlds, [len(sels) for sels in self.selections]
        return tuple(
            tuple(WorldClass(pc, tuple(i for b in range(j * stride, n, stride * len(sels)) for i in range(b, b + stride)))
                  for j, pc in enumerate(_decode(space, s, sels)))
            for s, (space, sels, (stride, _)) in enumerate(zip(self.theory.spaces, self.selections, class_blocks(n, sizes)))
        )

    @cached_property
    def worlds(self) -> tuple[World, ...]:
        """The worlds as objects, decoded from the profiles and by transposing the columns on first read."""
        gp, classes = self.theory.ground_program, self.classes_by_space
        true: list[list[Atom]] = [[] for _ in self.profiles]
        for a, column in zip(gp.index, self.columns):
            for i in set_bits(column):
                true[i].append(a)
        return tuple(
            World(i, TotalChoice(tuple(c[j].partial for c, j in zip(classes, p))),
                  Interpretation(gp.herbrand_base, frozenset(m)))
            for i, (p, m) in enumerate(zip(self.profiles, true))
        )


def class_blocks(n: int, sizes: Sequence[int]) -> list[tuple[int, int]]:
    """Per space, its ``stride`` and its class 0's worlds as the bits of an ``int``, ``block``.

    The ``n`` worlds are the product of the spaces' classes, ``sizes[s]`` in space ``s``: world ``i``
    is its class profile read as a mixed-radix number, the last space fastest.  ``stride`` is the
    world count of the spaces after ``s``, and class ``j`` is ``block << j * stride``, a run of
    ``stride`` worlds in every ``sizes[s] * stride``.
    """
    out, period = [], n
    for size in sizes:
        stride = period // size if size else 0
        block, width = (1 << stride) - 1, period
        while 0 < width < n:  # the run repeated every period by doubling, so no big integer is divided
            block, width = block | block << width, 2 * width
        out.append((stride, block & (1 << n) - 1))
        period = stride
    return out


def set_bits(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, in increasing order."""
    return [i for i, b in enumerate(bin(mask)[:1:-1]) if b == "1"]


def coherent_selections(space: ChoiceSpace, space_index: int = 0, cap: int = DEFAULT_WORLD_CAP) -> list[tuple[int, ...]]:
    """All coherent selections of one space, in canonical order, as indices into ``space.atomic_choices``.

    Built level by level on one invariant, no alternative holds two picked atoms; ``cap`` bounds every level.
    """
    index = {a: i for i, a in enumerate(space.atomic_choices)}
    alts = [[index[a] for a in alt.atoms] for alt in space.alternatives]
    masks = [sum(1 << a for a in ids) for ids in alts]
    touch = [0] * len(index)  # touch[a]: the atoms of every alternative that holds a
    for ids, mask in zip(alts, masks):
        for a in ids:
            touch[a] |= mask
    level: list[tuple[tuple[int, ...], int]] = [((), 0)]  # each partial selection: its picks, its picked atoms' bits
    for ids, mask in zip(alts, masks):  # a picked atom that the alternative holds is its only candidate
        grown = ((sel + (a,), picked | 1 << a) for sel, picked in level
                 for a in ([(picked & mask).bit_length() - 1] if picked & mask else [a for a in ids if not picked & touch[a]]))
        level = list(itertools.islice(grown, cap + 1))  # a level past the cap is never built whole
        if len(level) > cap:
            raise CapExceededError(f"more than {cap} partial selections in choice space {space_index}")
    return [sel for sel, _ in level]


def coherent_partial_choices(space: ChoiceSpace, space_index: int = 0, cap: int = DEFAULT_WORLD_CAP) -> list[PartialChoice]:
    """All coherent selections of one space, in canonical order."""
    return _decode(space, space_index, coherent_selections(space, space_index, cap))


def _decode(space: ChoiceSpace, space_index: int, sels: Sequence[tuple[int, ...]]) -> list[PartialChoice]:
    """Selections given as indices into ``space.atomic_choices``, as ``PartialChoice``s."""
    picks = [tuple(map(space.atomic_choices.__getitem__, sel)) for sel in sels]
    return [PartialChoice(space_index, p, frozenset(p)) for p in picks]


def _selections_by_space(t: CCLTheory, cap: int) -> tuple[tuple[tuple[tuple[int, ...], ...], ...], int]:
    """Each space's coherent selections (none if some space has none) and the world count, checked against the cap."""
    per_space = [coherent_selections(sp, i, cap) for i, sp in enumerate(t.spaces)]
    total = prod(len(lst) for lst in per_space)
    if total > cap:  # a count of many digits by its order of magnitude
        shown = total if total < 10**12 else f"about 10^{int(log10(total))}"
        raise CapExceededError(f"theory has {shown} total choices, more than the cap of {cap}")
    return tuple(tuple(lst) if total else () for lst in per_space), total


def enumerate_total_choices(t: CCLTheory, cap: int = DEFAULT_WORLD_CAP) -> list[TotalChoice]:
    """All total choices of a theory, in canonical order."""
    per_space = map(_decode, t.spaces, itertools.count(), _selections_by_space(t, cap)[0])
    return [TotalChoice(parts) for parts in itertools.product(*per_space)]


def build_world_space(t: CCLTheory, cap: int = DEFAULT_WORLD_CAP) -> WorldSpace:
    """Every world's stable model, evaluated on all worlds at once, and the per-space selections."""
    gp = t.ground_program
    selections, n = _selections_by_space(t, cap)
    columns = [0] * len(gp.index)
    for sp, lst, (stride, block) in zip(t.spaces, selections, class_blocks(n, [len(lst) for lst in selections])):
        slots = [gp.index[a] for a in sp.atomic_choices]  # one lookup per atom, not per selection
        for j, sel in enumerate(lst):
            worlds = block << j * stride
            for a in sel:
                columns[slots[a]] |= worlds
    return WorldSpace(t, selections, n, tuple(gp.evaluate(columns, (1 << n) - 1)))


def satisfies(world: World, q: Query) -> bool:
    """True when every literal of the query holds in the world's model."""
    return all(world.model.holds(lit) for lit in q.literals)


# ---------------------------------------------------------------------------
# Debug views.


def world_table(ws: WorldSpace) -> str:
    """A truth table over the worlds, atoms as rows, worlds as columns."""
    t = ws.theory
    derived = sorted(t.herbrand_base - set(t.atomic_choices))
    rows = list(t.atomic_choices) + derived
    width = max((len(str(a)) for a in rows), default=1)
    headers = [f"w{w.index + 1}" for w in ws.worlds]
    colw = max([len(h) for h in headers] + [1])
    lines = [" " * width + "  " + " ".join(h.rjust(colw) for h in headers)]
    for a in rows:
        cells = ["t" if w.model.is_true(a) else "f" for w in ws.worlds]
        lines.append(str(a).ljust(width) + "  " + " ".join(c.rjust(colw) for c in cells))
    return "\n".join(lines)


def class_table(ws: WorldSpace) -> str:
    """Per space, each class's image and the worlds it contains."""
    lines: list[str] = []
    for si, classes in enumerate(ws.classes_by_space):
        lines.append(f"space {si + 1}:")
        for cls in classes:
            members = ", ".join(f"w{i + 1}" for i in cls.world_indices)
            lines.append(f"  {cls.partial} -> {members}")
    return "\n".join(lines)


def world_space_json(ws: WorldSpace) -> dict:
    """A JSON-friendly dump of worlds and classes."""
    return {
        "worlds": [
            {
                "index": w.index + 1,
                "image": [str(a) for a in sorted(w.choice.image)],
                "true_atoms": [str(a) for a in sorted(w.model.true_atoms)],
            }
            for w in ws.worlds
        ],
        "classes": [
            {
                "space": si + 1,
                "image": [str(a) for a in sorted(cls.partial.image)],
                "worlds": [i + 1 for i in cls.world_indices],
            }
            for si, classes in enumerate(ws.classes_by_space)
            for cls in classes
        ],
    }
