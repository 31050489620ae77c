"""Seeded input generators for the benchmark workloads.

Each generator is a pure function of an integer seed and returns text in
one of the package's own input formats: a rankings file or a ``.ccl``
theory file.  They use only the standard library and never call the
package, so the inputs cannot change when the code under test changes.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product

def rankings_text(seed: int, *, n: int = 4, count: int = 50, phi: float = 0.6) -> str:
    """``count`` Mallows-style rankings of ``n`` objects around a hidden order.

    Rankings are drawn by repeated insertion: the ``i``-th object of the
    hidden order goes to slot ``j <= i`` with weight ``phi ** (i - j)``.
    A small ``phi`` gives determinate verdicts; ``phi = 1`` is uniform noise
    and gives indeterminate ones.
    """
    rng = random.Random(seed)
    hidden = [f"o{i}" for i in range(n)]
    rng.shuffle(hidden)
    counts: dict[tuple[str, ...], int] = {}
    for _ in range(count):
        ranking: list[str] = []
        for i, obj in enumerate(hidden):
            slot = rng.choices(range(i + 1), [phi ** (i - j) for j in range(i + 1)])[0]
            ranking.insert(slot, obj)
        key = tuple(ranking)
        counts[key] = counts.get(key, 0) + 1
    lines = [f"% seed {seed}, n={n}, N={count}, phi={phi}"]
    lines += [f"{','.join(r)} x{k}" for r, k in counts.items()]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Shared pieces of the theory generators.


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _random_rules(rng, choice_atoms, n_derived, *, neg=0.35):
    """Acyclic rules: ``d<i>`` depends on choice atoms and on ``d<j>``, j < i."""
    rules: list[tuple[str, list[tuple[str, bool]]]] = []
    derived: list[str] = []
    for i in range(n_derived):
        head = f"d{i}"
        for _ in range(rng.choice((1, 2))):
            pool = choice_atoms + derived
            body_atoms = rng.sample(pool, rng.choice((2, 3)))
            # lean on derived atoms so the program has depth
            if derived and rng.random() < 0.6:
                body_atoms[0] = rng.choice(derived[-4:])
            body = [(a, rng.random() >= neg) for a in dict.fromkeys(body_atoms)]
            rules.append((head, body))
        derived.append(head)
    return rules, derived


def _rule_text(head, body) -> str:
    lits = ", ".join(a if pos else f"\\+ {a}" for a, pos in body)
    return f"{head} :- {lits}."


def _true_atoms(rules, facts: set[str]) -> set[str]:
    """Stable model of the generated program: rules are in dependency order."""
    true = set(facts)
    for head, body in rules:
        if head not in true and all((a in true) == pos for a, pos in body):
            true.add(head)
    return true


# ---------------------------------------------------------------------------
# Multi-space theories: every space has a 2-atom and a 3-atom alternative.


def _section_vertex_count(a: Fraction, b: tuple[Fraction, ...]) -> int:
    """Vertices of the space's class-mass polytope (a 2 x 3 transportation
    polytope), counted as the vertices of ``{t in box(b) : sum(t) = a}``."""
    points = set()
    for free in range(3):
        fixed = [j for j in range(3) if j != free]
        for ups in product((False, True), repeat=2):
            t = [Fraction(0)] * 3
            for j, up in zip(fixed, ups):
                t[j] = b[j] if up else Fraction(0)
            t[free] = a - t[fixed[0]] - t[fixed[1]]
            if 0 <= t[free] <= b[free]:
                points.add(tuple(t))
    return len(points)


def _space_masses(rng, denominator: int, vertices: int):
    """Masses whose polytope is non-degenerate with exactly ``vertices`` vertices.

    Fixing the vertex count fixes the number of vertex combinations the
    strong extension walks, so per-theory work is comparable across seeds.
    """
    while True:
        a = Fraction(rng.randrange(1, denominator), denominator)
        cuts = sorted(rng.sample(range(1, denominator), 2))
        b = tuple(
            Fraction(x, denominator)
            for x in (cuts[0], cuts[1] - cuts[0], denominator - cuts[1])
        )
        if a in {sum(c) for k in (1, 2) for c in combinations(b, k)}:
            continue  # degenerate: the section passes through a box corner
        if _section_vertex_count(a, b) == vertices:
            return a, b


def multi_space_ccl(
    seed: int,
    *,
    spaces: int = 4,
    derived: int = 20,
    vertices: int = 4,
    denominator: int = 20,
    samples: int = 256,
) -> str:
    """A ``spaces``-space theory with ``6 ** spaces`` worlds.

    Space ``s`` holds alternatives ``{s<s>a0, s<s>a1}`` and
    ``{s<s>b0, s<s>b1, s<s>b2}``.  The program is redrawn until a derived
    atom holds in 45-55% of ``samples`` sampled worlds, and the one closest
    to half becomes the query: the interval is wide, and the number of
    satisfying worlds, which sets the work per query, is similar from seed
    to seed.
    """
    rng = random.Random(seed)
    lines = [f"% seed {seed}: {spaces} spaces, {derived} derived atoms"]
    alts: list[list[str]] = []
    body: list[str] = []
    for s in range(spaces):
        a, b = _space_masses(rng, denominator, vertices)
        first = [f"s{s}a0", f"s{s}a1"]
        second = [f"s{s}b0", f"s{s}b1", f"s{s}b2"]
        alts += [first, second]
        body.append("choicespace {")
        body.append("  alternative { " + ", ".join(
            f"{x}: {_frac(p)}" for x, p in zip(first, (a, 1 - a))) + " }")
        body.append("  alternative { " + ", ".join(
            f"{x}: {_frac(p)}" for x, p in zip(second, b)) + " }")
        body.append("}")
    choice_atoms = [x for alt in alts for x in alt]
    while True:
        rules, derived_atoms = _random_rules(rng, choice_atoms, derived)
        shares = dict.fromkeys(derived_atoms, 0)
        for _ in range(samples):
            model = _true_atoms(rules, {rng.choice(alt) for alt in alts})
            for d in derived_atoms:
                shares[d] += d in model
        goal = min(derived_atoms[derived // 2:], key=lambda d: (abs(2 * shares[d] - samples), d))
        if abs(2 * shares[goal] - samples) <= samples // 10:
            break

    lines += [_rule_text(h, bd) for h, bd in rules]
    lines += body
    lines.append(f"query {goal}.")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# One-space theories with overlapping alternatives, for the PSAT reduction.


def _coherent_selections(alts: list[list[str]]) -> list[tuple[str, ...]]:
    """Selections picking one atom per alternative; a picked atom that also
    belongs to another alternative must be that alternative's pick too."""
    out = []
    for sel in product(*alts):
        if all(sel[j] == x for i, x in enumerate(sel) for j, alt in enumerate(alts) if x in alt):
            out.append(sel)
    return out


def one_space_ccl(
    seed: int, *, worlds: int = 24, atoms: int = 9, derived: int = 7, weight: int = 72
) -> str:
    """One space of 3-4 alternatives with 2-4 atoms each, some shared.

    The alternatives are redrawn until they have exactly ``atoms`` atoms and
    ``worlds`` coherent selections, which fixes the size of each PSAT probe:
    the models it enumerates and the rows of its linear program.
    Masses are the marginals of a random full-support distribution over the
    selections with denominator ``weight``, so the credal set is never empty.

    ``derived`` counts the derived atoms, ``w`` and ``goal`` included.  The
    query ``goal`` holds when atom ``x`` is chosen, fails when atom ``y`` of
    the same alternative is chosen, and otherwise follows ``w :- u, v`` over
    two other alternatives.  Its interval therefore lies strictly inside
    (0, 1), is wide whenever the joint of those alternatives is free, and
    bisection probes both sides.
    """
    rng = random.Random(seed)
    while True:
        alts = _overlapping_alternatives(rng)
        choice_atoms = list(dict.fromkeys(a for alt in alts for a in alt))
        selections = _coherent_selections(alts)
        if len(choice_atoms) != atoms or len(selections) != worlds:
            continue
        home = rng.choice(alts)
        alt_u, alt_v = rng.sample([alt for alt in alts if alt is not home], 2)
        us = [a for a in alt_u if a not in home]
        vs = [a for a in alt_v if a not in home and a not in alt_u]
        if len(home) >= 3 and us and vs:
            break
    x, y = rng.sample(home, 2)
    u, v = rng.choice(us), rng.choice(vs)

    cuts = sorted(rng.sample(range(1, weight), len(selections) - 1))
    weights = [b - a for a, b in zip([0] + cuts, cuts + [weight])]
    mass: dict[str, Fraction] = {}
    for sel, w in zip(selections, weights):
        for a in dict.fromkeys(sel):
            mass[a] = mass.get(a, Fraction(0)) + Fraction(w, weight)

    rules, _ = _random_rules(rng, choice_atoms, derived - 2)
    rules.append(("w", [(u, True), (v, True)]))
    rules.append(("goal", [(x, True)]))
    rules.append(("goal", [("w", True), (y, False)]))

    lines = [f"% seed {seed}: one space, {len(alts)} alternatives, {len(selections)} worlds"]
    lines += [_rule_text(h, bd) for h, bd in rules]
    lines.append("choicespace {")
    for alt in alts:
        lines.append("  alternative { " + ", ".join(f"{a}: {_frac(mass[a])}" for a in alt) + " }")
    lines.append("}")
    lines.append("query goal.")
    return "\n".join(lines) + "\n"


def _overlapping_alternatives(rng) -> list[list[str]]:
    """3-4 alternatives of 2-4 atoms; some take over one atom of an earlier one."""
    alts: list[list[str]] = []
    shared: set[str] = set()
    fresh = 0
    for i in range(rng.choice((3, 4))):
        alt: list[str] = []
        if i and rng.random() < 0.5:
            a = rng.choice([a for prev in alts for a in prev if a not in shared])
            shared.add(a)
            alt.append(a)
        size = rng.choice((2, 3, 4))
        while len(alt) < size:
            alt.append(f"c{fresh}")
            fresh += 1
        rng.shuffle(alt)
        alts.append(alt)
    return alts
