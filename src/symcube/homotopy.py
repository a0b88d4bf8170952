"""Lifting problems, cap filling, and interval homotopies.

The cylinder on X is the convolution X (x) cube^n with its two endpoint
inclusions; a homotopy is a map off the cylinder restricting to its source
and target on the ends.  A cap is the restriction of the cube to the
arrows through a face other than the missing one, on either site, and
fibrancy questions are posed against the caps of the symmetric cube.
Every search is exhaustive over the maps of a finite hom set that take
the values the question prescribes, in a fixed order, so a None answer
is a refutation at the stored truncation, not a timeout.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .monoidal import ConvolutionResult, convolve
from .presheaf import (
    PresheafMap,
    SkeletalPresheaf,
    _join,
    extend_map,
    hom_presheaf,
    representable,
)
from .report import Report
from .site import (
    Conj,
    Const,
    Morphism,
    SiteTag,
    compose,
    constant,
    delta,
    endpoint,
    identity,
)


# -- lifting problems --------------------------------------------------------


@dataclass
class LiftingProblem:
    """A commuting square: top o left-source, bottom o left, joined by right.

        A --top--> X
        |          |
      left       right
        |          |
        v          v
        B -bottom> Y

    A filler is a map B -> X making both triangles commute.  The four
    maps are brought to the largest truncation among their ends, since a
    square commutes only where all four are stored.
    """

    left: PresheafMap
    right: PresheafMap
    top: PresheafMap
    bottom: PresheafMap

    def __post_init__(self):
        maps = (self.left, self.right, self.top, self.bottom)
        N = max(X.N for u in maps for X in (u.src, u.dst))
        self.left, self.right, self.top, self.bottom = (
            extend_map(u, N) for u in maps
        )

    def commutes(self) -> bool:
        return self.top.then(self.right).mapping == self.left.then(self.bottom).mapping


def solve_lifting(p: LiftingProblem):
    """The first filler in the canonical order, or None after exhausting
    every map from the lower-left corner to the upper-right one that
    agrees with the top along left."""
    if not p.commutes():
        raise InputError("lifting square does not commute")
    fillers = hom_presheaf(p.left.dst, p.right.src, [(p.left, p.top)])
    return next(
        (w for w in fillers if w.then(p.right).mapping == p.bottom.mapping), None
    )


# -- cap filling and fibrancy ------------------------------------------------


def _cap_maps(Y: SkeletalPresheaf, n: int, j: int, eps: int) -> int:
    """The number of maps off cap(n, j, eps) into Y: tuples of level n-1
    sections y_(i,e), one per face, where faces (i,e), (i',e') with i < i'
    agree on their codimension-2 meet, delta(i'-1,e',n-2)* y_(i,e) =
    delta(i,e,n-2)* y_(i',e').  Faces are monos, and an arrow through two
    faces factors through their meet, so each tuple is one map.  The faces
    are the cells of a _join that only counts, the one opposite the missing
    face first, each other face checked on its meets with the earlier ones
    and so drawing from the inverse index of its meet with the first."""
    faces = [(j, 1 - eps)] + [(i, e) for i in range(1, n + 1) if i != j for e in (0, 1)]
    meet = {(a, b): Y.table(delta(b[0] - (b[0] > a[0]), b[1], n - 2))  # y_a to a ^ b
            for a in faces for b in faces if a[0] != b[0]}
    cells = [(Y.level(n - 1),
              [(meet[a, b], meet[b, a], k) for k, b in enumerate(faces[:m]) if b[0] != a[0]],
              ())
             for m, a in enumerate(faces)]
    found = []  # the join's one reused tuple, appended once per map
    _join(cells, found.append, f"candidate values for maps cap{n}_{j}_{eps} -> {Y.name}")
    return len(found)


def is_fibrant(X: SkeletalPresheaf, up_to_n: int) -> Report:
    """For each cap shape with n <= up_to_n, whether every map from the
    symmetric cap into X extends over the full symmetric cube.  One
    report line per shape, with the map count (_cap_maps) and how many
    failed to extend.  By Yoneda a map off the n-cube is a section y at
    level n, restricting to the map off the cap with value d*y on each
    face d of the cap, and a map off the cap is fixed by those values."""
    if X.site is not SiteTag.QSIGMA:
        raise InputError("fibrancy is a symmetric-site question")
    if up_to_n < 0:
        raise InputError("negative dimension bound")
    rep = Report(f"cap filling in {X.name} through dimension {up_to_n}")
    for n in range(1, up_to_n + 1):
        Y = X.extend_to(n)
        for j in range(1, n + 1):
            for eps in (0, 1):
                horns = _cap_maps(Y, n, j, eps)
                faces = [Y.table(delta(i, e, n - 1))
                         for i in range(1, n + 1) for e in (0, 1) if (i, e) != (j, eps)]
                stuck = horns - len({tuple(d[y] for d in faces) for y in Y.level(n)})
                rep.check(f"cap ({n},{j},{eps})", stuck == 0,
                          f"{horns} maps, {stuck} without extension")
    return rep


# -- homotopies --------------------------------------------------------------


@dataclass
class Homotopy:
    """A map h off the n-cylinder of the common source, together with the
    two endpoint inclusions it is checked against."""

    n: int
    h: PresheafMap
    source: PresheafMap
    target: PresheafMap
    start: PresheafMap
    end: PresheafMap

    def verify(self) -> bool:
        return (
            self.start.then(self.h).mapping == self.source.mapping
            and self.end.then(self.h).mapping == self.target.mapping
        )


def cylinder(X: SkeletalPresheaf,
             n: int) -> tuple[ConvolutionResult, PresheafMap, PresheafMap]:
    """X (x) cube^n with the endpoint inclusions at the {0} and {1}
    vertices of the cube factor."""
    if n < 0:
        raise InputError("negative cylinder dimension")
    cr = convolve(X, representable(n, SiteTag.QSIGMA))

    def end_map(eps: int) -> PresheafMap:
        vtx = str(endpoint(eps, n))
        mapping = {
            k: {
                x: cr.class_of((identity(k), k, x, 0, vtx))
                for x in X.level(k)
            }
            for k in range(X.N + 1)
        }
        return PresheafMap(X, cr.product, mapping)

    return cr, end_map(0), end_map(1)


def find_homotopy(f: PresheafMap, g: PresheafMap, n: int = 1):
    """The first map off the n-cylinder restricting to f and g on the two
    ends, or None once every candidate is ruled out."""
    if not (f.src is g.src or f.src.same_data(g.src)):
        raise InputError("homotopy endpoints have different sources")
    if not (f.dst is g.dst or f.dst.same_data(g.dst)):
        raise InputError("homotopy endpoints have different targets")
    cr, e0, e1 = cylinder(f.src, n)
    hs = hom_presheaf(cr.product, f.dst, [(e0, f), (e1, g)])
    return Homotopy(n, hs[0], f, g, e0, e1) if hs else None


# -- the contracting conjunction ---------------------------------------------


def contraction_H(n: int) -> tuple[Morphism, Report]:
    """The pairwise conjunction (x_1 ^ x_{n+1}, ..., x_n ^ x_{2n}) viewed
    as a contraction of the n-cube: at the zero end of the second block it
    collapses to the zero vertex, at the one end it is the identity.  Both
    identities are checked as exact equalities of morphisms."""
    if n < 1:
        raise InputError("contraction needs a positive dimension")
    h = Morphism(2 * n, n, [Conj((i, n + i)) for i in range(1, n + 1)])
    rep = Report(f"contraction of the {n}-cube")
    first = [Conj((i,)) for i in range(1, n + 1)]
    at0 = Morphism(n, 2 * n, first + [Const(0)] * n)
    at1 = Morphism(n, 2 * n, first + [Const(1)] * n)
    rep.check(
        "zero end collapses to the zero vertex",
        compose(h, at0) == constant([0] * n, n),
        str(compose(h, at0)),
    )
    rep.check(
        "one end is the identity",
        compose(h, at1) == identity(n),
        str(compose(h, at1)),
    )
    return h, rep
