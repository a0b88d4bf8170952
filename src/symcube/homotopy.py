"""Lifting problems, cap filling, and interval homotopies.

The cylinder on X is the convolution X (x) cube^n with its two endpoint
inclusions; a homotopy is a map off the cylinder restricting to its source
and target on the ends.  Cap inclusions are transported from the classical
site along the symmetrization, so fibrancy questions are always posed
against the symmetric cube.  Every search is exhaustive over a finite hom
set in a fixed order, so a None answer is a refutation at the stored
truncation, not a timeout.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .monoidal import (
    ConvolutionResult,
    _class_map,
    convolve,
    symmetrize_comparison,
    symmetrize_structure,
)
from .presheaf import (
    PresheafMap,
    SkeletalPresheaf,
    cap,
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
    endpoint,
    identity,
    tensor,
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

    A filler is a map B -> X making both triangles commute.
    """

    left: PresheafMap
    right: PresheafMap
    top: PresheafMap
    bottom: PresheafMap

    def commutes(self) -> bool:
        for n, row in self.top.mapping.items():
            if n not in self.left.mapping:
                return False
            for a, x in row.items():
                lower = self.bottom.mapping[n][self.left.mapping[n][a]]
                if self.right.mapping[n][x] != lower:
                    return False
        return True


def _fills(p: LiftingProblem, w: PresheafMap) -> bool:
    for n, row in p.top.mapping.items():
        for a, x in row.items():
            if w.mapping[n][p.left.mapping[n][a]] != x:
                return False
    for n, row in p.bottom.mapping.items():
        if n not in p.right.mapping:
            return False
        for b, y in row.items():
            if p.right.mapping[n][w.mapping[n][b]] != y:
                return False
    return True


def solve_lifting(p: LiftingProblem, limit: int | None = None):
    """The first filler in the canonical order, or None after exhausting
    every map from the lower-left corner to the upper-right one."""
    if not p.commutes():
        raise InputError("lifting square does not commute")
    for w in hom_presheaf(p.left.dst, p.right.src, limit):
        if _fills(p, w):
            assert w.verify_natural()
            return w
    return None


# -- cap filling and fibrancy ------------------------------------------------


def cap_inclusion(
    n: int, j: int, eps: int, limit: int | None = None
) -> tuple[SkeletalPresheaf, PresheafMap]:
    """The symmetrized open box missing the (j, eps) face, included in the
    symmetric n-cube.  The classical cap is built first and transported,
    then compared into the representable along arrow composition."""
    cap_q, _ = cap(n, j, eps, SiteTag.Q)
    s = symmetrize_structure(cap_q, limit)
    incl = symmetrize_comparison(s, representable(n, SiteTag.QSIGMA))
    assert incl.is_injective()
    return s.product, incl


def _extends(v: PresheafMap, incl: PresheafMap, u: PresheafMap) -> bool:
    return all(
        v.mapping[k][incl.mapping[k][c]] == val
        for k, row in u.mapping.items()
        for c, val in row.items()
    )


def is_fibrant(X: SkeletalPresheaf, up_to_n: int, limit: int | None = None) -> Report:
    """For each cap shape with n <= up_to_n, whether every map from the
    symmetrized cap into X extends over the full cube.  One report line
    per shape, with the map count and how many failed to extend."""
    if X.site is not SiteTag.QSIGMA:
        raise InputError("fibrancy is a symmetric-site question")
    if up_to_n < 0:
        raise InputError("negative dimension bound")
    rep = Report(f"cap filling in {X.name} through dimension {up_to_n}")
    for n in range(1, up_to_n + 1):
        cube = representable(n, SiteTag.QSIGMA)
        extensions = hom_presheaf(cube, X, limit)
        for j in range(1, n + 1):
            for eps in (0, 1):
                box, incl = cap_inclusion(n, j, eps, limit)
                stuck = 0
                horns = hom_presheaf(box, X, limit)
                for u in horns:
                    if not any(_extends(v, incl, u) for v in extensions):
                        stuck += 1
                rep.check(
                    f"cap ({n},{j},{eps})",
                    stuck == 0,
                    f"{len(horns)} maps, {stuck} without extension",
                )
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
        return _restricts(self.h, self.start, self.source) and _restricts(
            self.h, self.end, self.target
        )


def _restricts(h: PresheafMap, e: PresheafMap, f: PresheafMap) -> bool:
    return all(
        h.mapping[k][e.mapping[k][x]] == f.mapping[k][x]
        for k, row in e.mapping.items()
        for x in row
    )


def cylinder(
    X: SkeletalPresheaf, n: int, limit: int | None = None
) -> tuple[ConvolutionResult, PresheafMap, PresheafMap]:
    """X (x) cube^n with the endpoint inclusions at the {0} and {1}
    vertices of the cube factor."""
    if n < 0:
        raise InputError("negative cylinder dimension")
    cr = convolve(X, representable(n, SiteTag.QSIGMA), limit)

    def end_map(eps: int) -> PresheafMap:
        vtx = str(endpoint(eps, n))
        mapping = {
            k: {
                x: cr.class_of[(str(identity(k)), k, x, 0, vtx)]
                for x in X.level(k)
            }
            for k in range(X.N + 1)
        }
        return PresheafMap(X, cr.product, mapping)

    return cr, end_map(0), end_map(1)


def find_homotopy(
    f: PresheafMap, g: PresheafMap, n: int = 1, limit: int | None = None
):
    """The first map off the n-cylinder restricting to f and g on the two
    ends, or None once every candidate is ruled out."""
    if not (f.src is g.src or f.src.same_data(g.src)):
        raise InputError("homotopy endpoints have different sources")
    if not (f.dst is g.dst or f.dst.same_data(g.dst)):
        raise InputError("homotopy endpoints have different targets")
    cr, e0, e1 = cylinder(f.src, n, limit)
    for h in hom_presheaf(cr.product, f.dst, limit):
        if _restricts(h, e0, f) and _restricts(h, e1, g):
            return Homotopy(n, h, f, g, e0, e1)
    return None


def projection_homotopy(
    f: PresheafMap, n: int = 1, limit: int | None = None
) -> Homotopy:
    """The constant homotopy from f to itself: collapse the cube factor
    with the projection, then apply f."""
    cr, e0, e1 = cylinder(f.src, n, limit)
    ye = f.dst.extend_to(cr.product.N)

    def value(key):
        fs, i, x, j, _ = key
        drop = tensor(identity(i), constant([], j))
        return ye.act(compose(drop, cr.arrows[fs]), f.mapping[i][x])

    h = _class_map(cr, ye, value)
    out = Homotopy(n, h, f, f, e0, e1)
    assert out.verify()
    return out


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
