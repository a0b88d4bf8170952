"""Day convolution, pushout-products, and the symmetrization adjunction.

The products here are tagged coends, all computed by the one engine
presheaf.tagged_coend: level k is the set of members
(f, n_1, x_1, ..., n_r, x_r) with f: [k] -> [n_1 + ... + n_r] an arrow
of the chosen site and x_t a section of the t-th factor, glued by
naturality in each factor separately; site generators act by
precomposing f.  Only the reduced members, whose sections are all
nondegenerate, are numbered; class_of reduces any member before looking
it up.  By the coend's universal property the value of a comparison map
on (f, tail) is the tail's value moved by f, so each map below is read
tail by tail: one column of values, one per arrow f, against the
column of classes, and no arrow is composed per member.  Day
convolution X (x) Y is the coend of two factors over their common site,
the unbracketed triple product behind the associator is that of three.
Truncating the index ranges at the stored bounds is sound because a
stored presheaf is a colimit of representables of bounded degree.

symmetrize and restrict realize the adjunction between cubical sets
and their symmetric extensions: the left adjoint is the coend of one
plain cubical factor tagged by symmetric arrows, the right adjoint
forgets the extra actions.  The unit tags with the identity; the
counit evaluates tags.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce

from .errors import InputError
from .presheaf import (
    CoendClasses,
    PresheafMap,
    SkeletalPresheaf,
    TruncatedPresheaf,
    _constant_map,
    _postcompose_ids,
    generator_morphisms,
    inclusion_map,
    restriction,
    tagged_coend,
)
from .report import Report
from .site import (
    SiteTag,
    compose,
    enumerate_hom,
    identity,
    parse_morphism,
    symmetry,
    tensor,
)


# -- tagged coends -----------------------------------------------------------


@dataclass
class ConvolutionResult:
    """A tagged-coend product together with its coend bookkeeping.

    class_of, a read-only view over the coend's numbering, maps every
    reduced member (f, n_1, x_1, ..., n_r, x_r), f a Morphism and each
    x_t nondegenerate, to its class id, and called on any member reduces
    it first; its column reads the classes of one reduced tail under
    every arrow of a level.  reps picks the least reduced member of each
    class, which names it.  Together they realize the quotient of the
    indexed disjoint union, so callers can both include a member and
    choose a witness for a class.
    """

    product: SkeletalPresheaf
    factors: tuple
    class_of: CoendClasses
    reps: dict


def _tagged_product(factors: list, site: SiteTag, name: str) -> ConvolutionResult:
    """The coend of the factors tagged by arrows of site, truncated at
    the sum of their truncations."""
    N = sum(X.N for X in factors)
    levels, action, class_of, reps = tagged_coend(factors, site, range(N + 1))
    product = SkeletalPresheaf(site, N, levels, action, name=name)
    return ConvolutionResult(product, tuple(factors), class_of, reps)


def convolve(X: SkeletalPresheaf, Y: SkeletalPresheaf) -> ConvolutionResult:
    """Day convolution X (x) Y, truncated at N_X + N_Y."""
    if X.site is not Y.site:
        raise InputError(f"{X.name} and {Y.name} live over different sites")
    return _tagged_product([X, Y], X.site, f"{X.name}(x){Y.name}")


def _class_map(CR: ConvolutionResult, target: SkeletalPresheaf,
               column) -> PresheafMap:
    """CR.product -> target, sending the class of each reduced member
    (f, tail), f: [k] -> [n], to the entry of column(k, tail) at the
    rank of f.  SymcubeError names the first class given two values in
    column order: level, tail block, tail, arrow rank."""
    P, class_of = CR.product, CR.class_of
    values = _constant_map(
        pair for k in range(P.N + 1) for n, block in class_of.tails.items()
        for tail in block
        for pair in zip(class_of.column(identity(n), k, tail), column(k, tail)))
    mapping = {n: {cid: values[cid] for cid in P.levels[n]} for n in range(P.N + 1)}
    return PresheafMap(P, target, mapping)


def _evaluation(X: SkeletalPresheaf):
    """The column of (f, n, x, points...) -> f*x, x read in X."""
    return lambda k, tail: [X.act(f, tail[1]) for f in enumerate_hom(k, tail[0], X.site)]


def verify_convolution(CR: ConvolutionResult) -> Report:
    """Truncation bookkeeping plus well-definedness of the action on
    every reduced member (f, tail) of every class: h sends its class to
    that of (f o h, tail), f's block read once and f o h composed per
    generator h and found by rank, not by the tables the action was built
    from.  Every class has a member, so this is constancy on classes."""
    P, class_of = CR.product, CR.class_of
    report = Report(f"convolution {P.name}")
    report.check(
        "truncation adds",
        P.N == sum(X.N for X in CR.factors),
        f"{P.N} vs {'+'.join(str(X.N) for X in CR.factors)}",
    )
    ok = True
    for m in range(P.N + 1):
        into = [(h, P.action[h]) for _, h in generator_morphisms(P.site, P.N) if h.dst == m]
        for n in class_of.tails if into else ():
            for f in enumerate_hom(m, n, P.site):
                block = class_of.block(f)  # read once per arrow
                for h, table in into:
                    ok &= [table[c] for c in block] == class_of.block(compose(f, h))
    report.check("action constant on classes", ok)
    return report


def pairing_map(CR: ConvolutionResult, target: SkeletalPresheaf) -> PresheafMap:
    """The canonical comparison (f, x_1, ..., x_r) -> (x_1 (+) ... (+)
    x_r) o f into a presheaf whose sections are printed arrows (a
    representable or a subpresheaf of one), read off the printed
    postcomposites of the tail's tensor."""
    arrow, site = cache(parse_morphism), CR.product.site

    def column(k, tail):
        return _postcompose_ids(reduce(tensor, map(arrow, tail[1::2])), k, site).values()

    return _class_map(CR, target, column)


def unit_comparison(CR: ConvolutionResult) -> PresheafMap:
    """X (x) [0] -> X: evaluate the arrow component on the section."""
    X, point = CR.factors[0], CR.factors[-1]
    if point.N != 0 or len(point.levels[0]) != 1:
        raise InputError("unit comparison needs a point as right factor")
    return _class_map(CR, X, _evaluation(X))


def braiding_comparison(CR_XY: ConvolutionResult,
                        CR_YX: ConvolutionResult) -> PresheafMap:
    """X (x) Y -> Y (x) X by postcomposing with the block swap, an arrow
    of the symmetric site only; CR_YX must convolve X's and Y's data in
    the other order."""
    if CR_XY.product.site is not SiteTag.QSIGMA:
        raise InputError("the braiding swaps blocks, which needs the symmetric site")
    swapped = CR_XY.factors[::-1]
    if len(CR_YX.factors) != len(swapped) or not all(
            map(SkeletalPresheaf.same_data, CR_YX.factors, swapped)):
        raise InputError("the braiding needs the convolution of the factors swapped")

    def column(k, tail):
        i, x, j, y = tail
        return CR_YX.class_of.column(symmetry(i, j), k, (j, y, i, x))

    return _class_map(CR_XY, CR_YX.product, column)


# -- the associator ----------------------------------------------------------


def associator_comparison(X, Y, Z) -> Report:
    """Both bracketings compared with the unbracketed triple coend.

    Each comparison flattens the nested class via its representative
    and must be a natural levelwise bijection; composing one with the
    inverse of the other is the associator.
    """
    report = Report(f"associativity {X.name},{Y.name},{Z.name}")
    CR_XY = convolve(X, Y)
    CR_L = convolve(CR_XY.product, Z)
    CR_YZ = convolve(Y, Z)
    CR_R = convolve(X, CR_YZ.product)
    T3 = _tagged_product([X, Y, Z], X.site, f"{X.name}(x){Y.name}(x){Z.name}")

    def left_column(k, tail):
        _, cxy, j, z = tail
        g, i, x, m, y = CR_XY.reps[cxy]
        return T3.class_of.column(tensor(g, identity(j)), k, (i, x, m, y, j, z))

    def right_column(k, tail):
        i, x, _, cyz = tail
        g, j, y, m, z = CR_YZ.reps[cyz]
        return T3.class_of.column(tensor(identity(i), g), k, (i, x, j, y, m, z))

    left = _class_map(CR_L, T3.product, left_column)
    right = _class_map(CR_R, T3.product, right_column)
    report.check("left bracketing flattens naturally", left.verify_natural())
    report.check("left bracketing flattens bijectively", left.is_bijective())
    report.check("right bracketing flattens naturally", right.verify_natural())
    report.check("right bracketing flattens bijectively", right.is_bijective())
    return report


# -- pushout-product ---------------------------------------------------------


def pushout_product(f: PresheafMap, g: PresheafMap) -> PresheafMap:
    """The corner map (A(x)L) u_{A(x)K} (B(x)K) -> B(x)L of two monos, as
    the inclusion of its image: the classes of B(x)L holding a reduced
    member (h, i, x, j, y) with x in f(A) or y in g(K).  Reduced members
    suffice because the images are closed under the action, so they hold
    the nondegenerate part of each of their sections.  The four-coend
    route, a pushout of convolutions, is the test oracle."""
    if f.src.site is not g.src.site:
        raise InputError("pushout-product needs a common site")
    if not (f.is_injective() and g.is_injective()):
        raise InputError("pushout-product needs injective legs")
    CR = convolve(f.dst, g.dst)
    P, class_of = CR.product, CR.class_of
    in_A = {(n, x) for n, row in f.mapping.items() for x in row.values()}
    in_K = {(n, y) for n, row in g.mapping.items() for y in row.values()}
    hit = {cid for n, block in class_of.tails.items() for tail in block
           if tail[:2] in in_A or tail[2:] in in_K
           for k in P.levels for cid in class_of.column(identity(n), k, tail)}
    levels = {n: tuple(c for c in P.levels[n] if c in hit) for n in P.levels}
    corner = restriction(P, levels, f"{f.src.name}[]{g.src.name}")
    return inclusion_map(corner, P)


# -- the symmetrization adjunction -------------------------------------------


def symmetrize_structure(X: SkeletalPresheaf) -> ConvolutionResult:
    """Left Kan extension along the site inclusion, with bookkeeping.

    Level n is the set of members (g, m, x), g a symmetric arrow
    [n] -> [m] and x a stored section at m, glued by naturality over the
    plain cubical generators; the symmetric generators act by
    precomposing the arrow component.
    """
    if X.site is not SiteTag.Q:
        raise InputError(f"{X.name} is not a presheaf over the plain site")
    return _tagged_product([X], SiteTag.QSIGMA, f"i!{X.name}")


def symmetrize(X: SkeletalPresheaf) -> SkeletalPresheaf:
    """The symmetric extension of a plain cubical set."""
    return symmetrize_structure(X).product


def symmetrize_map(u: PresheafMap) -> PresheafMap:
    """Functoriality of symmetrization on a map of plain cubical sets."""
    S = symmetrize_structure(u.src)
    T = symmetrize_structure(u.dst)

    def column(k, tail):
        m, x = tail
        e, y = u.dst.ez_decompose(m, u.mapping[m][x])  # (g, m, e*y) ~ (e o g, e.dst, y)
        return T.class_of.column(e, k, (e.dst, y))

    return _class_map(S, T.product, column)


def restrict(X: SkeletalPresheaf, up_to: int) -> TruncatedPresheaf:
    """The underlying plain cubical set of a symmetric one, stored to
    the requested level (extending the input where needed)."""
    if X.site is not SiteTag.QSIGMA:
        raise InputError(f"{X.name} is not a presheaf over the symmetric site")
    Xe = X.extend_to(up_to)
    levels = {n: Xe.levels[n] for n in range(up_to + 1)}
    return restriction(Xe, levels, f"i*{X.name}", TruncatedPresheaf, SiteTag.Q)


def adjunction_unit(X: SkeletalPresheaf, up_to: int) -> PresheafMap:
    """X -> i*i_!X, tagging a section with the identity arrow."""
    if X.site is not SiteTag.Q:
        raise InputError(f"{X.name} is not a presheaf over the plain site")
    S = symmetrize_structure(X)
    dst = restrict(S.product, max(up_to, X.N))
    mapping = {
        n: {x: S.class_of((identity(n), n, x)) for x in X.levels[n]}
        for n in range(X.N + 1)
    }
    return PresheafMap(X, dst, mapping)


def adjunction_counit(Y: SkeletalPresheaf, up_to: int) -> PresheafMap:
    """i_!i*Y -> Y, evaluating the tagged arrow on the section."""
    if Y.site is not SiteTag.QSIGMA:
        raise InputError(f"{Y.name} is not a presheaf over the symmetric site")
    S = symmetrize_structure(restrict(Y, up_to))
    Ye = Y.extend_to(up_to)
    return _class_map(S, Ye, _evaluation(Ye))


def verify_triangle_identities(Y: SkeletalPresheaf, up_to: int) -> Report:
    """Both adjunction triangles, checked levelwise up to the bound.

    The first composes the unit of the restriction with the counit and
    must be the identity on i*Y.  The second lifts the unit through
    symmetrization and composes with the counit of the extension,
    giving the identity on i_!(i*Y).
    """
    report = Report(f"triangles for {Y.name} at {up_to}")
    R = restrict(Y, up_to)
    eta = adjunction_unit(R, up_to)
    eps = adjunction_counit(Y, up_to)
    ok = all(
        eps.mapping[n][eta.mapping[n][x]] == x
        for n in range(up_to + 1)
        for x in R.levels[n]
    )
    report.check("counit after unit is the identity on the restriction", ok)

    lifted = symmetrize_map(eta)
    eps2 = adjunction_counit(lifted.src, up_to)
    report.check(
        "both triangle legs meet in the same object",
        lifted.dst.same_data(eps2.src),
    )
    ok2 = all(
        eps2.mapping[n][lifted.mapping[n][c]] == c
        for n in range(up_to + 1)
        for c in lifted.src.levels[n]
    )
    report.check("counit after lifted unit is the identity on the extension",
                 ok2)
    return report


def monoidality_comparison(X: SkeletalPresheaf, Y: SkeletalPresheaf) -> PresheafMap:
    """i_!(X (x) Y) -> i_!X (x) i_!Y, the strong monoidality witness.

    A tagged convolution class flattens by composing its arrow
    components; the factors are tagged with identities.  i_! keeps the
    skeletal pushouts, so (id, x), the top cell of a nondegenerate x in
    i_!X, is nondegenerate and the columns read reduced tails.
    """
    CQ = convolve(X, Y)
    L = symmetrize_structure(CQ.product)
    SX = symmetrize_structure(X)
    SY = symmetrize_structure(Y)
    CS = convolve(SX.product, SY.product)

    def column(k, tail):
        f, i, x, j, y = CQ.reps[tail[1]]
        xi = SX.class_of((identity(i), i, x))
        yj = SY.class_of((identity(j), j, y))
        return CS.class_of.column(f, k, (i, xi, j, yj))

    return _class_map(L, CS.product, column)
