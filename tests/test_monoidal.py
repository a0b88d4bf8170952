"""Day convolution, pushout-products, and the symmetrization adjunction."""

import hashlib
import itertools
from functools import cache, reduce
from pathlib import Path

import pytest

import symcube.monoidal as monoidal_module
from symcube.errors import (
    InputError,
    ResourceBound,
    SymcubeError,
    TruncationMismatch,
    resource_limit,
)
from symcube.monoidal import (
    ConvolutionResult,
    _constant_map,
    _tagged_product,
    adjunction_counit,
    adjunction_unit,
    associator_comparison,
    braiding_comparison,
    convolve,
    monoidality_comparison,
    pairing_map,
    pushout_product,
    restrict,
    symmetrize,
    symmetrize_map,
    symmetrize_structure,
    unit_comparison,
    verify_convolution,
    verify_triangle_identities,
)
from symcube.presheaf import (
    PresheafMap,
    SkeletalPresheaf,
    SubgroupSpec,
    boundary,
    cap,
    coproduct,
    dumps_presheaf,
    empty_presheaf,
    generator_morphisms,
    identity_map,
    pushout,
    quotient_presheaf,
    representable,
    skeleton,
    terminal_map,
    terminal_presheaf,
)
from symcube.site import (
    SiteTag,
    compose,
    delta,
    enumerate_hom,
    hom_count,
    identity,
    parse_morphism,
    sigma,
    symmetry,
    tensor,
)
from test_presheaf import find_isomorphism

QS = SiteTag.QSIGMA
Q = SiteTag.Q

R0 = representable(0, QS)
R1 = representable(1, QS)
R2 = representable(2, QS)
BD1, BD1_INCL = boundary(1, QS)
CR11 = convolve(R1, R1)
DATA = Path(__file__).parent / "data"


# -- convolution -------------------------------------------------------------


def test_truncation_adds():
    assert CR11.product.N == 2
    assert convolve(R2, BD1).product.N == 3


def test_square_from_intervals():
    # the motivating identity: the interval squared is the square
    comparison = pairing_map(CR11, R2)
    assert comparison.verify_natural()
    assert comparison.is_bijective()


@pytest.mark.parametrize(
    "m,n",
    [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2),
     (2, 1), (1, 2), (3, 0), (0, 3),
     (4, 0), (3, 1), (2, 2), (1, 3), (0, 4)],
)
def test_representable_convolutions(m, n):
    CR = convolve(representable(m, QS), representable(n, QS))
    comparison = pairing_map(CR, representable(m + n, QS))
    assert comparison.verify_natural()
    assert comparison.is_bijective()


@pytest.mark.parametrize("X", [R1, R2, BD1], ids=["cube1", "cube2", "bd1"])
def test_unit_law(X):
    comparison = unit_comparison(convolve(X, R0))
    assert comparison.verify_natural()
    assert comparison.is_bijective()


def test_two_endpoint_product_is_four_points():
    # independent oracle: the coproduct of four points, padded to level 2
    CR = convolve(BD1, BD1)
    assert [len(CR.product.levels[n]) for n in range(3)] == [4, 4, 4]
    four, _ = coproduct([terminal_presheaf(QS, 2)] * 4)
    assert find_isomorphism(CR.product, four) is not None


def test_pair_lookup():
    f = delta(1, 0, 1)  # (0,x1): [1] -> [2]
    cid = CR11.class_of((f, 1, "(x1):1->1", 1, "(x1):1->1"))
    assert cid in CR11.product.levels[f.src]


@pytest.mark.parametrize(
    "X,Y", [(R1, R2), (BD1, R1)], ids=["cube1-cube2", "bd1-cube1"]
)
def test_braiding(X, Y):
    braid = braiding_comparison(convolve(X, Y), convolve(Y, X))
    assert braid.verify_natural()
    assert braid.is_bijective()


def test_product_keeps_only_sums_with_tails():
    # bd2's cells stop at level 1, so no reduced tail sums to 3 or 4
    CR = convolve(*[boundary(2, QS)[0]] * 2)
    assert sorted(CR.class_of.tails) == [0, 1, 2]
    digest = hashlib.sha256(dumps_presheaf(CR.product).encode()).hexdigest()
    assert digest == "502fea02fbe45cd1a727ebd03e1cdb98ff90c65d27e31b7653e2b792ec57f022"


@pytest.mark.parametrize(
    "X,Y,Z",
    [(R1, R1, R1), (BD1, R1, BD1)],
    ids=["cubes", "with-boundaries"],
)
def test_associativity(X, Y, Z):
    assert associator_comparison(X, Y, Z).ok


@pytest.mark.parametrize(
    "CR", [CR11, convolve(BD1, R1)], ids=["cube1x2", "bd1-cube1"]
)
def test_collapse_well_defined(CR):
    assert verify_convolution(CR).ok


def test_collapse_check_catches_one_redirected_entry():
    # the first two entries of every generator's table, each redirected
    # in turn to another class of its level, fail the check
    CR = convolve(BD1, R1)
    P = CR.product
    for _, h in generator_morphisms(P.site, P.N):
        table = P.action[h]
        for cid, img in list(table.items())[:2]:
            table[cid] = next(c for c in P.levels[h.src] if c != img)
            assert not verify_convolution(CR).ok, (h, cid)
            table[cid] = img
    assert verify_convolution(CR).ok


def test_braiding_refuses_a_target_that_is_not_the_swap():
    # the swapped tail (y, x) has no number in a product of X and Y in
    # that order, so the braiding refuses before any lookup
    for X, Y in [(R1, R2), (R1, BD1)]:
        with pytest.raises(InputError, match="factors swapped"):
            braiding_comparison(convolve(X, Y), convolve(X, Y))
    # factors with the same data, built apart, are swapped factors
    copy = SkeletalPresheaf(QS, R1.N, R1.levels, R1.action, R1.name)
    assert braiding_comparison(convolve(R1, R2), convolve(R2, copy)).is_bijective()


def test_convolution_site_mismatch():
    with pytest.raises(InputError):
        convolve(R1, representable(1, Q))
    # the block swap is no arrow of Q, so the braiding refuses before a lookup
    cap_q, r1_q = cap(2, 1, 0, Q)[0], representable(1, Q)
    with pytest.raises(InputError):
        braiding_comparison(convolve(cap_q, r1_q), convolve(r1_q, cap_q))


# -- pushout-product ---------------------------------------------------------


def test_corner_of_boundary_inclusions():
    corner = pushout_product(BD1_INCL, BD1_INCL)
    bd2 = boundary(2, QS, up_to=2)[0]
    assert [len(corner.src.levels[n]) for n in range(3)] == [
        len(bd2.levels[n]) for n in range(3)
    ]
    assert corner.is_injective()
    assert corner.verify_natural()
    # transported along the canonical comparison, the corner is the
    # boundary inclusion of the square
    comparison = pairing_map(CR11, R2)
    for n in range(3):
        image = {
            comparison.mapping[n][corner.mapping[n][p]]
            for p in corner.src.levels[n]
        }
        assert image == set(bd2.levels[n])


def convolve_map(u: PresheafMap, v: PresheafMap,
                 CR: ConvolutionResult, CR2: ConvolutionResult) -> PresheafMap:
    """The functorial action u (x) v on convolution classes."""

    def value(key):
        f, i, x, j, y = key
        return CR2.class_of((f, i, u.mapping[i][x], j, v.mapping[j][y]))

    return oracle_class_map(CR, CR2.product, value)


def oracle_pushout_product(f, g):
    """The corner map of four convolutions, four convolve_maps and their
    pushout (A(x)L) u_{A(x)K} (B(x)K)."""
    A, B, K, L = f.src, f.dst, g.src, g.dst
    CR_AK, CR_BK = convolve(A, K), convolve(B, K)
    CR_AL, CR_BL = convolve(A, L), convolve(B, L)
    alpha = convolve_map(f, identity_map(K), CR_AK, CR_BK)
    beta = convolve_map(identity_map(A), g, CR_AK, CR_AL)
    P, from_bk, from_al = pushout(alpha, beta)
    top = convolve_map(identity_map(B), g, CR_BK, CR_BL)
    side = convolve_map(f, identity_map(L), CR_AL, CR_BL)
    mapping: dict[int, dict[str, str]] = {n: {} for n in range(P.N + 1)}
    for n in range(P.N + 1):
        for leg, value in ((from_bk, top), (from_al, side)):
            for sid, p in leg.mapping[n].items():
                val = value.mapping[n][sid]
                if mapping[n].setdefault(p, val) != val:
                    raise SymcubeError(f"corner map not constant on {p}")
    return PresheafMap(P, CR_BL.product, mapping)


def _point_from_empty(site):
    return PresheafMap(empty_presheaf(site, 0), representable(0, site), {0: {}})


CORNER_PAIRS = {
    "bd1,bd1": lambda s: (boundary(1, s)[1], boundary(1, s)[1]),
    "bd1,bd2": lambda s: (boundary(1, s)[1], boundary(2, s)[1]),
    "bd1,cap": lambda s: (boundary(1, s)[1], cap(2, 1, 0, s)[1]),
    "cap,bd1": lambda s: (cap(2, 1, 0, s)[1], boundary(1, s)[1]),
    "bd1,unit": lambda s: (boundary(1, s)[1], _point_from_empty(s)),
    "bd2,bd2": lambda s: (boundary(2, s)[1], boundary(2, s)[1]),
}


# the oracle takes seconds on bd2,bd2 over QSigma
@pytest.mark.parametrize(
    "site, pair",
    [(s, p) for p in CORNER_PAIRS for s in (QS, Q) if (s, p) != (QS, "bd2,bd2")],
    ids=str,
)
def test_corner_is_the_image_of_the_four_coend_corner(site, pair):
    f, g = CORNER_PAIRS[pair](site)
    corner = pushout_product(f, g)
    old = oracle_pushout_product(f, g)
    assert old.dst.same_data(corner.dst)
    assert old.is_injective()
    for n in range(corner.dst.N + 1):
        assert sorted(old.mapping[n].values()) == list(corner.src.levels[n])
    assert corner.is_injective() and corner.verify_natural()


def test_corner_needs_injective_legs():
    with pytest.raises(InputError, match="injective legs"):
        pushout_product(terminal_map(BD1), BD1_INCL)
    with pytest.raises(InputError, match="injective legs"):
        pushout_product(BD1_INCL, terminal_map(BD1))


def test_corner_orbit_form_with_trivial_groups():
    # trivial coordinate groups give identity quotients, so the orbit
    # form of the corner comparison reduces to the plain one
    quot, proj = quotient_presheaf(R2, SubgroupSpec(2, ()))
    assert quot.levels == R2.levels
    assert proj.is_bijective()


def test_corner_unit():
    grow = PresheafMap(empty_presheaf(QS, 0), R0, {0: {}})
    corner = pushout_product(BD1_INCL, grow)
    assert corner.verify_natural()
    assert corner.is_injective()
    collapse = unit_comparison(convolve(R1, R0))
    for n in range(2):
        image = {
            collapse.mapping[n][corner.mapping[n][p]]
            for p in corner.src.levels[n]
        }
        assert image == set(BD1.levels[n])


# -- coend bookkeeping -------------------------------------------------------


def test_coend_ids_are_stable():
    # class ids name least members, so the printed products are frozen
    conv = convolve(representable(1, Q), boundary(1, Q)[0]).product
    assert dumps_presheaf(conv) == (DATA / "cube1_x_bd1_Q.txt").read_text()
    sym = symmetrize(boundary(2, Q)[0])
    assert dumps_presheaf(sym) == (DATA / "sym_bd2.txt").read_text()


def test_constant_map_rejects_non_constant_value():
    with pytest.raises(SymcubeError, match="not constant on class c"):
        _constant_map([("c", "a"), ("c", "b")])


# -- the per-member oracle ---------------------------------------------------


def oracle_class_map(CR: ConvolutionResult, target: SkeletalPresheaf, fn) -> PresheafMap:
    """CR.product -> target, sending the class of each reduced member to
    fn of that member, one member at a time; fn must be constant on
    classes.  The comparisons read whole columns instead."""
    values = _constant_map((cid, fn(member)) for member, cid in CR.class_of.items())
    P = CR.product
    mapping = {n: {cid: values[cid] for cid in P.levels[n]} for n in range(P.N + 1)}
    return PresheafMap(P, target, mapping)


def oracle_pairing(CR, target):
    arrow = cache(parse_morphism)
    return oracle_class_map(
        CR, target, lambda key: str(compose(reduce(tensor, map(arrow, key[2::2])), key[0])))


def oracle_unit(CR):
    X = CR.factors[0]
    return oracle_class_map(CR, X, lambda key: X.act(key[0], key[2]))


def oracle_braiding(CR_XY, CR_YX):
    def value(key):
        f, i, x, j, y = key
        return CR_YX.class_of((compose(symmetry(i, j), f), j, y, i, x))

    return oracle_class_map(CR_XY, CR_YX.product, value)


def oracle_associator(X, Y, Z):
    """The left and the right bracketing flattened into the triple coend."""
    CR_XY, CR_YZ = convolve(X, Y), convolve(Y, Z)
    T3 = _tagged_product([X, Y, Z], X.site, f"{X.name}(x){Y.name}(x){Z.name}")

    def left_value(key):
        f, _, cxy, j, z = key
        g, i, x, m, y = CR_XY.reps[cxy]
        return T3.class_of((compose(tensor(g, identity(j)), f), i, x, m, y, j, z))

    def right_value(key):
        f, i, x, _, cyz = key
        g, j, y, m, z = CR_YZ.reps[cyz]
        return T3.class_of((compose(tensor(identity(i), g), f), i, x, j, y, m, z))

    return (oracle_class_map(convolve(CR_XY.product, Z), T3.product, left_value),
            oracle_class_map(convolve(X, CR_YZ.product), T3.product, right_value))


def oracle_symmetrize_map(u):
    S, T = symmetrize_structure(u.src), symmetrize_structure(u.dst)

    def value(key):
        g, m, x = key
        return T.class_of((g, m, u.mapping[m][x]))

    return oracle_class_map(S, T.product, value)


def oracle_counit(Y, up_to):
    S = symmetrize_structure(restrict(Y, up_to))
    Ye = Y.extend_to(up_to)
    return oracle_class_map(S, Ye, lambda key: Ye.act(key[0], key[2]))


def oracle_monoidality(X, Y):
    CQ = convolve(X, Y)
    SX, SY = symmetrize_structure(X), symmetrize_structure(Y)
    CS = convolve(SX.product, SY.product)

    def value(key):
        g, _, cq = key
        f, i, x, j, y = CQ.reps[cq]
        xi = SX.class_of((identity(i), i, x))
        yj = SY.class_of((identity(j), j, y))
        return CS.class_of((compose(f, g), i, xi, j, yj))

    return oracle_class_map(symmetrize_structure(CQ.product), CS.product, value)


def same_map(u: PresheafMap, v: PresheafMap) -> bool:
    return u.mapping == v.mapping and u.dst.same_data(v.dst)


# the comparisons that verify-all --dim 3 builds, each against the oracle


@pytest.mark.parametrize("m,n", [(m, n) for m in range(4) for n in range(4 - m)])
def test_pairing_is_the_oracle(m, n):
    CR = convolve(representable(m, QS), representable(n, QS))
    target = representable(m + n, QS)
    assert same_map(pairing_map(CR, target), oracle_pairing(CR, target))


TRANSPORTED = (
    [(f"cube{n}", n, representable(n, Q)) for n in range(4)]
    + [(f"boundary{n}", n, boundary(n, Q)[0]) for n in range(1, 4)]
    + [(f"cap({n},{j},{eps})", n, cap(n, j, eps, Q)[0])
       for n in (1, 2) for j in range(1, n + 1) for eps in (0, 1)]
)


@pytest.mark.parametrize("n,X", [t[1:] for t in TRANSPORTED], ids=[t[0] for t in TRANSPORTED])
def test_transported_pairing_is_the_oracle(n, X):
    S = symmetrize_structure(X)
    target = representable(n, QS)
    assert same_map(pairing_map(S, target), oracle_pairing(S, target))


@pytest.mark.parametrize("X", [R1, R2, BD1], ids=["cube1", "cube2", "bd1"])
def test_unit_comparison_is_the_oracle(X):
    CR = convolve(X, R0)
    assert same_map(unit_comparison(CR), oracle_unit(CR))


@pytest.mark.parametrize("X,Y", [(R1, R1), (R1, R2), (BD1, R1)],
                         ids=["cube1-cube1", "cube1-cube2", "bd1-cube1"])
def test_braiding_is_the_oracle(X, Y):
    CR_XY, CR_YX = convolve(X, Y), convolve(Y, X)
    assert same_map(braiding_comparison(CR_XY, CR_YX), oracle_braiding(CR_XY, CR_YX))


@pytest.mark.parametrize("X,Y,Z", [(R1, R1, R1), (BD1, R1, BD1)],
                         ids=["cubes", "with-boundaries"])
def test_associator_sides_are_the_oracle(monkeypatch, X, Y, Z):
    # the two flattenings are built inside the report, so they are
    # caught on their way out of _class_map
    built, class_map = [], monoidal_module._class_map

    def spy(*args):
        built.append(class_map(*args))
        return built[-1]

    monkeypatch.setattr(monoidal_module, "_class_map", spy)
    assert associator_comparison(X, Y, Z).ok
    assert len(built) == 2
    assert all(map(same_map, built, oracle_associator(X, Y, Z)))


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("X", [representable(2, Q), cap(2, 1, 0, Q)[0]], ids=["cube2", "cap"])
def test_lifted_skeleton_is_the_oracle(X, k):
    incl = skeleton(X, k)[1]
    assert same_map(symmetrize_map(incl), oracle_symmetrize_map(incl))


@pytest.mark.parametrize(
    "Y,bound", [(R1, 3), (R2, 2), (boundary(2, QS)[0], 2)],
    ids=["cube1", "cube2", "bd2"],
)
def test_triangle_maps_are_the_oracle(Y, bound):
    # the three comparisons verify_triangle_identities builds
    eta = adjunction_unit(restrict(Y, bound), bound)
    lifted = symmetrize_map(eta)
    assert same_map(lifted, oracle_symmetrize_map(eta))
    assert same_map(adjunction_counit(Y, bound), oracle_counit(Y, bound))
    assert same_map(adjunction_counit(lifted.src, bound), oracle_counit(lifted.src, bound))


@pytest.mark.parametrize("X", [representable(1, Q), boundary(1, Q)[0]], ids=["cube1", "bd1"])
def test_monoidality_is_the_oracle(X):
    assert same_map(monoidality_comparison(X, X), oracle_monoidality(X, X))


@pytest.mark.parametrize(
    "CR",
    [convolve(BD1, boundary(2, QS)[0]), symmetrize_structure(cap(2, 1, 0, Q)[0]),
     _tagged_product([R1, R1, R1], QS, "cube1^3")],
    ids=["bd1-bd2", "i!cap", "cube1^3"],
)
def test_column_is_the_composed_members(CR):
    # every fifth arrow h of each hom set into a tail's dimension
    class_of, N = CR.class_of, CR.product.N
    for n, block in class_of.tails.items():
        hs = [h for m in range(N + 1) for h in enumerate_hom(m, n, QS)[::5]]
        for tail, h, k in itertools.product(block, hs, range(N + 1)):
            assert class_of.column(h, k, tail) == [
                class_of((compose(h, f), *tail)) for f in enumerate_hom(k, h.src, QS)]


# -- symmetrization ----------------------------------------------------------


@pytest.mark.parametrize("n", range(4))
def test_symmetrize_representable(n):
    S = symmetrize_structure(representable(n, Q))
    comparison = pairing_map(S, representable(n, QS))
    assert comparison.verify_natural()
    assert comparison.is_bijective()


@pytest.mark.parametrize("n", range(1, 4))
def test_symmetrize_boundary(n):
    S = symmetrize_structure(boundary(n, Q)[0])
    comparison = pairing_map(S, boundary(n, QS)[0])
    assert comparison.verify_natural()
    assert comparison.is_bijective()


def test_symmetrize_cap_regression():
    S = symmetrize_structure(cap(2, 1, 0, Q)[0])
    assert [len(S.product.levels[n]) for n in range(3)] == [4, 7, 16]
    comparison = pairing_map(S, R2)
    assert comparison.verify_natural()
    assert comparison.is_injective()
    # the six symmetric squares that need the missing face
    image = set(comparison.mapping[2].values())
    assert set(R2.levels[2]) - image == {
        "(x1,x2):2->2", "(x2,x1):2->2",
        "(0,x1):2->2", "(0,x2):2->2",
        "(0,x1^x2):2->2", "(0,x2^x1):2->2",
    }


@pytest.mark.parametrize(
    "n,j,eps",
    [(n, j, eps) for n in range(1, 4) for j in range(1, n + 1) for eps in (0, 1)],
)
def test_transported_cap_is_the_symmetric_cap(n, j, eps):
    # i_! of the plain cap lands in the symmetric cube on exactly the
    # restriction that fibrancy questions are posed against
    S = symmetrize_structure(cap(n, j, eps, Q)[0])
    comparison = pairing_map(S, representable(n, QS))
    target = cap(n, j, eps, QS)[0]
    assert comparison.is_injective()
    assert comparison.verify_natural()
    for k in range(target.N + 1):
        assert sorted(comparison.mapping[k].values()) == sorted(target.levels[k])


@pytest.mark.parametrize("k", [0, 1])
def test_symmetrize_commutes_with_skeleton(k):
    for X in [representable(2, Q), cap(2, 1, 0, Q)[0]]:
        sub, incl = skeleton(X, k)
        lifted = symmetrize_map(incl)
        target = skeleton(symmetrize(X), k)[0]
        assert lifted.is_injective()
        for n in range(X.N + 1):
            assert (
                sorted(lifted.mapping[n].values())
                == sorted(target.levels[n])
            )


def test_symmetrize_site_guard():
    with pytest.raises(InputError):
        symmetrize(R1)


def test_strong_monoidality():
    for X, Y in [
        (representable(1, Q), representable(1, Q)),
        (boundary(1, Q)[0], boundary(1, Q)[0]),
    ]:
        witness = monoidality_comparison(X, Y)
        assert witness.verify_natural()
        assert witness.is_bijective()


# -- restriction -------------------------------------------------------------


def test_restrict_interval():
    R = restrict(R1, 2)
    assert R.truncated
    assert [len(R.levels[n]) for n in range(3)] == [
        hom_count(k, 1, QS) for k in range(3)
    ]
    with pytest.raises(TruncationMismatch):
        R.extend_to(3)


def test_restrict_terminal():
    R = restrict(representable(0, QS), 3)
    assert all(len(R.levels[n]) == 1 for n in range(4))


def test_restricted_conjunction_is_nondegenerate():
    R = restrict(R1, 2)
    # the level-2 section picked out by the conjunction arrow
    conj = R1.extend_to(2).act(
        parse_morphism("(x1^x2):2->1"), "(x1):1->1"
    )
    assert conj in R.levels[2]
    # no plain degeneracy hits it
    for i in (1, 2):
        table = R.table(sigma(i, 1))
        assert conj not in table.values()
    assert R.is_nondegenerate(2, conj)


def test_restrict_guards():
    with pytest.raises(InputError):
        restrict(representable(1, Q), 2)
    # a fresh copy of R1, whose memoised extensions earlier tests may have built
    fresh = SkeletalPresheaf(QS, R1.N, R1.levels, R1.action, R1.name)
    with resource_limit(10), pytest.raises(ResourceBound, match="extending cube1"):
        restrict(fresh, 4)


# -- the adjunction ----------------------------------------------------------


@pytest.mark.parametrize(
    "X",
    [representable(1, Q), representable(2, Q),
     cap(2, 1, 0, Q)[0], boundary(2, Q)[0]],
    ids=["cube1", "cube2", "cap", "bd2"],
)
def test_unit_injective(X):
    eta = adjunction_unit(X, X.N + 1)
    assert eta.verify_natural()
    assert eta.is_injective()


@pytest.mark.parametrize("n", [1, 2])
def test_unit_is_the_arrow_inclusion(n):
    # on a representable the unit composed with the evaluation
    # comparison returns each arrow unchanged
    X = representable(n, Q)
    S = symmetrize_structure(X)
    comparison = pairing_map(S, representable(n, QS))
    eta = adjunction_unit(X, n)
    for m in range(n + 1):
        for x in X.levels[m]:
            assert comparison.mapping[m][eta.mapping[m][x]] == x


@pytest.mark.parametrize("n", [0, 1, 2])
def test_counit_surjective(n):
    Y = representable(n, QS)
    eps = adjunction_counit(Y, n)
    assert eps.verify_natural()
    for m in range(n + 1):
        assert set(eps.mapping[m].values()) == set(Y.levels[m])


def test_counit_surjective_past_stored_levels():
    eps = adjunction_counit(R1, 3)
    assert eps.verify_natural()
    for m in range(4):
        assert set(eps.mapping[m].values()) == set(eps.dst.levels[m])


@pytest.mark.parametrize(
    "Y,bound", [(R1, 3), (R2, 2), (boundary(2, QS)[0], 2)],
    ids=["cube1", "cube2", "bd2"],
)
def test_triangle_identities(Y, bound):
    assert verify_triangle_identities(Y, bound).ok


def test_unit_naturality():
    A, incl = boundary(2, Q)
    B = representable(2, Q)
    eta_a = adjunction_unit(A, 2)
    eta_b = adjunction_unit(B, 2)
    lifted = symmetrize_map(incl)
    for n in range(3):
        for x in A.levels[n]:
            assert (
                lifted.mapping[n][eta_a.mapping[n][x]]
                == eta_b.mapping[n][incl.mapping[n][x]]
            )


def test_counit_naturality():
    A, incl = boundary(2, QS)
    B = R2
    eps_a = adjunction_counit(A, 2)
    eps_b = adjunction_counit(B, 2)
    restricted = PresheafMap(
        restrict(A, 2), restrict(B, 2),
        {n: dict(incl.mapping[n]) for n in range(3)},
    )
    lifted = symmetrize_map(restricted)
    for n in range(3):
        for c in eps_a.src.levels[n]:
            assert (
                incl.mapping[n][eps_a.mapping[n][c]]
                == eps_b.mapping[n][lifted.mapping[n][c]]
            )


def test_adjunction_site_guards():
    with pytest.raises(InputError):
        adjunction_unit(R1, 2)
    with pytest.raises(InputError):
        adjunction_counit(representable(1, Q), 2)


def test_convolve_map_functorial():
    # (x) of identities is the identity
    u = convolve_map(identity_map(R1), identity_map(R1), CR11, CR11)
    assert all(
        u.mapping[n][c] == c
        for n in range(3)
        for c in CR11.product.levels[n]
    )
