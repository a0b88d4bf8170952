"""Realization to simplicial sets, integer chains, Smith reduction,
homology, and the interval monoid."""

import importlib
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symcube.cli import DEFAULT_LIMIT, run
from symcube.errors import ResourceBound, SymcubeError, resource_limit
from symcube.monoidal import convolve, symmetrize
from symcube.presheaf import (
    PresheafMap,
    SkeletalPresheaf,
    SubgroupSpec,
    _cosymmetry_perms,
    _UnionFind,
    boundary,
    cap,
    coproduct,
    coskeleton,
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
from symcube.realize import (
    ChainComplex,
    SimplicialMap,
    _chain_complex,
    _NormalForms,
    act_on_cube,
    cubical_chains,
    delta1_power,
    euler_characteristic,
    homology,
    homology_of_chains,
    invariant_factors,
    nondegenerate_chains,
    normalized_chains,
    realize,
    simplex_degeneracy,
    simplex_face,
    simplices,
    smith_normal_form,
    sparse_rows,
    verify_act_naturality,
    verify_cubical_monoid_delta1,
    verify_snf,
)
from symcube.site import (
    Conj,
    Const,
    Morphism,
    Permutation,
    SiteTag,
    compose,
    constant,
    delta,
    gamma,
    identity,
    parse_morphism,
    pi,
    sigma,
)

# the package exports the function realize under the module's name
realize_module = importlib.import_module("symcube.realize")

QS = SiteTag.QSIGMA
Q = SiteTag.Q

INTERVAL = realize(representable(1, QS))
BD2 = boundary(2, QS)[0]
SBD2 = realize(BD2)
BD3 = boundary(3, QS)[0]
SBD3 = realize(BD3)
R3 = representable(3, QS)
SR3 = realize(R3)


def circle_presheaf():
    bd1, incl = boundary(1, QS)
    P, _, _ = pushout(incl, terminal_map(bd1))
    return P


CIRCLE = circle_presheaf()


# -- the interval-power action -----------------------------------------------


def test_act_identity():
    act = act_on_cube(identity(2), 2)
    for s in simplices(2, 2):
        assert act(s) == s


def test_act_conjunction_on_vertices():
    # thresholds at level 0: 0 is the value-1 vertex, 1 the value-0 one
    act = act_on_cube(parse_morphism("(x1^x2):2->1"), 0)
    assert act((0, 0)) == (0,)
    assert act((0, 1)) == (1,)
    assert act((1, 0)) == (1,)
    assert act((1, 1)) == (1,)


def test_act_swap_is_tuple_swap():
    act = act_on_cube(parse_morphism("(x2,x1):2->2"), 3)
    for s in simplices(2, 3):
        assert act(s) == (s[1], s[0])


def test_act_constants():
    act = act_on_cube(parse_morphism("(0,x1,1):1->3"), 2)
    for s in simplices(1, 2):
        assert act(s) == (3, s[0], 0)


def test_act_naturality_report():
    assert verify_act_naturality().ok


def test_act_naturality_catches_a_misplaced_constant(monkeypatch):
    # on 1-simplices a constant goes to the other end, so the faces of a
    # 2-simplex's image are not the images of its faces
    act_on_cube = realize_module.act_on_cube

    def misplaced(f, k):
        act = act_on_cube(f, k)
        if k != 1:
            return act
        return lambda s: tuple(k + 1 - t if isinstance(e, Const) else t
                               for e, t in zip(f.entries, act(s)))

    monkeypatch.setattr(realize_module, "act_on_cube", misplaced)
    failing = [entry.label for entry in verify_act_naturality().failures]
    assert "action commutes with faces and degeneracies" in failing


# -- explicit interval powers ------------------------------------------------


def test_delta1_power_sizes():
    D = delta1_power(2, 3)
    assert [len(D.levels[k]) for k in range(4)] == [4, 9, 16, 25]
    assert D.verify_identities().ok


def test_simplicial_map_check_catches_a_broken_face():
    # the diagonal of the interval into the square, with the edge (1)
    # sent to (1, 2): d1 still lands on the diagonal vertex, d0 does not
    line, square = delta1_power(1, 2), delta1_power(2, 2)
    mapping = {k: {s: ",".join([s] * 2) for s in line.levels[k]} for k in range(3)}
    assert SimplicialMap(line, square, mapping).verify_simplicial()
    mapping[1]["1"] = "1,2"
    assert square.face(1, 1, "1,2") == mapping[0][line.face(1, 1, "1")]
    assert square.face(1, 0, "1,2") != mapping[0][line.face(1, 0, "1")]
    assert not SimplicialMap(line, square, mapping).verify_simplicial()


def test_delta1_power_nondegenerate_counts():
    # the square: 4 vertices, 4 sides plus a diagonal, 2 triangles
    D = delta1_power(2, 3)
    assert [len(D.nondegenerate(k)) for k in range(4)] == [4, 5, 2, 0]


# -- realization -------------------------------------------------------------


def test_realize_point():
    S = realize(representable(0, QS))
    assert all(len(S.levels[k]) == 1 for k in range(S.K + 1))
    assert [len(S.nondegenerate(k)) for k in range(S.K + 1)] == [1, 0]


def test_realize_interval_is_delta1():
    assert [len(INTERVAL.levels[k]) for k in range(INTERVAL.K + 1)] == [2, 3, 4]
    assert [len(INTERVAL.nondegenerate(k)) for k in range(3)] == [2, 1, 0]
    assert INTERVAL.verify_identities().ok
    D = delta1_power(1, 2)
    assert [len(D.levels[k]) for k in range(3)] == [2, 3, 4]


def test_realize_boundary_square():
    assert [len(SBD2.nondegenerate(k)) for k in range(SBD2.K + 1)] == \
        [4, 4, 0, 0]
    assert SBD2.verify_identities().ok


def test_realize_identities_on_corpus():
    assert SBD3.verify_identities().ok
    assert realize(CIRCLE).verify_identities().ok


def realize_map(u: PresheafMap) -> SimplicialMap:
    """Realization of a presheaf map: rename the copy, keep the simplex.

    A natural map is constant on classes, so each class is sent through
    any one of its normal forms."""
    if not u.verify_natural():
        raise SymcubeError(
            f"cannot realize the non-natural map {u.src.name} -> {u.dst.name}"
        )
    src, dst = _NormalForms(u.src), _NormalForms(u.dst)
    (S_src, members), (S_dst, _) = src.realization(), dst.realization()
    mapping = {
        k: {cid: dst.normal(n, u.mapping[n][x], s, k)[0]
            for cid, (n, x, s) in level.items()}
        for k, level in enumerate(members)
    }
    return SimplicialMap(S_src, S_dst, mapping)


def test_realize_functorial_identity():
    rm = realize_map(identity_map(representable(1, QS)))
    assert all(
        rm.mapping[k][s] == s
        for k in range(INTERVAL.K + 1)
        for s in INTERVAL.levels[k]
    )


def test_realize_functorial_inclusion():
    bd2, incl = boundary(2, QS)
    rm = realize_map(incl)
    assert rm.verify_simplicial()
    assert all(len(set(m.values())) == len(m) for m in rm.mapping.values())


def test_realize_preserves_pushouts():
    # independent route: realize the legs, then glue the simplicial
    # sets levelwise and compare cardinalities
    bd1, incl = boundary(1, QS)
    to_point = terminal_map(bd1)
    P, _, _ = pushout(incl, to_point)
    SP = realize(P)
    SB = realize(representable(1, QS))
    SC = realize(terminal_presheaf(QS, 1))
    SA = realize(bd1)
    left = realize_map(incl)
    right = realize_map(to_point)
    for k in range(SP.K + 1):
        members = [("B", s) for s in SB.levels[k]] + [("C", s) for s in SC.levels[k]]
        number = {m: i for i, m in enumerate(members)}
        uf = _UnionFind(len(members))
        uf.union_all(
            (number["B", left.mapping[k][s]], number["C", right.mapping[k][s]])
            for s in SA.levels[k]
        )
        assert len(uf.classes()) == len(SP.levels[k])


def test_realize_after_symmetrize_matches():
    # the extended realization restricted along the site inclusion
    for X in [representable(2, Q), cap(2, 1, 0, Q)[0], boundary(2, Q)[0]]:
        plain = realize(X)
        extended = realize(symmetrize(X))
        assert plain.K == extended.K and all(
            len(plain.levels[k]) == len(extended.levels[k]) for k in range(plain.K + 1))
        assert [len(plain.nondegenerate(k)) for k in range(plain.K + 1)] == \
            [len(extended.nondegenerate(k)) for k in range(extended.K + 1)]


# -- the union-find oracle ---------------------------------------------------


def oracle_classes(X, K):
    """Per level k, (class_of, reps) of the realization's glueing by
    union-find over every (section, simplex) pair, each class named by
    its least member: the exhaustive route the normal forms replace."""
    out = []
    for k in range(K + 1):
        members = sorted(
            (n, x, s)
            for n in range(X.N + 1) for x in X.levels[n] for s in simplices(n, k)
        )
        number = {m: i for i, m in enumerate(members)}
        uf = _UnionFind(len(members))
        for _, u in generator_morphisms(X.site, X.N):
            push = act_on_cube(u, k)
            for x in X.levels[u.dst]:
                moved = X.action[u][x]
                uf.union_all(
                    (number[u.src, moved, s], number[u.dst, x, push(s)])
                    for s in simplices(u.src, k)
                )
        class_of, reps = {}, {}
        for root, numbers in uf.classes().items():  # roots are least members
            cid = f"{members[root][1]}@{','.join(map(str, members[root][2])) or 'pt'}"
            reps[cid] = members[root]
            class_of.update((members[i], cid) for i in numbers)
        out.append((class_of, reps))
    return out


def oracle_realize(X):
    """(levels, faces, degeneracies) of the realization from the oracle."""
    K = X.N + 1
    classes = oracle_classes(X, K)
    levels = {k: tuple(sorted(classes[k][1])) for k in range(K + 1)}
    faces = {
        (k, i): {
            cid: classes[k - 1][0][(n, x, simplex_face(s, i))]
            for cid, (n, x, s) in classes[k][1].items()
        }
        for k in range(1, K + 1) for i in range(k + 1)
    }
    degeneracies = {
        (k, j): {
            cid: classes[k + 1][0][(n, x, simplex_degeneracy(s, j))]
            for cid, (n, x, s) in classes[k][1].items()
        }
        for k in range(K) for j in range(k + 1)
    }
    return levels, faces, degeneracies


def oracle_mapping(u, K):
    """The realized map from the oracle: every member of a class must
    land in one class of the target."""
    src, dst = oracle_classes(u.src, K), oracle_classes(u.dst, K)
    mapping = {k: {} for k in range(K + 1)}
    for k in mapping:
        for (n, x, s), cid in src[k][0].items():
            val = dst[k][0][(n, u.mapping[n][x], s)]
            assert mapping[k].setdefault(cid, val) == val
    return mapping


# the edges of a square as faces [1] -> [2]
LEFT, RIGHT = delta(1, 0, 1), delta(1, 1, 1)
BOTTOM, TOP = delta(2, 0, 1), delta(2, 1, 1)


def _postcompose(A, B, h):
    """The map of representables A -> B given by composing with h."""
    return PresheafMap(A, B, {
        n: {s: str(compose(h, parse_morphism(s))) for s in A.level(n)}
        for n in range(A.N + 1)
    })


def square_grid(count, glue, site, dim=2):
    """count squares (dim-cubes) with edges (faces) identified:
    glue(edge, collapsed) lists pairs of maps from the (dim-1)-cube to
    the cubes, where edge(c, face) is the face of cube c and
    collapsed(c, face) the constant face at its start.  The
    identification is one coequalizer, the pushout of the pair map
    along the fold."""
    square = representable(dim, site)
    interval = representable(dim - 1, site, up_to=dim)
    Y, inj = coproduct([square] * count)
    to_point = terminal_map(interval)

    def edge(c, face):
        return _postcompose(interval, square, face).then(inj[c])

    def collapsed(c, face):
        start = _postcompose(to_point.dst, square, compose(face, constant([0] * (dim - 1))))
        return to_point.then(start).then(inj[c])

    pairs = glue(edge, collapsed)
    m = len(pairs)
    E = coproduct([interval] * m)[0]
    E2 = coproduct([interval] * (2 * m))[0]
    to_Y = {n: {} for n in range(dim + 1)}
    fold = {n: {} for n in range(dim + 1)}
    for r, u in enumerate([f for f, _ in pairs] + [g for _, g in pairs]):
        for n in range(dim + 1):
            for s, v in u.mapping[n].items():
                to_Y[n][f"{r}:{s}"] = v
                fold[n][f"{r}:{s}"] = f"{r % m}:{s}"
    return pushout(PresheafMap(E2, Y, to_Y), PresheafMap(E2, E, fold))[0]


def torus_2x2():
    def glue(edge, collapsed):
        pairs = []
        for i in range(2):
            for j in range(2):
                pairs.append((edge(2 * i + j, RIGHT), edge(2 * ((i + 1) % 2) + j, LEFT)))
                pairs.append((edge(2 * i + j, TOP), edge(2 * i + (j + 1) % 2, BOTTOM)))
        return pairs
    return square_grid(4, glue, QS)


def moore_row(d):
    # M(Z/d, 1): d squares side by side whose bottoms are one loop and
    # whose other outer edges collapse, so the boundary reads the loop
    # d times
    def glue(edge, collapsed):
        pairs = [(edge(c, RIGHT), edge(c + 1, LEFT)) for c in range(d - 1)]
        pairs += [(edge(c, BOTTOM), edge(0, BOTTOM)) for c in range(1, d)]
        rim = [(c, TOP) for c in range(d)] + [(0, LEFT), (d - 1, RIGHT)]
        return pairs + [(edge(c, face), collapsed(c, face)) for c, face in rim]
    return square_grid(d, glue, Q)


def three_torus(twisted):
    """The 3-cube with opposite faces identified, the pair of coordinate
    i through the swap of the square's coordinates for each i in
    twisted: a swap reverses a square's orientation, so a twisted torus
    has torsion where the plain one has H_3 = Z."""
    swap = pi(Permutation.transposition(1, 2, 2))

    def glue(edge, collapsed):
        return [(edge(0, delta(i, 0, 2)),
                 edge(0, compose(delta(i, 1, 2), swap) if i in twisted else delta(i, 1, 2)))
                for i in (1, 2, 3)]
    return square_grid(1, glue, QS, dim=3)


def pinched_cube(collapse, site):
    """The 3-cube with its top face squeezed onto an interval by the
    epi collapse: [2] -> [1], a face that is degenerate above level 0."""
    A = representable(2, site, up_to=3)
    top = _postcompose(A, representable(3, site), delta(3, 1, 2))
    squeeze = _postcompose(A, representable(1, site, up_to=3), collapse)
    return pushout(top, squeeze)[0]


REALIZE_CORPUS = {
    **{
        f"{name}:{n}:{site}": (lambda b=build, n=n, site=site: b(n, site))
        for name, build in [
            ("boundary", lambda n, site: boundary(n, site)[0]),
            ("cube", representable),
        ]
        for n in (2, 3)
        for site in (Q, QS)
    },
    "quotient:3:(1 2 3)": lambda: quotient_presheaf(
        R3, SubgroupSpec(3, (Permutation.from_cycles("(1 2 3)", 3),)))[0],
    "quotient:2:(1 2)": lambda: quotient_presheaf(
        representable(2, QS), SubgroupSpec(2, (Permutation.from_cycles("(1 2)", 2),)))[0],
    "cap:2:1:0:Q": lambda: cap(2, 1, 0, Q)[0],
    "cap:2:1:0:QSigma": lambda: cap(2, 1, 0, QS)[0],
    "circle": lambda: CIRCLE,
    "coproduct": lambda: coproduct([representable(1, QS, up_to=2), BD2])[0],
    "coskeleton": lambda: coskeleton(boundary(2, Q)[0], 1),
    "skeleton": lambda: skeleton(R3, 1)[0],
    "symmetrize-bd2": lambda: symmetrize(boundary(2, Q)[0]),
    "symmetrize-cap": lambda: symmetrize(cap(2, 1, 0, Q)[0]),
    "bd1(x)bd1": lambda: convolve(boundary(1, QS)[0], boundary(1, QS)[0]).product,
    "torus-2x2": torus_2x2,
    "pinched-cube:Q": lambda: pinched_cube(sigma(1, 1), Q),
    "pinched-cube:QSigma": lambda: pinched_cube(gamma(1, 1), QS),
    "moore-2x1": lambda: moore_row(2),
}


@pytest.mark.parametrize("name", sorted(REALIZE_CORPUS))
def test_realize_matches_union_find_oracle(name):
    X = REALIZE_CORPUS[name]()
    S = realize(X)
    assert (S.levels, S.faces, S.degeneracies) == oracle_realize(X)


@pytest.mark.parametrize(
    "make",
    [
        lambda: boundary(2, QS)[1],
        lambda: cap(2, 1, 0, Q)[1],
        lambda: terminal_map(BD2),
        lambda: identity_map(REALIZE_CORPUS["quotient:2:(1 2)"]()),
    ],
    ids=["boundary", "cap", "terminal", "identity"],
)
def test_realize_map_matches_union_find_oracle(make):
    u = make()
    rm = realize_map(u)
    assert rm.mapping == oracle_mapping(u, rm.src.K)
    assert rm.verify_simplicial()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_realize_map_lists_each_level_once(monkeypatch, n):
    # one set of normal forms per end serves both its realization and
    # the class map, so realize_map charges what realizing the two ends
    # charges: each realization level of each end, once
    log = []
    monkeypatch.setattr(realize_module, "charge", lambda count, what: log.append(what))
    for u in (boundary(n, QS)[1], cap(n, 1, 0, Q)[1]):
        log.clear()
        realize(u.src), realize(u.dst)
        want = list(log)
        log.clear()
        realize_map(u)
        assert log == want
        assert [what.split(" has ")[0] for what in want] == [
            f"realization level {k}" for k in range(n + 2)] * 2


def oracle_normal(X, n, x, s, k):
    """The least member of the class of (n, x, s) at level k, taken over
    the whole cosymmetry orbit of its normal form: the m! route that the
    stored cosets replace."""
    free = [i for i, t in enumerate(s) if 0 < t <= k]
    if len(free) < n:
        d = Morphism(len(free), n, [
            Conj((free.index(i) + 1,)) if i in free else Const(int(s[i] == 0))
            for i in range(n)
        ])
        n, x, s = len(free), X.act(d, x), tuple(s[i] for i in free)
    epi, y = X.ez_decompose(n, x)
    s = act_on_cube(epi, k)(s)
    return min(
        (epi.dst, X.act(pi(th), y), tuple(s[i - 1] for i in th.one_line))
        for th in _cosymmetry_perms(X.site, epi.dst)
    )


@pytest.mark.parametrize("name", [
    "cube:2:QSigma", "quotient:2:(1 2)", "quotient:3:(1 2 3)",
    "symmetrize-bd2", "bd1(x)bd1", "pinched-cube:QSigma",
])
def test_normal_forms_match_full_orbit_oracle(name):
    X = REALIZE_CORPUS[name]()
    forms = _NormalForms(X)
    for k in range(X.N + 2):
        for n in range(X.N + 1):
            for x in X.levels[n]:
                for s in simplices(n, k):
                    assert forms.normal(n, x, s, k)[1] == oracle_normal(X, n, x, s, k)


def test_realize_map_rejects_non_natural_map():
    X = representable(1, QS)
    bad = identity_map(X)
    ends = X.level(0)
    bad.mapping[0] = {ends[0]: ends[1], ends[1]: ends[0]}
    with pytest.raises(SymcubeError, match="non-natural"):
        realize_map(bad)


def test_grid_homology():
    # Kunneth for the torus; the Moore space M(Z/2, 1) has torsion
    assert homology(torus_2x2()).groups == ((1, ()), (2, ()), (1, ()))
    assert homology(moore_row(2)).groups == ((1, ()), (0, (2,)))


@pytest.mark.parametrize("d", [3, 4, 5])
def test_moore_space_torsion_from_residual_block(d, monkeypatch):
    # every unit pivot splits off a factor 1, so the d that makes the
    # torsion comes out of the dense Smith form of the unit-free rest
    residuals = []

    def spy(M):
        residuals.append(M)
        return smith_normal_form(M)

    monkeypatch.setattr(realize_module, "smith_normal_form", spy)
    C = normalized_chains(realize(moore_row(d)))
    assert homology_of_chains(C).groups == ((1, ()), (0, (d,)))
    assert residuals
    assert all(abs(v) != 1 for M in residuals for row in M for v in row)
    assert invariant_factors(C.columns[2])[-1] == d


def test_realize_honours_limit():
    with resource_limit(1), pytest.raises(ResourceBound, match="realization level 0"):
        realize(R3)
    # level k of the 3-cube holds sum_n |ND_n| * k**n normal-form
    # members, 8 + 12k + 12k^2 + 6k^3: 632 at its top level 4; the
    # bound is on one level, not on their sum
    with resource_limit(632):
        assert realize(R3).levels == SR3.levels
    with resource_limit(631), pytest.raises(
        ResourceBound, match="realization level 4 has 632 members"
    ):
        realize(R3)


# -- chains from normal forms ------------------------------------------------


CHAIN_CORPUS = {
    **{
        f"{name}:{n}:{site}": (lambda b=build, n=n, site=site: b(n, site))
        for name, build, ns in [
            ("cube", representable, range(4)),
            ("boundary", lambda n, site: boundary(n, site)[0], range(1, 4)),
        ]
        for n in ns
        for site in (Q, QS)
    },
    **{
        f"cap:{n}:{j}:{eps}:{site}": (
            lambda n=n, j=j, eps=eps, site=site: cap(n, j, eps, site)[0]
        )
        for n, j, eps in [(2, 1, 0), (3, 2, 1)]
        for site in (Q, QS)
    },
    **{f"empty:{site}": (lambda site=site: empty_presheaf(site)) for site in (Q, QS)},
    "quotient:3:(1 2 3)": REALIZE_CORPUS["quotient:3:(1 2 3)"],
    "moore-3x1": lambda: moore_row(3),
    "bd1(x)bd1": REALIZE_CORPUS["bd1(x)bd1"],
    "symmetrize-bd2": REALIZE_CORPUS["symmetrize-bd2"],
}


@pytest.mark.parametrize("name", sorted(CHAIN_CORPUS))
def test_nondegenerate_chains_match_realized_chains(name):
    X = CHAIN_CORPUS[name]()
    C = nondegenerate_chains(X)
    R = normalized_chains(realize(X))
    assert C.bases == R.bases
    assert C.columns == R.columns
    assert C.bases[X.N + 1] == ()


def oracle_dense_chains(bases: dict, face) -> dict:
    """The boundary matrices built dense, entry by entry, as the sparse
    columns were before them: the oracle for ChainComplex.boundaries."""
    boundaries = {}
    for k in range(1, max(bases) + 1):
        index = {s: r for r, s in enumerate(bases[k - 1])}
        M = [[0] * len(bases[k]) for _ in bases[k - 1]]
        for c, s in enumerate(bases[k]):
            for i in range(k + 1):
                r = index.get(face(k, i, s))
                if r is not None:
                    M[r][c] += -1 if i % 2 else 1
        boundaries[k] = M
    return boundaries


def dense_square_zero(boundaries: dict) -> bool:
    for k, b in boundaries.items():
        a = boundaries.get(k - 1)
        if a is None:
            continue
        for r in range(len(a)):
            for c in range(len(b[0]) if b else 0):
                if sum(a[r][m] * b[m][c] for m in range(len(b))):
                    return False
    return True


DENSE_ORACLE_CORPUS = {
    **CHAIN_CORPUS,
    "torus-2x2": torus_2x2,
    **{f"moore-{d}x1": (lambda d=d: moore_row(d)) for d in (3, 4, 5)},
}


@pytest.mark.parametrize("name", sorted(DENSE_ORACLE_CORPUS))
def test_sparse_columns_match_dense_oracle(name):
    X = DENSE_ORACLE_CORPUS[name]()
    S = realize(X)
    dense = oracle_dense_chains({k: S.nondegenerate(k) for k in range(S.K + 1)},
                                S.face)
    assert dense_square_zero(dense)
    assert normalized_chains(S).boundaries == dense
    assert nondegenerate_chains(X).boundaries == dense


@pytest.mark.parametrize("name", [
    "quotient:2:(1 2)", "pinched-cube:Q", "pinched-cube:QSigma", "circle",
    "moore-2x1",
])
def test_columns_hold_no_zero_coefficient(name):
    X = REALIZE_CORPUS[name]()
    for C in (nondegenerate_chains(X), normalized_chains(realize(X))):
        assert all(v for cols in C.columns.values()
                   for col in cols for v in col.values())


def test_cancelling_faces_leave_an_empty_column():
    # the collapsed interval's edge has both ends on its one vertex
    assert nondegenerate_chains(CIRCLE).columns[1] == [{}]


def test_square_zero_fails_on_a_fabricated_complex():
    # d1(e) = v and d2(f) = e, so d1 d2 (f) = v
    C = ChainComplex({0: ("v",), 1: ("e",), 2: ("f",)},
                     {1: [{0: 1}], 2: [{0: 1}]})
    assert not C.verify_square_zero()
    assert not dense_square_zero(C.boundaries)
    C.columns[1] = [{}]
    assert C.verify_square_zero() and dense_square_zero(C.boundaries)


def test_chain_complex_rejects_a_wrong_face():
    # swapping d0 and d1 on 2-simplices leaves d1 d2 = 2 (d d1 - d d0),
    # twice the difference of the first two vertices
    S = SR3

    def face(k, i, s):
        return S.face(k, {0: 1, 1: 0}.get(i, i) if k == 2 else i, s)

    def boundary(k, s):
        return ((face(k, i, s), (-1) ** i) for i in range(k + 1))

    bases = {k: S.nondegenerate(k) for k in range(S.K + 1)}
    assert not dense_square_zero(oracle_dense_chains(bases, face))
    with pytest.raises(SymcubeError, match="does not square to zero"):
        _chain_complex(bases, boundary, S.name)


def test_nondegenerate_chains_honour_limit():
    with resource_limit(1), pytest.raises(
        ResourceBound, match="chain level 0 has 8 members"
    ):
        nondegenerate_chains(R3)
    # level k of the 3-cube holds sum_n |ND_n| * onto(n, k) members with
    # |ND| = 8, 12, 12, 6: 8, 30, 60, 36, 0, so its largest level is 2
    with resource_limit(60):
        assert nondegenerate_chains(R3) == normalized_chains(SR3)
    with resource_limit(59), pytest.raises(
        ResourceBound, match="chain level 2 has 60 members"
    ):
        nondegenerate_chains(R3)


def rational_rank(M):
    rows = [[Fraction(v) for v in row] for row in M]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                q = rows[r][c] / rows[rank][c]
                rows[r] = [a - q * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def cubical_betti(X):
    """Rational Betti numbers from the normalized cubical chains of X:
    the nondegenerate sections, with boundary sum_i (-1)^i (d_i^1 -
    d_i^0), faces landing on degenerate sections dropped."""
    basis = {
        n: [x for x in X.levels[n] if X.is_nondegenerate(n, x)]
        for n in range(X.N + 1)
    }
    ranks = {}
    for n in range(1, X.N + 1):
        index = {x: r for r, x in enumerate(basis[n - 1])}
        M = [[0] * len(basis[n]) for _ in basis[n - 1]]
        for c, x in enumerate(basis[n]):
            for i in range(1, n + 1):
                for eps, sign in ((1, 1), (0, -1)):
                    r = index.get(X.act(delta(i, eps, n - 1), x))
                    if r is not None:
                        M[r][c] += (-1) ** i * sign
        ranks[n] = rational_rank(M)
    betti = [len(basis[n]) - ranks.get(n, 0) - ranks.get(n + 1, 0)
             for n in range(X.N + 1)]
    while len(betti) > 1 and betti[-1] == 0:
        betti.pop()
    return tuple(betti)


@pytest.mark.parametrize("make", [
    lambda: representable(0, Q),
    *[lambda n=n: representable(n, Q) for n in (1, 2, 3)],
    *[lambda n=n: boundary(n, Q)[0] for n in (1, 2, 3)],
    lambda: cap(2, 1, 0, Q)[0],
    lambda: cap(3, 2, 1, Q)[0],
], ids=["point", "cube:1", "cube:2", "cube:3", "boundary:1", "boundary:2",
        "boundary:3", "cap:2:1:0", "cap:3:2:1"])
def test_homology_matches_cubical_chains_over_q(make):
    X = make()
    assert tuple(b for b, _ in homology(X).groups) == cubical_betti(X)


# -- cellular chains on cosymmetry orbits ------------------------------------


CUBICAL_CORPUS = {
    **CHAIN_CORPUS,
    "torus-2x2": torus_2x2,
    **{f"moore-{d}x1": (lambda d=d: moore_row(d)) for d in (2, 3, 4, 5)},
    **{
        f"{name}:{n}:{site}": (lambda b=build, n=n, site=site: b(n, site))
        for name, build, ns in [
            ("cube", representable, [4]),
            ("boundary", lambda n, site: boundary(n, site)[0], [4]),
            ("cap", lambda n, site: cap(n, n, 0, site)[0], [4]),
        ]
        for n in ns
        for site in (Q, QS)
    },
    **{f"empty8:{site}": (lambda site=site: empty_presheaf(site, 8)) for site in (Q, QS)},
    **{f"point6:{site}": (lambda site=site: terminal_presheaf(site, 6)) for site in (Q, QS)},
    "skeleton": REALIZE_CORPUS["skeleton"],
    "coproduct": REALIZE_CORPUS["coproduct"],
    "three-torus": lambda: three_torus(()),
    "three-torus-twisted-1": lambda: three_torus((1,)),
    "three-torus-twisted-123": lambda: three_torus((1, 2, 3)),
}


@pytest.mark.parametrize("name", sorted(set(CUBICAL_CORPUS) - {"quotient:3:(1 2 3)"}))
def test_cubical_chains_match_simplicial_chains(name):
    X = CUBICAL_CORPUS[name]()
    C = cubical_chains(X)
    assert C is not None
    assert homology_of_chains(C) == homology_of_chains(nondegenerate_chains(X))


def test_orbit_signs_carry_orientation():
    # a face glued through a swap meets its cell with the opposite sign,
    # so only the twisted torus loses its top class to torsion
    assert homology(three_torus(())).groups == ((1, ()), (3, ()), (3, ()), (1, ()))
    assert homology(three_torus((1,))).groups == ((1, ()), (2, ()), (1, (2,)))


def test_cubical_bases_are_the_orbits():
    # the 4-cube over QSigma has 2^(4-k) C(4,k) k! nondegenerate
    # k-sections, k! of them to an orbit, and 24 nondegenerate 4-simplices
    assert [len(b) for b in cubical_chains(representable(4, QS)).bases.values()] \
        == [16, 32, 24, 8, 1]
    assert len(nondegenerate_chains(representable(4, QS)).bases[4]) == 24


@pytest.mark.parametrize("name", ["quotient:3:(1 2 3)", "quotient:2:(1 2)"])
def test_homology_falls_back_on_a_stabilizer(name, monkeypatch, capsys):
    # C_3 fixes the top cell of the first with even permutations only,
    # (1 2) the top cell of the second with an odd one
    X = REALIZE_CORPUS[name]()
    assert cubical_chains(X) is None
    calls = []
    monkeypatch.setattr(realize_module, "nondegenerate_chains",
                        lambda Y: calls.append(Y) or nondegenerate_chains(Y))
    assert homology(X).pretty() == "H_0 = Z"
    assert calls == [X]
    monkeypatch.undo()
    assert run(["homology", name]) == 0
    assert capsys.readouterr().out == "H_0 = Z\n"


SIZE_FACTORS = {
    "bd1": lambda site: boundary(1, site)[0],
    "bd2": lambda site: boundary(2, site)[0],
    "bd3": lambda site: boundary(3, site)[0],
    "cube1": lambda site: representable(1, site),
    "cube2": lambda site: representable(2, site),
    "cap(2,1,0)": lambda site: cap(2, 1, 0, site)[0],
    "cap(2,2,1)": lambda site: cap(2, 2, 1, site)[0],
}


def cell_counts(X):
    counts = [len(b) for b in cubical_chains(X).bases.values()]
    while counts[-1] == 0:
        counts.pop()
    return counts


@pytest.mark.parametrize("site", [Q, QS])
@pytest.mark.parametrize("left,right", [
    ("bd1", "bd1"), ("bd2", "bd2"), ("bd1", "bd2"), ("cube1", "bd2"),
    ("cap(2,1,0)", "bd1"), ("bd1", "bd3"), ("cube1", "cube2"), ("bd2", "cap(2,2,1)"),
])
def test_convolution_multiplies_cell_counts(left, right, site):
    # the cells of X (x) Y are the products of cells, so the cubical
    # bases multiply as polynomials: bd2 (x) bd2 has 16, 32, 16 from 4, 4
    X, Y = SIZE_FACTORS[left](site), SIZE_FACTORS[right](site)
    a, b = cell_counts(X), cell_counts(Y)
    product = [sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b))
               for k in range(len(a) + len(b) - 1)]
    assert cell_counts(convolve(X, Y).product) == product


def test_cubical_chains_honour_limit():
    # the 3-cube over QSigma has 8, 12, 12, 6 nondegenerate sections,
    # charged from the top level down
    with resource_limit(5), pytest.raises(
        ResourceBound, match="cubical chain level 3 has 6 sections"
    ):
        cubical_chains(R3)
    with resource_limit(11), pytest.raises(
        ResourceBound, match="cubical chain level 2 has 12 sections"
    ):
        cubical_chains(R3)
    with resource_limit(12):
        assert [len(cubical_chains(R3).bases[k]) for k in range(4)] == [8, 12, 6, 1]


def symmetric_sphere(n: int) -> SkeletalPresheaf:
    """S^n with one cell: a point at each level below n, and at level n
    the point and a section x that every swap fixes and every face sends
    to the point."""
    levels = {m: ("p",) for m in range(n)} | {n: ("p", "x")}
    action = {g: {y: "x" if y == "x" and g.src == n else "p" for y in levels[g.dst]}
              for _, g in generator_morphisms(QS, n)}
    return SkeletalPresheaf(QS, n, levels, action, f"S{n}")


def test_symmetric_sphere_charges_its_cosymmetries():
    # x's stabilizer is all n! cosymmetries of [n], over which each chain
    # member of x is minimised: onto(6, 5) * 6! = 1800 * 720 at most for S^6
    with resource_limit(719), pytest.raises(
        ResourceBound, match="orbit table of S6 at level 6 walks 720 cosymmetries"
    ):
        cubical_chains(symmetric_sphere(6))
    with resource_limit(DEFAULT_LIMIT):
        assert homology(symmetric_sphere(5)).groups == ((1, ()),)
        for n, k, members in [(6, 4, 1560), (7, 3, 1806), (8, 2, 254)]:
            with pytest.raises(ResourceBound, match=(
                f"chain level {k} minimises {members} members over {math.factorial(n)} "
            )):
                homology(symmetric_sphere(n))
    with resource_limit(1800 * 720 - 1), pytest.raises(
        ResourceBound, match="chain level 5 minimises 1800 members"
    ):
        homology(symmetric_sphere(6))
    with resource_limit(1800 * 720):
        assert homology(symmetric_sphere(6)).groups == ((1, ()),)


# -- chains ------------------------------------------------------------------


def test_chains_point():
    C = normalized_chains(realize(representable(0, QS)))
    assert len(C.bases[0]) == 1
    assert all(all(v == 0 for row in M for v in row)
               for M in C.boundaries.values())


def test_chains_interval_boundary_pattern():
    C = normalized_chains(INTERVAL)
    assert len(C.bases[1]) == 1
    column = [C.boundaries[1][r][0] for r in range(2)]
    assert sorted(column) == [-1, 1]


def test_chains_boundary_square_rank():
    C = normalized_chains(SBD2)
    M = C.boundaries[1]
    assert len(M) == 4 and len(M[0]) == 4
    D, _, _ = smith_normal_form(M)
    rank = sum(1 for i in range(4) if D[i][i])
    assert rank == 3


# -- Smith normal form -------------------------------------------------------


def test_snf_single():
    D, U, V = smith_normal_form([[2]])
    assert D == [[2]] and U == [[1]] and V == [[1]]


def test_snf_rank_one():
    D, _, _ = smith_normal_form([[1, 1], [1, 1]])
    assert [D[0][0], D[1][1]] == [1, 0]


def test_snf_identity():
    D, U, V = smith_normal_form([[1, 0], [0, 1]])
    assert D == [[1, 0], [0, 1]]
    assert U == [[1, 0], [0, 1]] and V == [[1, 0], [0, 1]]


def test_snf_divisibility_fixup():
    # diag(2,3) is not in normal form; the chain forces (1,6)
    D, _, _ = smith_normal_form([[2, 0], [0, 3]])
    assert [D[0][0], D[1][1]] == [1, 6]


def test_smith_normal_form_keeps_its_entries_small():
    # pivoting on each remainder in place grew this matrix's entries to
    # millions of bits and did not finish in minutes
    M = [[9, -4, -2, 9, 6], [6, 3, -4, -2, 0], [2, -2, 9, -2, 0],
         [0, -2, 2, -2, 6], [6, 0, 6, 9, -2], [6, 9, 9, 3, 0]]
    start = time.perf_counter()
    assert verify_snf(M).ok
    assert invariant_factors(sparse_rows(M)) == snf_factors(M) == [1, 1, 1, 1, 2]
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize(
    "M",
    [
        [[2, 4, 4], [-6, 6, 12], [10, -4, -16]],
        [[0, 0], [0, 0]],
        [[3, 1, 2], [0, 2, 1]],
        [[5], [10], [15]],
    ],
)
def test_snf_contract(M):
    assert verify_snf(M).ok


def snf_factors(M):
    # the witnessed route: the nonzero diagonal of the full Smith form
    D, _, _ = smith_normal_form(M)
    return [D[i][i] for i in range(min(len(D), len(D[0]) if D else 0)) if D[i][i]]


@pytest.mark.parametrize(
    "M, factors",
    [
        ([], []),
        ([[]], []),
        ([[0, 0], [0, 0]], []),
        ([[2, 4], [6, 8]], [2, 4]),
        ([[2, 0], [0, 3]], [1, 6]),
        ([[1, 1], [1, 1]], [1]),
        ([[2, 4, 4], [-6, 6, 12], [10, -4, -16]], [2, 6, 12]),
        ([[6], [10]], [2]),
    ],
)
def test_invariant_factors_cases(M, factors):
    assert invariant_factors(sparse_rows(M)) == factors == snf_factors(M)


def test_unit_made_by_fill_in_is_pivoted_on_the_next_pass(monkeypatch):
    # row 0 has no unit when its pass reaches it; clearing row 1's pivot
    # column leaves it {1: 1}, so one pass would hand [[1]] to the Smith form
    def refuse(M):
        raise AssertionError(f"a residual block {M} reached the Smith form")

    monkeypatch.setattr(realize_module, "smith_normal_form", refuse)
    assert invariant_factors([{0: 2, 1: 3}, {0: 1, 1: 1}]) == [1, 1]


@st.composite
def integer_matrices(draw):
    rows = draw(st.integers(0, 6))
    cols = draw(st.integers(0, 6))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3, -4, 6, 9])
    return [[draw(entry) for _ in range(cols)] for _ in range(rows)]


@given(integer_matrices())
@settings(max_examples=300, deadline=None)
def test_invariant_factors_match_smith_normal_form(M):
    # a matrix and its transpose have the same factors, and the block
    # left for the Smith form holds no unit
    residuals = []

    def spy(R):
        residuals.append(R)
        return smith_normal_form(R)

    columns = [list(col) for col in zip(*M)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(realize_module, "smith_normal_form", spy)
        assert invariant_factors(sparse_rows(M)) == snf_factors(M)
        assert invariant_factors(sparse_rows(columns)) == snf_factors(M)
    assert all(abs(v) != 1 for R in residuals for row in R for v in row)


# -- homology ----------------------------------------------------------------


@pytest.mark.parametrize("n", range(4))
def test_homology_cubes(n):
    X = R3 if n == 3 else representable(n, QS)
    assert homology(X).groups == ((1, ()),)


def test_homology_circle_from_boundary_square():
    assert homology_of_chains(normalized_chains(SBD2)).groups == \
        ((1, ()), (1, ()))


def test_homology_sphere():
    assert homology_of_chains(normalized_chains(SBD3)).groups == \
        ((1, ()), (0, ()), (1, ()))


def test_homology_collapsed_interval():
    assert homology(CIRCLE).groups == ((1, ()), (1, ()))


def test_homology_torsion_presentation():
    # a fabricated complex with boundary 2: one Z/2 in degree zero
    C = ChainComplex({0: ("a",), 1: ("b",)}, {1: [{0: 2}]})
    H = homology_of_chains(C)
    assert H.groups == ((0, (2,)),)
    assert H.pretty() == "H_0 = Z/2"


def test_homology_pretty_and_json():
    H = homology_of_chains(normalized_chains(SBD3))
    assert H.pretty() == "H_0 = Z\nH_1 = 0\nH_2 = Z"
    assert H.records() == [
        {"degree": 0, "betti": 1, "torsion": []},
        {"degree": 1, "betti": 0, "torsion": []},
        {"degree": 2, "betti": 1, "torsion": []},
    ]


def test_euler_characteristic_matches_betti():
    for X, S in [
        (representable(1, QS), INTERVAL),
        (BD2, SBD2),
        (BD3, SBD3),
        (R3, SR3),
        (CIRCLE, realize(CIRCLE)),
    ]:
        chi = euler_characteristic(S)
        H = homology_of_chains(normalized_chains(S))
        assert chi == sum(
            (-1) ** k * b for k, (b, _) in enumerate(H.groups)
        )


# -- the interval monoid -----------------------------------------------------


def test_interval_monoid():
    report = verify_cubical_monoid_delta1(3)
    assert report.ok
    assert len(report.entries) == 5


def test_interval_monoid_level_zero():
    assert verify_cubical_monoid_delta1(0).ok


def test_face_degeneracy_thresholds():
    # spot checks of the reindexing arithmetic
    assert simplex_face((0, 2, 3), 1) == (0, 1, 2)
    assert simplex_degeneracy((0, 2, 3), 1) == (0, 3, 4)
