"""Presheaf layer: representables, boundaries, caps, skeleta, quotients,
colimits, EZ decomposition, extension, and the serialization format."""

from collections.abc import Sequence
import itertools
import json
from functools import cache
import hashlib
from pathlib import Path
import re
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import symcube.presheaf as presheaf_module
from symcube.cli import load_spec
from symcube.errors import (
    BadDimension,
    IndexOutOfRange,
    InputError,
    ResourceBound,
    SymcubeError,
    TruncationMismatch,
    charge,
    resource_limit,
)
from symcube.homotopy import cylinder
from symcube.monoidal import _tagged_product, convolve, restrict, symmetrize, verify_convolution
from symcube.presheaf import (
    PresheafMap,
    SkeletalPresheaf,
    SubgroupSpec,
    TruncatedPresheaf,
    _cosymmetry_perms,
    boundary,
    cap,
    coproduct,
    coskeleton,
    dumps_presheaf,
    dumps_presheaf_json,
    empty_presheaf,
    extension_methods_agree,
    generator_morphisms,
    hom_presheaf,
    identity_map,
    in_boundary,
    in_cap,
    inclusion_map,
    loads_presheaf,
    nondegenerate_sections,
    pushout,
    quotient_presheaf,
    representable,
    restrict_skeletal,
    restriction,
    skeleton,
    tagged_coend,
    terminal_map,
    terminal_presheaf,
    verify_ez_groupoid,
    verify_functorial,
    verify_restriction_roundtrip,
    verify_skeletal_pushout,
)
from symcube.report import Report
from symcube.site import (
    Morphism,
    Permutation,
    SiteTag,
    _UnionFind,
    classify,
    compose,
    delta,
    enumerate_hom,
    factor,
    hom_count,
    identity,
    parse_morphism,
    pi,
    sections_of,
    tensor,
)
from test_site import after

QS = SiteTag.QSIGMA
Q = SiteTag.Q
DATA = Path(__file__).parent / "data"


# -- oracles that the library itself does not need ---------------------------


def truncate(X: SkeletalPresheaf, k: int) -> TruncatedPresheaf:
    levels = {n: X.level(n) for n in range(k + 1)}
    return restriction(X, levels, f"tr{k}_{X.name}", TruncatedPresheaf)


def find_isomorphism(X: SkeletalPresheaf, Y: SkeletalPresheaf):
    """A levelwise-bijective presheaf map X -> Y, or None (exhaustive)."""
    X = X.extend_to(Y.N)
    if X.N == Y.N and X.size() != Y.size():
        return None
    for u in hom_presheaf(X, Y):
        if u.is_bijective():
            return u
    return None


def members(H: SubgroupSpec) -> frozenset[Permutation]:
    """H closed under composition, from the identity."""
    found = {Permutation.identity(H.n)}
    frontier = list(found)
    while frontier:
        p = frontier.pop()
        for q in H.generators:
            r = after(q, p)
            if r not in found:
                found.add(r)
                frontier.append(r)
    return frozenset(found)


def stabilizer(X: SkeletalPresheaf, n: int, x: str) -> SubgroupSpec:
    """The cosymmetries of level n fixing the section x under the
    presheaf's own action, each tested by its composed arrow."""
    fixers = tuple(th for th in _cosymmetry_perms(X.site, n) if X.act(pi(th), x) == x)
    return SubgroupSpec(n, fixers)


def quotient_by_group(n: int, H: SubgroupSpec):
    return quotient_presheaf(representable(n, QS), H, name=f"H\\cube{n}")


C0 = representable(0, QS)
C1 = representable(1, QS)
C2 = representable(2, QS)
BD2, BD2_INCL = boundary(2, QS)
BD3, _ = boundary(3, QS)
QUOT, QUOT_PROJ = quotient_by_group(2, SubgroupSpec.full(2))


# -- representables ----------------------------------------------------------


def test_representable_sizes():
    assert C1.size() == (2, 3)
    assert C2.size() == (4, 8, 22)
    assert representable(2, Q).size() == (4, 8, 13)
    assert representable(3, QS).size() == (8, 20, 68, 302)


def test_representable_level_one_of_square_is_full_hom_set():
    # four of the eight are the nondegenerate edges; the level stores all
    assert len(representable(2, Q).level(1)) == 8


def test_representable_action_is_precomposition():
    for f_str in C2.level(2):
        f = parse_morphism(f_str)
        g = delta(1, 0, 1)
        assert C2.act(g, f_str) == str(compose(f, g))


def test_level_out_of_range():
    with pytest.raises(TruncationMismatch):
        C1.level(2)


# -- boundary ----------------------------------------------------------------


def test_boundary_sizes():
    assert BD2.size() == (4, 8, 20)
    assert BD3.size() == (8, 20, 68, 296)


def test_boundary_of_point_rejected():
    with pytest.raises(BadDimension):
        boundary(0, QS)


@pytest.mark.parametrize("site", [QS, SiteTag.Q])
def test_negative_dimensions_rejected(site):
    # no hom set or cube of negative dimension; both used to come out
    # empty, or to recurse without end when the count was zero
    with pytest.raises(BadDimension):
        representable(-1, site)
    for m, n in [(2, -1), (-1, 2)]:
        with pytest.raises(BadDimension):
            enumerate_hom(m, n, site)


def test_boundary_level_two_excludes_exactly_the_nondegenerate_squares():
    missing = set(C2.level(2)) - set(BD2.level(2))
    assert missing == {"(x1,x2):2->2", "(x2,x1):2->2"}


def test_boundary_inclusion_injective_and_natural():
    assert BD2_INCL.is_injective()
    assert BD2_INCL.verify_natural()


def test_boundary_criterion_matches_factorization_search():
    # independent oracle: f lies in the boundary iff it factors through
    # a strictly lower cube
    for m in range(3):
        for n in (1, 2):
            for f in enumerate_hom(m, n, QS):
                factors = any(
                    compose(g, h) == f
                    for k in range(n)
                    for g in enumerate_hom(k, n, QS)
                    for h in enumerate_hom(m, k, QS)
                )
                assert in_boundary(f) == factors


# -- caps --------------------------------------------------------------------


def test_cap_of_interval_is_one_endpoint():
    X, incl = cap(1, 1, 0)
    assert X.size() == (1, 1)
    assert X.level(0) == ("(1):0->1",)
    assert incl.verify_natural()


def test_cap_membership_matches_face_image_search():
    n = 2
    for i in (1, 2):
        for eps in (0, 1):
            X, _ = cap(n, i, eps)
            for m in range(n + 1):
                expected = set()
                for j in (1, 2):
                    for eta in (0, 1):
                        if (j, eta) == (i, eps):
                            continue
                        for g in enumerate_hom(m, n - 1, Q):
                            expected.add(str(compose(delta(j, eta, n - 1), g)))
                assert set(X.level(m)) == expected


def test_cap_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        cap(2, 3, 0)
    with pytest.raises(IndexOutOfRange):
        cap(2, 1, 2)


# -- skeleta -----------------------------------------------------------------


def test_skeleton_zero_of_interval():
    sk, incl = skeleton(C1, 0)
    assert sk.size() == (2, 2)
    assert incl.is_injective() and incl.verify_natural()


def test_skeleton_at_or_above_truncation_is_identity():
    sk, incl = skeleton(C2, 2)
    assert sk is C2
    assert incl.mapping == identity_map(C2).mapping


def test_skeleton_idempotence():
    for k in (0, 1, 2):
        for j in (0, 1, 2):
            a, _ = skeleton(C2, k)
            b, _ = skeleton(a, j)
            c, _ = skeleton(C2, min(j, k))
            assert b.same_data(c)


def test_truncated_presheaf_refuses_extension():
    T = truncate(C1, 0)
    assert T.size() == (2,)
    with pytest.raises(TruncationMismatch):
        T.extend_to(1)


# -- cubes and restrictions, both routes -------------------------------------


def oracle_cube(n, site, up_to=None):
    """The n-cube built by printing every arrow, parsing every id back
    and printing every precomposite: the route that building cubes from
    their arrows replaced."""
    N = n if up_to is None else max(n, up_to)
    levels = {
        m: tuple(sorted(str(f) for f in enumerate_hom(m, n, site))) for m in range(N + 1)
    }
    by_level = {m: [parse_morphism(s) for s in levels[m]] for m in levels}
    action = {
        g: {str(x): str(compose(x, g)) for x in by_level[g.dst]}
        for _, g in generator_morphisms(site, N)
    }
    return SkeletalPresheaf(site, N, levels, action, f"cube{n}")


def oracle_keep(X, levels, name, kind=SkeletalPresheaf, site=None):
    """X's action copied generator by generator, keeping the ids of
    levels: the loop each sub-presheaf and truncation wrote out."""
    site = site or X.site
    N = max(levels)
    keep = {n: set(levels[n]) for n in levels}
    action = {
        g: {x: v for x, v in X.action[g].items() if x in keep[g.dst]}
        for _, g in generator_morphisms(site, N)
    }
    return kind(site, N, levels, action, name)


def assert_same_object(got, want):
    assert type(got) is type(want)
    assert got.name == want.name
    assert dumps_presheaf_json(got) == dumps_presheaf_json(want)
    assert dumps_presheaf(got) == dumps_presheaf(want)


def _cube_cases():
    cases = []
    for site in (Q, QS):
        for n in range(4):
            for up_to in (None, n + 1):
                cases.append((site, n, up_to))
    return cases


@pytest.mark.parametrize("site,n,up_to", _cube_cases(),
                         ids=[f"{s}-{n}-{u}" for s, n, u in _cube_cases()])
def test_cubes_match_print_and_parse_oracle(site, n, up_to):
    cube = oracle_cube(n, site, up_to)
    assert_same_object(representable(n, site, up_to), cube)
    subs = []
    if n >= 1:
        subs.append((boundary(n, site, up_to), in_boundary, f"bd{n}"))
    for i in range(1, n + 1):
        for eps in (0, 1):
            subs.append((
                cap(n, i, eps, site, up_to),
                lambda f, i=i, eps=eps: in_cap(f, i, eps),
                f"cap{n}_{i}_{eps}",
            ))
    for (X, incl), keep, name in subs:
        levels = {
            m: tuple(x for x in cube.level(m) if keep(parse_morphism(x)))
            for m in range(cube.N + 1)
        }
        assert_same_object(X, oracle_keep(cube, levels, name))
        assert incl.src is X
        assert_same_object(incl.dst, cube)
        assert incl.mapping == {m: {x: x for x in levels[m]} for m in levels}


# sha256 of dumps_presheaf of every boundary and cap with n <= 3, pinned
# so that cutting them all from one memoised cube changes no dump
SUBCUBE_SHA256 = {
    ("Q", "boundary:1"): "2f4819447945f23cb67cea93d6da364287e283ccb03d8c8979c51369ea67227a",
    ("Q", "cap:1:1:0"): "778e7a225b9f6e99aa03aef48c6f25b9b2307e2d31c063e9bb80f591011077e4",
    ("Q", "cap:1:1:1"): "2c4978105f8b900252781eaa900f111e9e7ed2ac2f6833778c9af0b8a373f726",
    ("Q", "boundary:2"): "b2422fd184ba1811e6375046b29a6dca6baa348a8aa5561007fd5a6870896743",
    ("Q", "cap:2:1:0"): "88d84b731c0d2135a2b96892817f7cb567833bbe6454a0f31872e618b595d277",
    ("Q", "cap:2:1:1"): "bbf67140b89a3d236b0114219287866778aa1df0ac74af0d9839ed2376a3233e",
    ("Q", "cap:2:2:0"): "cca12c9bac0cb210be702647c77868031d70d03319c9872c2cd954c3623e71a5",
    ("Q", "cap:2:2:1"): "0c75733f9b0b4e74c7490405e2ee9a1645afecb6b7f7aab2f3529d7a664f5605",
    ("Q", "boundary:3"): "5cb71ba1449f7f46ff2677829649cde4030e1493847f96cc871288189c22f1e8",
    ("Q", "cap:3:1:0"): "76a695b6be237f2332351e03242a1e13501a6806574712314227501d03cd1c7d",
    ("Q", "cap:3:1:1"): "b894afb786dd351a989cb3bba5f49138f8ac940b1b8a5a572c9a9772a6755f6f",
    ("Q", "cap:3:2:0"): "34579143babf991c7518f6f5768a63d452d7c57bff2bc1a20edcf04dcf8e6696",
    ("Q", "cap:3:2:1"): "5607186542bbe559a32a7d2a60efad4456139331bac367a4c0716060ee6f027c",
    ("Q", "cap:3:3:0"): "4352f5361db932503aa37b38d8c9076b0442613a9014cb97b417bb347e5de036",
    ("Q", "cap:3:3:1"): "1a20d94a208e3ef280ec33382a637b8e8587de261d7a6d65617204f6c7952f69",
    ("QSigma", "boundary:1"): "5a8b9a88d3a3e4a8b20330733d02724d9dac56d2349ac7d4e0bef3f5a61ab653",
    ("QSigma", "cap:1:1:0"): "7716beb2eaffd0e8c83837f3edaf08f0e6d8eab77308d78cc3aab1bbb7ef33ee",
    ("QSigma", "cap:1:1:1"): "0c5b41df6ed3001d0340fac3a2da995ae39de6b3f69110c9c1c7a70e5b49b3a8",
    ("QSigma", "boundary:2"): "821e489d395cef7eda5a08a7139a708688948875d70cd738b5ae2f2c5876806e",
    ("QSigma", "cap:2:1:0"): "094aff46d139f9554509afe96aa2921f7cce62cad3b741b04a6d620fdb8a0831",
    ("QSigma", "cap:2:1:1"): "692c13224349e022326d07c03bc46ff3e3f69cf3b615dc9ffb5f40e4f84d3f5e",
    ("QSigma", "cap:2:2:0"): "f45a1d13f45fa7f7d8c178c76ae090ff906fe501458fccc65e4ed46b78d1e1a6",
    ("QSigma", "cap:2:2:1"): "7e59f5bec5dafa73f9c83072d9e6150e2c2935054679acb1ccfffb8766f52026",
    ("QSigma", "boundary:3"): "b7703e7164876949b5150f3dec76591bf4cfb60cf805cec08d84165125c3ce63",
    ("QSigma", "cap:3:1:0"): "31651e86c35561f0d3dfe09f78de6d676f1e9482334551bb9dea2fc7e4834423",
    ("QSigma", "cap:3:1:1"): "24acc86932399eaba7905975e0afce9730d06546917eba01fdd88a8c218bc2fc",
    ("QSigma", "cap:3:2:0"): "e3f4ebc3ee79f7b579de831b53d7768540642107a75ca6ed86dcadf84fd05968",
    ("QSigma", "cap:3:2:1"): "06970977a9bb85b230f05c5e7a1374a54c916b7c140bfb4f1fb2d96283efb98f",
    ("QSigma", "cap:3:3:0"): "08e770ec37c2b342f4a864896dd57b3d7e7d982db1b35bf995f71d4e6de1f643",
    ("QSigma", "cap:3:3:1"): "6aa1570d6e017ab80307df7ee5d304ade2804717e012325cb1a0582102052199",
}


@pytest.mark.parametrize("site,spec", list(SUBCUBE_SHA256),
                         ids=[f"{s}-{spec}" for s, spec in SUBCUBE_SHA256])
def test_subcubes_cut_from_the_memoised_cube_keep_their_dumps(site, spec):
    X = load_spec(spec, SiteTag.parse(site))
    digest = hashlib.sha256(dumps_presheaf(X).encode()).hexdigest()
    assert digest == SUBCUBE_SHA256[site, spec]


@pytest.mark.parametrize("site", [Q, QS])
def test_cube_is_built_once_and_charged_on_every_call(site):
    assert representable(3, site) is representable(3, site)
    assert cap(3, 1, 0, site)[1].dst is representable(3, site)
    # built unbounded above, and still bounded: Hom([1],[3]) has 20 arrows
    with resource_limit(10):
        with pytest.raises(ResourceBound):
            representable(3, site)
        with pytest.raises(ResourceBound):
            cap(3, 1, 0, site)


def test_restrictions_match_keep_oracle():
    # the extended quotient's upper tables come from EZ pairs, and its
    # 2-skeleton cuts some of them down
    ext = quotient_by_group(3, SubgroupSpec.full(3))[0].extend_to(4)
    corpus = [C2, BD3, QUOT, ext, cap(2, 1, 0, Q)[0]]
    for X in corpus:
        for k in range(X.N):
            levels = {
                n: tuple(
                    x for x in X.level(n) if X.ez_decompose(n, x)[0].dst <= k
                )
                for n in range(X.N + 1)
            }
            S, incl = skeleton(X, k)
            assert_same_object(S, oracle_keep(X, levels, f"sk{k}_{X.name}"))
            assert incl.src is S and incl.dst is X
            assert incl.mapping == {n: {x: x for x in levels[n]} for n in levels}
        for k in range(X.N + 1):
            levels = {n: X.level(n) for n in range(k + 1)}
            assert_same_object(
                truncate(X, k),
                oracle_keep(X, levels, f"tr{k}_{X.name}", TruncatedPresheaf),
            )
            assert_same_object(
                restrict_skeletal(X, k), oracle_keep(X, levels, f"res{k}_{X.name}")
            )
        if X.site is QS:
            for up_to in range(min(X.N + 1, 4) + 1):
                Xe = X.extend_to(up_to)
                levels = {n: Xe.level(n) for n in range(up_to + 1)}
                assert_same_object(
                    restrict(X, up_to),
                    oracle_keep(Xe, levels, f"i*{X.name}", TruncatedPresheaf, Q),
                )


def test_restriction_below_level_zero_rejected():
    for build in (lambda: truncate(C1, -1), lambda: restrict(C1, -1)):
        with pytest.raises(BadDimension):
            build()


# -- coskeleta ---------------------------------------------------------------


def test_coskeleton_zero_counts_vertex_tuples():
    ck = coskeleton(C1, 0, up_to=2)
    assert ck.truncated
    # level n collects all functions on the 2^n vertices
    assert ck.size() == (2, 4, 16)


def test_coskeleton_agrees_below_its_degree():
    ck = coskeleton(C2, 1, up_to=2)
    assert ck.size()[0] == 4
    assert ck.size()[1] == 8
    assert ck.size()[2] >= 22


def test_coskeleton_unit_values():
    # the canonical restriction of every square lands in the coskeleton;
    # squares differing only in conjunction order restrict equally (the
    # order is erased once any precomposition deletes a symbol), so the
    # 22 sections give 18 distinct units
    ck = coskeleton(C2, 1, up_to=2)
    sk1, _ = skeleton(representable(2, QS, up_to=2), 1)
    ids = set()
    for x in C2.level(2):
        mapping = {
            m: {
                sid: C2.act(parse_morphism(sid), x)
                for sid in sk1.level(m)
            }
            for m in range(3)
        }
        from symcube.presheaf import _map_id

        uid = _map_id(PresheafMap(sk1, C2, mapping))
        assert uid in set(ck.level(2))
        ids.add(uid)
    assert len(ids) == 18


def test_skeleton_coskeleton_adjunction_counts():
    cases = [(C1, C1, 0), (C1, C1, 1), (BD2, C1, 0), (C2, C1, 1)]
    for A, X, k in cases:
        skA, _ = skeleton(A, k)
        lhs = len(hom_presheaf(skA, X))
        rhs = len(hom_presheaf(A, coskeleton(X, k, up_to=A.N)))
        assert lhs == rhs


# -- EZ decomposition --------------------------------------------------------


def test_ez_decomposition_properties():
    for X in (C2, BD3, QUOT):
        for n, x in X.sections():
            e, y = X.ez_decompose(n, x)
            assert e.src == n
            assert classify(e).is_epi
            assert X.is_nondegenerate(e.dst, y)
            assert X.act(e, y) == x


def test_twisted_degeneracy_detected():
    # (x2^x1):2->1 is the gamma-collapse twisted by the swap; it is
    # degenerate although no single generator action hits it
    ext = C1.extend_to(2)
    for sid in ext.level(2):
        e, y = ext.ez_decompose(2, sid)
        assert e.dst <= 1


def _descent_oracle(X, n, x):
    """EZ pair by greedy descent: while some corank-one epi g reaches the
    section, step down to its preimage through a section of g."""
    epi, level, sid = identity(n), n, x
    progress = True
    while progress and level > 0:
        progress = False
        for g in enumerate_hom(level, level - 1, X.site):
            if classify(g).is_epi:
                y = X.act(sections_of(g)[0], sid)
                if X.act(g, y) == sid:
                    epi, level, sid = compose(g, epi), level - 1, y
                    progress = True
                    break
    return epi, sid


@cache
def oracle_ez_level(X, n):
    """Level n of the EZ table by the hom-set route the generator route
    replaced: a section that some corank-one epi e: [n] -> [n-1] reaches
    is e*y for a section y one level down, already decomposed as (e2, z),
    so it is (e2 o e, z); the sections no such epi reaches are the
    nondegenerate ones, each paired with the identity."""
    got = {}
    if n > 0:
        below = oracle_ez_level(X, n - 1)
        for e in enumerate_hom(n, n - 1, X.site):
            if not in_boundary(e):  # an arrow is epi unless it has a face
                for y, x in X.table(e).items():
                    if x not in got:
                        e2, z = below[y]
                        got[x] = (compose(e2, e), z)
    for x in X.level(n):
        got.setdefault(x, (identity(n), x))
    return got


def oracle_canonical_pair(X, epi, x, ez=None):
    """The extended section act(epi)(x) named by composing and printing
    the epi under every cosymmetry of its target: the least pair
    "epi|nondegenerate" over the orbit, and the EZ pair.  ez reads EZ
    pairs, X.ez_decompose by default."""
    e2, y = (ez or X.ez_decompose)(epi.dst, x)
    total = compose(e2, epi)
    best = min((str(compose(pi(th), total)), X.act(pi(th.inverse()), y))
               for th in _cosymmetry_perms(X.site, total.dst))
    return f"{best[0]}|{best[1]}", (total, y)


def oracle_extend_one(X, tables):
    """The skeletal extension one level up by the hom-set route the
    generator route replaced: a section for every epi e: [n] -> [m] and
    nondegenerate y at every stored level m, named by the least
    (epi, nondegenerate) pair over the cosymmetry orbit.  EZ pairs are
    read from tables, the ones an earlier call handed over, and from
    oracle_ez_level for the other levels.  Returns the extension and
    tables with the new level's pairs added."""
    n = X.N + 1

    def ez(m, x):
        return (tables.get(m) or oracle_ez_level(X, m))[x]

    def canonical(epi, x):
        return oracle_canonical_pair(X, epi, x, ez)[0]

    pairs = {}
    for m in range(n):
        nd = [x for x in X.level(m) if ez(m, x)[0].dst == m]
        if not nd:
            continue
        for e in enumerate_hom(n, m, X.site):
            if not in_boundary(e):
                for y in nd:
                    pairs[canonical(e, y)] = (e, y)
    new_levels = dict(X.levels)
    new_levels[n] = tuple(sorted(pairs))
    new_action = dict(X.action)
    for _, g in generator_morphisms(X.site, n):
        if g in new_action:
            continue
        table = {}
        if g.dst == n:  # action from the new level downward or sideways
            for pid in new_levels[n]:
                e, y = pairs[pid]
                h = compose(e, g)  # [g.src] -> [e.dst]
                table[pid] = canonical(h, y) if g.src == n else X.act(h, y)
        else:  # epi generator upward into the new level
            for sid in X.levels[g.dst]:
                table[sid] = canonical(g, sid)
        new_action[g] = table
    ext = SkeletalPresheaf(X.site, n, new_levels, new_action, X.name)
    return ext, {**tables, n: {pid: pairs[pid] for pid in new_levels[n]}}


def _assert_ez_pair(X, n, x, pair):
    e, y = pair
    assert e.src == n and classify(e).is_epi
    assert X.act(e, y) == x
    assert X.is_nondegenerate(e.dst, y)


def _cosymmetries_between(X, pair1, pair2) -> int:
    """How many cosymmetries th carry the first pair to the second:
    th o e1 = e2 and th*y2 = y1."""
    (e1, y1), (e2, y2) = pair1, pair2
    if e1.dst != e2.dst:
        return 0
    return sum(1 for th in _cosymmetry_perms(X.site, e1.dst)
               if compose(pi(th), e1) == e2 and X.act(pi(th), y2) == y1)


def test_ez_table_matches_descent_oracle():
    from test_realize import moore_row, torus_2x2

    BD1, _ = boundary(1, QS)
    # built one at a time, so that a wrong table fails the comparison on
    # C2 before it can break an extension further down the list
    corpus = [
        lambda: C2,
        lambda: BD3,
        lambda: QUOT,
        lambda: representable(3, QS),
        lambda: representable(3, Q),
        lambda: C1.extend_to(3),
        lambda: cap(2, 1, 0, Q)[0],
        lambda: symmetrize(boundary(2, Q)[0]),
        lambda: convolve(BD1, BD1).product,
        lambda: coskeleton(C2, 1, up_to=2),
        # plain generators over symmetric data
        lambda: restrict(representable(2, QS), 4),
        lambda: loads_presheaf(dumps_presheaf(torus_2x2())),
        lambda: loads_presheaf(dumps_presheaf(moore_row(3))),
        lambda: empty_presheaf(QS, 3),
    ]
    for make in corpus:
        X = make()
        oracle = {(n, x): _descent_oracle(X, n, x) for n, x in X.sections()}
        for k in range(X.N + 1):
            assert nondegenerate_sections(X, k) == [
                x for x in X.level(k) if oracle[k, x][0].dst == k
            ]
            hom_route = oracle_ez_level(X, k)
            assert hom_route.keys() == X._ez_level(k).keys()
            assert nondegenerate_sections(X, k) == [
                x for x, (e, _) in hom_route.items() if e.dst == k
            ]
            for x, pair in hom_route.items():
                _assert_ez_pair(X, k, x, pair)
                _assert_ez_pair(X, k, x, X.ez_decompose(k, x))
                assert _cosymmetries_between(X, X.ez_decompose(k, x), pair) == 1
        for (n, x), (e2, y2) in oracle.items():
            e1, y1 = X.ez_decompose(n, x)
            for e, y in ((e1, y1), (e2, y2)):
                assert classify(e).is_epi and X.act(e, y) == x
            assert e1.dst == e2.dst
            assert y2 in {
                X.act(pi(th), y1) for th in _cosymmetry_perms(X.site, e1.dst)
            }


EXTENDED = [C1, C2, BD2, QUOT, cap(2, 1, 0, Q)[0], boundary(3, Q)[0],
            restrict_skeletal(restrict(representable(2, QS), 4), 4)]


@pytest.mark.parametrize("X", [
    *(pytest.param(X, id=X.name) for X in EXTENDED),
    *(pytest.param(load_spec(spec, QS), id=spec)
      for spec in ("quotient:3:(1 2 3)", "quotient:2:(1 2)")),
])
def test_extension_hands_over_its_ez_table(X):
    # the hom-set route names each new section by its least pair (e, y);
    # sending it to e*y in the coend's extension is a natural bijection,
    # and the EZ pairs read off the extension's generator tables are
    # pairs of the sections they decompose
    oracle, pairs = oracle_extend_one(*oracle_extend_one(X, {}))
    ext = X.extend_to(X.N + 2)
    mapping = {n: {x: x for x in X.level(n)} for n in range(X.N + 1)}
    for n in range(X.N + 1, ext.N + 1):
        mapping[n] = {pid: ext.act(e, y) for pid, (e, y) in pairs[n].items()}
        for x in ext.level(n):
            _assert_ez_pair(ext, n, x, ext.ez_decompose(n, x))
    u = PresheafMap(oracle, ext, mapping)
    assert u.is_bijective() and u.verify_natural()


def test_extension_is_built_once_per_level_and_extends_further_alike():
    for X in (C1, BD2, QUOT, cap(2, 1, 0, Q)[0]):
        ext = X.extend_to(X.N + 2)
        assert X.extend_to(X.N + 2) is ext and X.extend_to(X.N) is X
        assert X.extend_to(X.N + 1).extend_to(X.N + 2).same_data(ext)
        assert ext.extend_to(X.N + 3).same_data(X.extend_to(X.N + 3))


def test_nondegenerate_counts():
    assert [len(nondegenerate_sections(C2, k)) for k in range(3)] == [4, 4, 2]
    assert [len(nondegenerate_sections(BD3, k)) for k in range(4)] == [8, 12, 12, 0]
    assert [len(nondegenerate_sections(QUOT, k)) for k in range(3)] == [3, 2, 1]


def test_ez_groupoid_unique_cosymmetries():
    for X in (C2, QUOT, BD3):
        assert verify_ez_groupoid(X).ok


# -- hom presheaves ----------------------------------------------------------


def test_hom_yoneda_counts():
    assert len(hom_presheaf(C0, C1)) == 2
    assert len(hom_presheaf(C1, C1)) == 3
    assert len(hom_presheaf(C1, C2)) == 8
    assert len(hom_presheaf(C2, C2)) == 22


def test_hom_boundary_to_point():
    bd1, _ = boundary(1, QS)
    assert len(hom_presheaf(bd1, terminal_presheaf(QS, 1))) == 1


def test_hom_maps_are_natural():
    for u in hom_presheaf(C1, C2):
        assert u.verify_natural()


def test_hom_limit():
    with resource_limit(1), pytest.raises(ResourceBound, match="2 presheaf maps"):
        hom_presheaf(C0, C1)


def test_hom_search_charges_candidate_values():
    # the 22 maps cube2 -> cube2 are under the bound, the search is not
    with resource_limit(1000), pytest.raises(
        ResourceBound, match="candidate values for maps cube2 -> cube2"
    ):
        hom_presheaf(C2, C2)


def oracle_hom_presheaf(
    X: SkeletalPresheaf,
    Y: SkeletalPresheaf,
    fixed: Sequence[tuple[PresheafMap, PresheafMap]] = (),
) -> list[PresheafMap]:
    """The search hom_presheaf ran before its constraints were resolved
    up front: every value of Y's level is tried at every node and checked
    through ez_decompose and Y.act.

    All presheaf maps X -> Y that agree with a partial map, by
    backtracking over values on the nondegenerate sections of X, with face
    constraints for pruning and a full naturality check on each completed
    candidate.

    fixed is the partial map a question prescribes, as pairs (i, u) of
    maps A -> X and A -> Y: w is kept when w o i = u for every pair, and
    without pairs every map is kept.  Each prescribed value u(a) on the
    section x = i(a) = e*y of X is pushed onto the nondegenerate y, whose
    value must then satisfy e*w(y) = u(a); two different prescriptions
    for one section leave no map.  The maps come in the same order as
    without fixed; the resource limit bounds the maps returned, which
    are only those that agree, and the candidate values tried.
    """
    if Y.N < X.N:
        Y = Y.extend_to(X.N)
    nd = [(k, x) for k in range(X.N + 1) for x in nondegenerate_sections(X, k)]
    pinned: dict[tuple[int, str], list[tuple[Morphism, str]]] = {}
    for i, u in fixed:
        for k, row in i.mapping.items():
            for a, x in row.items():
                e, y = X.ez_decompose(k, x)
                pinned.setdefault((e.dst, y), []).append((e, u.mapping[k][a]))
    # the face and adjacent-swap actions of X and Y, paired by level
    faces: dict[int, list[tuple[dict, dict]]] = {}
    swaps: dict[int, list[tuple[dict, dict]]] = {}
    for _, g in generator_morphisms(X.site, X.N):
        if g.src < g.dst:
            faces.setdefault(g.dst, []).append((X.action[g], Y.action[g]))
        elif g.src == g.dst:
            swaps.setdefault(g.dst, []).append((X.action[g], Y.action[g]))
    results: list[PresheafMap] = []
    assigned: dict[tuple[int, str], str] = {}
    tried = 0  # candidate values, charged as each search node ends
    trying = f"candidate values for maps {X.name} -> {Y.name}"

    def value_of(k: int, x: str) -> str:
        e, y = X.ez_decompose(k, x)
        return Y.act(e, assigned[(e.dst, y)])

    def consistent(k: int, x: str, v: str) -> bool:
        if any(Y.act(e, v) != want for e, want in pinned.get((k, x), ())):
            return False
        for xd, yd in faces.get(k, ()):
            if yd[v] != value_of(k - 1, xd[x]):
                return False
        for xs, ys in swaps.get(k, ()):
            mate = xs[x]
            if (mate == x and ys[v] != v) or (
                (k, mate) in assigned and ys[v] != assigned[(k, mate)]
            ):
                return False
        return True

    def finish():
        mapping = {
            n: {sid: value_of(n, sid) for sid in X.level(n)}
            for n in range(X.N + 1)
        }
        u = PresheafMap(X, Y, mapping)
        if u.verify_natural():
            results.append(u)
            charge(len(results), f"{len(results)} presheaf maps")

    def search(idx: int):
        nonlocal tried
        if idx == len(nd):
            finish()
            return
        k, x = nd[idx]
        values = Y.level(k)
        for v in values:
            if consistent(k, x, v):
                assigned[(k, x)] = v
                search(idx + 1)
                del assigned[(k, x)]
        tried += len(values)
        charge(tried, trying)

    search(0)
    return results


HOM_CORPUS = [
    (src, dst, site)
    for site in (QS, Q)
    for src, dst in [
        ("cube:0", "cube:1"),
        ("cube:1", "cube:2"),
        ("cube:2", "cube:2"),
        ("cap:2:1:0", "cube:2"),
        ("boundary:2", "boundary:2"),
        ("quotient:3:(1 2 3)", "boundary:2"),
    ]
    if site is QS or not src.startswith("quotient")
]


@pytest.mark.parametrize("src, dst, site", HOM_CORPUS,
                         ids=[f"{a}-{b}-{s.value}" for a, b, s in HOM_CORPUS])
def test_hom_search_matches_oracle(src, dst, site):
    X, Y = load_spec(src, site), load_spec(dst, site)
    got = [u.mapping for u in hom_presheaf(X, Y)]
    assert got == [u.mapping for u in oracle_hom_presheaf(X, Y)]
    assert got


def test_hom_search_matches_oracle_on_prescriptions():
    box, incl = cap(2, 1, 0, QS)
    # filling squares: each map of the cap into the square, extended over
    # the square; some have no extension and some have two
    cases = [(C2, C2, [(incl, top)]) for top in hom_presheaf(box, C2)]
    # both ends of a cylinder, on a vertex and on the interval's boundary
    pt = C0.level(0)[0]
    vertex = {v: PresheafMap(C0, C1, {0: {pt: v}}) for v in C1.level(0)}
    v0, v1 = C1.level(0)
    cr, e0, e1 = cylinder(C0, 1)
    cases.append((cr.product, C1, [(e0, vertex[v0]), (e1, vertex[v1])]))
    bd1, incl1 = boundary(1, QS)
    cr, e0, e1 = cylinder(bd1, 1)
    cases.append((cr.product, C1, [(e0, incl1), (e1, incl1)]))
    sizes = []
    for X, Y, fixed in cases:
        got = [u.mapping for u in hom_presheaf(X, Y, fixed)]
        assert got == [u.mapping for u in oracle_hom_presheaf(X, Y, fixed)]
        sizes.append(len(got))
    assert set(sizes[:-2]) == {0, 1, 2} and sizes[-2:] == [1, 1]
    # two prescriptions for one vertex of the interval leave no map
    i = vertex[v0]
    conflicting = [(i, vertex[v0]), (i, vertex[v1])]
    assert hom_presheaf(C1, C1, conflicting) == []
    assert oracle_hom_presheaf(C1, C1, conflicting) == []


YONEDA = [
    (spec, site)
    for spec in ("boundary:2", "cap:2:1:0", "boundary:3", "cube:2")
    for site in (QS, Q)
] + [("quotient:3:(1 2 3)", QS)]


@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("spec, site", YONEDA,
                         ids=[f"{a}-{s.value}" for a, s in YONEDA])
def test_hom_from_representable_is_yoneda(spec, site, n):
    # maps from the n-cube are the sections of level n, read at the identity
    X = load_spec(spec, site)
    Xn = X.extend_to(n).level(n)
    maps = hom_presheaf(representable(n, site), X)
    assert len(maps) == len(Xn)
    assert sorted(u.mapping[n][str(identity(n))] for u in maps) == sorted(Xn)


def test_find_isomorphism():
    other = representable(2, QS)
    iso = find_isomorphism(C2, other)
    assert iso is not None and iso.is_bijective()
    assert find_isomorphism(C1, C2) is None


# -- colimits ----------------------------------------------------------------


def oracle_pushout(f: PresheafMap, g: PresheafMap):
    """The pushout with its own tagged union: members ("B", x) and
    ("C", y) sorted, one union-find per level, each class named B:x or
    C:y after its least member, and the action read class by class."""
    A, B, C = f.src, f.dst, g.dst
    if g.src is not A and not g.src.same_data(A):
        raise InputError("pushout legs must share a source")
    if not (A.N == B.N == C.N) or not (A.site == B.site == C.site):
        raise TruncationMismatch("pushout needs matching sites and truncations")
    class_of: dict[int, dict] = {}
    levels = {}
    for n in range(A.N + 1):
        sides = sorted([("B", x) for x in B.level(n)] + [("C", x) for x in C.level(n)])
        number = {m: i for i, m in enumerate(sides)}
        uf = _UnionFind(len(sides))
        uf.union_all((number["B", f.mapping[n][a]], number["C", g.mapping[n][a]])
                     for a in A.level(n))
        names = {root: "{}:{}".format(*sides[root]) for root in uf.roots()}
        class_of[n] = {m: names[root] for m, root in zip(sides, uf.parent)}
        levels[n] = tuple(sorted(names.values()))
    action = {}
    for _, gen in generator_morphisms(A.site, A.N):
        table = {}
        for (side, sid), cid in class_of[gen.dst].items():
            source = B if side == "B" else C
            img = class_of[gen.src][(side, source.action[gen][sid])]
            if table.setdefault(cid, img) != img:
                raise SymcubeError(f"pushout legs glue incompatibly at {sid} under {gen}")
        action[gen] = table
    P = SkeletalPresheaf(A.site, A.N, levels, action, "pushout")
    legs = [PresheafMap(X, P, {n: {x: class_of[n][(side, x)] for x in X.level(n)}
                               for n in levels})
            for side, X in (("B", B), ("C", C))]
    return P, *legs


def as_coproduct_ids(text: str) -> str:
    """The oracle's ids B:x and C:y, in a dump or alone, as the
    coproduct's 0:x and 1:y."""
    text = re.sub(r"(^| )B:", r"\g<1>0:", text, flags=re.M)
    return re.sub(r"(^| )C:", r"\g<1>1:", text, flags=re.M)


def assert_pushout_is_the_oracle(f: PresheafMap, g: PresheafMap):
    P, iB, iC = pushout(f, g)
    want, wB, wC = oracle_pushout(f, g)
    assert dumps_presheaf(P) == as_coproduct_ids(dumps_presheaf(want))
    for got, leg in ((iB, wB), (iC, wC)):
        assert got.mapping == {n: {x: as_coproduct_ids(c) for x, c in row.items()}
                               for n, row in leg.mapping.items()}


def test_pushout_is_the_oracle_renamed():
    bd1, incl1 = boundary(1, QS)
    assert_pushout_is_the_oracle(incl1, boundary(1, QS)[1])  # glue
    assert_pushout_is_the_oracle(incl1, terminal_map(bd1))  # collapse
    assert_pushout_is_the_oracle(identity_map(bd1), incl1)  # an identity leg
    assert_pushout_is_the_oracle(BD2_INCL, terminal_map(BD2))


def test_pushout_of_the_grid_builders_is_the_oracle_renamed(monkeypatch):
    import test_realize

    legs = []

    def spy(f, g):
        legs.append((f, g))
        return pushout(f, g)

    monkeypatch.setattr(test_realize, "pushout", spy)
    test_realize.torus_2x2()
    for d in (1, 2, 11):  # eleven squares, so 10:x comes after 9:y in B's levels
        test_realize.moore_row(d)
    assert len(legs) == 4
    assert list(legs[-1][0].dst.level(1)) != sorted(legs[-1][0].dst.level(1))
    for f, g in legs:
        assert_pushout_is_the_oracle(f, g)


def test_pushout_of_non_natural_legs_raises():
    # a leg that swaps the interval's vertices but fixes its edges glues
    # each edge to one whose faces lie in other classes
    flip = {"(0):0->1": "(1):0->1", "(1):0->1": "(0):0->1"}
    g = PresheafMap(C1, C1, {0: flip, 1: {x: x for x in C1.level(1)}})
    assert not g.verify_natural()
    with pytest.raises(SymcubeError, match="not constant on class"):
        pushout(identity_map(C1), g)
    with pytest.raises(SymcubeError, match="glue incompatibly"):
        oracle_pushout(identity_map(C1), g)


def test_pushout_glue_two_intervals():
    bd1, incl1 = boundary(1, QS)
    bd1b, incl1b = boundary(1, QS)
    P, iB, iC = pushout(incl1, incl1b)
    assert P.size() == (2, 4)
    assert iB.verify_natural() and iC.verify_natural()


def test_pushout_collapse_boundary_gives_loop():
    bd1, incl1 = boundary(1, QS)
    P, _, _ = pushout(incl1, terminal_map(bd1))
    assert P.size() == (1, 2)


def test_pushout_along_identity_gives_other_target():
    bd1, incl1 = boundary(1, QS)
    P, iB, iC = pushout(identity_map(bd1), incl1)
    assert P.size() == representable(1, QS).size()
    assert iC.is_bijective()


def test_pushout_truncation_mismatch():
    bd1, incl1 = boundary(1, QS)
    T2 = terminal_presheaf(QS, 2)
    taller = PresheafMap(
        bd1,
        T2,
        {n: {x: T2.level(n)[0] for x in bd1.level(n)} for n in range(2)},
    )
    with pytest.raises(TruncationMismatch):
        pushout(incl1, taller)
    with pytest.raises(InputError):
        pushout(incl1, terminal_map(representable(1, QS)))


def test_coproduct():
    X, (i0, i1) = coproduct([C1, C1])
    assert X.size() == (4, 6)
    assert i0.verify_natural() and i1.is_injective()


def test_coproduct_rejects_empty_and_mismatched_parts():
    with pytest.raises(InputError, match="at least one part"):
        coproduct([])
    with pytest.raises(InputError, match="matching sites"):
        coproduct([C1, representable(1, SiteTag.Q)])
    with pytest.raises(InputError, match="matching sites"):
        coproduct([C1, representable(1, QS, up_to=2)])


def test_coproduct_contracts_hold_without_asserts():
    proc = subprocess.run(
        [sys.executable, "-O", "-c",
         "from symcube.presheaf import coproduct; coproduct([])"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "InputError: a coproduct needs at least one part" in proc.stderr


# -- quotients and stabilizers -----------------------------------------------


def test_subgroup_closure():
    assert len(members(SubgroupSpec(3, ()))) == 1
    assert len(members(SubgroupSpec.full(3))) == 6
    rot = SubgroupSpec(3, (Permutation.from_cycles("(1 2 3)", 3),))
    assert len(members(rot)) == 3


def test_quotient_sizes_and_orbits():
    assert QUOT.size() == (3, 5, 12)
    assert set(QUOT.level(0)) == {"(0,0):0->2", "(0,1):0->2", "(1,1):0->2"}


def test_quotient_projection_natural_and_onto():
    assert QUOT_PROJ.verify_natural()
    for n in range(3):
        assert set(QUOT_PROJ.mapping[n].values()) == set(QUOT.level(n))


def test_quotient_of_boundary_includes_injectively():
    qbd, _ = quotient_presheaf(BD2, SubgroupSpec.full(2))
    for n in range(3):
        ids = qbd.level(n)
        assert len(set(ids)) == len(ids)
        assert set(ids) <= set(QUOT.level(n))


def oracle_quotient_presheaf(X, H, name="quot"):
    """The quotient by parsing every id, composing it with every member of
    H and printing the composites, the least naming the orbit."""
    group = [pi(h) for h in members(H)]
    orbit_of = {n: {sid: min(str(compose(h, parse_morphism(sid))) for h in group)
                    for sid in X.level(n)} for n in range(X.N + 1)}
    levels = {n: tuple(sorted(set(seen.values()))) for n, seen in orbit_of.items()}
    action = {g: {orbit_of[g.dst][sid]: orbit_of[g.src][X.act(g, sid)]
                  for sid in X.level(g.dst)}
              for _, g in generator_morphisms(X.site, X.N)}
    Qp = SkeletalPresheaf(X.site, X.N, levels, action, name)
    return Qp, PresheafMap(X, Qp, orbit_of)


def _groups(n):
    """Every subgroup of Sigma_n generated by one permutation or by two,
    and Sigma_n by its adjacent transpositions."""
    perms = [Permutation(list(p)) for p in itertools.permutations(range(1, n + 1))]
    return ([SubgroupSpec(n, (p,)) for p in perms]
            + [SubgroupSpec(n, pq) for pq in itertools.combinations(perms, 2)]
            + [SubgroupSpec.full(n)])


QUOTIENT_CORPUS = (
    [(f"cube{n}", n, lambda n=n: representable(n, QS)) for n in range(4)]
    + [(f"bd{n}", n, lambda n=n: boundary(n, QS)[0]) for n in range(1, 4)]
    + [(f"cap{n}_{i}_{eps}", n, lambda n=n, i=i, eps=eps: cap(n, i, eps, QS)[0])
       for n in range(1, 4) for i in range(1, n + 1) for eps in (0, 1)]
)


@pytest.mark.parametrize("n, build", [c[1:] for c in QUOTIENT_CORPUS],
                         ids=[c[0] for c in QUOTIENT_CORPUS])
def test_quotient_is_the_parse_and_print_quotient(n, build):
    X = build()
    for H in _groups(n):
        got, proj = quotient_presheaf(X, H, "q")
        want, want_proj = oracle_quotient_presheaf(X, H, "q")
        assert dumps_presheaf(got) == dumps_presheaf(want)
        assert dumps_presheaf_json(got) == dumps_presheaf_json(want)
        assert proj.mapping == want_proj.mapping


def swapped_square() -> SkeletalPresheaf:
    """The square's dump with the ids of two vertices exchanged: a valid
    presheaf isomorphic to the square, but no sub-presheaf of it."""
    a, b = "(0,0):0->2", "(0,1):0->2"
    text = dumps_presheaf(C2).replace(a, "@").replace(b, a).replace("@", b)
    return loads_presheaf(text, "swapped")


def test_quotient_refuses_a_presheaf_outside_its_cube():
    X = swapped_square()
    assert find_isomorphism(X, C2) is not None
    swap = SubgroupSpec(2, (Permutation.transposition(1, 2, 2),))
    with pytest.raises(InputError, match="swapped is not a sub-presheaf of the 2-cube"):
        quotient_presheaf(X, swap)
    # orbits of the ids alone glue sections that act differently
    bad, proj = oracle_quotient_presheaf(X, swap)
    assert not verify_functorial(bad).ok
    assert not proj.verify_natural()


def test_quotient_refuses_a_generator_on_other_letters():
    C3 = representable(3, QS)
    for p in (Permutation.transposition(1, 2, 2), Permutation.identity(4)):
        with pytest.raises(InputError, match="Sigma_3 has a generator on other letters"):
            quotient_presheaf(C3, SubgroupSpec(3, (p,)))


def test_quotient_of_a_plain_cubical_set_names_orbits_in_the_symmetric_cube():
    # the plain square is a sub-presheaf of the symmetric one's underlying
    # cubical set, so its quotient is the parse-and-print one
    X = representable(2, Q)
    swap = SubgroupSpec(2, (Permutation.transposition(1, 2, 2),))
    got, proj = quotient_presheaf(X, swap)
    want, want_proj = oracle_quotient_presheaf(X, swap)
    assert dumps_presheaf(got) == dumps_presheaf(want)
    assert proj.mapping == want_proj.mapping and proj.verify_natural()


def test_stabilizers():
    assert len(members(stabilizer(C2, 2, "(x1,x2):2->2"))) == 1
    img = QUOT_PROJ.mapping[2]["(x1,x2):2->2"]
    assert len(members(stabilizer(QUOT, 2, img))) == 2
    assert len(members(stabilizer(representable(2, Q), 2, "(x1,x2):2->2"))) == 1


def reversed_levels(X: SkeletalPresheaf) -> SkeletalPresheaf:
    """X loaded from its dump with the ids of each level in reverse order."""
    lines = []
    for ln in dumps_presheaf(X).splitlines():
        if ln.startswith("level "):
            head, _, ids = ln.partition(": ")
            ln = f"{head}: " + " ".join(reversed(ids.split()))
        lines.append(ln)
    return loads_presheaf("\n".join(lines), f"rev_{X.name}")


def test_orbit_table_matches_the_stabilizer_and_least_id_scan():
    # every cosymmetry's arrow applied to every nondegenerate section:
    # the least id over all of them, and those that reach it
    from test_realize import CUBICAL_CORPUS, REALIZE_CORPUS

    corpus = {**REALIZE_CORPUS, **CUBICAL_CORPUS}
    assert {"quotient:3:(1 2 3)", "quotient:2:(1 2)"} <= set(corpus)
    # with each level listed last first, the first section met in an orbit
    # is not its least id
    for name in ("cube:2:QSigma", "quotient:2:(1 2)"):
        corpus[f"reversed {name}"] = lambda make=corpus[name]: reversed_levels(make())
    for name, make in sorted(corpus.items()):
        X = make()
        for n in range(X.N + 1):
            xs = nondegenerate_sections(X, n)
            table = X.orbits(n)
            assert set(table) == set(xs), (name, n)
            if not xs:
                continue
            acts = [(th, X.table(pi(th))) for th in _cosymmetry_perms(X.site, n)]
            for x in xs:
                least = min(tab[x] for _, tab in acts)
                want = tuple(th for th, tab in acts if tab[x] == least)
                assert table[x] == (least, want), (name, n, x)
                # a least id's cosymmetries are its stabilizer, and any
                # member has as many as its stabilizer has elements
                assert table[least][1] == stabilizer(X, n, least).generators, (name, n, x)
                assert len(want) == len(members(stabilizer(X, n, x))), (name, n, x)


# -- the orbit cellular model ------------------------------------------------


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_skeletal_pushout_square(k):
    assert verify_skeletal_pushout(C2, k).ok


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_skeletal_pushout_quotient(k):
    assert verify_skeletal_pushout(QUOT, k).ok


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_skeletal_pushout_boundary_cube(k):
    assert verify_skeletal_pushout(BD3, k).ok


def test_skeletal_pushout_reports_an_ill_defined_comparison(monkeypatch):
    # a pushout leg that sends both vertices of sk_0 of the interval to
    # one class gives that class two values: the check fails, and the
    # report keeps its checks
    labels = [e.label for e in verify_skeletal_pushout(C1, 1).entries]
    real = presheaf_module.pushout

    def glued(f, g):
        P, into_B, into_C = real(f, g)
        row = into_C.mapping[0]
        into_C.mapping[0] = dict.fromkeys(row, min(row.values()))
        return P, into_B, into_C

    monkeypatch.setattr(presheaf_module, "pushout", glued)
    report = verify_skeletal_pushout(C1, 1)
    assert [e.label for e in report.entries] == labels
    assert [e.label for e in report.failures][0] == "comparison well-defined"


# -- extension ---------------------------------------------------------------


def test_extension_charges_its_nondegenerate_sections():
    # the one nondegenerate section of the point sits at level 0, so its
    # truncation at 6 extends under a limit of 10; a stored level without
    # nondegenerate sections is not charged
    T = terminal_presheaf(QS, 6)
    with resource_limit(10):
        ext = SkeletalPresheaf(QS, 6, T.levels, T.action, "pt6").extend_to(7)
    assert ext.size() == (1,) * 8
    start = time.perf_counter()
    with resource_limit(10**6), pytest.raises(ResourceBound,
                                              match="extending cube2 to level 12"):
        representable(2, QS).extend_to(12)
    assert time.perf_counter() - start < 1


def test_extend_interval_to_level_two():
    # each section is named by the least member of its coend class: an
    # arrow [2] -> [m], then m and a nondegenerate section at level m
    ext = C1.extend_to(2)
    assert ext.level(2) == (
        "():2->0&0&(0):0->1", "():2->0&0&(1):0->1",
        "(x1):2->1&1&(x1):1->1", "(x1^x2):2->1&1&(x1):1->1",
        "(x2):2->1&1&(x1):1->1", "(x2^x1):2->1&1&(x1):1->1",
    )
    for pid in ext.level(2):
        e, y = ext.ez_decompose(2, pid)
        assert classify(e).is_epi and e.src == 2
        assert pid == f"{e}&{e.dst}&{y}"


def test_extend_two_points():
    pts = restrict_skeletal(skeleton(C1, 0)[0], 0)
    ext = pts.extend_to(1)
    assert ext.size() == (2, 2)


def test_extension_matches_padded_representable():
    assert C1.extend_to(2).size() == representable(1, QS, up_to=2).size()
    assert verify_restriction_roundtrip(representable(1, QS, up_to=2), 1)


EXTENSION_CORPUS = [
    (C1, 2),
    (C0, 1),
    (restrict_skeletal(C2, 1), 2),
    (restrict_skeletal(BD2, 1), 2),
    (restrict_skeletal(QUOT, 1), 2),
]


def test_nondegenerate_sections_are_those_no_corank_one_epi_reaches():
    from test_realize import CHAIN_CORPUS

    corpus = [X for X, _ in EXTENSION_CORPUS] + [make() for make in CHAIN_CORPUS.values()]
    for X in corpus:
        for k in range(X.N + 1):
            hom_route = oracle_ez_level(X, k)
            assert nondegenerate_sections(X, k) == [
                x for x in X.level(k) if hom_route[x][0].dst == k]


def test_extension_methods_agree_on_corpus():
    for X, n in EXTENSION_CORPUS:
        assert extension_methods_agree(X, n)


def test_extension_sizes_match_full_coend_oracle():
    # extend_to and tagged_coend share the EZ table, so the extension's
    # level sizes are also checked against the coend over every member
    for X, n in EXTENSION_CORPUS:
        levels, _, _ = oracle_tagged_coend([X], X.site, [n])
        assert len(X.extend_to(n).level(n)) == len(levels[n])


def test_coend_level_of_interval():
    levels, _, _, _ = tagged_coend([C1], QS, [2])
    assert levels[2] == C1.extend_to(2).level(2)


@pytest.mark.parametrize(
    "X",
    [C0, C1, C2, BD2, QUOT, representable(2, Q), cap(2, 1, 0, Q)[0]],
    ids=lambda x: f"{x.name}-{x.site}",
)
def test_one_factor_coend_is_co_yoneda(X):
    # the coend of Hom(-, [m]) x X_m over X's own site is X again: its
    # levels have X's sizes and the identity-tagged members (id_n, n, x)
    # meet every class exactly once
    levels, _, class_of, _ = tagged_coend([X], X.site, range(X.N + 1))
    assert tuple(len(levels[n]) for n in range(X.N + 1)) == X.size()
    for n in range(X.N + 1):
        tagged = [class_of((identity(n), n, x)) for x in X.level(n)]
        assert len(set(tagged)) == len(tagged)
        assert set(tagged) == set(levels[n])


class _TupleUnionFind:
    """Union-find keyed by the members themselves, the least root winning
    each union: the dict-keyed structure the numbered one replaces."""

    def __init__(self):
        self.parent = {}

    def add(self, x):
        self.parent.setdefault(x, x)

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            lo, hi = sorted((rx, ry))
            self.parent[hi] = lo

    def classes(self):
        groups = {}
        for x in self.parent:
            groups.setdefault(self.find(x), []).append(x)
        return groups


def oracle_tagged_coend(factors, site, ks):
    """tagged_coend by union-find keyed by the member tuples themselves,
    every relation glued member by member: the route numbering replaces."""
    tails = {}
    for dims in itertools.product(*(range(X.N + 1) for X in factors)):
        sections = itertools.product(*(X.levels[n] for X, n in zip(factors, dims)))
        tails[dims] = [tuple(itertools.chain(*zip(dims, xs))) for xs in sections]
    levels, class_of, reps = {}, {}, {}
    for k in ks:
        uf = _TupleUnionFind()
        for dims, dim_tails in tails.items():
            for f in enumerate_hom(k, sum(dims), site):
                for tail in dim_tails:
                    uf.add((str(f),) + tail)
        for t, X in enumerate(factors):
            for _, u in generator_morphisms(X.site, X.N):
                for dims, dst_tails in tails.items():
                    if dims[t] != u.dst:
                        continue
                    lift = tensor(
                        tensor(identity(sum(dims[:t])), u), identity(sum(dims[t + 1:]))
                    )
                    for f in enumerate_hom(k, lift.src, site):
                        for tail in dst_tails:
                            moved = X.act(u, tail[2 * t + 1])
                            uf.union(
                                (str(compose(lift, f)),) + tail,
                                (str(f),) + tail[:2 * t] + (u.src, moved) + tail[2 * t + 2:],
                            )
        ids = []
        for members in uf.classes().values():
            least = min(members)
            cid = "&".join(str(part) for part in least)
            reps[cid] = least
            ids.append(cid)
            for m in members:
                class_of[m] = cid
        levels[k] = tuple(sorted(ids))
    return levels, class_of, reps


def _coend_cases():
    cases = []
    for site in (Q, QS):
        # products with the square stay over Q, where they are small
        parts = [representable(1, site), boundary(1, site)[0]]
        if site is Q:
            parts.append(representable(2, site))
        for X in parts:
            for Y in parts:
                if X.N + Y.N <= 3:
                    cases.append((f"{X.name}(x){Y.name}-{site}", [X, Y], site))
        bd1 = boundary(1, site)[0]
        cases.append(
            (f"associator-{site}", [bd1, representable(1, site), bd1], site)
        )
    # quotient:2:(1 2), whose top section has stabilizer Sigma_2
    cases.append(("quot(x)cube1", [QUOT, C1], QS))
    cases.append(("quot", [QUOT], QS))
    for X in (representable(3, Q), boundary(3, Q)[0], cap(2, 1, 0, Q)[0]):
        cases.append((f"i!{X.name}", [X], QS))
    return cases


@pytest.mark.parametrize("name,factors,site", _coend_cases(),
                         ids=[c[0] for c in _coend_cases()])
def test_tagged_coend_matches_union_find_oracle(name, factors, site):
    # the engine glues reduced members only; pulled back through the
    # reduction, its partition of the full members is the oracle's, and
    # only the class ids may differ
    N = sum(X.N for X in factors)
    levels, _, class_of, reps = tagged_coend(factors, site, range(N + 1))
    want_levels, want_class_of, _ = oracle_tagged_coend(factors, site, range(N + 1))
    assert {k: len(ids) for k, ids in levels.items()} == {
        k: len(ids) for k, ids in want_levels.items()
    }
    arrow = cache(parse_morphism)
    matched = {
        (want, class_of((arrow(m[0]),) + m[1:])) for m, want in want_class_of.items()
    }
    assert len({a for a, _ in matched}) == len(matched) == len({b for _, b in matched})
    assert all(class_of(rep) == cid for cid, rep in reps.items())


@pytest.mark.parametrize("name,factors,site", _coend_cases(),
                         ids=[c[0] for c in _coend_cases()])
def test_product_action_matches_precomposition(name, factors, site):
    # the engine reads a generator's action off the union-find roots of
    # the level it lands in; it must send each class to the class of its
    # representative with the generator precomposed, and be well defined
    # on every reduced member of the class
    CR = _tagged_product(factors, site, name)
    P = CR.product
    for _, h in generator_morphisms(site, P.N):
        assert P.action[h] == {
            cid: CR.class_of[(compose(rep[0], h), *rep[1:])]
            for cid in P.levels[h.dst] for rep in [CR.reps[cid]]
        }
    assert verify_convolution(CR).ok


@pytest.mark.parametrize("name,factors,site", _coend_cases(),
                         ids=[c[0] for c in _coend_cases()])
def test_class_of_is_a_view_of_the_reduced_members(name, factors, site):
    N = sum(X.N for X in factors)
    levels, _, class_of, reps = tagged_coend(factors, site, range(N + 1))
    # the reduced members level by level in number order: by printed
    # arrow, then by tail
    members, charged = [], 0
    for k in range(N + 1):
        level = []
        for dims in itertools.product(*(range(X.N + 1) for X in factors)):
            for xs in itertools.product(
                    *(nondegenerate_sections(X, n) for X, n in zip(factors, dims))):
                tail = tuple(itertools.chain(*zip(dims, xs)))
                charged += hom_count(k, sum(dims), site)
                level += [(f,) + tail for f in enumerate_hom(k, sum(dims), site)]
        members += sorted(level, key=lambda m: (str(m[0]), m[1:]))
    assert len(class_of) == len(members) == charged
    assert list(class_of) == members
    # built member by member from the oracle's partition: each class is
    # named after its least reduced member, printed part by part
    _, want_class_of, _ = oracle_tagged_coend(factors, site, range(N + 1))
    arrow = cache(parse_morphism)
    groups = {}
    for m, want in want_class_of.items():
        if all(X.is_nondegenerate(n, x) for X, n, x in zip(factors, m[1::2], m[2::2])):
            groups.setdefault(want, []).append(m)
    want = {}
    for group in groups.values():
        least = min(group)
        cid = "&".join(map(str, least))
        assert reps[cid] == (arrow(least[0]),) + least[1:]
        want.update(((arrow(m[0]),) + m[1:], cid) for m in group)
    assert dict(class_of.items()) == want
    assert {cid for k in levels for cid in levels[k]} == set(reps)
    # keys a dict over the reduced members would miss
    top = [m for m in members if m[0].src == N]
    f, *tail = next(m for m in top if m[0].dst == 0)
    wrong_sum = (enumerate_hom(N, 1, site)[0], *tail)
    X = factors[0]
    degenerate = next(x for x in X.level(1) if not X.is_nondegenerate(1, x))
    lowered = (identity(1), 1, degenerate,
               *itertools.chain(*((0, nondegenerate_sections(Y, 0)[0]) for Y in factors[1:])))
    unbuilt = (enumerate_hom(N + 1, f.dst, site)[0], *tail)
    misses = [wrong_sum, lowered, unbuilt]
    to_1 = [m[1:] for m in members if m[0].dst == 1]
    if site is Q and to_1:  # the connection is an arrow of QSigma only
        misses.append((parse_morphism("(x1^x2):2->1"), *to_1[0]))
    for miss in misses:
        assert class_of.get(miss) is None and miss not in class_of
        with pytest.raises(KeyError):
            class_of[miss]
    assert class_of(lowered) in levels[1]
    assert all(class_of(m) == cid for m, cid in class_of.items())


def test_extension_methods_agree_reads_the_face_tables():
    # a copy of the interval whose level-2 extension has its face tables
    # down to level 1 reversed; ez_decompose reads none of them
    X = representable(1, QS)
    bad = SkeletalPresheaf(X.site, X.N, X.levels, X.action, X.name)
    Y = bad.extend_to(2)
    action = {g: dict(zip(table, reversed(table.values())))
              if g.src == 1 and g.dst == 2 else table for g, table in Y.action.items()}
    bad._extensions[2] = SkeletalPresheaf(Y.site, 2, Y.levels, action, Y.name)
    assert extension_methods_agree(X, 2)
    assert not extension_methods_agree(bad, 2)


def test_extend_level_guards():
    with pytest.raises(BadDimension):
        extension_methods_agree(C1, 1)
    with pytest.raises(TruncationMismatch):
        extension_methods_agree(truncate(C1, 1), 2)


def test_restriction_roundtrip_corpus():
    assert verify_restriction_roundtrip(C2, 0)
    assert verify_restriction_roundtrip(C2, 1)
    assert verify_restriction_roundtrip(BD3, 2)
    assert verify_restriction_roundtrip(QUOT, 1)


# -- functoriality audit -----------------------------------------------------


def test_functoriality_audit_corpus():
    for X in (C1, C2, BD2, QUOT, representable(2, Q)):
        rep = verify_functorial(X)
        assert rep.ok, rep.summary()


def walk_table(X, f):
    """f's action read by walking each section through the string tables
    of its normal-form generators, first letter acting first."""
    steps = [X.action[g] for g in reversed(factor(f).generators())]
    table = {}
    for x0 in X.level(f.dst):
        x = x0
        for step in steps:
            x = step[x]
        table[x0] = x
    return table


def oracle_verify_functorial(X):
    """The word-by-word audit: each two- and three-letter generator word
    walks every section through the string tables, one letter at a time,
    and is compared with the walk of its normal form."""
    report = Report(f"functorial({X.name})")
    named = generator_morphisms(X.site, X.N)
    gens = [g for _, g in named]
    name_of = {g: gname for gname, g in named}

    def check_word(word):
        m = word[0]
        for g in word[1:]:
            m = compose(m, g)
        xs = X.level(m.dst)
        got = list(xs)
        for g in word:
            got = [X.action[g][x] for x in got]
        want = walk_table(X, m)
        report.check(" o ".join(name_of[g] for g in word), got == [want[x] for x in xs])

    for g1, g2 in itertools.product(gens, repeat=2):
        if g1.src == g2.dst:
            check_word([g1, g2])
    for g1, g2 in itertools.product(gens, repeat=2):
        if g1.src != g2.dst:
            continue
        for g3 in gens:
            if g2.src == g3.dst:
                check_word([g1, g2, g3])
    return report


AUDITED = {
    "C1": C1, "C2": C2, "BD2": BD2, "QUOT": QUOT, "cap(2,1,0)": cap(2, 1, 0)[0],
    "Q-square": representable(2, Q), "QUOT^3": QUOT.extend_to(3),
}


@pytest.mark.parametrize("name", AUDITED)
def test_functoriality_audit_matches_the_oracle_entry_for_entry(name):
    X = AUDITED[name]
    assert verify_functorial(X).entries == oracle_verify_functorial(X).entries


@pytest.mark.parametrize("X", [representable(3, QS), QUOT.extend_to(3),
                               representable(3, Q), boundary(3, Q)[0],
                               # levels of no section and of one section
                               empty_presheaf(QS, 3), terminal_presheaf(QS, 3),
                               loads_presheaf((DATA / "moore2x1.cub").read_text())],
                         ids=["QSigma-cube3", "QUOT^3", "Q-cube3", "Q-boundary3",
                              "QSigma-empty3", "QSigma-point3", "moore2x1"])
def test_table_is_the_walk_of_the_normal_form(X):
    for a, b in itertools.product(range(X.N + 1), repeat=2):
        for f in enumerate_hom(a, b, X.site):
            assert X.table(f) == walk_table(X, f), f


def redirected(X, g, x, v):
    """X with the entry of x in the block of g sent to v."""
    action = {h: dict(table) for h, table in X.action.items()}
    action[g][x] = v
    return SkeletalPresheaf(X.site, X.N, X.levels, action, X.name)


@st.composite
def redirected_actions(draw):
    """A corpus presheaf with one entry of one generator block sent to
    another section of the same level: still well formed, but it may
    break a relation."""
    X = draw(st.sampled_from([C1, BD2, QUOT, representable(2, QS), representable(1, Q),
                              boundary(2, Q)[0]]))
    g = draw(st.sampled_from([g for _, g in generator_morphisms(X.site, X.N)]))
    x = draw(st.sampled_from(X.level(g.dst)))
    v = draw(st.sampled_from(X.level(g.src)))
    return redirected(X, g, x, v)


@given(redirected_actions())
@settings(max_examples=100, deadline=None)
def test_redirected_action_is_judged_as_the_oracle_judges_it(X):
    want = oracle_verify_functorial(X)
    assert verify_functorial(X).entries == want.entries
    if want.ok:
        assert loads_presheaf(dumps_presheaf(X)).same_data(X)
    else:
        with pytest.raises(InputError) as err:
            loads_presheaf(dumps_presheaf(X))
        assert str(err.value) == f"relation violated by action: {want.failures[0].label}"


def test_a_failing_prefix_shares_no_verdict():
    # sigma(1,0) o delta(1,0,0) fails and sigma(1,0) o delta(1,1,0) passes,
    # both composing to the identity of [0], so their triples ending in
    # the same letter share a composite but not a verdict
    X = redirected(C1, delta(1, 0, 0), "(0):1->1", "(1):0->1")
    report = verify_functorial(X)
    assert report.entries == oracle_verify_functorial(X).entries
    ok = {entry.label: entry.ok for entry in report.entries}
    assert not ok["sigma(1,0) o delta(1,0,0)"] and ok["sigma(1,0) o delta(1,1,0)"]
    assert not ok["sigma(1,0) o delta(1,0,0) o sigma(1,0)"]
    assert ok["sigma(1,0) o delta(1,1,0) o sigma(1,0)"]


def test_audit_reads_no_normal_form_on_empty_levels(monkeypatch):
    # every word acts on an empty level, so none is composed or factored
    calls, real = [], presheaf_module.factor
    monkeypatch.setattr(presheaf_module, "factor", lambda f: calls.append(f) or real(f))
    rep = verify_functorial(empty_presheaf(QS, 8))
    assert (len(rep.entries), rep.ok, calls) == (109_665, True, [])


def test_action_respects_random_composites():
    # full functoriality on all composable hom pairs for the interval
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for f in enumerate_hom(a, b, QS):
                    for g in enumerate_hom(b, c, QS):
                        gf = compose(g, f)
                        for x in C1.level(1) if c == 1 else C1.level(0):
                            if gf.dst != (1 if c == 1 else 0):
                                continue
                            assert C1.act(gf, x) == C1.act(f, C1.act(g, x))


# -- serialization -----------------------------------------------------------


def test_text_round_trip():
    for X in (C1, C2, QUOT):
        Y = loads_presheaf(dumps_presheaf(X))
        assert Y.same_data(X)


def test_json_round_trip():
    for X in (C1, QUOT):
        Y = loads_presheaf(dumps_presheaf_json(X))
        assert Y.same_data(X)


def test_extended_tables_follow_level_order():
    X = QUOT.extend_to(3)
    for g, table in X.action.items():
        assert list(table) == list(X.level(g.dst))
    # so the JSON dump lists the pairs in the text dump's order
    data = json.loads(dumps_presheaf_json(X))
    json_pairs = [
        f"  {x} -> {y}"
        for gname, _ in generator_morphisms(X.site, X.N)
        for x, y in data["action"][gname].items()
    ]
    text_pairs = [ln for ln in dumps_presheaf(X).splitlines() if ln.startswith("  ")]
    assert json_pairs == text_pairs


def test_loader_detects_relation_violation():
    text = dumps_presheaf(C2)
    needle = "(x1,x2):2->2 -> (x2,x1):2->2"
    assert needle in text
    bad = text.replace(needle, "(x1,x2):2->2 -> (0,0):2->2", 1)
    with pytest.raises(InputError, match="relation violated"):
        loads_presheaf(bad)


def test_loader_detects_missing_block():
    lines = dumps_presheaf(C2).splitlines()
    out, skipping = [], False
    for ln in lines:
        if ln.startswith("swap(1,2):"):
            skipping = True
            continue
        if skipping and ln.startswith("  "):
            continue
        skipping = False
        out.append(ln)
    with pytest.raises(InputError, match="missing action"):
        loads_presheaf("\n".join(out))


def test_loader_reads_a_block_before_the_headers():
    # names are looked up once the whole file is read
    lines = dumps_presheaf(C1).splitlines()
    first = next(i for i, ln in enumerate(lines) if ln.endswith(":"))
    end = next(i for i in range(first + 1, len(lines)) if not lines[i].startswith("  "))
    moved = lines[first:end] + lines[:first] + lines[end:]
    assert moved[0] == "delta(1,0,0):"
    assert loads_presheaf("\n".join(moved)).same_data(C1)


@pytest.mark.parametrize("dump", [dumps_presheaf, dumps_presheaf_json])
@pytest.mark.parametrize("spelled", ["delta(1, 0, 0)", "delta(01,0,0)", "delta(1,0,1)",
                                     "frob(1,0)"])
def test_loader_looks_block_names_up_as_written(dump, spelled):
    # a name generator_morphisms does not write at this truncation is refused
    text = dump(C1).replace("delta(1,0,0)", spelled, 1)
    with pytest.raises(InputError, match=re.escape(f"bad generator name {spelled!r}")):
        loads_presheaf(text)


def test_loader_bounds_the_truncation_before_listing_generators():
    # N blocks cannot hold truncation N, so the cubic table of generators
    # up to N is never built
    N = 120
    text = f"site: QSigma\ntruncation: {N}\n" + "".join(f"delta(1,0,{k}):\n" for k in range(N))
    start = time.perf_counter()
    with pytest.raises(InputError, match=f"truncation {N} with {N} generator blocks"):
        loads_presheaf(text)
    assert time.perf_counter() - start < 0.1


def test_loader_rejects_garbage():
    with pytest.raises(InputError):
        loads_presheaf("site: QSigma\ntruncation: 0\nwhat is this line")
    with pytest.raises(InputError):
        loads_presheaf("truncation: 0\nlevel 0: a")
    # refused before the generators up to the truncation are listed
    for N in (-1, 999999999):
        with pytest.raises(InputError, match="truncation"):
            loads_presheaf(f"site: QSigma\ntruncation: {N}\n")


def test_loader_reads_pairs_only_with_spaced_arrows():
    text = dumps_presheaf(C1)
    pair = next(ln for ln in text.splitlines() if " -> " in ln)
    with pytest.raises(InputError, match="cannot parse line"):
        loads_presheaf(text.replace(pair, pair.replace(" -> ", "->"), 1))


def test_loader_reads_indented_headers_and_an_id_named_arrow():
    # ids hold no space, but one may be "->", so an indented level line
    # can hold " -> " and must still be read as a level
    old = C1.level(0)[0]
    lines = [" ".join("->" if w == old else w for w in ln.split(" "))
             for ln in dumps_presheaf(C1).splitlines()]
    X = loads_presheaf("\n".join("  " + ln for ln in lines))
    assert X.size() == C1.size() and "->" in X.level(0)
    assert dumps_presheaf(X) == "\n".join(lines) + "\n"


FUZZ_DUMPS = [
    dump(X)
    for X in (C1, boundary(1, Q)[0], QUOT)
    for dump in (dumps_presheaf, dumps_presheaf_json)
]
FUZZ_CHARS = sorted(set("".join(FUZZ_DUMPS)))


@st.composite
def edited_dumps(draw):
    """A dump with a few characters deleted, inserted or replaced."""
    text = draw(st.sampled_from(FUZZ_DUMPS))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text) - 1))
        c = draw(st.sampled_from(FUZZ_CHARS))
        text = draw(st.sampled_from((
            text[:i] + c + text[i:],
            text[:i] + text[i + 1:],
            text[:i] + c + text[i + 1:],
        )))
    return text


@given(edited_dumps())
@example(dumps_presheaf(C1).replace("level 0:", "level :", 1))
@settings(max_examples=300, deadline=None)
def test_edited_dumps_load_or_raise_input_error(text):
    try:
        loads_presheaf(text)
    except InputError:
        pass


def test_loader_accepts_empty_levels():
    X = loads_presheaf(dumps_presheaf(empty_presheaf(QS, 1)))
    assert X.size() == (0, 0)


# -- misc --------------------------------------------------------------------


def test_terminal_and_empty():
    T = terminal_presheaf(QS, 2)
    assert T.size() == (1, 1, 1)
    E = empty_presheaf(QS, 1)
    assert E.size() == (0, 0)
    assert len(hom_presheaf(E, C1)) == 1


_TERMINAL_12 = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))
from symcube.errors import resource_limit
from symcube.presheaf import terminal_map, terminal_presheaf
from symcube.site import SiteTag
with resource_limit(100):
    T = terminal_presheaf(SiteTag.QSIGMA, 12)
    assert T.size() == (1,) * 13
    assert terminal_map(T).verify_natural()
"""


def test_terminal_presheaf_of_high_truncation_is_cheap():
    """The 0-cube up to level 12 enumerates one arrow per level: its
    action reads no Hom([m], [1]), which has about e * m! arrows."""
    proc = subprocess.run([sys.executable, "-c", _TERMINAL_12],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_inclusion_map_helper():
    sk, _ = skeleton(C2, 1)
    incl = inclusion_map(sk, C2)
    assert incl.verify_natural() and incl.is_injective()
