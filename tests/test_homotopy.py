"""Lifting, cap filling, and interval homotopies."""

from dataclasses import dataclass
from functools import cache

import pytest

import symcube.presheaf as presheaf_module
from symcube.cli import load_spec
from symcube.errors import InputError, ResourceBound, SymcubeError, resource_limit
from symcube.homotopy import (
    Homotopy,
    contraction_H,
    cylinder,
    find_homotopy,
    is_fibrant,
    solve_lifting,
)
from symcube.presheaf import (
    PresheafMap,
    boundary,
    cap,
    dumps_presheaf,
    empty_presheaf,
    extend_map,
    extension_methods_agree,
    generator_morphisms,
    hom_presheaf,
    identity_map,
    loads_presheaf,
    pushout,
    representable,
    terminal_map,
)
from symcube.site import (
    Conj,
    SiteTag,
    compose,
    constant,
    factor,
    identity,
    parse_morphism,
    tensor,
)
from test_monoidal import oracle_class_map
from test_presheaf import oracle_hom_presheaf

QS = SiteTag.QSIGMA

R0 = representable(0, QS)
R1S = representable(1, QS)
R2S = representable(2, QS)
BD1S, BD1S_INCL = boundary(1, QS)
PT = R0.level(0)[0]

V0 = "(0):0->1"
V1 = "(1):0->1"


def vertex_map(target, v):
    return PresheafMap(R0, target, {0: {PT: v}})


# -- the contracting conjunction ---------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_contraction_shape(n):
    h, _ = contraction_H(n)
    assert h.src == 2 * n and h.dst == n
    assert h.entries == tuple(Conj((i, n + i)) for i in range(1, n + 1))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_contraction_endpoint_identities(n):
    _, rep = contraction_H(n)
    assert rep.ok
    assert len(rep.entries) == 2


def test_contraction_worked_example():
    h, _ = contraction_H(1)
    assert str(h) == "(x1^x2):2->1"
    assert str(compose(h, parse_morphism("(x1,0):1->2"))) == "(0):1->1"
    assert str(compose(h, parse_morphism("(x1,1):1->2"))) == "(x1):1->1"


def test_contraction_normal_form():
    h, _ = contraction_H(2)
    fac = factor(h)
    assert not fac.perm.is_identity()
    assert len(fac.conjs) == 2
    assert fac.faces == () and fac.degens == ()
    assert fac.evaluate() == h


def test_contraction_rejects_nonpositive():
    with pytest.raises(InputError):
        contraction_H(0)


# -- cylinders ---------------------------------------------------------------


def test_cylinder_of_point_is_an_interval():
    cr, e0, e1 = cylinder(R0, 1)
    assert cr.product.size() == (2, 3)
    assert e0.mapping[0][PT] != e1.mapping[0][PT]
    assert e0.verify_natural() and e1.verify_natural()


def test_cylinder_endpoints_are_injective():
    cr, e0, e1 = cylinder(BD1S, 1)
    assert e0.is_injective() and e1.is_injective()
    assert set(e0.mapping[0].values()).isdisjoint(e1.mapping[0].values())
    assert cr.product.N == BD1S.N + 1


def test_cylinder_rejects_negative_dimension():
    with pytest.raises(InputError):
        cylinder(R0, -1)


# -- homotopy search ---------------------------------------------------------


def test_interval_endpoints_homotopic():
    h = find_homotopy(vertex_map(R1S, V0), vertex_map(R1S, V1), 1)
    assert h is not None
    assert h.n == 1
    assert h.verify()


def test_boundary_endpoints_not_homotopic():
    assert find_homotopy(vertex_map(BD1S, V0), vertex_map(BD1S, V1), 1) is None


def test_search_finds_self_homotopy():
    assert find_homotopy(BD1S_INCL, BD1S_INCL, 1) is not None
    ident = identity_map(R1S)
    assert find_homotopy(ident, ident, 1) is not None


def projection_homotopy(f: PresheafMap, n: int = 1) -> Homotopy:
    """The constant homotopy from f to itself: collapse the cube factor
    with the projection, then apply f."""
    cr, e0, e1 = cylinder(f.src, n)
    ye = f.dst.extend_to(cr.product.N)

    def value(key):
        g, i, x, j, _ = key
        drop = tensor(identity(i), constant([], j))
        return ye.act(compose(drop, g), f.mapping[i][x])

    h = oracle_class_map(cr, ye, value)
    out = Homotopy(n, h, f, f, e0, e1)
    if not out.verify():
        raise SymcubeError("projection homotopy does not restrict to its map")
    return out


def test_projection_homotopy_restricts_to_its_map():
    pr = projection_homotopy(BD1S_INCL, 1)
    assert pr.verify()
    assert pr.source is BD1S_INCL and pr.target is BD1S_INCL
    assert pr.h.verify_natural()


def test_projection_homotopy_on_a_vertex():
    pr = projection_homotopy(vertex_map(R1S, V1), 1)
    assert pr.verify()
    # the whole cylinder collapses onto the chosen vertex
    assert set(pr.h.mapping[0].values()) == {V1}


def test_homotopy_verify_detects_wrong_endpoint():
    h = find_homotopy(vertex_map(R1S, V0), vertex_map(R1S, V1), 1)
    tampered = Homotopy(1, h.h, h.source, h.source, h.start, h.end)
    assert not tampered.verify()


def test_homotopy_source_mismatch_rejected():
    with pytest.raises(InputError):
        find_homotopy(BD1S_INCL, identity_map(R1S), 1)


def test_homotopy_target_mismatch_rejected():
    with pytest.raises(InputError):
        find_homotopy(vertex_map(R1S, V0), vertex_map(BD1S, V0), 1)


def test_homotopy_search_respects_limit():
    with resource_limit(1), pytest.raises(ResourceBound):
        find_homotopy(vertex_map(R1S, V0), vertex_map(R1S, V1), 1)


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


def oracle_solve_lifting(p: LiftingProblem):
    """One square at a time, the route solve_lifting's single search
    replaced: the first filler in the canonical order, or None after
    exhausting every map from the lower-left corner to the upper-right
    one that agrees with the top along left."""
    if not p.commutes():
        raise InputError("lifting square does not commute")
    fillers = hom_presheaf(p.left.dst, p.right.src, [(p.left, p.top)])
    return next(
        (w for w in fillers if w.then(p.right).mapping == p.bottom.mapping), None
    )


def square_entry(rep, left, right, top, bottom):
    """The line of solve_lifting(left, right) on the square (top, bottom),
    its corners found by position in their hom sets."""
    ti = [u.mapping for u in hom_presheaf(left.src, right.src)].index(top.mapping)
    bi = [u.mapping for u in hom_presheaf(left.dst, right.dst)].index(bottom.mapping)
    return next(e for e in rep.entries if e.label == f"square top[{ti}] bottom[{bi}]")


def test_solve_lifting_against_identity_fills_every_square():
    rep = solve_lifting(BD1S_INCL, identity_map(R1S))
    squares = len(hom_presheaf(R1S, R1S))  # the bottom fixes the top
    assert rep.ok
    assert [e.label for e in rep.entries[:-1]] == [
        f"square top[{ti}] bottom[{bi}]"
        for ti, top in enumerate(hom_presheaf(BD1S, R1S))
        for bi, bottom in enumerate(hom_presheaf(R1S, R1S))
        if BD1S_INCL.then(bottom).mapping == top.mapping]
    assert str(rep.entries[-1]) == f"ok   commuting squares found  [{squares}]"
    assert square_entry(rep, BD1S_INCL, identity_map(R1S), BD1S_INCL,
                        identity_map(R1S)).detail == "filled"


def test_solve_lifting_finds_no_retraction_onto_boundary():
    rep = solve_lifting(BD1S_INCL, terminal_map(BD1S))
    entry = square_entry(rep, BD1S_INCL, terminal_map(BD1S), identity_map(BD1S),
                         terminal_map(R1S))
    assert (entry.ok, entry.detail) == (False, "no filler")
    assert not rep.ok


def test_solve_lifting_rejects_maps_over_two_sites():
    q1 = representable(1, SiteTag.Q)
    with pytest.raises(InputError, match=r"bd1 \[QSigma\] -> cube1 \[Q\]"):
        solve_lifting(BD1S_INCL, identity_map(q1))


def test_lifting_against_identity_returns_bottom():
    p = LiftingProblem(BD1S_INCL, identity_map(R1S), BD1S_INCL, identity_map(R1S))
    w = oracle_solve_lifting(p)
    assert w is not None
    assert w.mapping == identity_map(R1S).mapping


def test_lifting_point_under_interval():
    t = terminal_map(R1S)
    star = t.dst.level(0)[0]
    p = LiftingProblem(
        PresheafMap(empty_presheaf(QS, 0), R0, {0: {}}),
        t,
        PresheafMap(empty_presheaf(QS, 0), R1S, {0: {}}),
        PresheafMap(R0, t.dst, {0: {PT: star}}),
    )
    w = oracle_solve_lifting(p)
    assert w is not None
    # canonical order puts the zero vertex first
    assert w.mapping[0][PT] == V0


def test_lifting_cap_vertex_fills_by_a_constant():
    # the one-dimensional cap is the {1} vertex; against a discrete target
    # the constant map at the image vertex is always a filler
    box, incl = cap(1, 1, 0, QS)
    top = PresheafMap(
        box,
        BD1S,
        {0: {box.level(0)[0]: V1}, 1: {box.level(1)[0]: "(1):1->1"}},
    )
    p = LiftingProblem(incl, terminal_map(BD1S), top, terminal_map(R1S))
    w = oracle_solve_lifting(p)
    assert w is not None
    assert set(w.mapping[0].values()) == {V1}


def test_lifting_no_retraction_onto_boundary():
    p = LiftingProblem(
        BD1S_INCL, terminal_map(BD1S), identity_map(BD1S), terminal_map(R1S)
    )
    assert oracle_solve_lifting(p) is None


def test_lifting_filler_is_sound():
    p = LiftingProblem(BD1S_INCL, identity_map(R1S), BD1S_INCL, identity_map(R1S))
    w = oracle_solve_lifting(p)
    for n, row in BD1S_INCL.mapping.items():
        for a, b in row.items():
            assert w.mapping[n][b] == BD1S_INCL.mapping[n][a]


def test_lifting_rejects_noncommuting_square():
    flip = PresheafMap(
        BD1S,
        BD1S,
        {0: {V0: V1, V1: V0}, 1: {"(0):1->1": "(1):1->1", "(1):1->1": "(0):1->1"}},
    )
    assert flip.verify_natural()
    p = LiftingProblem(
        identity_map(BD1S), identity_map(BD1S), identity_map(BD1S), flip
    )
    with pytest.raises(InputError):
        oracle_solve_lifting(p)


def test_lifting_aligns_mixed_truncations():
    # the cap is stored to level 2, the interval and the point to level 1
    box, incl = cap(2, 1, 0, QS)
    t = terminal_map(R1S)
    top = hom_presheaf(box, R1S)[0]
    bottom = hom_presheaf(incl.dst, t.dst)[0]
    p = LiftingProblem(incl, t, top, bottom)
    assert {u.src.N for u in (p.left, p.right, p.top, p.bottom)} == {2}
    w = oracle_solve_lifting(p)
    assert w is not None
    assert p.left.then(w).mapping == p.top.mapping


def test_conflicting_prescriptions_leave_no_map():
    # a zero-dimensional cylinder has one end, asked to be both vertices
    assert find_homotopy(vertex_map(R1S, V0), vertex_map(R1S, V1), 0) is None
    # both vertices of the boundary go to the point, which must go back to each
    t = terminal_map(BD1S)
    p = LiftingProblem(t, t, identity_map(BD1S), identity_map(t.dst))
    assert oracle_solve_lifting(p) is None


def test_lifting_respects_limit():
    p = LiftingProblem(BD1S_INCL, identity_map(R1S), BD1S_INCL, identity_map(R1S))
    # the first, unbounded call caches the EZ tables, so the bound meets
    # the maps found and not the hom sets behind them
    assert oracle_solve_lifting(p) is not None
    with resource_limit(0), pytest.raises(ResourceBound, match="1 presheaf maps"):
        oracle_solve_lifting(p)


# -- symmetric caps and fibrancy ---------------------------------------------


def test_cap_inclusion_sizes_and_injectivity():
    box, incl = cap(2, 1, 0, QS)
    assert box.size() == (4, 7, 16)
    assert incl.is_injective()
    assert all(v in R2S.level(1) for v in incl.mapping[1].values())


def test_point_is_fibrant():
    rep = is_fibrant(R0, 2)
    assert rep.ok
    assert len(rep.entries) == 6


def test_two_point_object_is_fibrant():
    rep = is_fibrant(BD1S, 2)
    assert rep.ok
    assert [e.detail for e in rep.entries] == ["2 maps, 0 without extension"] * 6


def test_interval_cap_filling_report():
    # one-dimensional caps fill; every two-dimensional shape has exactly
    # two maps whose increasing edge meets constant-one walls, and the
    # single available connection cannot fill those
    rep = is_fibrant(R1S, 2)
    assert not rep.ok
    assert [e.ok for e in rep.entries] == [True, True, False, False, False, False]
    assert [e.detail for e in rep.entries[2:]] == ["7 maps, 2 without extension"] * 4


def test_square_cap_filling_through_dimension_three():
    # at the default, unbounded limit; the counts were frozen from the
    # search that tried every value of the target at every node, which
    # needed --limit 100000000 to finish `fibrant cube:2 --dim 3`
    rep = is_fibrant(R2S, 3)
    assert rep.summary() == (
        "cap filling in cube2 through dimension 3: 2/12 checks passed [FAIL]"
    )
    assert [(e.label, e.detail) for e in rep.entries[6:]] == [
        (f"cap (3,{j},{eps})", detail)
        for j in (1, 2, 3)
        for eps, detail in ((0, "114 maps, 32 without extension"),
                            (1, "130 maps, 56 without extension"))
    ]


def test_boundary_square_cap_filling_through_dimension_three():
    # recorded from the search over the maps off each cap that the face
    # join replaced
    rep = is_fibrant(boundary(2, QS)[0], 3)
    assert rep.summary() == (
        "cap filling in bd2 through dimension 3: 2/12 checks passed [FAIL]"
    )
    assert [(e.label, e.detail) for e in rep.entries] == [
        (f"cap ({n},{j},{eps})", detail)
        for n, details in ((1, ("4 maps, 0 without extension",) * 2),
                           (2, ("34 maps, 18 without extension",) * 2),
                           (3, ("88 maps, 24 without extension",
                                "88 maps, 32 without extension")))
        for j in range(1, n + 1)
        for eps, detail in zip((0, 1), details)
    ]


def test_cap_join_charges_its_draws():
    # cap(3,1,0) -> cube2 is counted within the bound, cap(3,1,1) is not
    with resource_limit(2000), pytest.raises(
            ResourceBound, match="candidate values for maps cap3_1_1 -> cube2"):
        is_fibrant(R2S, 3)


def oracle_cap_lines(X, up_to_n):
    """The cap lines of is_fibrant by the route Yoneda replaced: search
    the maps off each n-cube, restrict them along each cap's inclusion
    and count the maps off the cap that are not among them."""
    lines = []
    for n in range(1, up_to_n + 1):
        extensions = hom_presheaf(representable(n, QS), X)
        for j in range(1, n + 1):
            for eps in (0, 1):
                box, incl = cap(n, j, eps, QS)
                filled = [incl.then(v).mapping for v in extensions]
                horns = hom_presheaf(box, X)
                stuck = sum(u.mapping not in filled for u in horns)
                lines.append((f"cap ({n},{j},{eps})",
                              f"{len(horns)} maps, {stuck} without extension"))
    return lines


@pytest.mark.parametrize(
    "spec, up_to_n",
    [(spec, 2) for spec in ("point", "boundary:1", "cube:1", "boundary:2", "cube:2",
                            "quotient:2:(1 2)")]
    + [("point", 3), ("cube:1", 3)],
)
def test_fibrancy_by_yoneda_matches_cube_search(spec, up_to_n):
    X = load_spec(spec, QS)
    rep = is_fibrant(X, up_to_n)
    assert [(e.label, e.detail) for e in rep.entries] == oracle_cap_lines(X, up_to_n)
    assert [e.ok for e in rep.entries] == [
        e.detail.endswith(" 0 without extension") for e in rep.entries]


def test_searches_index_in_level_order_not_table_order():
    # the dump of the square's boundary with every generator block's pairs
    # listed last level entry first, so each action table's keys run
    # against the level
    lines, pairs = [], []
    for line in dumps_presheaf(boundary(2, QS)[0]).splitlines() + [""]:
        if line.startswith("  "):
            pairs.append(line)
        else:
            lines += pairs[::-1] + [line]
            pairs = []
    bd = loads_presheaf("\n".join(lines), name="bd2")
    for _, g in generator_morphisms(QS, bd.N):
        assert list(bd.action[g]) == list(bd.level(g.dst))[::-1]
    C2 = load_spec("cube:2", QS)
    for X, Y in [(C2, bd), (bd, C2), (bd, bd)]:
        got = [u.mapping for u in hom_presheaf(X, Y)]
        assert got == [u.mapping for u in oracle_hom_presheaf(X, Y)]
        assert got
    rep = is_fibrant(bd, 2)
    assert [(e.label, e.detail) for e in rep.entries] == oracle_cap_lines(bd, 2)


def test_fibrancy_sweep_builds_each_cube_once(monkeypatch):
    # the maps off a cap are counted over its faces, so the sweep builds
    # no cap and no cube but its input
    build = presheaf_module._built_cube.__wrapped__
    built = []

    def counted(n, site, N):
        built.append((n, N))
        return build(n, site, N)

    monkeypatch.setattr(presheaf_module, "_built_cube", cache(counted))
    is_fibrant(representable(0, QS), 3)
    assert built == [(0, 0)]


def test_fibrancy_guards():
    with pytest.raises(InputError):
        is_fibrant(representable(1, SiteTag.Q), 1)
    with pytest.raises(InputError):
        is_fibrant(R1S, -1)


# -- the two extension routes stay in agreement ------------------------------


@pytest.mark.parametrize(
    "X", [R1S, BD1S, boundary(2, QS)[0]], ids=lambda x: x.name
)
def test_extension_methods_agree_on_corpus(X):
    assert extension_methods_agree(X, X.N + 1)


# -- the constrained search against the filter it replaced ------------------


def agrees(w, i, u):
    """w o i = u, checked entry by entry."""
    return all(
        w.mapping[k][i.mapping[k][a]] == x
        for k, row in u.mapping.items()
        for a, x in row.items()
    )


def fills(p, w):
    return agrees(w, p.left, p.top) and all(
        p.right.mapping[n][w.mapping[n][b]] == y
        for n, row in p.bottom.mapping.items()
        for b, y in row.items()
    )


def lifting_squares():
    box1, incl1 = cap(1, 1, 0, QS)
    box2, incl2 = cap(2, 1, 0, QS)
    t_bd1, t_r1, t_r2 = terminal_map(BD1S), terminal_map(R1S), terminal_map(R2S)
    empty = empty_presheaf(QS, 0)
    squares = [
        LiftingProblem(BD1S_INCL, identity_map(R1S), BD1S_INCL, identity_map(R1S)),
        LiftingProblem(
            PresheafMap(empty, R0, {0: {}}),
            t_r1,
            PresheafMap(empty, R1S, {0: {}}),
            PresheafMap(R0, t_r1.dst, {0: {PT: t_r1.dst.level(0)[0]}}),
        ),
        LiftingProblem(BD1S_INCL, t_bd1, identity_map(BD1S), t_r1),
        LiftingProblem(t_bd1, t_bd1, identity_map(BD1S), identity_map(t_bd1.dst)),
        LiftingProblem(incl2, t_r1, hom_presheaf(box2, R1S)[0],
                       hom_presheaf(R2S, t_r1.dst)[0]),
    ]
    squares += [
        LiftingProblem(incl1, t_bd1, top, t_r1) for top in hom_presheaf(box1, BD1S)
    ]
    squares += [
        LiftingProblem(incl2, t_r2, top, terminal_map(R2S))
        for top in hom_presheaf(box2, R2S)
    ]
    # collapsing the interval to a point: a top that wraps the edge around
    # the circle is prescribed only on sections degenerate in the point
    circle = pushout(BD1S_INCL, t_bd1)[0]
    squares += [
        LiftingProblem(t_r1, terminal_map(circle), top, identity_map(t_r1.dst))
        for top in hom_presheaf(R1S, circle)
    ]
    return squares


def test_lifting_search_matches_filtered_oracle():
    unconstrained = {}
    for p in lifting_squares():
        B, X = p.left.dst, p.right.src
        key = (B.name, B.N, X.name, X.N)
        if key not in unconstrained:
            unconstrained[key] = hom_presheaf(B, X)
        expected = [w for w in unconstrained[key] if agrees(w, p.left, p.top)]
        got = hom_presheaf(B, X, fixed=[(p.left, p.top)])
        assert [w.mapping for w in got] == [w.mapping for w in expected]
        first = next((w for w in expected if fills(p, w)), None)
        w = oracle_solve_lifting(p)
        assert (w.mapping if w else None) == (first.mapping if first else None)


def test_solve_lifting_reads_each_square_as_the_oracle():
    reports = {}  # keyed by id: the list of squares keeps every map alive
    for p in lifting_squares():
        key = (id(p.left), id(p.right))
        if key not in reports:
            reports[key] = solve_lifting(p.left, p.right)
        entry = square_entry(reports[key], p.left, p.right, p.top, p.bottom)
        assert entry.ok == (oracle_solve_lifting(p) is not None)


@pytest.mark.parametrize(
    "target, a, b, n",
    [
        (R1S, V0, V1, 1),
        (R1S, V0, V1, 0),
        (R1S, V1, V1, 0),
        (BD1S, V0, V1, 1),
        (BD1S, V0, V0, 1),
        (R2S, "(0,0):0->2", "(1,1):0->2", 1),
        (R2S, "(0,0):0->2", "(1,1):0->2", 2),
        (R2S, "(0,1):0->2", "(1,1):0->2", 1),
    ],
)
def test_homotopy_search_matches_filtered_oracle(target, a, b, n):
    f, g = vertex_map(target, a), vertex_map(target, b)
    cr, e0, e1 = cylinder(R0, n)
    expected = [
        h.mapping
        for h in hom_presheaf(cr.product, target)
        if agrees(h, e0, f) and agrees(h, e1, g)
    ]
    got = hom_presheaf(cr.product, target, fixed=[(e0, f), (e1, g)])
    assert [h.mapping for h in got] == expected
    h = find_homotopy(f, g, n)
    assert (h.h.mapping if h else None) == (expected[0] if expected else None)


@pytest.mark.parametrize("u", [BD1S_INCL, identity_map(R1S)], ids=["incl", "id"])
def test_self_homotopy_search_matches_filtered_oracle(u):
    cr, e0, e1 = cylinder(u.src, 1)
    expected = [
        h.mapping
        for h in hom_presheaf(cr.product, u.dst)
        if agrees(h, e0, u) and agrees(h, e1, u)
    ]
    got = hom_presheaf(cr.product, u.dst, fixed=[(e0, u), (e1, u)])
    assert [h.mapping for h in got] == expected and expected
