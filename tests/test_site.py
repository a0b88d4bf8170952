"""Exhaustive and example-based checks for the site layer.

Expected values below were derived by hand (composition tables, hom-set
counts, normal forms) before the implementation existed; they are frozen
here as regression oracles.
"""

import itertools
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symcube import site
from symcube.errors import (
    CompositionMismatch,
    IndexOutOfRange,
    InputError,
    MorphismSyntaxError,
    NotEpi,
    ResourceBound,
    resource_limit,
)
from symcube.presheaf import _printed_hom, generator_morphisms
from symcube.site import (
    Conj,
    Const,
    Factorization,
    Morphism,
    Permutation,
    SiteTag,
    _cosymmetry_perms,
    check_split_witness,
    classify,
    compose,
    delta,
    enumerate_factorizations,
    enumerate_hom,
    ez_factor,
    factor,
    gamma,
    hom_count,
    hom_rank,
    identity,
    is_box_arrow,
    mediator,
    parse_morphism,
    pi,
    postcompose_table,
    precompose_table,
    sections_of,
    sigma,
    split_pushout,
    symmetry,
    tensor,
    verify_ez,
    verify_relations,
    verify_split_pushouts,
    vertices_action,
)

Q, QS = SiteTag.Q, SiteTag.QSIGMA


def all_morphisms(max_obj, site_tag=QS):
    for m in range(max_obj + 1):
        for n in range(max_obj + 1):
            yield from enumerate_hom(m, n, site_tag)


@st.composite
def morphisms(draw, max_src=5, max_dst=5):
    m = draw(st.integers(0, max_src))
    n = draw(st.integers(0, max_dst))
    avail = list(range(1, m + 1))
    entries = []
    for _ in range(n):
        kinds = ["const0", "const1"] + (["conj"] if avail else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "const0":
            entries.append(Const(0))
        elif kind == "const1":
            entries.append(Const(1))
        else:
            length = draw(st.integers(1, len(avail)))
            chosen = draw(st.permutations(avail))[:length]
            for s in chosen:
                avail.remove(s)
            entries.append(Conj(chosen))
    return Morphism(m, n, entries)


# -- parsing and printing ----------------------------------------------------


def test_parse_print_round_trip_examples():
    for text in [
        "(x3,1,x1^x5^x2,0):5->4",
        "():0->0",
        "(0,1):0->2",
        "(x1,x2):2->2",
        "(x2^x1):2->1",
        "(1):0->1",
    ]:
        assert str(parse_morphism(text)) == text


def test_parse_tolerates_whitespace():
    f = parse_morphism("( x3 , 1 , x1 ^ x5 ^ x2 , 0 ) : 5 -> 4")
    assert str(f) == "(x3,1,x1^x5^x2,0):5->4"


@pytest.mark.parametrize(
    "bad",
    [
        "(x1,x2)",  # no arity
        "(x1&x2):2->1",
        "(x1^x1):1->1",  # repeated symbol
        "(x3):2->1",  # symbol out of range
        "(x1,x1):2->2",  # symbol reused across entries
        "(2):0->1",
        "x1:1->1",
        "(x1):1->2",  # wrong entry count
    ],
)
def test_parse_rejects(bad):
    with pytest.raises(MorphismSyntaxError):
        parse_morphism(bad)


@given(morphisms())
def test_parse_print_round_trip_random(f):
    assert parse_morphism(str(f)) == f


# -- generators --------------------------------------------------------------


def test_generator_examples():
    assert str(identity(0)) == "():0->0"
    assert str(identity(2)) == "(x1,x2):2->2"
    assert str(delta(2, 1, 2)) == "(x1,1,x2):2->3"
    assert str(gamma(1, 1)) == "(x1^x2):2->1"
    assert str(sigma(1, 1)) == "(x2):2->1"
    assert str(pi(Permutation((2, 1)))) == "(x2,x1):2->2"
    assert str(symmetry(1, 1)) == "(x2,x1):2->2"
    assert str(symmetry(2, 1)) == "(x3,x1,x2):3->3"


def test_generator_bounds():
    with pytest.raises(IndexOutOfRange):
        delta(0, 0, 2)
    with pytest.raises(IndexOutOfRange):
        delta(4, 1, 2)
    with pytest.raises(IndexOutOfRange):
        sigma(3, 1)
    with pytest.raises(IndexOutOfRange):
        gamma(2, 1)
    with pytest.raises(IndexOutOfRange):
        gamma(1, 0)


# -- composition -------------------------------------------------------------


def test_worked_compositions():
    cases = [
        ("(x3,x1^x2):3->2", "(0,x1,x5):5->3", "(x5,0):5->2"),
        ("(x2^x1):2->1", "(x1^x2,x3):3->2", "(x3^x1^x2):3->1"),
        ("(x1^x2):2->1", "(1,1):0->2", "(1):0->1"),
        ("(0,x1^x4):5->2", "(x10,0,0,1,x3):10->5", "(0,x10):10->2"),
    ]
    for g, f, expected in cases:
        assert str(compose(parse_morphism(g), parse_morphism(f))) == expected


def test_compose_mismatch():
    with pytest.raises(CompositionMismatch):
        compose(parse_morphism("(x1):1->1"), parse_morphism("(x1,x2):2->2"))


def test_identity_laws_hom_2_3():
    for f in enumerate_hom(2, 3, QS):
        assert compose(identity(3), f) == f
        assert compose(f, identity(2)) == f


def test_associativity_exhaustive():
    rng = range(3)
    for a, b, c, d in itertools.product(rng, repeat=4):
        for f in enumerate_hom(a, b, QS):
            for g in enumerate_hom(b, c, QS):
                gf = compose(g, f)
                for h in enumerate_hom(c, d, QS):
                    assert compose(h, gf) == compose(compose(h, g), f)


# -- tensor ------------------------------------------------------------------


def test_tensor_example():
    f = parse_morphism("(x1^x2):2->1")
    g = parse_morphism("(0,x1):1->2")
    assert str(tensor(f, g)) == "(x1^x2,0,x3):3->3"


def test_tensor_unit():
    for f in enumerate_hom(2, 1, QS):
        assert tensor(f, identity(0)) == f
        assert tensor(identity(0), f) == f


def test_interchange_exhaustive():
    objs = range(3)
    all_maps = [f for f in all_morphisms(2)]
    tens = {}
    for f in all_maps:
        for g in all_maps:
            tens[f, g] = tensor(f, g)
    pairs = []  # (f1, f2, f1 o f2) with f2 applied first
    for a, b, c in itertools.product(objs, repeat=3):
        for f2 in enumerate_hom(a, b, QS):
            for f1 in enumerate_hom(b, c, QS):
                pairs.append((f1, f2, compose(f1, f2)))
    for f1, f2, c12 in pairs:
        for g1, g2, c34 in pairs:
            assert compose(tens[f1, g1], tens[f2, g2]) == tens[c12, c34]


def test_symmetry_naturality():
    maps = list(all_morphisms(2))
    for f in maps:
        for g in maps:
            lhs = compose(symmetry(f.dst, g.dst), tensor(f, g))
            rhs = compose(tensor(g, f), symmetry(f.src, g.src))
            assert lhs == rhs


def test_symmetry_self_inverse():
    for m in range(3):
        for n in range(3):
            assert compose(symmetry(n, m), symmetry(m, n)) == identity(m + n)


# -- normal form -------------------------------------------------------------


def test_worked_factorization():
    f = parse_morphism("(x3,1,x1^x5^x2,0):5->4")
    fac = factor(f)
    assert fac.faces == ((4, 0), (2, 1))
    assert fac.conjs == (2, 3)
    assert fac.degens == (4,)
    assert fac.perm.one_line == (2, 4, 1, 3)
    assert str(fac.perm) == "(1 2 4 3)"
    assert fac.evaluate() == f


def test_factor_identity():
    fac = factor(identity(3))
    assert fac.faces == () and fac.conjs == () and fac.degens == ()
    assert fac.perm.is_identity()


def test_factor_round_trip_exhaustive():
    for m in range(4):
        for n in range(4):
            for f in enumerate_hom(m, n, QS):
                assert factor(f).evaluate() == f


def test_factorization_bijection():
    for m in range(4):
        for n in range(4):
            facs = list(enumerate_factorizations(m, n))
            assert len(facs) == hom_count(m, n, QS)
            evaluated = {fac.evaluate() for fac in facs}
            assert evaluated == set(enumerate_hom(m, n, QS))


def test_generator_word_recomposes():
    # every letter is a face, degeneracy, conjunction or adjacent swap
    letters = set()
    for n in range(4):
        letters |= {delta(i, eps, n) for i in range(1, n + 2) for eps in (0, 1)}
        letters |= {sigma(i, n) for i in range(1, n + 2)}
        letters |= {gamma(i, n) for i in range(1, n + 1)}
        letters |= {pi(Permutation.transposition(t, t + 1, n)) for t in range(1, n)}
    for f in all_morphisms(3):
        result = identity(f.src)
        for g in factor(f).generators():
            assert g in letters
            result = compose(g, result)
        assert result == f


def test_plus_minus_structure():
    fac = factor(parse_morphism("(x2,0,x1):2->3"))
    assert fac.conjs == () and fac.degens == ()  # in the plus part
    fac = factor(parse_morphism("(x3^x1):3->1"))
    assert fac.faces == ()  # in the minus part


@given(morphisms())
def test_factor_round_trip_random(f):
    assert factor(f).evaluate() == f


# the normal form of (x3,1,x1^x5^x2,0):5->4 with one field spoiled at a time
@pytest.mark.parametrize(
    "faces, conjs, perm, degens, dst",
    [
        (((2, 1), (4, 0)), (2, 3), (2, 4, 1, 3), (4,), 4),
        (((4, 2), (2, 1)), (2, 3), (2, 4, 1, 3), (4,), 4),
        (((4, 0), (2, 1)), (3, 2), (2, 4, 1, 3), (4,), 4),
        (((4, 0), (2, 1)), (2, 4), (2, 4, 1, 3), (4,), 4),
        (((4, 0), (2, 1)), (2, 3), (2, 4, 1, 3), (6,), 4),
        (((4, 0), (2, 1)), (2, 3), (2, 1, 3), (4,), 4),
        (((4, 0), (2, 1)), (2, 3), (2, 4, 1, 3), (4,), 3),
    ],
)
def test_factorization_rejects_malformed_fields(faces, conjs, perm, degens, dst):
    Factorization(((4, 0), (2, 1)), (2, 3), Permutation((2, 4, 1, 3)), (4,), 5, 4)
    with pytest.raises(InputError):
        Factorization(faces, conjs, Permutation(perm), degens, 5, dst)


def test_factorization_contracts_hold_without_asserts():
    for call, error in (
        ("Factorization((), (), Permutation((1,)), (), 1, 2)",
         "InputError: malformed factorization: bad arity"),
        ("compose(delta(1, 0, 1), delta(1, 0, 1))",
         "CompositionMismatch: cannot compose (0,x1):1->2 after (0,x1):1->2"),
    ):
        proc = subprocess.run(
            [sys.executable, "-O", "-c",
             f"from symcube.site import Factorization, Permutation, compose, delta; {call}"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert error in proc.stderr


# -- permutations ------------------------------------------------------------


def after(p: Permutation, q: Permutation) -> Permutation:
    """The composite p o q (q applied first); the library composes
    cosymmetries as arrows and never needs it."""
    return Permutation(p(q(i)) for i in range(1, p.n + 1))


def test_cycle_parsing():
    p = Permutation.from_cycles("(1 2 4 3)", 4)
    assert p.one_line == (2, 4, 1, 3)
    assert Permutation.from_cycles("id", 3).is_identity()
    assert Permutation.from_cycles("(1 2)(3 4)", 4).one_line == (2, 1, 4, 3)
    with pytest.raises(MorphismSyntaxError):
        Permutation.from_cycles("(1 5)", 3)
    assert Permutation.from_cycles("(1 3)(2 4)", 4).one_line == (3, 4, 1, 2)


@pytest.mark.parametrize("text, letter", [
    ("(1 2)(1 2)", 1), ("(1 2 3)(1 2 3)", 1), ("(1 2)(2 3)", 2), ("(1 2)(3 4)(4 1)", 4),
])
def test_cycles_sharing_a_letter_are_refused(text, letter):
    """Cycles are disjoint: one that reuses a letter of an earlier cycle is
    refused by name, not read as a product or as the last cycle alone."""
    with pytest.raises(MorphismSyntaxError, match=rf"share the letter {letter}; write disjoint"):
        Permutation.from_cycles(text, 4)


def test_permutation_composition_is_functorial():
    for p_line in itertools.permutations((1, 2, 3)):
        p = Permutation(p_line)
        assert compose(pi(p), pi(p.inverse())) == identity(3)
        for q_line in itertools.permutations((1, 2, 3)):
            q = Permutation(q_line)
            assert compose(pi(p), pi(q)) == pi(after(p, q))


@given(st.permutations(list(range(1, 7))))
def test_adjacent_word_recomposes(line):
    p = Permutation(line)
    acc = Permutation.identity(p.n)
    for b in p.adjacent_word():
        acc = after(acc, Permutation.transposition(b, b + 1, p.n))
    assert acc == p


# -- hom enumeration ---------------------------------------------------------


def test_hom_examples():
    assert len(enumerate_hom(2, 0, QS)) == 1
    assert {str(f) for f in enumerate_hom(0, 2, QS)} == {
        "(0,0):0->2", "(0,1):0->2", "(1,0):0->2", "(1,1):0->2"
    }
    assert {str(f) for f in enumerate_hom(2, 1, QS)} == {
        "(0):2->1", "(1):2->1", "(x1):2->1", "(x2):2->1",
        "(x1^x2):2->1", "(x2^x1):2->1",
    }
    assert {str(f) for f in enumerate_hom(1, 1, Q)} == {
        "(0):1->1", "(1):1->1", "(x1):1->1"
    }


def test_hom_counts_frozen():
    # counts derived by hand from the normal form before implementation
    assert hom_count(2, 1, QS) == 6
    assert hom_count(1, 1, Q) == 3
    assert hom_count(1, 2, QS) == 8
    assert hom_count(2, 2, QS) == 22
    assert hom_count(3, 3, QS) == 302
    # cube levels |QSigma(k, n)|
    assert [hom_count(k, 1, QS) for k in range(2)] == [2, 3]
    assert [hom_count(k, 2, QS) for k in range(3)] == [4, 8, 22]
    assert [hom_count(k, 3, QS) for k in range(4)] == [8, 20, 68, 302]


def test_hom_count_matches_enumeration():
    for m in range(4):
        for n in range(4):
            for tag in (QS, Q):
                assert len(enumerate_hom(m, n, tag)) == hom_count(m, n, tag)


def test_terminal_and_vertices():
    for m in range(5):
        assert hom_count(m, 0, QS) == 1
    for n in range(7):
        assert hom_count(0, n, QS) == 2 ** n


def test_enumeration_is_sorted_and_q_subset():
    for m in range(4):
        for n in range(4):
            homs = enumerate_hom(m, n, QS)
            assert list(homs) == sorted(homs)
            q_homs = set(enumerate_hom(m, n, Q))
            assert q_homs == {f for f in homs if site.is_box_arrow(f)}


def oracle_enumerate_hom(m, n, site_tag):
    """Hom([m],[n]) built in any order and then sorted by Morphism.key,
    through the checked constructors."""
    results = []

    def build(entries, avail, last_used):
        if len(entries) == n:
            results.append(Morphism(m, n, entries))
            return
        build(entries + [Const(0)], avail, last_used)
        build(entries + [Const(1)], avail, last_used)
        if site_tag is QS:
            for L in range(1, len(avail) + 1):
                for chosen in itertools.permutations(avail, L):
                    build(entries + [Conj(chosen)], avail - set(chosen), last_used)
        else:
            # Q-arrows use symbols in increasing order, singly
            for s in range(last_used + 1, m + 1):
                build(entries + [Conj((s,))], avail, s)

    build([], frozenset(range(1, m + 1)), 0)
    return tuple(sorted(results, key=Morphism.key))


def _oracle_range(tag):
    return [*itertools.product(range(5), repeat=2), *([(5, 3)] if tag is QS else [])]


@pytest.mark.parametrize("tag", [QS, Q])
def test_enumeration_is_the_sorted_oracle(tag):
    """Hom sets come out in canonical order as they are built."""
    for m, n in _oracle_range(tag):
        assert enumerate_hom(m, n, tag) == oracle_enumerate_hom(m, n, tag), (m, n)


@pytest.mark.parametrize("tag", [QS, Q])
def test_printed_hom_prints_each_arrow(tag):
    for m, n in _oracle_range(tag):
        assert _printed_hom(m, n, tag) == tuple(map(str, enumerate_hom(m, n, tag))), (m, n)


def test_entries_hash_and_order_as_printed():
    """Entries are a builtin int and tuple: every arrow and composite
    equals, and hashes as, the parse of its printed form, and hom sets
    sort as by the entry keys (Const 0 < Const 1 < any Conj)."""

    def entry_key(e):
        return (0, e.bit) if isinstance(e, Const) else (1,) + e.symbols

    for tag in (QS, Q):
        for m, n in itertools.product(range(4), repeat=2):
            homs = enumerate_hom(m, n, tag)
            assert list(homs) == sorted(homs, key=lambda f: (
                f.src, f.dst, tuple(entry_key(e) for e in f.entries)))
            for f in homs:
                back = parse_morphism(str(f))
                assert back == f and hash(back) == hash(f)
        parsed = {}
        for m, n, p in itertools.product(range(4), repeat=3):
            for f in enumerate_hom(m, n, tag):
                for g in enumerate_hom(n, p, tag):
                    gf = compose(g, f)
                    text = str(gf)
                    if text not in parsed:
                        parsed[text] = parse_morphism(text)
                    assert gf == parsed[text] and hash(gf) == hash(parsed[text])


def test_entry_constructors_reject_without_asserts():
    for call, error in (
        ("Conj((1, 1))", "repeated symbol in (1, 1)"),
        ("Conj((0,))", "bad symbols (0,)"),
        ("Conj((Const(1),))", "bad symbols (Const(1),)"),
        ("Conj(())", "conjunctions are nonempty"),
        ("Const(2)", "constant 2 is not a bit"),
        ("Morphism(1, 1, [Conj((2,))])", "symbol x2 outside 1..1"),
        ("Morphism(2, 2, [Conj((1,)), Conj((1,))])", "symbol x1 used twice"),
        ("Morphism(1, 1, [1])", "1 is not an entry"),
        ("Morphism(1, 1, [(1,)])", "(1,) is not an entry"),
    ):
        proc = subprocess.run(
            [sys.executable, "-O", "-c",
             f"from symcube.site import Conj, Const, Morphism; {call}"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert f"MorphismSyntaxError: {error}" in proc.stderr, call


def _generators(tag, N):
    return [g for _, g in generator_morphisms(tag, N)]


def test_precompose_tables_agree_with_compose():
    for tag in (QS, Q):
        for g in _generators(tag, 4):
            for n in range(5):
                table = precompose_table(g, n, tag)
                assert len(table) == hom_count(g.dst, n, tag)
                homs = enumerate_hom(g.src, n, tag)
                for f, r in zip(enumerate_hom(g.dst, n, tag), table):
                    assert homs[r] == compose(f, g)


def test_postcompose_tables_agree_with_compose():
    """On the lifts id_p (+) u (+) id_q of a tagged coend's relations:
    u a face or swap generator, or an epi of its EZ pairs; a two-factor
    coend lifts with p = 0 or q = 0, a three-factor one with both."""
    for tag in (QS, Q):
        us = [u for u in _generators(tag, 3) if u.src <= u.dst]
        us += [e for a, b in itertools.product(range(4), repeat=2)
               for e in enumerate_hom(a, b, tag) if classify(e).is_epi]
        for u in us:
            for p, q in itertools.product(range(4), repeat=2):
                h = tensor(tensor(identity(p), u), identity(q))
                if max(h.src, h.dst) > 4:
                    continue
                for k in range(5):
                    table = postcompose_table(h, k, tag)
                    assert len(table) == hom_count(k, h.src, tag)
                    homs = enumerate_hom(k, h.dst, tag)
                    for f, r in zip(enumerate_hom(k, h.src, tag), table):
                        assert homs[r] == compose(h, f)


@pytest.mark.parametrize("tag", [QS, Q])
def test_composition_tables_of_dimension_zero(tag):
    """Arrows into [0] have no entries, so a table read by column has no
    column there: each such case is answered without one."""
    for g in _generators(tag, 3):  # f o g for the one f: [g.dst] -> [0]
        assert precompose_table(g, 0, tag) == (0,)
    for m, k in itertools.product(range(4), repeat=2):
        bang = enumerate_hom(m, 0, tag)[0]  # h.dst = 0: every h o f is [k] -> [0]
        assert postcompose_table(bang, k, tag) == (0,) * hom_count(k, m, tag)
    for h in enumerate_hom(0, 2, tag):  # h.src = 0: f is the one [k] -> [0]
        for k in range(4):
            homs = enumerate_hom(k, 2, tag)
            assert homs[postcompose_table(h, k, tag)[0]] == compose(h, enumerate_hom(k, 0, tag)[0])
    for g in enumerate_hom(0, 2, tag):  # g.dst = 2 from [0]: constants only
        assert [enumerate_hom(0, 1, tag)[r] for r in precompose_table(g, 1, tag)] == [
            compose(f, g) for f in enumerate_hom(2, 1, tag)]


def test_hom_rank_inverts_enumeration():
    for tag in (QS, Q):
        for m, n in itertools.product(range(4), repeat=2):
            rank = hom_rank(m, n, tag)
            assert [rank[f.entries] for f in enumerate_hom(m, n, tag)] == list(
                range(hom_count(m, n, tag)))


def test_resource_bound():
    with resource_limit(100):
        with pytest.raises(ResourceBound):
            enumerate_hom(3, 3, QS)
        assert len(enumerate_hom(2, 1, QS)) == 6


def test_resource_limit_nests_and_restores():
    with resource_limit(100):
        with resource_limit(None):
            assert len(enumerate_hom(3, 3, QS)) == 302
        # the cached hom set is charged again
        with pytest.raises(ResourceBound, match=r"hom set QSigma\(\[3\],\[3\]\)"):
            enumerate_hom(3, 3, QS)
    assert len(enumerate_hom(3, 3, QS)) == 302


# -- classification ----------------------------------------------------------


def test_classify_examples():
    fl = classify(parse_morphism("(x2,x1):2->2"))
    assert fl.is_iso and fl.is_mono and fl.is_epi
    fl = classify(parse_morphism("(x1^x2):2->1"))
    assert fl.is_epi and not fl.is_mono and fl.in_minus
    fl = classify(parse_morphism("(0,x1):1->2"))
    assert fl.is_mono and not fl.is_epi and fl.in_plus and fl.in_Q
    assert not classify(parse_morphism("(x2^x1):2->1")).in_Q
    assert classify(parse_morphism("(x1,x3):3->2")).in_Q


def test_classify_against_categorical_definition():
    """is_mono/is_epi agree with cancellation tested over probes up to dim 3."""
    for m in range(3):
        for n in range(3):
            for f in enumerate_hom(m, n, QS):
                mono_cat = all(
                    compose(f, g1) != compose(f, g2)
                    for t in range(4)
                    for g1, g2 in itertools.combinations(
                        enumerate_hom(t, m, QS), 2
                    )
                )
                epi_cat = all(
                    compose(g1, f) != compose(g2, f)
                    for t in range(4)
                    for g1, g2 in itertools.combinations(
                        enumerate_hom(n, t, QS), 2
                    )
                )
                fl = classify(f)
                assert fl.is_mono == mono_cat, f
                assert fl.is_epi == epi_cat, f


def test_thickening_bijection():
    """Aut([m]) x Q+(m,n) -> QSigma+(m,n), (p, d) |-> d o pi(p)."""
    for m in range(4):
        for n in range(4):
            q_monos = [
                f for f in enumerate_hom(m, n, Q) if classify(f).in_plus
            ]
            sigma_monos = {
                f for f in enumerate_hom(m, n, QS) if classify(f).in_plus
            }
            images = [
                compose(d, pi(Permutation(p)))
                for p in itertools.permutations(range(1, m + 1))
                for d in q_monos
            ]
            assert len(images) == len(set(images))
            assert set(images) == sigma_monos


# -- vertices ----------------------------------------------------------------


def test_vertices_action_examples():
    table = vertices_action(parse_morphism("(x1^x2):2->1"))
    assert table[(1, 1)] == (1,)
    assert table[(1, 0)] == (0,)
    swap = vertices_action(parse_morphism("(x2,x1):2->2"))
    assert swap[(1, 0)] == (0, 1)


def test_vertices_not_faithful_witness_found_by_scan():
    homs = enumerate_hom(2, 1, QS)
    collisions = [
        (f, g)
        for f, g in itertools.combinations(homs, 2)
        if vertices_action(f) == vertices_action(g)
    ]
    assert collisions == [
        (parse_morphism("(x1^x2):2->1"), parse_morphism("(x2^x1):2->1"))
    ]


# -- EZ structure ------------------------------------------------------------


def test_ez_factor_examples():
    epi, mono = ez_factor(parse_morphism("(0,x1^x2):2->2"))
    assert str(epi) == "(x1^x2):2->1"
    assert str(mono) == "(0,x1):1->2"
    assert ez_factor(identity(3)) == (identity(3), identity(3))
    epi, mono = ez_factor(parse_morphism("(x2^x1):2->1"))
    assert str(epi) == "(x2^x1):2->1" and mono == identity(1)


def oracle_classify(f):
    """The flags read off the normal form, the route classify replaced."""
    fac = factor(f)
    in_plus = not fac.conjs and not fac.degens
    in_minus = not fac.faces
    return site.Flags(in_Q=is_box_arrow(f), in_plus=in_plus, in_minus=in_minus,
                      is_mono=in_plus, is_epi=in_minus, is_iso=in_plus and in_minus)


def oracle_ez_factor(f):
    """The (epi, mono) split evaluated from the normal form's two halves."""
    fac = factor(f)
    q = fac.ell - len(fac.conjs)
    epi = Factorization((), fac.conjs, fac.perm, fac.degens, f.src, q).evaluate()
    mono = Factorization(fac.faces, (), Permutation.identity(q), (), q, f.dst).evaluate()
    return epi, mono


@given(morphisms())
def test_classify_and_ez_factor_match_the_normal_form(f):
    assert classify(f) == oracle_classify(f)
    epi, mono = ez_factor(f)
    assert (epi, mono) == oracle_ez_factor(f)
    assert hash(epi) == hash(Morphism(epi.src, epi.dst, epi.entries))
    assert hash(mono) == hash(Morphism(mono.src, mono.dst, mono.entries))


def mediator_count(e1, m1, e2, m2):
    """The cosymmetries th with th o e1 = e2 and m2 o th = m1, by search
    over all of them: the count verify_ez took before mediator."""
    return sum(
        1
        for th in map(pi, _cosymmetry_perms(QS, e1.dst))
        if compose(th, e1) == e2 and compose(m2, th) == m1
    )


@st.composite
def epis(draw, m):
    """An epi [m] -> [q]: some symbols in some order, cut into blocks."""
    used = draw(st.permutations(range(1, m + 1)))[:draw(st.integers(0, m))]
    cuts = sorted(draw(st.sets(st.integers(1, len(used) - 1)))) if len(used) > 1 else []
    ends = list(zip([0, *cuts], [*cuts, len(used)])) if used else []
    return Morphism(m, len(ends), [Conj(used[a:b]) for a, b in ends])


@st.composite
def epi_pairs(draw, max_src=5):
    """Two epis with a common source; half the time the second has the
    first's entries in another order."""
    m = draw(st.integers(0, max_src))
    e1 = draw(epis(m))
    if draw(st.booleans()):
        return e1, Morphism(m, e1.dst, draw(st.permutations(e1.entries)))
    return e1, draw(epis(m))


@given(epi_pairs())
def test_mediator_matches_the_cosymmetry_search(pair):
    e1, e2 = pair
    th = mediator(e1, e2)
    # a face after either side: m2 o th = m1 holds for th alone
    m2 = delta(1, 0, e2.dst)
    m1 = m2 if th is None else compose(m2, th)
    assert mediator_count(e1, m1, e2, m2) == (th is not None)
    if th is not None:
        assert classify(th).is_iso and compose(th, e1) == e2


def test_mediator_examples():
    e1, e2 = parse_morphism("(x1^x3,x2):3->2"), parse_morphism("(x2,x1^x3):3->2")
    assert str(mediator(e1, e2)) == "(x2,x1):2->2"
    assert mediator(e1, e1) == identity(2)
    assert mediator(e1, parse_morphism("(x3^x1,x2):3->2")) is None
    assert mediator(e1, sigma(1, 2)) is None
    with pytest.raises(InputError):
        mediator(parse_morphism("(0,0):1->2"), parse_morphism("(0,0):1->2"))


def test_verify_ez_passes():
    report = verify_ez(3)
    assert report.ok, str(report)


@pytest.mark.parametrize(
    "wrong",
    [
        lambda e: [],
        lambda e: [Morphism(e.dst, e.src, [Const(0)] * e.src)],
    ],
    ids=["no-section", "constant-section"],
)
def test_verify_ez_composes_the_sections(monkeypatch, wrong):
    monkeypatch.setattr(site, "sections_of", wrong)
    report = verify_ez(2)
    failed = {entry.label for entry in report.failures}
    assert "all epis split Hom(2,1)" in failed
    assert not any("split" not in label for label in failed)


def test_verify_ez_charges_its_pairings():
    # the pairs of factorizations are charged before they are compared,
    # so the bound stops the suite in Hom(3,4), long before Hom(4,4)
    with resource_limit(2000), pytest.raises(
        ResourceBound, match=r"3952 pairs of factorizations in Hom\(3,4\)"
    ):
        verify_ez(4)


def test_sections_of_generators():
    assert sections_of(sigma(2, 2)) == [delta(2, 0, 2), delta(2, 1, 2)]
    assert sections_of(gamma(2, 2)) == [delta(2, 1, 2), delta(3, 1, 2)]
    assert sections_of(parse_morphism("(x2^x1):2->1")) == [
        parse_morphism("(1,x1):1->2"),
        parse_morphism("(x1,1):1->2"),
    ]
    with pytest.raises(NotEpi):
        sections_of(delta(1, 0, 1))


@given(morphisms(max_src=4, max_dst=4))
def test_sections_of_match_the_hom_set_search(e):
    if not classify(e).is_epi:
        with pytest.raises(NotEpi):
            sections_of(e)
        return
    expected = [s for s in enumerate_hom(e.dst, e.src)
                if compose(e, s) == identity(e.dst)]
    assert sections_of(e) == expected


def test_sections_and_pushouts_enumerate_no_hom_set():
    # 286 is the pair count verify_split_pushouts(6) charges itself; a
    # section read off by search would charge Hom(2, 5) = 512 arrows
    with resource_limit(286):
        assert verify_split_pushouts(6).ok
        sections = sections_of(parse_morphism("(x3^x1,x4):5->2"))
    assert len(sections) == 8
    assert str(sections[0]) == "(1,0,x1,x2,0):2->5"
    assert str(sections[-1]) == "(x1,1,1,x2,1):2->5"


# -- split pushouts ----------------------------------------------------------


def oracle_witness_table(g1, g2, N):
    """The split pushout of two epi generators [N] -> [N-1], proved case
    by case: g1 and g2 are ("sigma", i) or ("gamma", i).  Returns (p1,
    p2, d0, d1, d2prime), p2 the leg after g1, or None for an equal pair
    or a mirrored orientation, whose flipped pair has the entry."""
    (k1, i), (k2, j) = g1, g2
    if k1 == "sigma" and k2 == "sigma" and i < j:
        return (sigma(i, N - 2), sigma(j - 1, N - 2), delta(j - 1, 0, N - 2),
                delta(j, 0, N - 1), delta(i, 0, N - 1))
    if k1 == "gamma" and k2 == "gamma" and j == i + 1:
        return (gamma(i, N - 2), gamma(i, N - 2), delta(i + 1, 1, N - 2),
                delta(i + 2, 1, N - 1), delta(i, 1, N - 1))
    if k1 == "gamma" and k2 == "gamma" and j > i + 1:
        return (gamma(i, N - 2), gamma(j - 1, N - 2), delta(j - 1, 1, N - 2),
                delta(j, 1, N - 1), delta(i, 1, N - 1))
    if k1 == "sigma" and k2 == "gamma" and j > i:
        return (sigma(i, N - 2), gamma(j - 1, N - 2), delta(j - 1, 1, N - 2),
                delta(j, 1, N - 1), delta(i, 1, N - 1))
    if k1 == "gamma" and k2 == "sigma" and i == j:
        return (sigma(i, N - 2), sigma(i, N - 2), delta(i, 0, N - 2),
                delta(i, 0, N - 1), delta(i + 1, 1, N - 1))
    if k1 == "gamma" and k2 == "sigma" and j == i + 1:
        return (sigma(i, N - 2), sigma(i, N - 2), delta(i, 0, N - 2),
                delta(j, 0, N - 1), delta(i, 1, N - 1))
    if k1 == "gamma" and k2 == "sigma" and j > i + 1:
        return (gamma(i, N - 2), sigma(j - 1, N - 2), delta(j - 1, 0, N - 2),
                delta(j, 0, N - 1), delta(i, 1, N - 1))
    return None


def test_split_pushout_legs_match_the_case_table():
    build = {"sigma": sigma, "gamma": gamma}
    count = 0
    for N in range(1, 6):
        gens = [("sigma", i) for i in range(1, N + 1)]
        gens += [("gamma", i) for i in range(1, N)]
        for g1, g2 in itertools.product(gens, repeat=2):
            a1, a2 = (build[k](i, N - 1) for k, i in (g1, g2))
            po = split_pushout(a1, a2)
            count += 1
            if g1 == g2:
                assert (po.tau1, po.tau2) == (identity(N - 1), identity(N - 1))
                continue
            table = oracle_witness_table(g1, g2, N)
            if table is not None:
                p1, p2, *w = table
                assert check_split_witness(a1, a2, p1, p2, *w).ok
            else:  # the mirrored orientation: the flipped square's legs
                p2, p1, *w = oracle_witness_table(g2, g1, N)
                assert check_split_witness(a2, a1, p2, p1, *w).ok
            assert (po.tau1, po.tau2) == (p2, p1), (a1, a2)
    assert count == 165


def test_split_pushout_equal_pair():
    po = split_pushout(sigma(1, 1), sigma(1, 1))
    assert po.tau1 == identity(1) and po.tau2 == identity(1)
    assert po.witness is not None


def test_split_pushout_equal_composite_pair():
    # the join cocone orders the classes [[1,2],[3]], so both legs are the
    # same swap rather than the identity; the pushout is still absolute
    e = parse_morphism("(x3,x1^x2):3->2")
    po = split_pushout(e, e)
    assert po.tau1 == po.tau2 == parse_morphism("(x2,x1):2->2")
    assert compose(po.tau1, e) == compose(po.tau2, e)
    w = po.witness
    assert check_split_witness(e, e, po.tau2, po.tau1, w.d0, w.d1, w.d2prime).ok


def test_split_pushout_sigma_sigma_pinned():
    po = split_pushout(sigma(1, 1), sigma(2, 1))
    assert str(po.tau1) == "():1->0" and str(po.tau2) == "():1->0"
    w = po.witness
    assert w.d0 == delta(1, 0, 0)
    assert w.d1 == delta(2, 0, 1)
    assert w.d2prime == delta(1, 0, 1)


def test_split_pushout_gamma_sigma_pinned():
    po = split_pushout(gamma(1, 1), sigma(1, 1))
    assert str(po.tau1) == "():1->0" and str(po.tau2) == "():1->0"
    w = po.witness
    assert w.d0 == delta(1, 0, 0)
    assert w.d1 == delta(1, 0, 1)
    assert w.d2prime == delta(2, 1, 1)


def test_split_pushout_rejects_non_epi():
    with pytest.raises(NotEpi):
        split_pushout(delta(1, 0, 1), sigma(1, 0))


def test_verify_split_pushouts_all_generator_pairs():
    report = verify_split_pushouts(4)
    assert report.ok, str(report)
    assert len(report.entries) == 1 + 9 + 25 + 49


def test_split_pushout_composite():
    # (x2^x3) merges then forgets x1; against sigma1 the merged class survives
    a1 = parse_morphism("(x2^x3):3->1")
    a2 = sigma(1, 2)
    po = split_pushout(a1, a2)
    assert po.tau1 == identity(1)
    assert po.tau2 == gamma(1, 1)
    assert po.witness is not None
    assert compose(po.tau1, a1) == compose(po.tau2, a2)


def test_split_pushout_order_conflict_collapses():
    # the two conjunction orders are incompatible, so the class dies; in
    # the second pair x1 is followed by x2 on one side and by x3 on the other
    for f1, f2, dim in [("(x1^x2):2->1", "(x2^x1):2->1", 1),
                        ("(x1^x2,x3):3->2", "(x1^x3,x2):3->2", 2)]:
        a1 = parse_morphism(f1)
        a2 = parse_morphism(f2)
        po = split_pushout(a1, a2)
        assert po.tau1 == po.tau2 == parse_morphism(f"():{dim}->0")
        assert po.witness is None
        assert compose(po.tau1, a1) == compose(po.tau2, a2)


# -- relations ---------------------------------------------------------------


def test_relation_examples():
    assert compose(sigma(2, 1), delta(2, 0, 1)) == identity(1)
    assert compose(gamma(1, 1), delta(1, 1, 1)) == identity(1)


def test_verify_relations_to_4():
    report = verify_relations(4)
    assert report.ok, str(report)
    # 12 + 40 + 84 + 144 + 220 instances for n = 0..4
    assert len(report.entries) == 500
