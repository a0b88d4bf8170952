"""Command-line interface over the whole library.

Exit statuses: 0 on success, 1 when a verification report has a failing
entry or a check raises any other library error, 2 on malformed input,
3 when a resource bound is hit.  All output is deterministic for a given
invocation; --json switches every command to a machine-readable mirror.
"""

from __future__ import annotations

import argparse
import itertools
import json
import signal
import sys
from functools import cache, cached_property, partial
from pathlib import Path

from .errors import InputError, ResourceBound, SymcubeError, resource_limit
from .homotopy import (
    contraction_H,
    find_homotopy,
    is_fibrant,
    solve_lifting,
)
from .monoidal import (
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
from .presheaf import (
    PresheafMap,
    Permutation,
    SkeletalPresheaf,
    SubgroupSpec,
    boundary,
    cap,
    coskeleton,
    empty_presheaf,
    extension_methods_agree,
    identity_map,
    loads_presheaf,
    pushout,
    quotient_presheaf,
    representable,
    skeleton,
    terminal_map,
    verify_ez_groupoid,
    verify_restriction_roundtrip,
    verify_skeletal_pushout,
)
from .realize import (
    cubical_chains,
    euler_characteristic,
    homology,
    homology_of_chains,
    nondegenerate_chains,
    normalized_chains,
    realize,
    verify_act_naturality,
    verify_cubical_monoid_delta1,
    verify_snf,
)
from .report import Report
from .site import (
    SiteTag,
    compose,
    enumerate_factorizations,
    enumerate_hom,
    factor,
    parse_morphism,
    tensor,
    verify_ez,
    verify_relations,
    verify_split_pushouts,
    vertices_action,
)

DEFAULT_LIMIT = 1_000_000


# -- argument handling -------------------------------------------------------


def _site(args) -> SiteTag:
    return SiteTag.parse(args.site)


def _subcube(head: str, rest: str, site: SiteTag):
    """boundary:N or cap:N:J:E as a sub-presheaf of the cube with its
    inclusion; None for any other head."""
    if head == "boundary":
        return boundary(int(rest), site)
    if head == "cap":
        n, j, eps = (int(p) for p in rest.split(":"))
        return cap(n, j, eps, site)
    return None


def load_spec(spec: str, site: SiteTag) -> SkeletalPresheaf:
    """A presheaf from a builtin description or a file path.

    Builtins: point, empty, cube:N, boundary:N, cap:N:J:E,
    quotient:N:CYCLES (orbits of the symmetric cube under the subgroup
    generated by the cycles).  Anything else is read as a file in the
    presheaf text or JSON format, which carries its own site.
    """
    head, _, rest = spec.partition(":")
    try:
        if spec == "point":
            return representable(0, site)
        if spec == "empty":
            return empty_presheaf(site, 0)
        if head == "cube":
            return representable(int(rest), site)
        sub = _subcube(head, rest, site)
        if sub is not None:
            return sub[0]
        if head == "quotient":
            n_text, _, cycles = rest.partition(":")
            if site is not SiteTag.QSIGMA:
                raise InputError("quotients act through the symmetric site")
            cube = representable(int(n_text), site)
            group = SubgroupSpec(cube.N, (Permutation.from_cycles(cycles, cube.N),))
            return quotient_presheaf(cube, group)[0]
    except ValueError as exc:
        raise InputError(f"malformed presheaf spec {spec!r}: {exc}") from exc
    if not Path(spec).exists():
        raise InputError(f"unknown presheaf spec and no such file: {spec!r}")
    return load_file(Path(spec))


def load_file(path: Path) -> SkeletalPresheaf:
    """The presheaf in the file at path, in either format, named by its stem."""
    try:
        return loads_presheaf(path.read_text(encoding="utf-8"), name=path.stem)
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from exc


def load_map_spec(spec: str, site: SiteTag) -> PresheafMap:
    """A named map: boundary:N and cap:N:J:E (their inclusions into the
    cube), identity:SPEC, terminal:SPEC, empty:SPEC (over SPEC's site)."""
    head, _, rest = spec.partition(":")
    try:
        sub = _subcube(head, rest, site)
        if sub is not None:
            return sub[1]
        if head == "identity":
            return identity_map(load_spec(rest, site))
        if head == "terminal":
            return terminal_map(load_spec(rest, site))
        if head == "empty":
            X = load_spec(rest, site)
            return PresheafMap(empty_presheaf(X.site, 0), X, {0: {}})
    except ValueError as exc:
        raise InputError(f"malformed map spec {spec!r}: {exc}") from exc
    raise InputError(f"unknown map spec {spec!r}")


# -- output helpers ----------------------------------------------------------


def _print_json(payload):
    print(json.dumps(payload, indent=2, sort_keys=True))


def _emit_morphism(args, result) -> int:
    if args.json:
        _print_json({"result": str(result)})
    else:
        print(str(result))
    return 0


def _emit_object(args, X: SkeletalPresheaf) -> int:
    counts = {str(n): len(X.level(n)) for n in range(X.N + 1)}
    if args.json:
        _print_json({"name": X.name, "site": str(X.site), "levels": counts})
    else:
        cells = " ".join(f"{n}:{c}" for n, c in counts.items())
        print(f"{X.name} [{X.site}] {cells}")
    return 0


def _emit_report(args, rep: Report) -> int:
    if args.json:
        _print_json(rep.to_json())
    else:
        print(rep.summary())
        for entry in rep.entries:
            print(f"  {entry}")
    return 0 if rep.ok else 1


# -- morphism commands -------------------------------------------------------


def _cmd_compose(args) -> int:
    f = parse_morphism(args.f)
    g = parse_morphism(args.g)
    return _emit_morphism(args, compose(f, g))


def _cmd_factor(args) -> int:
    f = parse_morphism(args.f)
    fac = factor(f)
    if fac.evaluate() != f:
        raise SymcubeError(f"normal form {fac} does not evaluate to {f}")
    if args.json:
        _print_json(
            {
                "normal_form": str(fac),
                "faces": [list(p) for p in fac.faces],
                "conjs": list(fac.conjs),
                "perm": list(fac.perm.one_line),
                "degens": list(fac.degens),
                "source": fac.src,
                "target": fac.dst,
            }
        )
    else:
        print(str(fac))
    return 0


def _cmd_tensor(args) -> int:
    return _emit_morphism(
        args, tensor(parse_morphism(args.f), parse_morphism(args.g))
    )


def _cmd_enum_hom(args) -> int:
    fs = [str(f) for f in enumerate_hom(args.m, args.n, _site(args))]
    if args.json:
        _print_json({"count": len(fs), "morphisms": fs})
    else:
        print(f"{len(fs)} morphisms {args.m} -> {args.n} over {_site(args)}")
        for s in fs:
            print(s)
    return 0


# -- verification commands ---------------------------------------------------


def _cmd_verify_relations(args) -> int:
    return _emit_report(args, verify_relations(args.dim))


def _cmd_verify_ez(args) -> int:
    return _emit_report(args, verify_ez(args.dim))


def _cmd_verify_pushouts(args) -> int:
    return _emit_report(args, verify_split_pushouts(args.dim))


# -- presheaf commands -------------------------------------------------------


def _cmd_convolve(args) -> int:
    X = load_spec(args.left, _site(args))
    Y = load_spec(args.right, _site(args))
    cr = convolve(X, Y)
    return _emit_object(args, cr.product)


def _cmd_symmetrize(args) -> int:
    X = load_spec(args.spec, SiteTag.Q)
    return _emit_object(args, symmetrize(X))


def _cmd_restrict(args) -> int:
    X = load_spec(args.spec, SiteTag.QSIGMA)
    bound = X.N if args.dim is None else args.dim
    return _emit_object(args, restrict(X, bound))


def _cmd_skeleton(args) -> int:
    X = load_spec(args.spec, _site(args))
    return _emit_object(args, skeleton(X, args.k)[0])


def _cmd_coskeleton(args) -> int:
    X = load_spec(args.spec, _site(args))
    return _emit_object(args, coskeleton(X, args.k))


def _cmd_quotient(args) -> int:
    X = load_spec(args.spec, SiteTag.QSIGMA)
    if not X.level(0):
        raise InputError(f"{X.name} has no vertex to name the ambient cube")
    ambient = parse_morphism(X.level(0)[0]).dst
    group = SubgroupSpec(
        ambient, (Permutation.from_cycles(args.cycles, ambient),)
    )
    return _emit_object(args, quotient_presheaf(X, group)[0])


def _cmd_boundary(args) -> int:
    return _emit_object(args, boundary(args.n, _site(args))[0])


def _cmd_cap(args) -> int:
    return _emit_object(args, cap(args.n, args.j, args.eps, _site(args))[0])


def _cmd_realize(args) -> int:
    X = load_spec(args.spec, _site(args))
    S = realize(X)
    nondeg = {
        str(k): len(S.nondegenerate(k)) for k in range(len(S.levels))
    }
    counts = {str(k): len(S.levels[k]) for k in range(len(S.levels))}
    if args.json:
        _print_json(
            {
                "name": S.name,
                "levels": counts,
                "nondegenerate": nondeg,
                "euler": euler_characteristic(S),
            }
        )
    else:
        cells = " ".join(f"{k}:{c}" for k, c in counts.items())
        nd = " ".join(f"{k}:{c}" for k, c in nondeg.items())
        print(f"{S.name} {cells}")
        print(f"nondegenerate {nd}")
        print(f"euler {euler_characteristic(S)}")
    return 0


def _cmd_homology(args) -> int:
    if (args.spec is None) == (args.file is None):
        raise InputError("give exactly one of a presheaf spec or --file")
    X = load_spec(args.spec, _site(args)) if args.file is None else load_file(Path(args.file))
    res = homology(X)
    if args.json:
        _print_json({"name": X.name, "groups": res.records()})
    else:
        print(res.pretty())
    return 0


# -- homotopy commands -------------------------------------------------------


def _cmd_lift(args) -> int:
    site = _site(args)
    rep = solve_lifting(load_map_spec(args.left, site), load_map_spec(args.right, site))
    rep.name = f"right lifting property of {args.right} against {args.left}"
    return _emit_report(args, rep)


def _cmd_fibrant(args) -> int:
    X = load_spec(args.spec, SiteTag.QSIGMA)
    return _emit_report(args, is_fibrant(X, args.dim))


def _vertex_homotopy(X: SkeletalPresheaf, start: str, end: str, dim: int):
    """A homotopy between two vertices of X over a dim-cube, or None."""
    pt = representable(0, SiteTag.QSIGMA)
    f, g = (PresheafMap(pt, X, {0: {pt.level(0)[0]: v}}) for v in (start, end))
    return find_homotopy(f, g, dim)


def _cmd_homotopic(args) -> int:
    X = load_spec(args.spec, SiteTag.QSIGMA)
    for v in (args.start, args.end):
        if v not in X.level(0):
            raise InputError(f"{v!r} is not a vertex of {X.name}")
    h = _vertex_homotopy(X, args.start, args.end, args.dim)
    rep = Report(f"homotopy between {args.start} and {args.end} in {X.name}")
    rep.check(
        "homotopy found",
        h is not None and h.verify(),
        f"cylinder dimension {args.dim}",
    )
    return _emit_report(args, rep)


# -- verify-all --------------------------------------------------------------


def _iso(u: PresheafMap) -> bool:
    """u is a natural levelwise bijection."""
    return u.is_bijective() and u.verify_natural()


def _onto(u: PresheafMap, target: SkeletalPresheaf) -> bool:
    """u is injective and takes each level onto that level of target."""
    return u.is_injective() and all(
        sorted(u.mapping[k].values()) == sorted(target.level(k))
        for k in range(target.N + 1))


def _suite_normal_forms(dim: int) -> Report:
    rep = Report("normal forms")
    for m, n in itertools.product(range(dim + 1), repeat=2):
        fs = enumerate_hom(m, n, SiteTag.QSIGMA)
        rep.check(f"normal forms evaluate back in Hom({m},{n})",
                  all(factor(f).evaluate() == f for f in fs))
        facs = [fac.evaluate() for fac in enumerate_factorizations(m, n)]
        rep.check(f"factorizations biject with Hom({m},{n})",
                  len(facs) == len(fs) and set(facs) == set(fs))
    if dim >= 2:
        collisions = [f"{f} {g}" for f, g in
                      itertools.combinations(enumerate_hom(2, 1, SiteTag.QSIGMA), 2)
                      if vertices_action(f) == vertices_action(g)]
        rep.check("vertices are not faithful: one collision in Hom(2,1)",
                  collisions == ["(x1^x2):2->1 (x2^x1):2->1"], "; ".join(collisions))
    return rep


def _suite_convolution(dim: int) -> Report:
    rep = Report("convolution")
    cube = partial(representable, site=SiteTag.QSIGMA)
    for m in range(dim + 1):
        for n in range(dim + 1 - m):
            cr = convolve(cube(m), cube(n))
            rep.check(f"cube{m} (x) cube{n} pairs onto cube{m + n}",
                      _iso(pairing_map(cr, cube(m + n))))
            rep.check(f"cube{m} (x) cube{n} acts on whole classes", verify_convolution(cr).ok)
    bd1, incl = boundary(1, SiteTag.QSIGMA)
    named = {"cube1": cube(1), "cube2": cube(2), "boundary1": bd1}
    for a, X in named.items():
        if X.N <= max(dim, 1):  # the interval's unit law at every bound
            rep.check(f"unit law on {a}", _iso(unit_comparison(convolve(X, cube(0)))))
    for a, b in (("cube1", "cube1"), ("cube1", "cube2"), ("boundary1", "cube1")):
        X, Y = named[a], named[b]
        if X.N + Y.N <= dim:
            cr = convolve(X, Y)
            rep.check(f"braiding on {a} (x) {b}",
                      _iso(braiding_comparison(cr, convolve(Y, X))))
            if "boundary1" in (a, b):  # the pairs of cubes are checked above
                rep.check(f"{a} (x) {b} acts on whole classes", verify_convolution(cr).ok)
    for abc in (("cube1", "cube1", "cube1"), ("boundary1", "cube1", "boundary1")):
        if sum(named[a].N for a in abc) <= dim:
            r = associator_comparison(*map(named.get, abc))
            rep.check(f"associator on {', '.join(abc)}", r.ok, r.summary())
    if dim >= 2:
        corner = pushout_product(incl, incl)
        square = pairing_map(convolve(cube(1), cube(1)), cube(2))
        rep.check("boundary1 [] boundary1 is the boundary of the square",
                  corner.verify_natural() and _onto(
                      corner.then(square), boundary(2, SiteTag.QSIGMA, up_to=2)[0]))
    return rep


def _suite_symmetrization(dim: int) -> Report:
    rep = Report("symmetrization")
    qs = SiteTag.QSIGMA
    for n in range(dim + 1):
        s = symmetrize_structure(representable(n, SiteTag.Q))
        rep.check(f"transported cube{n} is the symmetric cube",
                  _iso(pairing_map(s, representable(n, qs))))
    # the boundaries and caps transported from the plain site are the
    # symmetric ones: i_! of a restriction of the cube is a restriction
    subcubes = [
        (f"boundary{n} is the symmetric boundary", n, partial(boundary, n))
        for n in range(1, dim + 1)
    ] + [
        (f"cap({n},{j},{eps}) is the symmetric cap", n, partial(cap, n, j, eps))
        for n in range(1, min(dim, 2) + 1)
        for j in range(1, n + 1)
        for eps in (0, 1)
    ]
    for what, n, build in subcubes:
        s = symmetrize_structure(build(SiteTag.Q)[0])
        cmp = pairing_map(s, representable(n, qs))
        rep.check(f"transported {what}",
                  cmp.verify_natural() and _onto(cmp, build(qs)[0]))
    for name, X in (("cube2", representable(2, SiteTag.Q)),
                    ("the open box (2,1,0)", cap(2, 1, 0, SiteTag.Q)[0])):
        for k in range(min(dim, 2)):
            rep.check(f"lifted sk{k} of {name} is the symmetric skeleton",
                      _onto(symmetrize_map(skeleton(X, k)[1]),
                            skeleton(symmetrize(X), k)[0]))
    for name, Y, bound in (("interval", representable(1, qs), min(dim, 3)),
                           ("square", representable(2, qs), 2),
                           ("boundary of the square", boundary(2, qs)[0], 2)):
        if bound <= dim:
            tri = verify_triangle_identities(Y, bound)
            rep.check(f"triangle identities on the {name}", tri.ok, tri.summary())
    for name, X in (("cube1", representable(1, SiteTag.Q)),
                    ("boundary1", boundary(1, SiteTag.Q)[0])):
        if 2 * X.N <= dim:
            rep.check(f"i_! is strong monoidal on {name} (x) {name}",
                      _iso(monoidality_comparison(X, X)))
    return rep


def _suite_homology(dim: int) -> Report:
    rep = Report("homology")
    qs = SiteTag.QSIGMA

    def check(name, X, groups):
        # every presheaf here is free, so its cubical chains give the
        # groups too, and the dense Smith normal form of each of their
        # boundary matrices meets the sparse elimination; the chains from
        # normal forms are those of the realization, a simplicial set
        # whose Euler characteristic the ranks of the groups give
        C, D, S = nondegenerate_chains(X), cubical_chains(X), realize(X)
        rep.check(name, homology_of_chains(C).groups == groups
                  and D is not None and homology_of_chains(D).groups == groups
                  and all(verify_snf(M).ok for M in D.boundaries.values())
                  and C == normalized_chains(S) and S.verify_identities().ok
                  and euler_characteristic(S)
                  == sum((-1) ** k * b for k, (b, _) in enumerate(groups)))

    for n in range(min(dim, 3) + 1):
        check(f"cube{n} has point homology", representable(n, qs), ((1, ()),))
    if dim >= 2:
        circle = ((1, ()), (1, ()))
        check("boundary2 is a circle", boundary(2, qs)[0], circle)
        bd1, incl = boundary(1, qs)
        check("collapsed interval is a circle",
              pushout(incl, terminal_map(bd1))[0], circle)
    if dim >= 3:
        check("boundary3 is a sphere", boundary(3, qs)[0],
              ((1, ()), (0, ()), (1, ())))
    return rep


def _suite_snf() -> Report:
    rep = Report("smith normal form")
    for M in ([[2, 4], [6, 8]], [[0, 0], [0, 0]], [[1, 0, -1], [0, 2, 2]], [[6], [10]]):
        r = verify_snf(M)
        rep.check(f"matrix {M}", r.ok, r.summary())
    return rep


def _suite_skeletal(dim: int) -> Report:
    rep = Report("skeletal pushouts")
    qs = SiteTag.QSIGMA
    square = representable(2, qs)
    swapquot = quotient_presheaf(square, SubgroupSpec.full(2), "swapquot")[0]
    for X in (square, swapquot, boundary(3, qs)[0]):
        for k in range(dim + 1):
            r = verify_skeletal_pushout(X, k)
            rep.check(f"sk{k} square for {X.name}", r.ok, r.summary())
        for k in range(min(dim, X.N)):
            rep.check(f"sk{k} of {X.name} extends from its {k}-truncation",
                      verify_restriction_roundtrip(X, k))
    # the EZ pairs read off each extension's tables against its coend classes
    for X in (representable(1, qs), boundary(2, qs)[0], representable(2, SiteTag.Q)):
        if X.N < dim:
            rep.check(f"extension routes agree on {X.name} [{X.site}] at level "
                      f"{X.N + 1}", extension_methods_agree(X, X.N + 1))
    return rep


def _suite_homotopy(dim: int) -> Report:
    rep = Report("homotopy")
    qs = SiteTag.QSIGMA
    for n in range(1, min(dim + 1, 4) + 1):
        rep.check(f"contraction of the {n}-cube", contraction_H(n)[1].ok)
    ends = ("(0):0->1", "(1):0->1")
    h = _vertex_homotopy(representable(1, qs), *ends, 1)
    rep.check("interval endpoints homotopic", h is not None and h.verify())
    rep.check("separated endpoints not homotopic",
              _vertex_homotopy(boundary(1, qs)[0], *ends, 1) is None)
    fib = is_fibrant(representable(0, qs), min(dim, 2))
    rep.check("the point fills every cap", fib.ok, fib.summary())
    return rep


def _cmd_verify_all(args) -> int:
    dim = args.dim
    suites = [
        _suite_normal_forms(dim),
        verify_relations(dim + 1),
        verify_ez(dim),
        verify_split_pushouts(dim + 1),
        verify_ez_groupoid(representable(2, SiteTag.QSIGMA)),
        _suite_skeletal(dim),
        verify_act_naturality(),
        _suite_convolution(dim),
        _suite_symmetrization(dim),
        _suite_homology(dim),
        _suite_snf(),
        verify_cubical_monoid_delta1(dim),
        _suite_homotopy(dim),
    ]
    overall = Report(f"verify-all at dimension {dim}")
    for suite in suites:
        overall.check(suite.name, suite.ok)
    if args.json:
        _print_json({"name": overall.name, "ok": overall.ok, "suites": [
            dict(s.to_json(), labels=[e.label for e in s.entries]) for s in suites
        ]})
    else:
        print(overall.summary())
        for suite in suites:
            print(f"  {suite.summary()}")
            for entry in suite.failures:
                print(f"    {entry}")
    return 0 if overall.ok else 1


# -- parser ------------------------------------------------------------------


class _Subcommand:
    """A subcommand's parser, built with its arguments and handler the
    first time the command is parsed; `symcube -h` reads only its help."""

    def __init__(self, fn, arguments, **kwargs):
        self._fn, self._arguments, self._kwargs = fn, arguments, kwargs

    @cached_property
    def parser(self) -> argparse.ArgumentParser:
        parser = argparse.ArgumentParser(**self._kwargs)
        for argument in self._arguments:
            name, options = (argument, {}) if isinstance(argument, str) else argument
            parser.add_argument(name, **options)
        parser.set_defaults(fn=self._fn)
        return parser

    def __getattr__(self, name):  # argparse only calls parse_known_args
        return getattr(self.parser, name)


def _dim(default):
    return ("--dim", {"type": int, "default": default})


_INT = {"type": int}

# name: (handler, help, arguments); an argument is a name or (name, options)
_COMMANDS = {
    "compose": (_cmd_compose, "compose two morphisms (first after second)", ("f", "g")),
    "factor": (_cmd_factor, "canonical normal form of a morphism", ("f",)),
    "tensor": (_cmd_tensor, "monoidal product of two morphisms", ("f", "g")),
    "enum-hom": (_cmd_enum_hom, "list a hom set in canonical order",
                 (("m", _INT), ("n", _INT))),
    "verify-relations": (_cmd_verify_relations, "check the presentation relations",
                         (_dim(4),)),
    "verify-ez": (_cmd_verify_ez, "check the epi/mono factorization structure",
                  (_dim(3),)),
    "verify-pushouts": (_cmd_verify_pushouts, "check the split pushout squares",
                        (_dim(4),)),
    "convolve": (_cmd_convolve, "convolution product of two presheaves",
                 ("left", "right")),
    "symmetrize": (_cmd_symmetrize, "transport a classical presheaf", ("spec",)),
    "restrict": (_cmd_restrict, "underlying classical presheaf", ("spec", _dim(None))),
    "skeleton": (_cmd_skeleton, "subpresheaf generated below a level",
                 ("spec", ("k", _INT))),
    "coskeleton": (_cmd_coskeleton, "right adjoint to truncation", ("spec", ("k", _INT))),
    "quotient": (_cmd_quotient, "orbit presheaf under a permutation group",
                 ("spec", ("cycles", {"help": "cycle notation, e.g. '(1 2)'"}))),
    "boundary": (_cmd_boundary, "union of the proper faces", (("n", _INT),)),
    "cap": (_cmd_cap, "faces minus one, the open box",
            (("n", _INT), ("j", _INT), ("eps", {"type": int, "choices": [0, 1]}))),
    "realize": (_cmd_realize, "simplicial realization sizes", ("spec",)),
    "homology": (_cmd_homology, "integral homology of the realization",
                 (("spec", {"nargs": "?"}),
                  ("--file", {"default": None, "help": "presheaf file to read"}))),
    "lift": (_cmd_lift, "right lifting property over all squares",
             (("left", {"help": "map spec, e.g. cap:2:1:0 or boundary:1"}),
              ("right", {"help": "map spec, e.g. terminal:cube:1"}))),
    "fibrant": (_cmd_fibrant, "cap filling report", ("spec", _dim(1))),
    "homotopic": (_cmd_homotopic, "search for a homotopy between vertices",
                  ("spec", "start", "end", _dim(1))),
    "verify-all": (_cmd_verify_all, "every exhaustive suite at one bound", (_dim(3),)),
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The top parser, once per process; each subcommand's parser is a
    `_Subcommand`, built from its `_COMMANDS` row when first parsed."""
    parser = argparse.ArgumentParser(
        prog="symcube",
        description="Exact computation in the classical and symmetric cube "
        "categories and their presheaves.",
    )
    parser.add_argument(
        "--site",
        choices=["Q", "QSigma"],
        default="QSigma",
        help="which cube category builtin objects live over",
    )
    parser.add_argument(
        "--limit",
        type=int,
        default=DEFAULT_LIMIT,
        help="resource bound on enumerations",
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subcommand)
    for name, (fn, text, arguments) in _COMMANDS.items():
        sub.add_parser(name, help=text, fn=fn, arguments=arguments)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.limit < 0:
            parser.error(f"argument --limit: {args.limit} is negative")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with resource_limit(args.limit):
            return args.fn(args)
    except ResourceBound as exc:
        print(f"resource bound: {exc}", file=sys.stderr)
        return 3
    except (InputError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except SymcubeError as exc:  # a contract broken inside a check
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    # a closed stdout ends the command as it ends any Unix filter, by
    # SIGPIPE, instead of surfacing in run() as an OSError (exit 2)
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    raise SystemExit(run())


if __name__ == "__main__":
    main()
