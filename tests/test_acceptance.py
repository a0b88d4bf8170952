"""The acceptance gate: twelve criteria, one line each.

`symcube verify-all --dim 3` decides which checks, on which inputs,
establish each claim of the paper.  This module runs it once, without
asserts (python -O), and reads criteria 2-4 and 6-12 from its suites by
suite and check name, with pinned counts.  Criteria 1 and 5 and the
worked cycle of criterion 2 are literals computed here, independently
of the gate.

Run with -s to see the lines as they are produced; each criterion is a
single test so the pass/fail status is also visible per line in -v mode.
"""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from symcube.site import (Permutation, SiteTag, compose, factor, hom_count,
                          parse_morphism, tensor)

Q = SiteTag.Q
QS = SiteTag.QSIGMA


def conclude(num: int, label: str, ok: bool):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} {status}: {label}")
    assert ok, f"criterion {num} failed: {label}"


@pytest.fixture(scope="module")
def gate():
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "symcube.cli", "--json", "verify-all",
         "--dim", "3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return {suite["name"]: suite for suite in json.loads(proc.stdout)["suites"]}


def passes(gate, name: str, checked: int, *labels: str) -> bool:
    """The gate's suite `name` passed all of its `checked` checks, and
    these labels are among them."""
    suite = gate[name]
    return (suite["ok"] and suite["checked"] == checked
            and set(labels) <= set(suite["labels"]))


def test_criterion_01_worked_compositions():
    cases = [
        ("(x3,x1^x2):3->2", "(0,x1,x5):5->3", "(x5,0):5->2"),
        ("(x2^x1):2->1", "(x1^x2,x3):3->2", "(x3^x1^x2):3->1"),
        ("(x1^x2):2->1", "(1,1):0->2", "(1):0->1"),
        ("(0,x1^x4):5->2", "(x10,0,0,1,x3):10->5", "(0,x10):10->2"),
    ]
    ok = all(
        str(compose(parse_morphism(g), parse_morphism(f))) == expected
        for g, f, expected in cases
    )
    oplus = tensor(parse_morphism("(x1^x2):2->1"), parse_morphism("(0,x1):1->2"))
    ok = ok and str(oplus) == "(x1^x2,0,x3):3->3"
    conclude(1, "worked compositions and the monoidal product example", ok)


def test_criterion_02_normal_form(gate):
    ok = passes(gate, "normal forms", 33, *(
        line for m in range(4) for n in range(4)
        for line in (f"normal forms evaluate back in Hom({m},{n})",
                     f"factorizations biject with Hom({m},{n})")))
    fac = factor(parse_morphism("(x3,1,x1^x5^x2,0):5->4"))
    ok = ok and fac.perm == Permutation.from_cycles("(1 2 4 3)", 4)
    conclude(2, "normal-form round trip, factorization count, worked cycle", ok)


def test_criterion_03_relations(gate):
    ok = passes(gate, "relations(n<=4)", 500)
    conclude(3, "all relation instances through dimension 4", ok)


def test_criterion_04_ez_axioms(gate):
    ok = (passes(gate, "ez-axioms(objects<=3)", 64)
          and passes(gate, "split-pushouts(n<=4)", 84)
          and passes(gate, "ez-groupoid(cube2)", 3))
    conclude(4, "degree monotonicity, epi-mono factorization, split pushouts", ok)


def test_criterion_05_hom_cardinalities():
    ok = all(hom_count(m, 0, QS) == 1 for m in range(7))
    ok = ok and all(hom_count(0, n, QS) == 2**n for n in range(7))
    ok = ok and hom_count(2, 1, QS) == 6
    ok = ok and hom_count(1, 1, Q) == 3
    conclude(5, "hom-set cardinalities by enumeration", ok)


def test_criterion_06_vertices_not_faithful(gate):
    ok = passes(gate, "normal forms", 33,
                "vertices are not faithful: one collision in Hom(2,1)")
    conclude(6, "vertex-table collision found by scanning", ok)


def test_criterion_07_skeletal_pushouts(gate):
    ok = passes(gate, "skeletal pushouts", 22, *(
        f"sk{k} square for {name}"
        for name in ("cube2", "swapquot", "bd3") for k in range(4)
    ), *(
        f"sk{k} of {name} extends from its {k}-truncation"
        for name, N in (("cube2", 2), ("swapquot", 2), ("bd3", 3)) for k in range(N)
    ))
    conclude(7, "skeletal pushout squares at every level", ok)


def test_criterion_08_convolution(gate):
    ok = passes(gate, "convolution", 30, *(
        line for m in range(4) for n in range(4 - m)
        for line in (f"cube{m} (x) cube{n} pairs onto cube{m + n}",
                     f"cube{m} (x) cube{n} acts on whole classes")
    ), *(f"unit law on {X}" for X in ("cube1", "cube2", "boundary1")), *(
        line
        for XY in ("cube1 (x) cube1", "cube1 (x) cube2", "boundary1 (x) cube1")
        for line in (f"braiding on {XY}", f"{XY} acts on whole classes")
    ),
        "associator on cube1, cube1, cube1",
        "associator on boundary1, cube1, boundary1",
        "boundary1 [] boundary1 is the boundary of the square")
    conclude(8, "convolution of cubes, boundary corner, unit, braiding, "
             "associator", ok)


def test_criterion_09_kan_extension(gate):
    ok = passes(gate, "symmetrization", 22, *(
        f"transported cube{n} is the symmetric cube" for n in range(4)
    ), *(
        f"transported boundary{n} is the symmetric boundary" for n in range(1, 4)
    ), *(
        f"lifted sk{k} of {X} is the symmetric skeleton"
        for k in (0, 1) for X in ("cube2", "the open box (2,1,0)")
    ), *(
        f"triangle identities on the {Y}"
        for Y in ("interval", "square", "boundary of the square")
    ), *(
        f"i_! is strong monoidal on {X} (x) {X}" for X in ("cube1", "boundary1")
    ))
    conclude(9, "symmetrization against symmetric cubes, skeleta, triangles, "
             "monoidality", ok)


def test_criterion_10_homology(gate):
    ok = passes(gate, "homology", 7, *(
        f"cube{n} has point homology" for n in range(4)
    ), "boundary2 is a circle", "collapsed interval is a circle",
        "boundary3 is a sphere") and passes(gate, "smith normal form", 4)
    conclude(10, "integral homology and Euler consistency, exact integers", ok)


def test_criterion_11_interval_monoid(gate):
    ok = (passes(gate, "interval monoid to level 3", 5)
          and passes(gate, "interval-power action", 2))
    conclude(11, "interval monoid structure at simplicial levels <= 3", ok)


def test_criterion_12_homotopy(gate):
    ok = passes(gate, "homotopy", 7, *(
        f"contraction of the {n}-cube" for n in range(1, 5)
    ), "interval endpoints homotopic", "separated endpoints not homotopic"
    ) and passes(gate, "skeletal pushouts", 22,
                 "extension routes agree on cube1 [QSigma] at level 2",
                 "extension routes agree on bd2 [QSigma] at level 3",
                 "extension routes agree on cube2 [Q] at level 3")
    conclude(12, "contractions, interval homotopy, refutation, dual oracles", ok)


# -- the library holds only what the system calls ----------------------------

# entry points kept for callers outside the package: the file formats
ENTRY_POINTS = {"dumps_presheaf", "dumps_presheaf_json"}


def _references(node, inside=()):
    """(kind, name, enclosing definitions) for every name ("id") and
    attribute ("attr") under node."""
    for sub in ast.iter_child_nodes(node):
        for kind in ("id", "attr"):
            if (name := getattr(sub, kind, None)) is not None:
                yield kind, name, inside
        if isinstance(sub, (ast.FunctionDef, ast.ClassDef)):
            yield from _references(sub, inside + (sub.name,))
        else:
            yield from _references(sub, inside)


def test_no_definition_is_reached_only_from_tests():
    """Every top-level function and class of src/symcube is referenced,
    as a name or an attribute, and every method and property of its
    classes as an attribute, from library code other than its own
    definition and __init__.py; a slow second route that only tests
    need lives in the tests as an oracle.  Dunder methods, and methods
    that override a base class's (a protocol such as Mapping.items), are
    reached through the protocol."""
    defined, used = set(), {"id": set(), "attr": set()}
    for path in Path(__file__).parents[1].glob("src/symcube/*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        module = importlib.import_module(f"symcube.{path.stem}")
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            if isinstance(node, ast.ClassDef):
                bases = getattr(module, node.name).__mro__[1:]
                defined.update(
                    f"{node.name}.{sub.name}" for sub in node.body
                    if isinstance(sub, ast.FunctionDef)
                    and not sub.name.startswith("__")
                    and not any(hasattr(base, sub.name) for base in bases))
        for kind, name, inside in _references(tree):
            if name not in inside:
                used[kind].add(name)
    unreached = [d for d in defined
                 if "." not in d and d not in used["id"] | used["attr"]
                 or "." in d and d.split(".")[1] not in used["attr"]]
    assert sorted(set(unreached) - ENTRY_POINTS) == []
