"""Exit codes, worked command lines, and JSON mirrors."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symcube.cli as cli_module
from symcube.cli import _suite_symmetrization, build_parser, load_map_spec, run
from symcube.errors import SymcubeError
from symcube.presheaf import (boundary, dumps_presheaf, dumps_presheaf_json, empty_presheaf,
                              hom_presheaf, representable, terminal_presheaf)
from symcube.report import Report
from symcube.site import SiteTag
from test_homotopy import LiftingProblem, oracle_solve_lifting

DATA = Path(__file__).parent / "data"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


# -- morphism commands -------------------------------------------------------


def test_compose_worked_example(capsys):
    code, out = invoke(capsys, "compose", "(x3,x1^x2):3->2", "(0,x1,x5):5->3")
    assert code == 0
    assert out == "(x5,0):5->2\n"


def test_compose_json(capsys):
    code, out = invoke(
        capsys, "--json", "compose", "(x3,x1^x2):3->2", "(0,x1,x5):5->3"
    )
    assert code == 0
    assert json.loads(out) == {"result": "(x5,0):5->2"}


def test_factor_worked_example(capsys):
    code, out = invoke(capsys, "factor", "(x3,1,x1^x5^x2,0):5->4")
    assert code == 0
    assert "pi(1 2 4 3)" in out
    assert out.startswith("delta(")


def test_factor_json_fields(capsys):
    code, out = invoke(capsys, "--json", "factor", "(x3,1,x1^x5^x2,0):5->4")
    data = json.loads(out)
    assert code == 0
    assert data["perm"] == [2, 4, 1, 3]
    assert data["source"] == 5 and data["target"] == 4


def test_tensor(capsys):
    code, out = invoke(capsys, "tensor", "(x1):1->1", "(0):0->1")
    assert code == 0
    assert out == "(x1,0):1->2\n"


def test_enum_hom_symmetric(capsys):
    code, out = invoke(capsys, "enum-hom", "2", "1")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "6 morphisms 2 -> 1 over QSigma"
    assert lines[1:] == sorted(lines[1:])
    assert len(lines) == 7


def test_enum_hom_classical(capsys):
    code, out = invoke(capsys, "--site", "Q", "enum-hom", "1", "1")
    assert code == 0
    assert out.splitlines()[0] == "3 morphisms 1 -> 1 over Q"


def test_enum_hom_json(capsys):
    code, out = invoke(capsys, "--json", "enum-hom", "0", "2")
    data = json.loads(out)
    assert code == 0
    assert data["count"] == 4
    assert len(data["morphisms"]) == 4


def test_enum_hom_resource_bound(capsys):
    assert run(["--limit", "10", "enum-hom", "3", "3"]) == 3


@pytest.mark.parametrize("first, second", [
    (["--json", "compose", "(x3,x1^x2):3->2", "(0,x1,x5):5->3"],
     ["compose", "(x3,x1^x2):3->2", "(0,x1,x5):5->3"]),
    (["--limit", "5", "enum-hom", "1", "2"], ["enum-hom", "1", "2"]),
    (["compose", "(x1):1->1"], ["tensor", "(x1):1->1", "(0):0->1"]),
])
def test_parser_built_once_keeps_no_state_between_runs(capsys, first, second):
    """run reuses one parser; each call answers as a fresh parser would."""
    fresh = []
    for argv in (first, second):
        build_parser.cache_clear()
        fresh.append(invoke(capsys, *argv))
    assert [invoke(capsys, *argv) for argv in (first, second)] == fresh
    assert fresh[0][0] != fresh[1][0] or fresh[0][1] != fresh[1][1]


COMMAND_HELP = {
    "compose": "compose two morphisms (first after second)",
    "factor": "canonical normal form of a morphism",
    "tensor": "monoidal product of two morphisms",
    "enum-hom": "list a hom set in canonical order",
    "verify-relations": "check the presentation relations",
    "verify-ez": "check the epi/mono factorization structure",
    "verify-pushouts": "check the split pushout squares",
    "convolve": "convolution product of two presheaves",
    "symmetrize": "transport a classical presheaf",
    "restrict": "underlying classical presheaf",
    "skeleton": "subpresheaf generated below a level",
    "coskeleton": "right adjoint to truncation",
    "quotient": "orbit presheaf under a permutation group",
    "boundary": "union of the proper faces",
    "cap": "faces minus one, the open box",
    "realize": "simplicial realization sizes",
    "homology": "integral homology of the realization",
    "lift": "right lifting property over all squares",
    "fibrant": "cap filling report",
    "homotopic": "search for a homotopy between vertices",
    "verify-all": "every exhaustive suite at one bound",
}


def test_top_help_lists_every_command(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    assert run(["-h"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: symcube [-h] [--site {Q,QSigma}] [--limit LIMIT] [--json]")
    assert set(build_parser()._subparsers._group_actions[0].choices) == set(COMMAND_HELP)
    listed = [re.fullmatch(r"    (\S+) +(\S.*)", line) for line in out.splitlines()]
    assert dict(m.groups() for m in listed if m) == COMMAND_HELP


@pytest.mark.parametrize("command", sorted(COMMAND_HELP))
def test_every_command_answers_help(command, capsys):
    assert run([command, "-h"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: symcube {command} [-h]")
    assert "show this help message and exit" in out


@pytest.mark.parametrize("argv, last_line", [
    (["bogus"], "symcube: error: argument command: invalid choice: 'bogus' (choose from "
     + ", ".join(f"'{c}'" for c in COMMAND_HELP) + ")"),
    (["homology", "cube:2", "--site", "Q"], "symcube: error: unrecognized arguments: --site Q"),
    (["--limit", "x", "homology", "cube:1"],
     "symcube: error: argument --limit: invalid int value: 'x'"),
])
def test_argv_errors_exit_2_with_usage(argv, last_line, capsys):
    """Global flags come before the subcommand; the subcommand parser
    leaves what it does not know to the top parser."""
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: symcube [-h] [--site {Q,QSigma}] [--limit LIMIT] [--json]")
    assert err.splitlines()[-1] == last_line


# -- input errors ------------------------------------------------------------


def test_bad_morphism_is_input_error(capsys):
    assert run(["compose", "garbage", "(x1):1->1"]) == 2


def test_missing_argument_is_input_error(capsys):
    assert run(["compose", "(x1):1->1"]) == 2


def test_unknown_subcommand_is_input_error(capsys):
    assert run(["frobnicate"]) == 2


def test_no_arguments_is_input_error(capsys):
    assert run([]) == 2


def test_unknown_spec_is_input_error(capsys):
    assert run(["homology", "dodecahedron:12"]) == 2


@pytest.mark.parametrize("n", ["-1", "0"])
def test_boundary_below_dimension_one_names_its_dimension(n, capsys):
    assert run(["homology", f"boundary:{n}"]) == 2
    assert capsys.readouterr().err == \
        f"input error: a boundary needs a cube of dimension at least 1, not {n}\n"


def test_bad_cycles_is_input_error(capsys):
    assert run(["quotient", "cube:2", "(1 7)"]) == 2


@pytest.mark.parametrize("argv, letter", [
    (["quotient", "cube:2", "(1 2)(1 2)"], 1),
    (["quotient", "cube:3", "(1 2 3)(1 2 3)"], 1),
    (["quotient", "cube:3", "(1 2)(2 3)"], 2),
    (["homology", "quotient:3:(1 2)(2 3)"], 2),
])
def test_cycles_sharing_a_letter_are_input_errors(argv, letter, capsys):
    """(1 2)(1 2) used to give the (1 2) quotient, and (1 2)(2 3) a
    message about a tuple that is not a permutation."""
    assert run(argv) == 2
    out, err = capsys.readouterr()
    cycles = argv[-1].split(":")[-1]
    assert out == ""
    assert err == (f"input error: cycles in {cycles!r} share the letter {letter}; "
                   "write disjoint cycles\n")


def test_disjoint_cycles_name_their_product(capsys):
    assert invoke(capsys, "quotient", "cube:2", "id")[1] == "quot [QSigma] 0:4 1:8 2:22\n"
    assert invoke(capsys, "quotient", "cube:4", "(1 2)(3 4)") == \
        invoke(capsys, "quotient", "cube:4", "(3 4)(1 2)")


@pytest.mark.parametrize("route", [["--file"], []], ids=["--file", "spec"])
def test_file_that_is_not_utf8_is_input_error(route, tmp_path, capsys):
    path = tmp_path / "bad.cub"
    path.write_bytes(bytes.fromhex("fffe00626164"))
    assert run(["homology", *route, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {path} is not UTF-8 text: ") and "Traceback" not in err


# -- verification commands ---------------------------------------------------


def test_verify_relations_passes(capsys):
    code, out = invoke(capsys, "verify-relations", "--dim", "3")
    assert code == 0
    assert "[PASS]" in out


def test_verify_ez_passes(capsys):
    code, out = invoke(capsys, "verify-ez", "--dim", "2")
    assert code == 0


def test_verify_pushouts_passes(capsys):
    code, out = invoke(capsys, "verify-pushouts", "--dim", "3")
    assert code == 0


def test_verify_relations_json_mirror(capsys):
    code, out = invoke(capsys, "--json", "verify-relations", "--dim", "2")
    data = json.loads(out)
    assert code == 0
    assert data["ok"] is True
    assert data["failed"] == 0
    assert set(data) == {"name", "ok", "checked", "failed", "failures"}


# -- presheaf commands -------------------------------------------------------


def test_boundary_sizes(capsys):
    code, out = invoke(capsys, "boundary", "2")
    assert code == 0
    assert out == "bd2 [QSigma] 0:4 1:8 2:20\n"


def test_cap_sizes_both_sites(capsys):
    code, out = invoke(capsys, "cap", "2", "1", "0")
    assert (code, out) == (0, "cap2_1_0 [QSigma] 0:4 1:7 2:16\n")
    code, out = invoke(capsys, "--site", "Q", "cap", "2", "1", "0")
    assert (code, out) == (0, "cap2_1_0 [Q] 0:4 1:7 2:10\n")


def test_convolve_square_from_intervals(capsys):
    code, out = invoke(capsys, "convolve", "cube:1", "cube:1")
    assert code == 0
    assert "0:4 1:8 2:22" in out


def test_convolve_torus_at_default_limit(capsys):
    # 3,034,128 members at level 4, of which 8,400 are reduced: the
    # default limit now holds the torus
    code, out = invoke(capsys, "convolve", "boundary:2", "boundary:2")
    assert (code, out) == (0, "bd2(x)bd2 [QSigma] 0:16 1:48 2:176 3:784 4:4176\n")


def test_symmetrize_cube(capsys):
    code, out = invoke(capsys, "symmetrize", "cube:2")
    assert code == 0
    assert "i!cube2 [QSigma] 0:4 1:8 2:22" in out


def test_restrict_interval(capsys):
    code, out = invoke(capsys, "restrict", "cube:1", "--dim", "2")
    assert code == 0
    assert "0:2 1:3 2:6" in out


def test_skeleton_and_coskeleton(capsys):
    code, out = invoke(capsys, "skeleton", "cube:2", "1")
    assert code == 0
    assert "0:4 1:8 2:20" in out
    code, out = invoke(capsys, "coskeleton", "boundary:2", "1")
    assert code == 0


def test_quotient_of_square_by_swap(capsys):
    code, out = invoke(capsys, "quotient", "cube:2", "(1 2)")
    assert code == 0
    assert "0:3 1:5 2:12" in out


def test_quotient_of_a_file_outside_its_cube_is_input_error(tmp_path, capsys):
    # the square with the ids of two vertices exchanged loads, as a valid
    # presheaf isomorphic to the square, but H does not act on it
    a, b = "(0,0):0->2", "(0,1):0->2"
    text = dumps_presheaf(representable(2, SiteTag.QSIGMA))
    path = tmp_path / "swapped.cub"
    path.write_text(text.replace(a, "@").replace(b, a).replace("@", b))
    assert run(["quotient", str(path), "(1 2)"]) == 2
    assert "swapped is not a sub-presheaf of the 2-cube" in capsys.readouterr().err


def test_quotient_of_a_file_charges_its_ambient_cube(tmp_path, capsys):
    # one vertex of the 5-cube: loading checks no generator word, and the
    # quotient is charged the 32 vertices of the cube it names orbits in
    path = tmp_path / "vertex.cub"
    path.write_text("site: QSigma\ntruncation: 0\nlevel 0: (0,0,0,0,0):0->5\n")
    assert run(["--limit", "10", "quotient", str(path), "(1 2)"]) == 3
    assert "hom set QSigma([0],[5]), more than limit 10" in capsys.readouterr().err
    code, out = invoke(capsys, "--limit", "32", "quotient", str(path), "(1 2)")
    assert (code, out) == (0, "quot [QSigma] 0:1\n")


def test_realize_boundary(capsys):
    code, out = invoke(capsys, "realize", "boundary:2")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "|bd2| 0:4 1:8 2:12 3:16"
    assert lines[1] == "nondegenerate 0:4 1:4 2:0 3:0"
    assert lines[2] == "euler 0"
    code, out = invoke(capsys, "--json", "realize", "boundary:2")
    data = json.loads(out)
    assert code == 0
    assert data["levels"] == {"0": 4, "1": 8, "2": 12, "3": 16}
    assert data["nondegenerate"] == {"0": 4, "1": 4, "2": 0, "3": 0}
    assert data["euler"] == 0


# -- homology ----------------------------------------------------------------


def test_homology_sphere(capsys):
    code, out = invoke(capsys, "homology", "boundary:3")
    assert code == 0
    assert out == "H_0 = Z\nH_1 = 0\nH_2 = Z\n"


def test_homology_from_file(tmp_path, capsys):
    path = tmp_path / "boundary3.cub"
    path.write_text(dumps_presheaf(boundary(3, SiteTag.QSIGMA)[0]))
    code, out = invoke(capsys, "homology", "--file", str(path))
    assert code == 0
    assert out == "H_0 = Z\nH_1 = 0\nH_2 = Z\n"
    # two components, the vertices of bd1 times the interval
    code, out = invoke(capsys, "homology", str(DATA / "cube1_x_bd1_Q.txt"))
    assert (code, out) == (0, "H_0 = Z^2\n")


def test_homology_file_reads_a_file_named_like_a_builtin(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "point").write_text(dumps_presheaf(boundary(2, SiteTag.QSIGMA)[0]))
    assert invoke(capsys, "homology", "--file", "point") == (0, "H_0 = Z\nH_1 = Z\n")
    assert invoke(capsys, "homology", "point") == (0, "H_0 = Z\n")
    assert invoke(capsys, "homology", "--file", "cube:2") == (2, "")


def test_loading_an_empty_file_of_high_truncation_is_charged(tmp_path):
    # the loader's audit checks 109,665 generator words for this file, and
    # the chains build nothing for its empty levels
    path = tmp_path / "empty8.cub"
    path.write_text(dumps_presheaf(empty_presheaf(SiteTag.QSIGMA, 8)))
    cli = [sys.executable, "-m", "symcube.cli"]
    start = time.perf_counter()
    bounded = subprocess.run([*cli, "--limit", "1000", "homology", str(path)],
                             capture_output=True, text=True)
    assert bounded.returncode == 3, bounded.stderr
    assert "109665 generator words" in bounded.stderr
    assert time.perf_counter() - start < 10
    full = subprocess.run([*cli, "homology", str(path)], capture_output=True, text=True)
    assert (full.returncode, full.stdout) == (0, "H_0 = 0\n")


def test_lift_between_empty_files_of_high_truncation(tmp_path):
    # words on the empty levels pass the loader's audit unread
    path = tmp_path / "empty8.cub"
    path.write_text(dumps_presheaf(empty_presheaf(SiteTag.QSIGMA, 8)))
    proc = subprocess.run(
        [sys.executable, "-m", "symcube.cli", "lift", f"empty:{path}", f"terminal:{path}"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "2/2 checks passed" in proc.stdout


def test_homology_of_the_point_truncated_at_six(tmp_path):
    # the EZ tables read the generators, so no hom set Hom([6],[5]) is built
    path = tmp_path / "point6.cub"
    path.write_text(dumps_presheaf(terminal_presheaf(SiteTag.QSIGMA, 6)))
    cli = [sys.executable, "-m", "symcube.cli"]
    start = time.perf_counter()
    full = subprocess.run([*cli, "homology", str(path)], capture_output=True, text=True)
    assert (full.returncode, full.stdout) == (0, "H_0 = Z\n"), full.stderr
    assert time.perf_counter() - start < 10
    bounded = subprocess.run([*cli, "--limit", "1000", "homology", str(path)],
                             capture_output=True, text=True)
    assert bounded.returncode == 3
    assert "32754 generator words" in bounded.stderr


def test_restrict_extends_the_point_truncated_at_six(tmp_path, capsys):
    # the extension charges only the point's one nondegenerate section,
    # so level 7 is built at the default limit
    path = tmp_path / "pt6.txt"
    path.write_text(dumps_presheaf(terminal_presheaf(SiteTag.QSIGMA, 6)))
    code, out = invoke(capsys, "restrict", str(path), "--dim", "7")
    assert (code, out) == (0, "i*pt6 [Q] 0:1 1:1 2:1 3:1 4:1 5:1 6:1 7:1\n")


def test_homology_requires_one_source(capsys):
    assert run(["homology"]) == 2
    assert run(["homology", "cube:1", "--file", "x.cub"]) == 2


def test_homology_json(capsys):
    code, out = invoke(capsys, "--json", "homology", "boundary:2")
    data = json.loads(out)
    assert code == 0
    assert data["groups"] == [
        {"degree": 0, "betti": 1, "torsion": []},
        {"degree": 1, "betti": 1, "torsion": []},
    ]


def test_homology_json_text_with_torsion(capsys):
    # M(Z/2, 1) from two squares, the grid moore2x1 of perfbench
    code, out = invoke(capsys, "--json", "homology", "--file", str(DATA / "moore2x1.cub"))
    assert code == 0
    assert out == """{
  "groups": [
    {
      "betti": 1,
      "degree": 0,
      "torsion": []
    },
    {
      "betti": 0,
      "degree": 1,
      "torsion": [
        2
      ]
    }
  ],
  "name": "moore2x1"
}
"""


def test_presheaf_file_roundtrip(tmp_path):
    from symcube.presheaf import loads_presheaf

    X = boundary(2, SiteTag.QSIGMA)[0]
    text = dumps_presheaf(X)
    again = dumps_presheaf(loads_presheaf(text, name=X.name))
    assert text == again


def _without_truncation(X):
    data = json.loads(dumps_presheaf_json(X))
    del data["truncation"]
    return json.dumps(data)


def _json_image(value):
    # the first entry of a face block sent to a list or an object
    def spoil(X):
        data = json.loads(dumps_presheaf_json(X))
        table = data["action"]["delta(1,0,0)"]
        table[next(iter(table))] = value
        return json.dumps(data)
    return spoil


def _json_truncation(value):
    # a truncation that int() would read as 1
    def spoil(X):
        data = json.loads(dumps_presheaf_json(X))
        data["truncation"] = value
        return json.dumps(data)
    return spoil


@pytest.mark.parametrize(
    "spoil",
    [
        _without_truncation,
        lambda X: dumps_presheaf_json(X)[:200],
        lambda X: dumps_presheaf(X).replace("truncation: 1", "truncation: x"),
        # a string level would otherwise split into one-character ids
        lambda X: '{"site":"Q","truncation":0,"levels":{"0":"ab"},"action":{}}',
        lambda X: dumps_presheaf(X).replace("truncation: 1", "level 5: z\ntruncation: 1"),
        _json_image(["a"]),
        _json_image({"b": "a"}),
        _json_truncation(1.9),
        _json_truncation(True),
        _json_truncation("1"),
        # a block under a name that generator_morphisms does not write
        lambda X: dumps_presheaf_json(X).replace('"delta(1,0,0)"', '"frob(1,0)"'),
    ],
    ids=["json-missing-key", "json-truncated", "text-bad-truncation",
         "json-string-level", "text-level-above-truncation", "json-list-image",
         "json-object-image", "json-float-truncation", "json-bool-truncation",
         "json-string-truncation", "json-unknown-block"],
)
def test_malformed_presheaf_file_is_input_error(tmp_path, capsys, spoil):
    path = tmp_path / "bad.cub"
    path.write_text(spoil(boundary(1, SiteTag.QSIGMA)[0]))
    assert run(["realize", str(path)]) == 2
    assert "malformed presheaf" in capsys.readouterr().err


# -- homotopy commands -------------------------------------------------------


def test_homotopic_in_interval(capsys):
    code, out = invoke(capsys, "homotopic", "cube:1", "(0):0->1", "(1):0->1")
    assert code == 0
    assert "[PASS]" in out


def test_not_homotopic_in_boundary(capsys):
    code, out = invoke(capsys, "homotopic", "boundary:1", "(0):0->1", "(1):0->1")
    assert code == 1
    assert "[FAIL]" in out


def test_homotopic_unknown_vertex(capsys):
    assert run(["homotopic", "cube:1", "(7):0->1", "(1):0->1"]) == 2


def test_lift_cap_against_discrete(capsys):
    code, out = invoke(capsys, "lift", "cap:1:1:0", "terminal:boundary:1")
    assert code == 0
    assert "filled" in out


def test_lift_detects_missing_filler(capsys):
    code, out = invoke(capsys, "lift", "boundary:1", "terminal:boundary:1")
    assert code == 1
    assert "no filler" in out


def test_lift_extends_maps_to_common_truncation(capsys):
    # the right map is stored to level 1 only, the top maps reach level 2
    code, out = invoke(capsys, "lift", "cap:2:1:0", "terminal:cube:1")
    assert code == 1
    assert "no filler" in out
    assert "commuting squares found  [7]" in out


CROSS_SITE = [
    ["lift", "boundary:2", "identity:{q2}"],
    ["homotopic", "{q2}", "(0,0):0->2", "(1,1):0->2", "--dim", "2"],
    ["lift", "identity:{q2}", "boundary:2"],
]


@pytest.mark.parametrize("argv", CROSS_SITE, ids=[" ".join(a) for a in CROSS_SITE])
def test_maps_between_two_sites_are_input_errors(tmp_path, capsys, argv):
    # the 2-cube over Q, asked about against presheaves over QSigma
    path = tmp_path / "q2.txt"
    path.write_text(dumps_presheaf(representable(2, SiteTag.Q)))
    code = run([a.format(q2=path) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "[Q]" in captured.err and "[QSigma]" in captured.err
    assert "different sites" in captured.err


def test_empty_map_spec_lives_over_its_target_site(tmp_path, capsys):
    q2 = representable(2, SiteTag.Q)
    path = tmp_path / "q2.txt"
    path.write_text(dumps_presheaf(q2))
    assert load_map_spec(f"empty:{path}", SiteTag.QSIGMA).src.site is SiteTag.Q
    code, out = invoke(capsys, "lift", f"empty:{path}", f"identity:{path}")
    squares = len(hom_presheaf(q2, q2))  # one filled square per endomap
    assert code == 0
    assert out.endswith(f"commuting squares found  [{squares}]\n")


def oracle_lift_lines(left_spec, right_spec, site="QSigma"):
    """The lift report by the route one hom set replaced: one
    oracle_solve_lifting search per commuting square."""
    tag = SiteTag.parse(site)
    left, right = load_map_spec(left_spec, tag), load_map_spec(right_spec, tag)
    rep = Report(f"right lifting property of {right_spec} against {left_spec}")
    squares = 0
    for ti, top in enumerate(hom_presheaf(left.src, right.src)):
        for bi, bottom in enumerate(hom_presheaf(left.dst, right.dst)):
            problem = LiftingProblem(left, right, top, bottom)
            if problem.commutes():
                squares += 1
                filled = oracle_solve_lifting(problem) is not None
                rep.check(f"square top[{ti}] bottom[{bi}]", filled,
                          "filled" if filled else "no filler")
    rep.check("commuting squares found", True, str(squares))
    return int(not rep.ok), [rep.summary(), *(f"  {e}" for e in rep.entries)]


@pytest.mark.parametrize("site, left, right", [
    ("QSigma", "cap:2:1:0", "terminal:cube:2"),
    ("QSigma", "boundary:1", "terminal:cube:2"),
    ("QSigma", "cap:2:1:0", "boundary:2"),
    ("QSigma", "boundary:1", "boundary:2"),
    ("QSigma", "cap:2:1:0", "terminal:cube:1"),
    ("Q", "cap:2:1:0", "terminal:cube:2"),
    # one top, so the bottom alone decides: the identity of the interval
    # does not factor through its boundary
    ("QSigma", "empty:cube:1", "boundary:1"),
    # many bottoms per top, and ends stored to different levels
    ("QSigma", "boundary:2", "boundary:2"),
    ("Q", "boundary:2", "boundary:2"),
    ("QSigma", "boundary:1", "cap:2:1:0"),
    ("QSigma", "cap:2:1:0", "empty:cube:3"),
    ("QSigma", "empty:cube:3", "boundary:1"),
    ("QSigma", "terminal:boundary:2", "terminal:cube:3"),
])
def test_lift_report_is_the_oracle(capsys, site, left, right):
    code, out = invoke(capsys, "--site", site, "lift", left, right)
    assert (code, out.splitlines()) == oracle_lift_lines(left, right, site)


# the smallest --limit each search passes, recorded before the map
# searches shared one join, with the charge that stops it one below
SEARCH_CHARGES = [
    (["fibrant", "cube:2", "--dim", "3"], 2170, "candidate values for maps cap3_1_1 -> cube2"),
    (["fibrant", "boundary:2", "--dim", "3"], 1654, "candidate values for maps cap3_1_1 -> bd2"),
    (["lift", "cap:2:1:0", "boundary:2"], 1492, "candidate values for maps cube2 -> cube2"),
    (["lift", "cap:2:1:0", "terminal:cube:2"], 1492, "candidate values for maps cube2 -> cube2"),
    (["homotopic", "cube:2", "(0,0):0->2", "(1,1):0->2", "--dim", "2"], 219,
     "candidate values for maps cube0(x)cube2 -> cube2"),
    (["coskeleton", "cube:2", "1"], 1320, "candidate values for maps sk1_cube2 -> cube2"),
]


@pytest.mark.parametrize("argv, limit, what", SEARCH_CHARGES,
                         ids=[" ".join(argv) for argv, _, _ in SEARCH_CHARGES])
def test_search_charges_are_pinned(capsys, argv, limit, what):
    code = run(["--limit", str(limit), *argv])
    assert code != 3
    assert run(argv) == code
    capsys.readouterr()
    assert run(["--limit", str(limit - 1), *argv]) == 3
    assert capsys.readouterr().err == f"resource bound: {what}, more than limit {limit - 1}\n"


def test_fibrant_point(capsys):
    code, out = invoke(capsys, "fibrant", "point", "--dim", "2")
    assert code == 0


def test_fibrant_point_through_three(capsys):
    code, out = invoke(capsys, "fibrant", "point", "--dim", "3")
    assert code == 0
    assert "12/12 checks passed [PASS]" in out


@pytest.mark.parametrize(
    "spec", ["cap:2:1", "cap:2:1:x", "cap:2:3:0", "boundary:x", "boundary:0", "bogus"]
)
def test_malformed_map_spec_is_input_error(capsys, spec):
    assert run(["lift", spec, "terminal:cube:1"]) == 2
    assert "input error" in capsys.readouterr().err


def test_fibrant_interval_fails_at_two(capsys):
    code, out = invoke(capsys, "--json", "fibrant", "cube:1", "--dim", "2")
    data = json.loads(out)
    assert code == 1
    assert data["failed"] == 4


# -- verify-all --------------------------------------------------------------


def test_library_error_in_a_check_exits_1_without_traceback(capsys, monkeypatch):
    def broken():
        raise SymcubeError("value not constant on class c")

    monkeypatch.setattr(cli_module, "_suite_snf", broken)
    assert run(["verify-all", "--dim", "0"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: value not constant on class c\n")


def test_verify_all_small(capsys):
    code, out = invoke(capsys, "verify-all", "--dim", "1")
    assert code == 0
    assert "[PASS]" in out


def test_verify_all_json(capsys):
    code, out = invoke(capsys, "--json", "verify-all", "--dim", "1")
    data = json.loads(out)
    assert code == 0
    assert data["ok"] is True
    assert all(s["ok"] for s in data["suites"])


def test_symmetrization_suite_checks_transported_caps():
    rep = _suite_symmetrization(2)
    assert rep.ok
    assert [e.label for e in rep.entries if "cap" in e.label] == [
        f"transported cap({n},{j},{eps}) is the symmetric cap"
        for n in (1, 2)
        for j in range(1, n + 1)
        for eps in (0, 1)
    ]


# -- console entry -----------------------------------------------------------


def test_module_invocation_exit_codes():
    proc = subprocess.run(
        [sys.executable, "-m", "symcube.cli", "compose",
         "(x3,x1^x2):3->2", "(0,x1,x5):5->3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "(x5,0):5->2\n"
    bad = subprocess.run(
        [sys.executable, "-m", "symcube.cli"], capture_output=True, text=True
    )
    assert bad.returncode == 2


def test_closed_stdout_is_not_an_input_error():
    # the reader is gone before the command writes its first line
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "symcube.cli", "enum-hom", "3", "3"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode != 2
    assert "input error" not in proc.stderr


def test_morphism_contracts_hold_without_asserts():
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "symcube.cli", "compose",
         "(x1,x1):1->2", "(x1):1->1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "used twice" in proc.stderr


# every subcommand on a small input, with the exit code it gives; the
# failing ones exercise the contracts that must hold without asserts
EVERY_SUBCOMMAND = [
    (["compose", "(x1):1->1", "(x1):1->1"], 0),
    (["compose", "(x1):1->1", "(0):0->2"], 2),
    (["factor", "(x1,0):1->2"], 0),
    (["factor", "(x3):1->1"], 2),
    (["tensor", "(x1):1->1", "(0):0->1"], 0),
    (["enum-hom", "1", "1"], 0),
    (["enum-hom", "2", "-1"], 2),
    (["verify-relations", "--dim", "2"], 0),
    (["verify-relations", "--dim", "-1"], 2),
    (["--limit", "1000", "verify-relations", "--dim", "40"], 3),
    (["verify-ez", "--dim", "2"], 0),
    (["verify-ez", "--dim", "3"], 0),
    (["verify-ez", "--dim", "-1"], 2),
    # stopped by the pairs of factorizations in Hom(3,4), before any mediator
    (["--limit", "2000", "verify-ez", "--dim", "4"], 3),
    (["verify-pushouts", "--dim", "2"], 0),
    (["verify-pushouts", "--dim", "6"], 0),
    (["verify-pushouts", "--dim", "-1"], 2),
    (["--limit", "1000", "verify-pushouts", "--dim", "24"], 3),
    (["--limit", "1000", "verify-pushouts", "--dim", "8"], 0),
    (["convolve", "cube:1", "boundary:1"], 0),
    (["--limit", "10", "convolve", "cube:1", "cube:1"], 3),
    (["symmetrize", "boundary:1"], 0),
    (["symmetrize", "boundary:992"], 3),
    (["restrict", "cube:1"], 0),
    (["restrict", "cube:1", "--dim", "-1"], 2),
    (["skeleton", "cube:1", "0"], 0),
    (["coskeleton", "boundary:1", "0"], 0),
    (["quotient", "cube:2", "(1 2)"], 0),
    (["quotient", "empty", "(1 2)"], 2),
    (["quotient", "boundary:3", "(1 2 3)"], 0),
    # the swap moves the missing face, so H does not keep the cap; its orbits are still named
    (["quotient", "cap:3:1:0", "(1 2)"], 0),
    # a quotient's ids are the cube's, but its action is not the cube's
    (["quotient", "quotient:2:(1 2)", "(1 2)"], 2),
    (["--limit", "100", "quotient", "cube:3", "(1 2 3)"], 3),
    (["boundary", "1"], 0),
    (["boundary", "0"], 2),
    (["boundary", "992"], 3),
    (["cap", "1", "1", "0"], 0),
    (["cap", "1", "2", "0"], 2),
    (["realize", "cube:1"], 0),
    (["homology", "boundary:1"], 0),
    # a top cell with stabilizer Sigma_2: the simplicial fallback route
    (["homology", "quotient:2:(1 2)"], 0),
    (["homology", "cube:-1"], 2),
    (["--limit", "1", "homology", "cube:3"], 3),
    (["--limit", "1000", "homology", "cube:6"], 3),
    (["homology", "."], 2),
    (["lift", "boundary:1", "terminal:cube:1"], 1),
    (["lift", "cap:2:1:0", "terminal:cube:1"], 1),
    (["lift", "empty", "terminal:point"], 2),
    (["fibrant", "cube:1"], 0),
    (["homotopic", "cube:1", "(0):0->1", "(1):0->1"], 0),
    (["verify-all", "--dim", "0"], 0),
    (["verify-all", "--dim", "1"], 0),
    (["verify-all", "--dim", "2"], 0),
    (["verify-all", "--dim", "-1"], 2),
    (["--limit", "1000", "verify-all", "--dim", "3"], 3),
    # a hom set over the bound is named, never printed with its size
    (["enum-hom", "0", "20000"], 3),
    (["boundary", "20000"], 3),
    (["homology", "cube:20000"], 3),
    (["restrict", "cube:1", "--dim", "3000"], 3),
    # the cube is built, and bounded, before its permutation
    (["homology", "quotient:99999999:id"], 3),
    (["--limit", "-1", "enum-hom", "1", "1"], 2),
    # the bound reaches every enumeration, with no plumbing
    (["--limit", "1000", "homotopic", "cube:1", "(0):0->1", "(1):0->1",
      "--dim", "5"], 3),
    # fibrancy builds no cube and no cap, and the point's caps draw one
    # value per face
    (["--limit", "1000", "fibrant", "point", "--dim", "4"], 0),
    (["--limit", "1000", "fibrant", "point", "--dim", "5"], 0),
    (["restrict", "cube:2", "--dim", "12"], 3),
    (["--limit", "100", "restrict", "cube:1", "--dim", "4"], 0),
    # extended levels carry their EZ table, so no Hom(m, m-1) is enumerated
    (["--limit", "1000", "restrict", "cube:1", "--dim", "5"], 0),
    # the face join's draws are charged, not only the maps it counts:
    # cap(3,1,1) -> cube2 draws more than 2000 candidate values
    (["--limit", "2000", "fibrant", "cube:2", "--dim", "3"], 3),
]

_RUN_EACH = """
import contextlib, io, json, sys
from symcube.cli import run
codes = []
for argv in json.load(sys.stdin):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(run(argv))
print(json.dumps(codes))
"""


def test_every_subcommand_exits_alike_without_asserts():
    parser = build_parser()
    commands = parser._subparsers._group_actions[0].choices
    covered = {next(a for a in argv if not a.startswith("-") and not a.isdigit())
               for argv, _ in EVERY_SUBCOMMAND}
    assert covered == set(commands)
    argvs = [argv for argv, _ in EVERY_SUBCOMMAND]
    expected = [code for _, code in EVERY_SUBCOMMAND]
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", _RUN_EACH],
            input=json.dumps(argvs), capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == expected, flags


# -- argv fuzzing under a small bound -----------------------------------------

MORPHISMS = ["(x1):1->1", "(0):0->2", "(x1,0):1->2", "(x2,x1):2->2",
             "(x1^x2):2->1", "(x3):1->1", "x"]
VERTICES = ["(0):0->1", "(1):0->1", "(0,1):0->2", "pt"]
CYCLES = ["id", "(1 2)", "(1 2 3)", "(1 9)", "(1"]


def specs(dims):
    return st.one_of(
        st.sampled_from(["point", "empty"]),
        st.builds("cube:{}".format, dims),
        st.builds("boundary:{}".format, dims),
        st.builds("cap:{}:{}:{}".format, dims, st.integers(0, 3), st.integers(0, 1)),
        st.builds("quotient:{}:{}".format, dims, st.sampled_from(CYCLES)),
    )


def map_specs(dims):
    return st.one_of(
        st.builds("boundary:{}".format, dims),
        st.builds("cap:{}:{}:{}".format, dims, st.integers(0, 2), st.integers(0, 1)),
        st.builds("{}:{}".format, st.sampled_from(["identity", "terminal", "empty"]),
                  specs(dims)),
    )


def _args(*parts):
    return st.tuples(*(st.just(p) if isinstance(p, str) else p for p in parts))


# Dimensions reach 12 wherever the bound has to stop the command.  The
# objects of the search commands (fibrant, homotopic, lift, coskeleton)
# stay at dimension 1 or less, since search nodes are not charged; the
# verify suites stay at --dim 3 or less, since above it they pair hom
# sets of up to 2000 arrows each and take seconds before the bound stops
# them.
_DIMS = st.integers(-1, 12)
_BIG = _DIMS.map(str)
_SMALL = st.integers(-1, 1)
_VERIFY = st.integers(-1, 3).map(str)
FUZZ_COMMANDS = {
    "compose": _args(st.sampled_from(MORPHISMS), st.sampled_from(MORPHISMS)),
    "factor": _args(st.sampled_from(MORPHISMS)),
    "tensor": _args(st.sampled_from(MORPHISMS), st.sampled_from(MORPHISMS)),
    "enum-hom": _args(_BIG, _BIG),
    **{name: _args("--dim", _VERIFY) for name in
       ("verify-relations", "verify-ez", "verify-pushouts", "verify-all")},
    "convolve": _args(specs(_DIMS), specs(_DIMS)),
    "symmetrize": _args(specs(_DIMS)),
    "restrict": _args(specs(_DIMS), "--dim", _BIG),
    "skeleton": _args(specs(_DIMS), _BIG),
    "coskeleton": _args(specs(_SMALL), _BIG),
    "quotient": _args(specs(_DIMS), st.sampled_from(CYCLES)),
    "boundary": _args(_BIG),
    "cap": _args(_BIG, st.integers(0, 3).map(str), st.sampled_from(["0", "1"])),
    "realize": _args(specs(_DIMS)),
    "homology": _args(specs(_DIMS)),
    "lift": _args(map_specs(_SMALL), map_specs(_SMALL)),
    "fibrant": _args(specs(_SMALL), "--dim", _BIG),
    "homotopic": _args(specs(_SMALL), st.sampled_from(VERTICES),
                       st.sampled_from(VERTICES), "--dim", _BIG),
}


@st.composite
def fuzz_argvs(draw):
    name = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    site = draw(st.sampled_from([[], ["--site", "Q"], ["--site", "QSigma"]]))
    json_flag = draw(st.sampled_from([[], ["--json"]]))
    return ["--limit", "2000", *site, *json_flag, name, *draw(FUZZ_COMMANDS[name])]


def test_fuzz_grammar_covers_every_subcommand():
    commands = build_parser()._subparsers._group_actions[0].choices
    assert set(FUZZ_COMMANDS) == set(commands)


@given(fuzz_argvs())
@settings(max_examples=250, deadline=None)
def test_fuzzed_argv_exits_with_a_status(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    assert code in (0, 1, 2, 3), argv
