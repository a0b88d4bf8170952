"""The four query lists and the reference each answer is checked against.

References never come from the path being timed.  Level sizes of cube
products and symmetrized cubes come from the closed-form hom_count,
the symmetrized boundary from the direct boundary construction, and
homology from the known groups of the spaces.  Answers that exist only
as output of the seed commit are marked frozen.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from symcube import SiteTag, boundary, dumps_presheaf, hom_count

import grids

WORKLOADS = ("convolve", "homology", "homology_grid", "homotopy")

# grid sizes are fixed so that every seed does the same amount of work;
# the seed picks the torsion order and the order of the squares
TORUS = (10, 10)
MOORE = (12, 12)

POINT = [(1, ())]
CIRCLE = [(1, ()), (1, ())]
SPHERE2 = [(1, ()), (0, ()), (1, ())]
TORUS_GROUPS = [(1, ()), (2, ()), (1, ())]


@dataclass
class Query:
    argv: list[str]
    status: int
    stdout: str | None = None  # exact expected output
    entries: Counter | None = None  # expected report lines, indices dropped
    summary: str | None = None  # expected report summary line
    frozen: bool = False  # recorded at the seed commit, no closed form

    def check(self, status, stdout: str, error: str | None) -> str | None:
        """None when the answer matches, else what differs."""
        if error is not None:
            return f"raised {error}"
        if status != self.status:
            return f"exit {status}, expected {self.status}"
        if self.stdout is not None and stdout != self.stdout:
            return f"output {stdout!r}, expected {self.stdout!r}"
        if self.entries is not None:
            summary, entries = parse_report(stdout)
            if summary != self.summary or entries != self.entries:
                return f"report {summary!r} {dict(entries)}, expected {self.summary!r} {dict(self.entries)}"
        return None


def parse_report(stdout: str) -> tuple[str, Counter]:
    lines = stdout.rstrip("\n").split("\n")
    entries = Counter(re.sub(r"(top|bottom)\[\d+\]", r"\1[]", line.strip()) for line in lines[1:])
    return lines[0], entries


def levels_line(name: str, site: str, sizes) -> str:
    cells = " ".join(f"{n}:{c}" for n, c in enumerate(sizes))
    return f"{name} [{site}] {cells}\n"


def homology_text(groups) -> str:
    lines = []
    for k, (b, torsion) in enumerate(groups):
        parts = ["Z" if b == 1 else f"Z^{b}"] if b else []
        parts += [f"Z/{t}" for t in torsion]
        lines.append(f"H_{k} = " + (" + ".join(parts) if parts else "0"))
    return "\n".join(lines) + "\n"


def _cube_product(m: int, n: int) -> Query:
    sizes = [hom_count(k, m + n, SiteTag.QSIGMA) for k in range(m + n + 1)]
    return Query(
        ["convolve", f"cube:{m}", f"cube:{n}"],
        0,
        levels_line(f"cube{m}(x)cube{n}", "QSigma", sizes),
    )


def _report(argv, status, summary, entries, frozen=True) -> Query:
    return Query(argv, status, entries=Counter(entries), summary=summary, frozen=frozen)


def _caps(n_max: int):
    return [
        f"cap ({n},{j},{eps})"
        for n in range(1, n_max + 1)
        for j in range(1, n + 1)
        for eps in (0, 1)
    ]


def convolve_queries() -> list[Query]:
    bd3 = boundary(3, SiteTag.QSIGMA)[0].size()
    return [
        _cube_product(0, 3),
        _cube_product(1, 2),
        _cube_product(2, 1),
        Query(
            ["convolve", "boundary:1", "boundary:2"],
            0,
            levels_line("bd1(x)bd2", "QSigma", [8, 16, 40, 128]),
            frozen=True,
        ),
        Query(
            ["symmetrize", "cube:3"],
            0,
            levels_line(
                "i!cube3", "QSigma", [hom_count(k, 3, SiteTag.QSIGMA) for k in range(4)]
            ),
        ),
        Query(["symmetrize", "boundary:3"], 0, levels_line("i!bd3", "QSigma", bd3)),
    ]


def homology_queries() -> list[Query]:
    return [
        Query(["homology", "boundary:3"], 0, homology_text(SPHERE2)),
        Query(["homology", "quotient:3:(1 2 3)"], 0, homology_text(POINT)),
        Query(["--site", "Q", "homology", "cube:3"], 0, homology_text(POINT)),
        Query(["--site", "Q", "homology", "boundary:3"], 0, homology_text(SPHERE2)),
        Query(["homology", "boundary:2"], 0, homology_text(CIRCLE)),
        Query(["homology", "cube:2"], 0, homology_text(POINT)),
    ]


def homotopy_queries() -> list[Query]:
    def fibrant(spec, failing):
        caps = _caps(2)
        entries = [f"ok   {c}  [4 maps, 0 without extension]" for c in caps[:2]]
        entries += [f"FAIL {c}  [34 maps, {failing} without extension]" for c in caps[2:]]
        name = "cube2" if spec == "cube:2" else "bd2"
        return _report(
            ["fibrant", spec, "--dim", "2"],
            1,
            f"cap filling in {name} through dimension 2: 2/6 checks passed [FAIL]",
            entries,
        )

    def lift(left, filled, unfilled):
        squares = filled + unfilled
        return _report(
            ["lift", left, "terminal:cube:2"],
            1,
            f"right lifting property of terminal:cube:2 against {left}: "
            f"{filled + 1}/{squares + 1} checks passed [FAIL]",
            ["ok   square top[] bottom[]  [filled]"] * filled
            + ["FAIL square top[] bottom[]  [no filler]"] * unfilled
            + [f"ok   commuting squares found  [{squares}]"],
        )

    def homotopic(spec, a, b, dim, found, frozen):
        mark = "ok  " if found else "FAIL"
        return _report(
            ["homotopic", spec, a, b, "--dim", str(dim)],
            0 if found else 1,
            f"homotopy between {a} and {b} in {spec.replace(':', '')}: "
            f"{int(found)}/1 checks passed [{'PASS' if found else 'FAIL'}]",
            [f"{mark} homotopy found  [cylinder dimension {dim}]"],
            frozen,
        )

    return [
        fibrant("cube:2", 16),
        fibrant("boundary:2", 18),
        # the point: exactly one map from every cap, and it extends
        _report(
            ["fibrant", "point", "--dim", "2"],
            0,
            "cap filling in cube0 through dimension 2: 6/6 checks passed [PASS]",
            [f"ok   {c}  [1 maps, 0 without extension]" for c in _caps(2)],
            frozen=False,
        ),
        lift("cap:2:1:0", 18, 16),
        lift("boundary:1", 8, 8),
        # opposite corners of the square, homotopic through a 2-cylinder
        homotopic("cube:2", "(0,0):0->2", "(1,1):0->2", 2, True, False),
        homotopic("cube:2", "(0,0):0->2", "(1,1):0->2", 1, False, True),
        # the interval endpoints are homotopic
        homotopic("cube:1", "(0):0->1", "(1):0->1", 1, True, False),
    ]


def grid_queries(seed: int, workdir: Path) -> tuple[list[Query], list[str]]:
    """Write the seeded grids and the seed-independent torsion check."""
    rng = random.Random(seed)
    d = rng.randint(2, 7)
    spaces = [
        ("torus", grids.torus(*TORUS, rng), TORUS_GROUPS),
        ("moore", grids.moore(*MOORE, d, rng), [(1, ()), (0, (d,))]),
        ("moore2x1", grids.moore(2, 1, 2, random.Random(0)), [(1, ()), (0, (2,))]),
    ]
    queries, inputs = [], []
    for stem, X, groups in spaces:
        path = workdir / f"{stem}.cub"
        path.write_text(dumps_presheaf(X))
        rel = str(path.relative_to(Path.cwd()))
        inputs.append(rel)
        queries.append(Query(["homology", "--file", rel], 0, homology_text(groups)))
    return queries, inputs


def build(workload: str, seed: int, workdir: Path) -> tuple[list[Query], list[str]]:
    """The query list of a workload and its input files."""
    inputs: list[str] = []
    if workload == "convolve":
        queries = convolve_queries()
    elif workload == "homology":
        queries = homology_queries()
    elif workload == "homotopy":
        queries = homotopy_queries()
    elif workload == "homology_grid":
        queries, inputs = grid_queries(seed, workdir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return queries, inputs


# Run once per benchmark invocation, outside the timed passes, and
# reported as known defects; a timed defect would score its fix as a
# slowdown or a speed-up instead of as a fix.
KNOWN_DEFECTS = [
    {
        "argv": ["lift", "cap:2:1:0", "terminal:cube:1"],
        "run": True,
        "seen": "exit 1 with an uncaught KeyError: 2 in LiftingProblem.commutes",
    },
    {
        "argv": ["homology", "cube:4"],
        "run": False,
        "seen": "ignores --limit and runs for more than 300 s",
    },
]
