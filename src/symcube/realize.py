"""Simplicial realization, integer chains, and homology.

A k-simplex of the m-fold interval power is an m-tuple of monotone
maps [k] -> {0,1}, stored as thresholds: t means the map is 1 from
vertex t onward, so t ranges over 0..k+1 and pointwise minimum is
componentwise maximum of thresholds.  A formal product acts on these
tuples coordinate-by-coordinate, which realizes a cubical set as a
simplicial set one level at a time.  A level is not glued from every
(section, simplex) pair: each of its simplices has one EZ normal form,
a nondegenerate section with a constant-free simplex taken up to the
cosymmetries of its level, so the levels are listed from those and
faces and degeneracies land by normalizing.

Homology is computed from the cubical chains on the cosymmetry orbits
of nondegenerate sections (cubical_chains) where those act freely, and
else from normalized chains (nondegenerate bases, faces landing on
degenerate simplices dropped): nondegenerate_chains builds them from
the normal forms whose simplex takes every value, with no degenerate
simplex; normalized_chains reads them off a realized simplicial set,
for explicit simplicial sets and as the check.  Chains
are sparse columns, and the groups come by exact integer elimination
on the transpose, the columns taken as rows: sparse unit pivots first,
then Smith reduction of the unit-free block that remains.  The
witnessed Smith normal form, with its transforms U and V, is
verify_snf's route.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache

from .errors import InputError, SymcubeError, charge
from .presheaf import SkeletalPresheaf, nondegenerate_sections
from .report import Report
from .site import Conj, Const, Morphism, SiteTag, compose, delta, enumerate_hom


# -- the interval-power action -----------------------------------------------


def simplices(m: int, k: int):
    """All k-simplices of the m-fold interval power."""
    return itertools.product(range(k + 2), repeat=m)


def simplex_face(s: tuple, i: int) -> tuple:
    return tuple(t - 1 if t > i else t for t in s)


def simplex_degeneracy(s: tuple, j: int) -> tuple:
    return tuple(t + 1 if t > j else t for t in s)


def act_on_cube(f: Morphism, k: int):
    """The k-simplex action of a formal product: constants become
    constant maps, conjunctions pointwise minima."""
    entries = f.entries

    def act(s: tuple) -> tuple:
        out = []
        for e in entries:
            if isinstance(e, Const):
                out.append(0 if e.bit == 1 else k + 1)
            else:
                out.append(max(s[sym - 1] for sym in e.symbols))
        return tuple(out)

    return act


def verify_act_naturality() -> Report:
    """Functoriality of the action and compatibility with the simplicial
    operators, for cubes of dimension <= 2 and simplices of dimension <= 3."""
    report = Report("interval-power action")
    dims, k_max = range(3), 3
    functorial = True
    for m in dims:
        for p in dims:
            for n in dims:
                for f in enumerate_hom(m, p, SiteTag.QSIGMA):
                    for g in enumerate_hom(p, n, SiteTag.QSIGMA):
                        gf = compose(g, f)
                        for k in range(k_max + 1):
                            a_f = act_on_cube(f, k)
                            a_g = act_on_cube(g, k)
                            a_gf = act_on_cube(gf, k)
                            for s in simplices(m, k):
                                if a_gf(s) != a_g(a_f(s)):
                                    functorial = False
    report.check("action is functorial", functorial)

    powers = {m: delta1_power(m, k_max) for m in dims}
    commutes = all(_action_map(f, powers[m], powers[n]).verify_simplicial()
                   for m in dims for n in dims
                   for f in enumerate_hom(m, n, SiteTag.QSIGMA))
    report.check("action commutes with faces and degeneracies", commutes)
    return report


# -- simplicial sets ---------------------------------------------------------


@dataclass
class SimplicialSet:
    """Finite levels with face and degeneracy tables.

    faces[(k, i)] maps level k to level k-1 (0 <= i <= k);
    degeneracies[(k, j)] maps level k to level k+1 (0 <= j <= k).
    """

    K: int
    levels: dict[int, tuple]
    faces: dict[tuple, dict]
    degeneracies: dict[tuple, dict]
    name: str = "S"

    @classmethod
    def of_members(cls, members: list, name_of, name: str) -> SimplicialSet:
        """Level k lists the ids of members[k] in order.  Each id names a
        member (*tag, s), s a k-simplex of an interval power; faces and
        degeneracies act on s, and name_of(*tag, s, k) is the id of the
        member (*tag, s) of level k."""
        def table(k, op, j, to):
            return {sid: name_of(*tag, op(s, j), to)
                    for sid, (*tag, s) in members[k].items()}

        K = len(members) - 1
        return cls(
            K, {k: tuple(level) for k, level in enumerate(members)},
            {(k, i): table(k, simplex_face, i, k - 1)
             for k in range(1, K + 1) for i in range(k + 1)},
            {(k, j): table(k, simplex_degeneracy, j, k + 1)
             for k in range(K) for j in range(k + 1)},
            name,
        )

    def face(self, k: int, i: int, s: str) -> str:
        return self.faces[(k, i)][s]

    def degeneracy(self, k: int, j: int, s: str) -> str:
        return self.degeneracies[(k, j)][s]

    def is_degenerate(self, k: int, s: str) -> bool:
        # s = s_j(y) forces y = d_{j+1}(s), so testing the round trip
        # over all j decides degeneracy
        for j in range(k):
            if self.degeneracy(k - 1, j, self.face(k, j + 1, s)) == s:
                return True
        return False

    def nondegenerate(self, k: int) -> tuple:
        return tuple(s for s in self.levels[k] if not self.is_degenerate(k, s))

    def verify_identities(self) -> Report:
        """The five simplicial identity families at stored levels."""
        report = Report(f"simplicial identities for {self.name}")
        ok_dd = ok_ss = ok_ds = True
        for k in range(2, self.K + 1):
            for j in range(k + 1):
                for i in range(j):
                    for s in self.levels[k]:
                        lhs = self.face(k - 1, i, self.face(k, j, s))
                        rhs = self.face(k - 1, j - 1, self.face(k, i, s))
                        if lhs != rhs:
                            ok_dd = False
        for k in range(self.K - 1):
            for i in range(k + 1):
                for j in range(i, k + 1):
                    for s in self.levels[k]:
                        lhs = self.degeneracy(k + 1, i, self.degeneracy(k, j, s))
                        rhs = self.degeneracy(k + 1, j + 1, self.degeneracy(k, i, s))
                        if lhs != rhs:
                            ok_ss = False
        for k in range(self.K):
            for j in range(k + 1):
                for s in self.levels[k]:
                    up = self.degeneracy(k, j, s)
                    for i in range(k + 2):
                        got = self.face(k + 1, i, up)
                        if i == j or i == j + 1:
                            want = s
                        elif i < j:
                            want = self.degeneracy(k - 1, j - 1, self.face(k, i, s))
                        else:
                            want = self.degeneracy(k - 1, j, self.face(k, i - 1, s))
                        if got != want:
                            ok_ds = False
        report.check("faces commute", ok_dd)
        report.check("degeneracies commute", ok_ss)
        report.check("faces past degeneracies", ok_ds)
        return report


def _threshold_id(s: tuple) -> str:
    return ",".join(str(t) for t in s) if s else "pt"


def delta1_power(m: int, K: int) -> SimplicialSet:
    """The m-fold interval power as an explicit simplicial set."""
    members = [{_threshold_id(s): (s,) for s in simplices(m, k)} for k in range(K + 1)]
    return SimplicialSet.of_members(members, lambda s, k: _threshold_id(s), f"D1^{m}")


def _action_map(f: Morphism, src: SimplicialSet, dst: SimplicialSet) -> SimplicialMap:
    """The action of f from delta1_power(f.src, K) to delta1_power(f.dst, K)."""
    mapping = {}
    for k in range(src.K + 1):
        act = act_on_cube(f, k)
        mapping[k] = {_threshold_id(s): _threshold_id(act(s)) for s in simplices(f.src, k)}
    return SimplicialMap(src, dst, mapping)


@dataclass
class SimplicialMap:
    src: SimplicialSet
    dst: SimplicialSet
    mapping: dict[int, dict[str, str]]

    def verify_simplicial(self) -> bool:
        K = min(self.src.K, self.dst.K)
        for k in range(1, K + 1):
            for i in range(k + 1):
                for s in self.src.levels[k]:
                    lhs = self.dst.face(k, i, self.mapping[k][s])
                    if lhs != self.mapping[k - 1][self.src.face(k, i, s)]:
                        return False
        for k in range(K):
            for j in range(k + 1):
                for s in self.src.levels[k]:
                    lhs = self.dst.degeneracy(k, j, self.mapping[k][s])
                    if lhs != self.mapping[k + 1][self.src.degeneracy(k, j, s)]:
                        return False
        return True


# -- realization -------------------------------------------------------------


def realize(X: SkeletalPresheaf) -> SimplicialSet:
    """The simplicial set of a stored cubical set.

    Level k glues one copy of the interval-power k-simplices per
    section: a simplex s in the copy of a pushforward X(f)(x) is the
    f-image of s in the copy of x.  Each class has a normal form, a
    nondegenerate section with a constant-free simplex, unique up to the
    cosymmetries of its level (the EZ structure), so a level is listed
    from those alone and named by the least member of each class.
    Levels run to N + 1, checked to be all degenerate (each copy
    contributes nondegenerate simplices only up to its own dimension).
    Each level's count of normal-form members is charged to the
    resource limit before it is built.
    """
    return _NormalForms(X).realization()[0]


class _NormalForms:
    """The classes of the realization of X by EZ normal form.

    A member (n, x, s) of level k is a section x at level n and a
    k-simplex s of its interval power.  Every class holds members
    (m, y, t) with y nondegenerate and t free of constants, unique up to
    the cosymmetries of [m]; they are the members of least dimension, so
    the least of them is the least member of the class, which only the
    cosymmetries in X.orbits reach.
    """

    def __init__(self, X: SkeletalPresheaf):
        self.X = X
        # the ids of the nondegenerate sections of each level that has any
        self.nondegenerate = {n: ys for n in range(X.N + 1)
                              if (ys := nondegenerate_sections(X, n))}
        self._faces: dict[tuple, Morphism] = {}

    def realization(self) -> tuple[SimplicialSet, list[dict]]:
        """realize(X), and the {class id: least member} of each level."""
        K = self.X.N + 1
        members = [dict(sorted(self.classes(k).items())) for k in range(K + 1)]
        S = SimplicialSet.of_members(members, lambda n, x, s, k: self.normal(n, x, s, k)[0],
                                     f"|{self.X.name}|")
        if S.nondegenerate(K):
            raise SymcubeError(f"top realization level of {self.X.name} not degenerate")
        return S, members

    def classes(self, k: int, onto: bool = False) -> dict:
        """{class id: least member} of level k, from the normal forms
        (n, x, s) with s in 1..k: all of them, len(nondegenerate[n]) *
        k**n at each n, or with onto only those whose s takes every
        value, the nondegenerate simplices, len(nondegenerate[n]) *
        _onto(n, k) at each n.  Their count is charged to the resource
        limit first, then times the largest stabilizer when that exceeds
        one: normal minimises each member over its section's stabilizer."""
        counted = {n: len(xs) * (_onto(n, k) if onto else k ** n)
                   for n, xs in self.nondegenerate.items()}
        size, what = sum(counted.values()), f"{'chain' if onto else 'realization'} level {k}"
        charge(size, f"{what} has {size} members")
        stab = max((len(ths) for n, c in counted.items() if c
                    for _, ths in self.X.orbits(n).values()), default=1)
        if stab > 1:
            charge(size * stab, f"{what} minimises {size} members over {stab} cosymmetries")
        return dict(self.normal(n, x, s, k)
                    for n, xs in self.nondegenerate.items() if not (onto and n < k)
                    for s in itertools.product(range(1, k + 1), repeat=n)
                    if not onto or len(set(s)) == k
                    for x in xs)

    def _face(self, pattern: tuple) -> Morphism:
        # pattern holds a bit per constant coordinate, None per free one
        d = self._faces.get(pattern)
        if d is None:
            free = itertools.count(1)
            entries = [Conj((next(free),)) if b is None else Const(b)
                       for b in pattern]
            d = Morphism(pattern.count(None), len(pattern), entries)
            self._faces[pattern] = d
        return d

    def normal(self, n: int, x: str, s: tuple, k: int) -> tuple:
        """(class id, least member) of the member (n, x, s) of level k:
        pull the constant coordinates of s out through the face they
        define, push s through the EZ epi of the section, and take the
        least member over the cosymmetries th that carry the section to
        the least id of its orbit, X.orbits: (n, pi(th)*x, (s[th(1)],
        ..., s[th(n)])) ~ (n, x, s), so only these reach the least member."""
        top = k + 1
        if 0 in s or top in s:
            d = self._face(tuple(1 if t == 0 else 0 if t == top else None
                                 for t in s))
            x = self.X.act(d, x)
            s = tuple(t for t in s if 0 < t < top)
            n = len(s)
        if not self.X.is_nondegenerate(n, x):
            epi, x = self.X.ez_decompose(n, x)
            s, n = act_on_cube(epi, k)(s), epi.dst
        least, ths = self.X.orbits(n)[x]
        best = min(tuple(s[i - 1] for i in th.one_line) for th in ths)
        return f"{least}@{_threshold_id(best)}", (n, least, best)


# -- chains and homology -----------------------------------------------------


@dataclass
class ChainComplex:
    """Integer chains over nondegenerate bases: columns[k][c] maps each
    row r of level k - 1 to the nonzero coefficient of bases[k-1][r] in
    the boundary of bases[k][c]."""

    bases: dict[int, tuple]
    columns: dict[int, list]

    @property
    def boundaries(self) -> dict[int, list]:
        """The dense matrices (len(bases[k-1]) x len(bases[k])), a view
        rebuilt from the columns on each read."""
        return {k: [[col.get(r, 0) for col in cols]
                    for r in range(len(self.bases[k - 1]))]
                for k, cols in self.columns.items()}

    def verify_square_zero(self) -> bool:
        for k, cols in self.columns.items():
            below = self.columns.get(k - 1)
            if below is None:
                continue
            for col in cols:
                product: dict[int, int] = {}
                for m, v in col.items():
                    for r, w in below[m].items():
                        product[r] = product.get(r, 0) + v * w
                if any(product.values()):
                    return False
        return True


def _chain_complex(bases: dict, boundary, name: str) -> ChainComplex:
    """The chains on bases, boundary(k, s) giving the (member,
    coefficient) terms of the boundary of s in bases[k]; a member off
    bases[k - 1] is degenerate and drops, and so does a coefficient that
    cancels.  Raises unless the boundary squares to zero."""
    columns = {}
    for k in range(1, max(bases) + 1):
        index = {s: r for r, s in enumerate(bases[k - 1])}
        columns[k] = []
        for s in bases[k]:
            col: dict[int, int] = {}
            for member, v in boundary(k, s):
                r = index.get(member)
                if r is not None:
                    col[r] = col.get(r, 0) + v
            columns[k].append({r: v for r, v in col.items() if v})
    C = ChainComplex(bases, columns)
    if not C.verify_square_zero():
        raise SymcubeError(f"boundary of {name} does not square to zero")
    return C


def normalized_chains(S: SimplicialSet) -> ChainComplex:
    bases = {k: S.nondegenerate(k) for k in range(S.K + 1)}
    return _chain_complex(
        bases, lambda k, s: ((S.face(k, i, s), (-1) ** i) for i in range(k + 1)), S.name)


def _onto(m: int, k: int) -> int:
    """The number of maps of an m-set onto a k-set."""
    return sum((-1) ** j * math.comb(k, j) * (k - j) ** m for j in range(k + 1))


def nondegenerate_chains(X: SkeletalPresheaf) -> ChainComplex:
    """normalized_chains(realize(X)), built from the EZ normal forms
    alone, with no degenerate simplex and no degeneracy table.

    The nondegenerate k-simplices of the realization are the classes of
    the normal forms (m, y, t) whose simplex t takes every value 1..k:
    one that misses j + 1 is s_j of the member with that value cut out.
    Level N + 1, where realize checks that everything is degenerate, is
    empty here because no m <= N coordinates take N + 1 values.  Each
    level's count of such members is charged to the resource limit
    before it is built.
    """
    forms = _NormalForms(X)
    reps = [forms.classes(k, onto=True) for k in range(X.N + 2)]

    def boundary(k, cid):
        m, y, t = reps[k][cid]
        return ((forms.normal(m, y, simplex_face(t, i), k - 1)[0], (-1) ** i)
                for i in range(k + 1))

    bases = {k: tuple(sorted(level)) for k, level in enumerate(reps)}
    return _chain_complex(bases, boundary, f"|{X.name}|")


@cache
def _sign(one_line: tuple) -> int:
    """The sign of a permutation, the parity of its inversions."""
    return (-1) ** sum(a > b for a, b in itertools.combinations(one_line, 2))


def cubical_chains(X: SkeletalPresheaf) -> ChainComplex | None:
    """The cellular chains of |X| on the cosymmetry orbits of its
    nondegenerate sections, or None when an orbit is not free.

    With a free action, the EZ property (Berger-Moerdijk 2011) makes |X|
    a CW complex with one n-cell per orbit of level n, the cube of any
    member, so the cellular chains are the classical cubical ones
    (Massey, *Singular Homology Theory*, 1980, ch. 2): theta*x stands for
    sign(theta) x, and x has boundary sum_i (-1)^i (delta(i,1)*x -
    delta(i,0)*x) less its degenerate faces, connections included.  The
    orbit table X.orbits gives each section one cosymmetry, carrying it
    to the least id of its orbit, exactly when the orbit is free (always
    over Q); the least ids are the basis, and a member stands for its
    least id times the sign of its cosymmetry.  A short orbit's cell is
    the cube divided by its stabilizer, which this basis misses:
    quotient:3:(1 2 3) would get H_2 = Z/3.  Levels go top first, each
    charging its nondegenerate sections before its orbit table.
    """
    bases: dict[int, tuple] = dict.fromkeys(range(X.N + 1), ())
    cells: dict[int, dict] = {}  # per level: member -> (basis element, sign)
    for n in reversed(bases):
        xs = nondegenerate_sections(X, n)
        charge(len(xs), f"cubical chain level {n} has {len(xs)} sections")
        orbits = X.orbits(n)
        if any(len(ths) != 1 for _, ths in orbits.values()):
            return None
        cells[n] = {x: (least, _sign(th.one_line)) for x, (least, (th,)) in orbits.items()}
        bases[n] = tuple(dict.fromkeys(least for least, _ in orbits.values()))
    faces = {n: [(X.action[delta(i, eps, n - 1)], (-1) ** (i + eps + 1))
                 for i in range(1, n + 1) for eps in (0, 1)] for n in range(1, X.N + 1)}

    def boundary(n, x):
        for tab, sign in faces[n]:
            if (hit := cells[n - 1].get(tab[x])) is not None:
                yield hit[0], sign * hit[1]

    return _chain_complex(bases, boundary, f"|{X.name}|")


def smith_normal_form(M: list) -> tuple:
    """(D, U, V) with U*M*V = D, D diagonal with a divisibility chain,
    U and V unimodular.  Exact integer arithmetic throughout."""
    rows = len(M)
    cols = len(M[0]) if rows else 0
    D = [list(map(int, row)) for row in M]
    U = [[int(i == j) for j in range(rows)] for i in range(rows)]
    V = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def swap_rows(a, b):
        D[a], D[b] = D[b], D[a]
        U[a], U[b] = U[b], U[a]

    def swap_cols(a, b):
        for row in D:
            row[a], row[b] = row[b], row[a]
        for row in V:
            row[a], row[b] = row[b], row[a]

    def add_row(dst, src, q):
        D[dst] = [x + q * y for x, y in zip(D[dst], D[src])]
        U[dst] = [x + q * y for x, y in zip(U[dst], U[src])]

    def add_col(dst, src, q):
        for row in D:
            row[dst] += q * row[src]
        for row in V:
            row[dst] += q * row[src]

    def negate_row(a):
        D[a] = [-x for x in D[a]]
        U[a] = [-x for x in U[a]]

    t = 0
    while t < min(rows, cols):
        # pick the first smallest nonzero entry of the remaining block;
        # nothing is smaller than a unit, so the scan stops at one
        pivot = None
        least = 0
        for r in range(t, rows):
            row = D[r]
            for c in range(t, cols):
                v = abs(row[c])
                if v and (pivot is None or v < least):
                    pivot, least = (r, c), v
                    if v == 1:
                        break
            if least == 1:
                break
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        for r in range(t + 1, rows):
            if D[r][t]:
                add_row(r, t, -(D[r][t] // D[t][t]))
        for c in range(t + 1, cols):
            if D[t][c]:
                add_col(c, t, -(D[t][c] // D[t][t]))
        # a remainder left is smaller than the pivot: search again, so the
        # pivot is always the least entry of the block and the multipliers
        # stay small; pivoting on each remainder in place can square the
        # other entries of its rows at every step
        if any(D[r][t] for r in range(t + 1, rows)) or any(D[t][t + 1:]):
            continue
        if D[t][t] < 0:
            negate_row(t)
        # restore divisibility: fold any non-multiple into the pivot
        # (everything is a multiple of a unit pivot)
        offender = None
        if D[t][t] != 1:
            for r in range(t + 1, rows):
                for c in range(t + 1, cols):
                    if D[r][c] % D[t][t]:
                        offender = r
                        break
                if offender is not None:
                    break
        if offender is not None:
            add_row(t, offender, 1)
            continue
        t += 1
    return D, U, V


def sparse_rows(M: list) -> list:
    """A dense matrix's rows in invariant_factors' form."""
    return [{c: int(v) for c, v in enumerate(row) if v} for row in M]


def invariant_factors(vectors: list) -> list:
    """The nonzero invariant factors, in order, of the integer matrix
    with sparse rows {column: nonzero int}, or of its transpose (D^T =
    V^T M^T U^T): the nonzero diagonal of smith_normal_form, without U, V.

    Passes over the rows, lightest row first, pivot each row that holds
    a unit on its unit in the column with the fewest rows: row
    operations clear the rest of that column, after which column
    operations would clear the row without touching any other row, so
    the pivot row and column split off as one factor 1.  A unit made by
    fill-in in a row already passed waits for the next pass, and passes
    repeat until one finds no unit, so the block left over is unit-free;
    it goes through the dense Smith normal form.
    """
    rows = {}
    cols: dict[int, set] = {}
    for r, vector in enumerate(vectors):
        if vector:
            rows[r] = dict(vector)
            for c in vector:
                cols.setdefault(c, set()).add(r)
    units, found = 0, True
    while found:
        found = False
        for p in sorted(rows, key=lambda r: len(rows[r])):
            prow = rows.get(p, {})  # a row emptied earlier in the pass is gone
            pivots = [c for c, v in prow.items() if v in (1, -1)]
            if not pivots:
                continue
            c = min(pivots, key=lambda j: len(cols[j]))
            del rows[p]
            for j in prow:
                cols[j].discard(p)
            unit = prow[c]
            for r in cols.pop(c):
                row = rows[r]
                q = row[c] * unit
                for j, v in prow.items():
                    w = row.get(j, 0) - q * v
                    if w:
                        if j not in row:
                            cols[j].add(r)
                        row[j] = w
                    else:
                        del row[j]
                        if j != c:
                            cols[j].discard(r)
                if not row:
                    del rows[r]
            units += 1
            found = True
    kept = sorted(c for c, rs in cols.items() if rs)
    if not kept:
        return [1] * units
    D, _, _ = smith_normal_form(
        [[row.get(c, 0) for c in kept] for _, row in sorted(rows.items())]
    )
    diagonal = (D[i][i] for i in range(min(len(D), len(kept))))
    return [1] * units + [d for d in diagonal if d]


def _unimodular(M: list) -> bool:
    n = len(M)
    if n == 0:
        return True
    # Bareiss fraction-free elimination for an exact determinant
    A = [row[:] for row in M]
    sign = 1
    prev = 1
    for i in range(n - 1):
        if A[i][i] == 0:
            for r in range(i + 1, n):
                if A[r][i]:
                    A[i], A[r] = A[r], A[i]
                    sign = -sign
                    break
            else:
                return False
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                A[r][c] = (A[r][c] * A[i][i] - A[r][i] * A[i][c]) // prev
            A[r][i] = 0
        prev = A[i][i]
    return abs(sign * A[n - 1][n - 1]) == 1


def verify_snf(M: list) -> Report:
    """U*M*V = D, divisibility, unimodularity: the full contract, and
    the transform-free route of invariant_factors against D."""
    report = Report("smith normal form")
    D, U, V = smith_normal_form(M)
    rows, cols = len(M), len(M[0]) if M else 0

    def mat_mul(A, B):
        if not A or not B:
            return [[0] * (len(B[0]) if B else 0) for _ in A]
        return [
            [sum(A[r][m] * B[m][c] for m in range(len(B)))
             for c in range(len(B[0]))]
            for r in range(len(A))
        ]

    prod = mat_mul(mat_mul(U, M), V)
    report.check("U*M*V equals D", prod == D)
    diag = [D[i][i] for i in range(min(rows, cols))]
    off = all(
        D[r][c] == 0
        for r in range(rows) for c in range(cols) if r != c
    )
    report.check("D is diagonal", off)
    chain = all(
        diag[i + 1] % diag[i] == 0
        for i in range(len(diag) - 1)
        if diag[i]
    ) and all(
        diag[i + 1] == 0 or diag[i] != 0 for i in range(len(diag) - 1)
    )
    report.check("divisibility chain", chain)
    report.check("U unimodular", _unimodular(U))
    report.check("V unimodular", _unimodular(V))
    report.check(
        "invariant_factors equals the nonzero diagonal",
        invariant_factors(sparse_rows(M)) == [d for d in diag if d],
    )
    return report


@dataclass
class HomologyResult:
    """Per degree: free rank and torsion coefficients (each ≥ 2,
    each dividing the next)."""

    groups: tuple  # of (betti, (torsion, ...))

    def pretty(self) -> str:
        lines = []
        for k, (b, torsion) in enumerate(self.groups):
            parts = []
            if b == 1:
                parts.append("Z")
            elif b > 1:
                parts.append(f"Z^{b}")
            parts.extend(f"Z/{t}" for t in torsion)
            lines.append(f"H_{k} = " + (" + ".join(parts) if parts else "0"))
        return "\n".join(lines)

    def records(self) -> list:
        return [{"degree": k, "betti": b, "torsion": list(t)}
                for k, (b, t) in enumerate(self.groups)]


def homology_of_chains(C: ChainComplex) -> HomologyResult:
    top = max(C.bases)
    divisors = {k: invariant_factors(C.columns[k]) for k in range(1, top + 1)}
    groups = []
    for k in range(top + 1):
        n_k = len(C.bases[k])
        above = divisors.get(k + 1, ())
        betti = n_k - len(divisors.get(k, ())) - len(above)
        torsion = tuple(d for d in above if d > 1)
        groups.append((betti, torsion))
    while len(groups) > 1 and groups[-1] == (0, ()):
        groups.pop()
    return HomologyResult(tuple(groups))


def homology(X: SkeletalPresheaf) -> HomologyResult:
    """The integral homology of |X|, by cubical_chains when each orbit
    of X.orbits is free (always over Q), else by nondegenerate_chains.
    Widen the rule to odd stabilizers only with a proof: a cell divided
    by one is not a cube."""
    C = cubical_chains(X)
    return homology_of_chains(C if C is not None else nondegenerate_chains(X))


def euler_characteristic(S: SimplicialSet) -> int:
    return sum(
        (-1) ** k * len(S.nondegenerate(k)) for k in range(S.K + 1)
    )


# -- the interval as a cubical monoid ----------------------------------------


def verify_cubical_monoid_delta1(up_to_level: int) -> Report:
    """Pointwise minimum makes the interval a monoid in simplicial
    sets: associative, unit the 1-endpoint, absorbing the 0-endpoint,
    compatible with the simplicial operators."""
    report = Report(f"interval monoid to level {up_to_level}")
    if up_to_level < 0:
        raise InputError("negative level bound")
    assoc = unit = absorb = True
    for k in range(up_to_level + 1):
        one, zero = 0, k + 1  # thresholds of the constant maps
        ts = range(k + 2)
        for a in ts:
            if max(a, one) != a or max(one, a) != a:
                unit = False
            if max(a, zero) != zero or max(zero, a) != zero:
                absorb = False
            for b in ts:
                for c in ts:
                    if max(max(a, b), c) != max(a, max(b, c)):
                        assoc = False
    # the multiplication is the action of (x1^x2):2->1, checked to the
    # level its degeneracies from level up_to_level reach
    top = up_to_level + 1
    point, line, square = (delta1_power(m, top) for m in range(3))
    product = _action_map(Morphism(2, 1, [Conj((1, 2))]), square, line)
    # the collapse to the point is a monoid map: it collapses a product
    # as it does the square, and the unit endpoint onto the point
    collapse = _action_map(Morphism(1, 0, []), line, point).mapping
    flat = _action_map(Morphism(2, 0, []), square, point).mapping
    unit_at = _action_map(Morphism(0, 1, [Const(1)]), point, line).mapping
    monoid_map = all(
        all(collapse[k][product.mapping[k][s]] == flat[k][s] for s in square.levels[k])
        and all(collapse[k][unit_at[k][p]] == p for p in point.levels[k])
        for k in range(top + 1))
    report.check("multiplication associative", assoc)
    report.check("endpoint 1 a two-sided unit", unit)
    report.check("endpoint 0 absorbing", absorb)
    report.check("multiplication is simplicial", product.verify_simplicial())
    report.check("collapse to the point is a monoid map", monoid_map)
    return report
