"""Finite cubical and extended cubical sets as skeletal presheaves.

A presheaf is stored as finitely many levels of opaque section ids plus
the contravariant action of the generating morphisms; the action of an
arbitrary morphism is derived from its normal-form generator word.  A
SkeletalPresheaf denotes the left Kan extension of its truncation, so
levels above the stored bound can be materialized on demand, as the
one-factor coend of tagged_coend; a TruncatedPresheaf refuses to extend.
"""

from __future__ import annotations

import itertools
import json
from bisect import bisect_right
from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cache, reduce
from math import factorial
from operator import itemgetter

from .errors import (
    BadDimension,
    IndexOutOfRange,
    InputError,
    SymcubeError,
    TruncationMismatch,
    charge,
)
from .report import Report
from .site import (
    Const,
    Morphism,
    Permutation,
    SiteTag,
    _UnionFind,
    _cosymmetry_perms,
    _enumerate_hom,
    compose,
    delta,
    enumerate_hom,
    factor,
    gamma,
    hom_count,
    hom_rank,
    identity,
    mediator,
    pi,
    postcompose_table,
    precompose_table,
    sigma,
    tensor,
)


@cache
def generator_morphisms(site: SiteTag, N: int) -> tuple[tuple[str, Morphism], ...]:
    """Named generators with both dimensions <= N, in a fixed order.

    Names follow the constructor arguments: delta(i,eps,n) maps level
    n+1 data to level n, sigma(i,n) and gamma(i,n) map level n data to
    level n+1, swap(i,n) permutes level n.  Built once per (site, N), so
    action tables keyed by these generators are found by identity.
    """
    out = []
    for n in range(N):
        for i in range(1, n + 2):
            for eps in (0, 1):
                out.append((f"delta({i},{eps},{n})", delta(i, eps, n)))
        for i in range(1, n + 2):
            out.append((f"sigma({i},{n})", sigma(i, n)))
        if site is SiteTag.QSIGMA:
            for i in range(1, n + 1):
                out.append((f"gamma({i},{n})", gamma(i, n)))
    if site is SiteTag.QSIGMA:
        for n in range(2, N + 1):
            for i in range(1, n):
                out.append(
                    (f"swap({i},{n})", pi(Permutation.transposition(i, i + 1, n)))
                )
    return tuple(out)


def _take(seq, keys) -> tuple:
    """seq read at each of keys, as a tuple built in C; itemgetter needs
    a key and returns a bare item for one."""
    return itemgetter(*keys)(seq) if len(keys) > 1 else tuple(seq[k] for k in keys)


class SkeletalPresheaf:
    """Levels of section ids plus generator actions, denoting the left
    Kan extension of the stored truncation."""

    truncated = False

    def __init__(self, site, N, levels, action, name="X"):
        self.site = site
        self.N = N
        self.levels = {n: tuple(levels.get(n, ())) for n in range(N + 1)}
        self.action = action
        self.name = name
        self._tables: dict[Morphism, dict[str, str]] = {}
        self._words: dict[tuple[Morphism, ...] | Morphism, tuple[int, ...]] = {}
        self._ez_pairs: dict[int, dict[str, tuple[Morphism, str]]] = {}
        self._reaches: dict[int, dict[str, tuple[str, Morphism]]] = {}
        self._nondegenerate: dict[int, tuple[str, ...]] = {}
        self._orbits: dict[int, dict[str, tuple[str, tuple[Permutation, ...]]]] = {}
        self._extensions: dict[int, SkeletalPresheaf] = {}
        self._check_structure()

    def _check_structure(self):
        for n, ids in self.levels.items():
            if len(set(ids)) != len(ids):
                raise InputError(f"duplicate section ids at level {n}")
        expected = generator_morphisms(self.site, self.N)
        for gname, g in expected:
            if g not in self.action:
                raise InputError(f"missing action for {gname}")
            table = self.action[g]
            if set(table) != set(self.levels[g.dst]):
                raise InputError(f"action of {gname} not total on level {g.dst}")
            if not set(table.values()) <= set(self.levels[g.src]):
                raise InputError(f"action of {gname} leaves level {g.src}")
        if len(self.action) != len(expected):
            raise InputError("action stores unexpected generators")

    def level(self, n: int) -> tuple[str, ...]:
        if n > self.N:
            raise TruncationMismatch(
                f"{self.name} is only stored up to level {self.N}"
            )
        return self.levels[n]

    def sections(self):
        for n in range(self.N + 1):
            for sid in self.levels[n]:
                yield n, sid

    def size(self) -> tuple[int, ...]:
        return tuple(len(self.levels[n]) for n in range(self.N + 1))

    def table(self, f: Morphism) -> dict[str, str]:
        """The action of an arbitrary morphism, level f.dst -> level f.src."""
        if f.dst > self.N or f.src > self.N:
            raise TruncationMismatch(f"{f} exceeds stored levels of {self.name}")
        cached = self._tables.get(f)
        if cached is None:
            images = _take(self.levels[f.src], self._positions(f))
            cached = self._tables[f] = dict(zip(self.levels[f.dst], images))
        return cached

    def _positions(self, f: Morphism) -> tuple[int, ...]:
        """f's action as positions into level f.src, kept per arrow: the
        composite of its normal-form word, the generators last applied first."""
        got = self._words.get(f)
        if got is None:
            word = tuple(reversed(factor(f).generators()))
            got = self._word(word) if word else tuple(range(len(self.levels[f.dst])))
            self._words[f] = got
        return got

    def _word(self, word: tuple[Morphism, ...]) -> tuple[int, ...]:
        """The action of a generator word, first letter acting first: the
        position in level word[-1].src of the image of each section of
        level word[0].dst.  Memoised, so words sharing a prefix share it."""
        got = self._words.get(word)
        if got is None:
            g = word[-1]
            if len(word) == 1:
                at = {x: p for p, x in enumerate(self.levels[g.src])}
                got = _take(at, _take(self.action[g], self.levels[g.dst]))
            else:
                got = _take(self._word((g,)), self._word(word[:-1]))
            self._words[word] = got
        return got

    def act(self, f: Morphism, sid: str) -> str:
        return self.table(f)[sid]

    # -- EZ decomposition ---------------------------------------------------

    def _reach(self, n: int) -> dict[str, tuple[str, Morphism]]:
        """The degenerate sections of level n, each with the section and
        generator that first reached it, from the stored generators alone:
        the images of the epi generators g: [n] -> [n-1], closed under the
        swaps.  Every corank-one epi is an epi generator after a
        cosymmetry, so these are the sections that some corank-one epi
        reaches; the twisted collapses, such as the section (x2^x1):2->1 of
        the extended interval, come in by a swap."""
        got = self._reaches.get(n)
        if got is None:
            got, swaps = {}, []
            for _, g in generator_morphisms(self.site, n):
                if g.src == n > g.dst:
                    for y, x in self.action[g].items():
                        got.setdefault(x, (y, g))
                elif g.src == n:
                    swaps.append((g, self.action[g]))
            frontier = list(got)
            for x in frontier:  # grows as the swaps reach new sections
                for s, tab in swaps:
                    if tab[x] not in got:
                        got[tab[x]] = (x, s)
                        frontier.append(tab[x])
            self._reaches[n] = got
        return got

    def _ez_level(self, n: int) -> dict[str, tuple[Morphism, str]]:
        """Level n of the EZ table, in level order."""
        return {x: self.ez_decompose(n, x) for x in self.level(n)}

    def ez_decompose(self, n: int, x: str) -> tuple[Morphism, str]:
        """The section x of level n as (epi, y): y is nondegenerate at
        level epi.dst and act(epi)(y) = x.  A section reached as g*y,
        y with pair (e, z), has pair (e o g, z), composed once when first
        asked for; a nondegenerate one is paired with the identity."""
        pairs = self._ez_pairs.setdefault(n, {})
        got = pairs.get(x)
        if got is None:
            reach = self._reach(n)
            if x in reach:
                y, g = reach[x]
                e, z = self.ez_decompose(g.dst, y)
                got = (compose(e, g), z)
            else:
                got = (identity(n), x)
            pairs[x] = got
        return got

    def is_nondegenerate(self, n: int, x: str) -> bool:
        return x not in self._reach(n)

    @staticmethod
    @cache
    def _cosymmetry_walk(site: SiteTag, n: int) -> tuple[tuple[Permutation, ...], tuple]:
        """The cosymmetries of [n] in canonical order, and per th after
        the identity a move (k, j): s o th = perms[k] comes earlier, s the
        swap of j + 1 and j + 2.  As pi(s o th) = pi(s) o pi(th), the y
        with pi(th)*y = z is s*y' for the y' with pi(s o th)*y' = z."""
        perms = tuple(_cosymmetry_perms(site, n))
        index = {th.one_line: k for k, th in enumerate(perms)}
        moves = []
        for th in perms[1:]:
            line, j = list(th.one_line), 0
            while line.index(j + 1) < line.index(j + 2):  # th has j + 2 before j + 1
                j += 1
            a, b = line.index(j + 1), line.index(j + 2)
            line[a], line[b] = j + 2, j + 1
            moves.append((index[tuple(line)], j))
        return perms, tuple(moves)

    def orbits(self, n: int) -> dict[str, tuple[str, tuple[Permutation, ...]]]:
        """Per nondegenerate section x of level n: the least id in x's
        cosymmetry orbit, and the cosymmetries th with pi(th)*x equal to
        it in canonical order, |Stab(x)| of them, the identity alone over
        Q.  Built once per level with a nondegenerate section, following
        _cosymmetry_walk through the swap tables; over QSigma its n!
        cosymmetries are charged first."""
        got = self._orbits.get(n)
        if got is None:
            xs = nondegenerate_sections(self, n)
            if xs and self.site is SiteTag.QSIGMA:
                charge(count := factorial(n),
                       f"orbit table of {self.name} at level {n} walks {count} cosymmetries")
            perms, moves = self._cosymmetry_walk(self.site, n) if xs else ((), ())
            # with no swap, as over Q, each section is its own orbit
            got = self._orbits[n] = {} if moves else {x: (x, perms) for x in xs}
            swaps = [self.action[pi(Permutation.transposition(i, i + 1, n))]
                     for i in range(1, n)] if moves else []

            def meeting(z: str) -> list[str]:
                """The section y with pi(th)*y = z, for each th."""
                ys = [z]
                for k, j in moves:
                    ys.append(swaps[j][ys[k]])
                return ys

            singles = [(th,) for th in perms]
            for x in xs:
                if x not in got:
                    ys = meeting(x)
                    if (least := min(ys)) != x:  # else x's own walk serves
                        ys = meeting(least)
                    if len(set(ys)) == len(ys):  # a free orbit: one th each
                        got.update(zip(ys, zip(itertools.repeat(least), singles)))
                        continue
                    to_least: dict[str, list[Permutation]] = {}
                    for th, y in zip(perms, ys):
                        to_least.setdefault(y, []).append(th)
                    got.update((y, (least, tuple(ths))) for y, ths in to_least.items())
        return got

    # -- skeletal extension -------------------------------------------------

    def extend_to(self, N2: int) -> "SkeletalPresheaf":
        """The skeletal extension to level N2, itself when N2 <= N, built
        once per N2: levels N..N2 of the one-factor coend tagged_coend([self]).
        Level N keeps its own ids, the class of (id, N, x) read back as x,
        and the levels above take the coend's class ids.  First charged a
        bound on the size of level N2: its sections are classes of an epi
        [N2] -> [m] and a nondegenerate section at m."""
        if N2 <= self.N:
            return self
        got = self._extensions.get(N2)
        if got is None:
            N, site = self.N, self.site
            counts = [len(nondegenerate_sections(self, m)) for m in range(N + 1)]
            charge(sum(hom_count(N2, m, site) * c for m, c in enumerate(counts) if c),
                   f"extending {self.name} to level {N2}")
            levels, action, class_of, _ = tagged_coend([self], site, range(N, N2 + 1))
            ids = {x: class_of((identity(N), N, x)) for x in self.levels[N]}
            own = dict(zip(ids.values(), ids))
            tables = dict(self.action)  # the swaps of level N among them
            for h, table in action.items():
                if h.src > N and h.dst > N:
                    tables[h] = table
                elif h.dst > N:  # a face down to level N
                    tables[h] = {c: own[v] for c, v in table.items()}
                elif h.src > N:  # an epi generator up from level N, in its order
                    tables[h] = {x: table[c] for x, c in ids.items()}
            levels = {**self.levels, **{n: levels[n] for n in range(N + 1, N2 + 1)}}
            got = self._extensions[N2] = SkeletalPresheaf(site, N2, levels, tables, self.name)
        return got

    def same_data(self, other: "SkeletalPresheaf") -> bool:
        return (
            self.site == other.site
            and self.N == other.N
            and self.levels == other.levels
            and self.action == other.action
        )

    def __repr__(self):
        return f"<{type(self).__name__} {self.name} {self.size()}>"


class TruncatedPresheaf(SkeletalPresheaf):
    """Same data, but levels above N are genuinely undetermined."""

    truncated = True

    def extend_to(self, N2: int):
        if N2 <= self.N:
            return self
        raise TruncationMismatch(
            f"{self.name} is truncated at {self.N}; cannot extend to {N2}"
        )


# -- presheaf maps -----------------------------------------------------------


@dataclass
class PresheafMap:
    src: SkeletalPresheaf
    dst: SkeletalPresheaf
    mapping: dict[int, dict[str, str]]

    def is_injective(self) -> bool:
        return all(
            len(set(m.values())) == len(m) for m in self.mapping.values()
        )

    def is_bijective(self) -> bool:
        return self.is_injective() and all(
            set(self.mapping[n].values()) == set(self.dst.level(n))
            for n in self.mapping
        )

    def verify_natural(self) -> bool:
        N = min(self.src.N, self.dst.N)
        for _, g in generator_morphisms(self.src.site, N):
            down, up = self.src.action[g], self.dst.action[g]
            before, after = self.mapping[g.dst], self.mapping[g.src]
            if any(up[before[x]] != after[v] for x, v in down.items()):
                return False
        return True

    def then(self, other: "PresheafMap") -> "PresheafMap":
        """other o self."""
        new = {
            n: {x: other.mapping[n][v] for x, v in m.items()}
            for n, m in self.mapping.items()
        }
        return PresheafMap(self.src, other.dst, new)


def identity_map(X: SkeletalPresheaf) -> PresheafMap:
    return inclusion_map(X, X)


def extend_map(u: PresheafMap, N: int) -> PresheafMap:
    """u between the skeletal extensions of its ends to level N: a new
    section with EZ pair (e, x) goes to the action of e on u(x).  Raises
    TruncationMismatch when an end is truncated below N or the extended
    map is not natural."""
    if u.src.N == u.dst.N == N:
        return u
    src, dst = u.src.extend_to(N), u.dst.extend_to(N)
    mapping = dict(u.mapping)
    for n in range(u.src.N + 1, N + 1):
        mapping[n] = {pid: dst.act(e, u.mapping[e.dst][y])
                      for pid, (e, y) in src._ez_level(n).items()}
    v = PresheafMap(src, dst, mapping)
    if not v.verify_natural():
        raise TruncationMismatch(f"a map into {u.dst.name} does not extend to level {N}")
    return v


def inclusion_map(sub: SkeletalPresheaf, amb: SkeletalPresheaf) -> PresheafMap:
    return PresheafMap(
        sub, amb, {n: {x: x for x in sub.level(n)} for n in range(sub.N + 1)}
    )


# -- basic constructions -----------------------------------------------------


def restriction(X: SkeletalPresheaf, levels: dict[int, tuple[str, ...]], name: str,
                kind: type = SkeletalPresheaf, site: SiteTag | None = None):
    """X's own action tables cut down to the ids levels[n], n = 0..N, which
    must be closed under the action.  A table keeps X's key order and is
    X's own where its level is kept whole; site picks the generators kept,
    the plain site's giving a symmetric presheaf's underlying cubical set."""
    if not levels:
        raise BadDimension(f"{X.name} cannot be restricted below level 0")
    N = len(levels) - 1
    site = X.site if site is None else site
    action = {}
    for _, g in generator_morphisms(site, N):
        table, keep = X.action[g], levels[g.dst]
        if len(keep) < len(table):
            keep = set(keep)
            table = {x: v for x, v in table.items() if x in keep}
        action[g] = table
    return kind(site, N, levels, action, name)


def _cube(n: int, site: SiteTag, up_to: int | None):
    """The standard n-cube with the arrow behind each section id, built
    once per (n, site, truncation) and, like enumerate_hom, charged its
    hom sets on every call."""
    if n < 0:
        raise BadDimension(f"no cube of negative dimension {n}")
    N = n if up_to is None else max(n, up_to)
    for m in range(N + 1):
        enumerate_hom(m, n, site)  # charges the hom set, built or not
    return _built_cube(n, site, N)


@cache
def _printed_hom(m: int, n: int, site: SiteTag) -> tuple[str, ...]:
    """The arrows of Hom([m],[n]) printed, by rank: the ids of level m of
    the n-cube, and the only place this module prints an arrow."""
    return tuple(map(str, _enumerate_hom(m, n, site)))


@cache
def _postcompose_ids(h: Morphism, m: int, site: SiteTag) -> dict[str, str]:
    """h o - on level m of the h.src-cube, from id to id."""
    return dict(zip(_printed_hom(m, h.src, site),
                    _take(_printed_hom(m, h.dst, site), postcompose_table(h, m, site))))


@cache
def _built_cube(n: int, site: SiteTag, N: int):
    """Levels 0..N are hom-sets in printed order, and a generator acts by
    its precomposition table over the ranks.  With N < n this is the
    cube's truncation, which only quotient_presheaf reads."""
    names = {m: _printed_hom(m, n, site) for m in range(N + 1)}
    printed = {m: sorted(range(len(names[m])), key=names[m].__getitem__) for m in names}
    levels = {m: tuple(names[m][r] for r in printed[m]) for m in names}
    action = {}
    for _, g in generator_morphisms(site, N):
        src, dst, table = names[g.src], names[g.dst], precompose_table(g, n, site)
        action[g] = {dst[r]: src[table[r]] for r in printed[g.dst]}
    cube = SkeletalPresheaf(site, N, levels, action, f"cube{n}")
    return cube, {fs: f for m in names for fs, f in zip(names[m], _enumerate_hom(m, n, site))}


def representable(n: int, site: SiteTag = SiteTag.QSIGMA,
                  up_to: int | None = None) -> SkeletalPresheaf:
    """The standard n-cube; levels are hom-sets, action is precomposition."""
    return _cube(n, site, up_to)[0]


def _subcube(n: int, site: SiteTag, up_to: int | None, keep, name: str):
    """The sub-presheaf of the n-cube on the arrows keep accepts, with
    its inclusion."""
    cube, arrows = _cube(n, site, up_to)
    levels = {m: tuple(fs for fs in cube.levels[m] if keep(arrows[fs]))
              for m in cube.levels}
    X = restriction(cube, levels, name)
    return X, inclusion_map(X, cube)


def in_boundary(f: Morphism) -> bool:
    """Membership in the boundary of the f.dst-cube: some entry constant,
    equivalently f factors through a proper face."""
    return any(isinstance(e, Const) for e in f.entries)


def boundary(n: int, site: SiteTag = SiteTag.QSIGMA,
             up_to: int | None = None) -> tuple[SkeletalPresheaf, PresheafMap]:
    """The union of the proper faces, with its inclusion into the cube."""
    if n < 1:
        raise BadDimension(f"a boundary needs a cube of dimension at least 1, not {n}")
    return _subcube(n, site, up_to, in_boundary, f"bd{n}")


def in_cap(f: Morphism, i: int, eps: int) -> bool:
    """Membership in the cap: f factors through some face other than (i, eps)."""
    return any(
        (j, e.bit) != (i, eps)
        for j, e in enumerate(f.entries, start=1)
        if isinstance(e, Const)
    )


def cap(n: int, i: int, eps: int, site: SiteTag = SiteTag.Q,
        up_to: int | None = None) -> tuple[SkeletalPresheaf, PresheafMap]:
    """All faces of the n-cube except the (i, eps) one."""
    if not (1 <= i <= n) or eps not in (0, 1):
        raise IndexOutOfRange(f"cap({n},{i},{eps}) out of range")
    return _subcube(
        n, site, up_to, lambda f: in_cap(f, i, eps), f"cap{n}_{i}_{eps}"
    )


def empty_presheaf(site: SiteTag, N: int = 0) -> SkeletalPresheaf:
    levels = {n: () for n in range(N + 1)}
    action = {g: {} for _, g in generator_morphisms(site, N)}
    return SkeletalPresheaf(site, N, levels, action, "empty")


def terminal_presheaf(site: SiteTag, N: int = 0) -> SkeletalPresheaf:
    return representable(0, site, up_to=N)


def terminal_map(X: SkeletalPresheaf) -> PresheafMap:
    T = terminal_presheaf(X.site, X.N)
    star = {n: T.level(n)[0] for n in range(X.N + 1)}
    return PresheafMap(
        X, T, {n: {x: star[n] for x in X.level(n)} for n in range(X.N + 1)}
    )


# -- skeleta and coskeleta ---------------------------------------------------


def skeleton(X: SkeletalPresheaf, k: int) -> tuple[SkeletalPresheaf, PresheafMap]:
    """The subpresheaf of sections with nondegenerate part in degree <= k."""
    if k >= X.N:
        return X, identity_map(X)
    levels = {
        n: tuple(
            sid for sid in X.level(n) if X.ez_decompose(n, sid)[0].dst <= k
        )
        for n in range(X.N + 1)
    }
    S = restriction(X, levels, f"sk{k}_{X.name}")
    return S, inclusion_map(S, X)


def coskeleton(X: SkeletalPresheaf, k: int, up_to: int | None = None) -> TruncatedPresheaf:
    """Right Kan extension data: level r is Hom(sk_k cube(r), X)."""
    N = X.N if up_to is None else up_to
    level_maps: dict[int, dict[str, PresheafMap]] = {}
    skeletons = {}
    for r in range(N + 1):
        # materialize to the common bound so composites below stay total
        sk_r, _ = skeleton(representable(r, X.site, N), k)
        skeletons[r] = sk_r
        maps = hom_presheaf(sk_r, X)
        level_maps[r] = {_map_id(u): u for u in maps}
    levels = {r: tuple(sorted(level_maps[r])) for r in range(N + 1)}
    action = {}
    for _, g in generator_morphisms(X.site, N):
        # act(g): level g.dst -> level g.src by precomposing with sk_k(g o -)
        src_sk = skeletons[g.src]
        moved = {m: _postcompose_ids(g, m, X.site) for m in range(src_sk.N + 1)}
        action[g] = {
            uid: _map_id(PresheafMap(src_sk, X, {
                m: {sid: u.mapping[m][post[sid]] for sid in src_sk.level(m)}
                for m, post in moved.items()
            }))
            for uid, u in level_maps[g.dst].items()
        }
    return TruncatedPresheaf(X.site, N, levels, action, f"ck{k}_{X.name}")


def _map_id(u: PresheafMap) -> str:
    parts = []
    for n in sorted(u.mapping):
        for x, v in sorted(u.mapping[n].items()):
            parts.append(f"{x}~{v}")
    return ";".join(parts)


# -- spec-level wrappers -----------------------------------------------------


def nondegenerate_sections(X: SkeletalPresheaf, k: int) -> list[str]:
    """The ids of the nondegenerate sections of level k, in level order,
    filtered once per level."""
    got = X._nondegenerate.get(k)
    if got is None:
        reach = X._reach(k)
        got = X._nondegenerate[k] = tuple([x for x in X.level(k) if x not in reach])
    return list(got)


# -- hom-sets ----------------------------------------------------------------


def _join(cells, emit, drawing: str) -> None:
    """Depth-first search over tuples w, one value per cell, calling
    emit(w) on each complete one.  Cell j is (level, checks, pins): a
    check (t, u, p), p <= j, keeps a value v when t[v] == u[w[p]], a pin
    (t, want) when t[v] == want.  Cell j draws from the inverse index of
    its first check's t, built once per table over level in level order,
    at the value u[w[p]] it reads, or all of level without a check, and
    tests its other checks and pins with w[j] set to the draw.  The
    running count of draws is charged as each search node ends."""
    index: dict[int, dict] = {}
    plan = []
    for level, checks, pins in cells:
        inverse = key = q = None
        if checks:
            t, key, q = checks[0]
            inverse = index.setdefault(id(t), {})
            if not inverse:
                for v in level:
                    inverse.setdefault(t[v], []).append(v)
        plan.append((level, inverse, key, q, checks[1:], pins))
    w, drawn = [None] * len(plan), 0

    def search(j: int):
        nonlocal drawn
        if j == len(plan):
            return emit(w)
        level, inverse, key, q, checks, pins = plan[j]
        values = level if inverse is None else inverse.get(key[w[q]], ())
        for v in values:
            w[j] = v
            if (all(t[v] == u[w[p]] for t, u, p in checks)
                    and all(t[v] == want for t, want in pins)):
                search(j + 1)
        drawn += len(values)
        charge(drawn, drawing)

    search(0)


def hom_presheaf(
    X: SkeletalPresheaf,
    Y: SkeletalPresheaf,
    fixed: Sequence[tuple[PresheafMap, PresheafMap]] = (),
) -> list[PresheafMap]:
    """All presheaf maps X -> Y that agree with a partial map: a _join
    whose cells are the nondegenerate sections of X in level order, and a
    full naturality check on each tuple it completes.

    Every constraint is resolved once, before the search, into tables of
    Y and cell positions: a section e*y of X takes the value
    table(e)[w(y)].  A section's checks are its faces in generator order,
    so it draws from the inverse index of its first face, then its swaps
    with a mate that comes first or is itself; its pins are the
    prescriptions.

    fixed is the partial map a question prescribes, as pairs (i, u) of
    maps A -> X and A -> Y: w is kept when w o i = u for every pair, and
    without pairs every map is kept.  Each prescribed value u(a) on the
    section x = i(a) = e*y of X is pushed onto the nondegenerate y, whose
    value must then satisfy e*w(y) = u(a); two different prescriptions
    for one section leave no map.  The maps come in the same order as
    without fixed; the resource limit bounds the maps returned, which
    are only those that agree, and the candidate values drawn.
    """
    Y = Y.extend_to(X.N)
    nd = [(k, x) for k in range(X.N + 1) for x in nondegenerate_sections(X, k)]
    at = {section: j for j, section in enumerate(nd)}

    def resolve(k: int, x: str) -> tuple[dict, int]:
        e, y = X.ez_decompose(k, x)
        return Y.table(e), at[e.dst, y]

    cells = [(Y.level(k), [], []) for k, _ in nd]
    for _, g in generator_morphisms(X.site, X.N):  # every face before every swap
        xg, yg = X.action[g], Y.action[g]
        for x in nondegenerate_sections(X, g.dst):
            j = at[g.dst, x]
            if g.src < g.dst:
                cells[j][1].append((yg, *resolve(g.src, xg[x])))
            elif g.src == g.dst and at[g.src, xg[x]] <= j:
                cells[j][1].append((yg, Y.table(identity(g.src)), at[g.src, xg[x]]))
    for i, u in fixed:
        for k, row in i.mapping.items():
            for a, x in row.items():
                tab, j = resolve(k, x)
                cells[j][2].append((tab, u.mapping[k][a]))
    every = [[(sid, *resolve(n, sid)) for sid in X.level(n)] for n in range(X.N + 1)]
    results: list[PresheafMap] = []

    def emit(w: list[str]):
        mapping = {n: {sid: tab[w[j]] for sid, tab, j in row}
                   for n, row in enumerate(every)}
        u = PresheafMap(X, Y, mapping)
        if u.verify_natural():
            results.append(u)
            charge(len(results), f"{len(results)} presheaf maps")

    _join(cells, emit, f"candidate values for maps {X.name} -> {Y.name}")
    return results


# -- colimits ----------------------------------------------------------------


class CoendClasses(Mapping):
    """The class id of each reduced member (f, n_1, x_1, ..., n_r, x_r) of
    a tagged coend, read through its number on level f.src, from the rank
    of f and the tail's index; any other member misses.  Iteration yields
    the members level by level in number order, and column reads the
    classes of one tail under every arrow of a level at once.  Called on
    any member, it first reduces the sections by the factors' EZ tables."""

    def __init__(self, factors, site, tails, number):
        self.factors, self.site, self.tails, self.number = factors, site, tails, number
        self.built = {}  # level -> (block order, block starts, parent, id by root)

    def __getitem__(self, member) -> str:
        f, tail = member[0], member[1:]
        t, built = self.number.get(tail), self.built.get(f.src)
        if t is not None and built is not None and sum(tail[::2]) == f.dst:
            r = hom_rank(f.src, f.dst, self.site).get(f.entries)
            if r is not None:
                _, start, parent, ids = built
                return ids[parent[start[f.dst][r] + t]]
        raise KeyError(member)

    def block(self, f: Morphism) -> list[str]:
        """The class ids of the reduced members (f, tail), f an arrow of
        a built level, tail by tail in number order."""
        _, start, parent, ids = self.built[f.src]
        s = start[f.dst][hom_rank(f.src, f.dst, self.site)[f.entries]]
        return [ids[parent[s + t]] for t in range(len(self.tails[f.dst]))]

    def column(self, h: Morphism, k: int, tail) -> list[str]:
        """The class ids of the reduced members (h o f, tail), f in
        Hom(k, h.src) by rank, k built and tail's dims summing to h.dst;
        read through h's postcomposition table, so no arrow is composed."""
        _, start, parent, ids = self.built[k]
        s, t = start[h.dst], self.number[tail]
        return [ids[parent[s[r] + t]] for r in postcompose_table(h, k, self.site)]

    def __iter__(self):
        for k, (order, _, _, _) in self.built.items():
            for _, n, r in order:
                f = _enumerate_hom(k, n, self.site)[r]
                yield from ((f,) + tail for tail in self.tails[n])

    def __len__(self) -> int:
        return sum(len(parent) for _, _, parent, _ in self.built.values())

    def __call__(self, member) -> str:
        parts = list(zip(self.factors, member[1::2], member[2::2]))
        if all(X.is_nondegenerate(n, x) for X, n, x in parts):
            return self[member]
        pairs = [X.ez_decompose(n, x) for X, n, x in parts]
        arrow = compose(reduce(tensor, (e for e, _ in pairs)), member[0])
        return self[(arrow, *itertools.chain(*((e.dst, y) for e, y in pairs)))]


def tagged_coend(factors: list[SkeletalPresheaf], site: SiteTag, ks):
    """Levels ks of the coend of the factors tagged by arrows of site.

    A member at level k is (f, n_1, x_1, ..., n_r, x_r): an arrow
    f: [k] -> [n_1 + ... + n_r] of site and a section x_t of the t-th
    factor at level n_t.  Only reduced members, whose sections are all
    nondegenerate, are numbered, glued by one relation per face or swap
    generator u: [a] -> [b] of factor t and nondegenerate x at level b:
    ((id_p (+) u (+) id_q) o f, .., x, ..) ~ ((id_p (+) e (+) id_q) o f,
    .., x1, ..), where u*x = e*x1 in the EZ table.  Returns (levels,
    action, class_of, reps): the sorted class ids of each level, the
    action of each site generator between two levels of ks, a
    CoendClasses and the least reduced member of each class, members
    comparing by printed arrow and then by tail.

    This is the coend (Day 1970), by the EZ property (Berger-Moerdijk
    2011).  Naturality, ((h (+) id) o f, x) ~ (f, h*x), implies each
    relation and glues every member to its reduction.  Conversely the
    reduced quotient respects naturality: reducing, take x
    nondegenerate, write h = m o s with s epi and m a word in faces and
    swaps, and induct on (dim x, letters of m).  With no letter, s*x has
    EZ pair (th o s, th^-1*x) for a cosymmetry th, which swap relations
    glue to (s, x).  Else h = g o h' for a letter g, whose relation
    turns ((h (+) id) o f, x) into (((e o h') (+) id) o f, x1), g*x =
    e*x1: for a face dim x1 < dim x, for a swap e = id and h' is
    shorter.  So an epi generator's relation follows.

    Arrows are sorted by printed form and the block of f numbers the
    reduced tails summing to f.dst, so the union-find roots each class
    at its least member (n, r, t), f of rank r in Hom(k, n) and tail t,
    which names it; h sends it to the root of (n, rank of f o h, t).
    Every level's member count is charged before any level is built.
    """
    # the reduced tails and the relations' tail index pairs depend
    # neither on the level nor on the arrow, so they are built once
    tails: dict[int, list] = {}
    for dims in itertools.product(*(range(X.N + 1) for X in factors)):
        sections = itertools.product(
            *(nondegenerate_sections(X, n) for X, n in zip(factors, dims)))
        tails.setdefault(sum(dims), []).extend(
            tuple(itertools.chain(*zip(dims, xs))) for xs in sections
        )
    # a sum of dimensions with no reduced tail holds no member
    tails = {n: block for n, block in tails.items() if block}
    for k in ks:
        size = sum(hom_count(k, n, site) * len(block) for n, block in tails.items())
        charge(size, f"coend level {k} has {size} members")
    number = {}
    for block in tails.values():
        block.sort()
        number.update((tail, i) for i, tail in enumerate(block))
    # a face or swap u acting on factor t of a tail, u*x = e*x1, glues
    # the arrows id_p (+) u (+) id_q and id_p (+) e (+) id_q
    glue: dict[tuple, list] = {}
    for t, X in enumerate(factors):
        j = 2 * t
        for _, u in generator_morphisms(X.site, X.N):
            if u.src > u.dst:
                continue
            tab = X.action[u]
            for tail, i in number.items():
                if tail[j] == u.dst:
                    e, x1 = X.ez_decompose(u.src, tab[tail[j + 1]])
                    moved = tail[:j] + (e.dst, x1) + tail[j + 2:]
                    p, q = sum(tail[:j:2]), sum(tail[j + 2::2])
                    glue.setdefault((p, u, e, q), []).append((i, number[moved]))
    relations = [(tensor(tensor(identity(p), u), identity(q)),
                  tensor(tensor(identity(p), e), identity(q)), pairs)
                 for (p, u, e, q), pairs in glue.items()]
    lifts = {lift for up, down, _ in relations for lift in (up, down)}

    text = {n: ["&" + "&".join(map(str, tail)) for tail in block]
            for n, block in tails.items()}
    levels: dict[int, tuple] = {}
    class_of = CoendClasses(factors, site, tails, number)
    reps, where = {}, {}
    for k in ks:
        homs = {n: enumerate_hom(k, n, site) for n in tails}
        printed = {n: _printed_hom(k, n, site) for n in tails}
        order = sorted((fs, n, r) for n in tails for r, fs in enumerate(printed[n]))
        start, firsts = {n: [0] * len(homs[n]) for n in tails}, [0]
        for _, n, r in order:
            start[n][r] = firsts[-1]
            firsts.append(firsts[-1] + len(tails[n]))
        uf = _UnionFind(firsts.pop())
        # the block starts of lift o f, f in homs[lift.src] by rank, by lift
        starts = {h: [start[h.dst][r] for r in postcompose_table(h, k, site)]
                  for h in lifts}
        for up, down, pairs in relations:
            for a, b in zip(starts[up], starts[down]):
                uf.union_all(pairs, a, b)
        ids = {}
        for root in uf.roots():
            b = bisect_right(firsts, root) - 1  # the last block starting at or before root
            (_, n, r), t = order[b], root - firsts[b]
            cid = ids[root] = printed[n][r] + text[n][t]
            reps[cid], where[cid] = (homs[n][r],) + tails[n][t], (cid, n, r, t)
        class_of.built[k] = (order, start, uf.parent, ids)
        levels[k] = tuple(sorted(ids.values()))
    action = {}
    for _, h in generator_morphisms(site, max(ks)):
        if h.src in levels and h.dst in levels:
            _, start, parent, ids = class_of.built[h.src]
            moved = {n: precompose_table(h, n, site) for n in tails}
            action[h] = {cid: ids[parent[start[n][moved[n][r]] + t]]
                         for cid, n, r, t in map(where.__getitem__, levels[h.dst])}
    return levels, action, class_of, reps


def _constant_map(pairs) -> dict:
    """Each class's value from (class, value) pairs, requiring one per class."""
    out: dict = {}
    for cid, v in pairs:
        if out.setdefault(cid, v) != v:
            raise SymcubeError(f"value not constant on class {cid}")
    return out


def _quotient(X: SkeletalPresheaf, ids, pairs, name: str):
    """X divided levelwise by the classes that the id pairs pairs[n]
    generate, X's action carried over; returns (Q, projection).  ids[n]
    is a sorted tuple holding X's level n and every id in pairs[n], so
    the union-find roots each class at its least id, which names it."""
    proj = {}
    for n in range(X.N + 1):
        number = {x: i for i, x in enumerate(ids[n])}
        uf = _UnionFind(len(ids[n]))
        uf.union_all((number[a], number[b]) for a, b in pairs[n])
        proj[n] = {x: ids[n][uf.find(number[x])] for x in X.levels[n]}
    levels = {n: tuple(sorted(set(row.values()))) for n, row in proj.items()}
    action = {g: _constant_map(zip(proj[g.dst].values(),
                                   _take(proj[g.src], _take(X.action[g], proj[g.dst]))))
              for _, g in generator_morphisms(X.site, X.N)}
    Q = SkeletalPresheaf(X.site, X.N, levels, action, name)
    return Q, PresheafMap(X, Q, proj)


def pushout(f: PresheafMap, g: PresheafMap):
    """Levelwise pushout of B <- A -> C, the quotient of coproduct([B, C])
    gluing f(a) to g(a), each class named by its least id there, 0:x or
    1:y; returns (P, B -> P, C -> P).  Legs that are not natural may
    glue sections that act differently: then it raises SymcubeError."""
    A, B, C = f.src, f.dst, g.dst
    if g.src is not A and not g.src.same_data(A):
        raise InputError("pushout legs must share a source")
    if not (A.N == B.N == C.N) or not (A.site == B.site == C.site):
        raise TruncationMismatch("pushout needs matching sites and truncations")
    S, (into_B, into_C) = coproduct([B, C])
    fB, gC = f.then(into_B).mapping, g.then(into_C).mapping
    pairs = {n: [(fB[n][a], gC[n][a]) for a in A.level(n)] for n in S.levels}
    P, proj = _quotient(S, {n: tuple(sorted(ids)) for n, ids in S.levels.items()},
                        pairs, "pushout")
    return P, into_B.then(proj), into_C.then(proj)


def coproduct(parts: list[SkeletalPresheaf]):
    """Disjoint union; returns (X, list of injections)."""
    if not parts:
        raise InputError("a coproduct needs at least one part")
    site_tag, N = parts[0].site, parts[0].N
    if any(p.site != site_tag or p.N != N for p in parts):
        raise InputError("coproduct parts need matching sites and truncations")
    # the id i:x of each section x of the i-th part, level by level
    tags = [{n: {sid: f"{i}:{sid}" for sid in p.level(n)} for n in range(N + 1)}
            for i, p in enumerate(parts)]
    levels = {n: tuple(x for tag in tags for x in tag[n].values()) for n in range(N + 1)}
    action = {g: {tag[g.dst][sid]: tag[g.src][p.action[g][sid]]
                  for p, tag in zip(parts, tags) for sid in p.level(g.dst)}
              for _, g in generator_morphisms(site_tag, N)}
    X = SkeletalPresheaf(site_tag, N, levels, action, "coproduct")
    return X, [PresheafMap(p, X, tag) for p, tag in zip(parts, tags)]


# -- group quotients ---------------------------------------------------------


@dataclass(frozen=True)
class SubgroupSpec:
    """The subgroup of Sigma_n that generators generate, never listed:
    a union-find over the generators' tables finds its orbits."""

    n: int
    generators: tuple[Permutation, ...]

    @classmethod
    def full(cls, n: int) -> "SubgroupSpec":
        return cls(n, tuple(Permutation.transposition(i, i + 1, n) for i in range(1, n)))


def quotient_presheaf(X: SkeletalPresheaf, H: SubgroupSpec, name="quot"):
    """Orbits of the postcomposition action of H on a sub-presheaf X of
    the symmetric H.n-cube, the quotient gluing y to pi(h) o y for each
    generator h over the cube's levels, so each is named by its least id
    in the whole cube even where H does not keep X; returns (Q,
    projection).  X over the plain site is a sub-presheaf of the cube's
    underlying cubical set.  Raises InputError for a generator on other
    than H.n letters, or when X is not a sub-presheaf: then H need not
    act compatibly."""
    if any(h.n != H.n for h in H.generators):
        raise InputError(f"a subgroup of Sigma_{H.n} has a generator on other letters")
    for m in range(X.N + 1):  # charged as the spec that built X charged them
        enumerate_hom(m, H.n, SiteTag.QSIGMA)
    cube = _built_cube(H.n, SiteTag.QSIGMA, X.N)[0]  # truncated where X.N < H.n
    # every level above 0 is the level some face's table is keyed on
    if not (set(X.levels[0]) <= set(cube.levels[0]) and all(
            X.action[g].items() <= cube.action[g].items()
            for _, g in generator_morphisms(X.site, X.N))):
        raise InputError(f"{X.name} is not a sub-presheaf of the {H.n}-cube")
    pairs = {n: [pair for h in H.generators
                 for pair in _postcompose_ids(pi(h), n, SiteTag.QSIGMA).items()]
             for n in cube.levels}
    return _quotient(X, cube.levels, pairs, name)


# -- the orbit cellular model ------------------------------------------------


def verify_skeletal_pushout(X: SkeletalPresheaf, k: int) -> Report:
    """Attaching the isomorphism classes of nondegenerate k-sections
    along stabilizer quotients of the boundary turns sk_{k-1} X into
    sk_k X; checks the pushout comparison levelwise.  A class is named
    by the least id of its orbit in X.orbits(k), whose cosymmetries
    there, carrying it to itself, are its stabilizer."""
    report = Report(f"skeletal-pushout({X.name},k={k})")
    sk_k, _ = skeleton(X, k)
    prev, _ = skeleton(X, k - 1)
    # above the stored range a skeletal presheaf has no nondegenerate
    # sections, so there is nothing to attach
    orbits = X.orbits(k) if k <= X.N else {}
    reps = sorted({least for least, _ in orbits.values()})
    if not reps:
        for n in range(X.N + 1):
            report.check(f"level {n} bijection", set(prev.level(n)) == set(sk_k.level(n)),
                         "no cells to attach")
        return report

    parts_A, parts_B, values = [], [], []
    cell_cache: dict = {}  # by stabilizer, in canonical order
    for rep in reps:
        stab = orbits[rep][1]
        if stab not in cell_cache:
            # cosymmetries keep the boundary: its orbits are the cube's in it
            cube, arrows = _cube(k, X.site, X.N)
            QB, _ = quotient_presheaf(cube, SubgroupSpec(k, stab), name="SB")
            QA = restriction(QB, {n: tuple(q for q in ids if in_boundary(arrows[q]))
                                  for n, ids in QB.levels.items()}, "SA")
            cell_cache[stab] = (QA, QB, arrows)
        QA, QB, arrows = cell_cache[stab]
        parts_A.append(QA)
        parts_B.append(QB)
        # where the cell attached along rep sends each of its sections, an
        # arrow into the k-cube; the boundary quotient's ids are among these
        values.append({x: X.act(arrows[x], rep) for _, x in QB.sections()})

    A, _ = coproduct(parts_A)
    B, _ = coproduct(parts_B)
    f_map = inclusion_map(A, B)
    g_map = PresheafMap(A, prev, {n: {f"{i}:{sid}": values[i][sid]
                                      for i, QA in enumerate(parts_A) for sid in QA.level(n)}
                                  for n in range(X.N + 1)})
    report.check("attaching map is natural", g_map.verify_natural())
    report.check("boundary quotient inclusion injective", f_map.is_injective())
    P, into_B, into_C = pushout(f_map, g_map)
    # comparison P -> sk_k X, sending the class of each section of B or
    # of sk_{k-1} X to its value there
    try:
        cmp_val = {n: _constant_map(
            [(into_B.mapping[n][f"{i}:{sid}"], values[i][sid])
             for i, QB in enumerate(parts_B) for sid in QB.level(n)]
            + [(into_C.mapping[n][sid], sid) for sid in prev.level(n)])
            for n in range(X.N + 1)}
        ok_welldef = True
    except SymcubeError:
        cmp_val, ok_welldef = {n: {} for n in range(X.N + 1)}, False
    report.check("comparison well-defined", ok_welldef)
    for n, got in cmp_val.items():
        vals = list(got.values())
        bijective = (set(P.level(n)) == set(got) and len(set(vals)) == len(vals)
                     and set(vals) == set(sk_k.level(n)))
        report.check(f"level {n} bijection", bijective,
                     f"|P|={len(P.level(n))} |sk|={len(sk_k.level(n))}")
    return report


# -- skeletal extension, checked against the coend ---------------------------


def extension_methods_agree(X: SkeletalPresheaf, n: int) -> bool:
    """Above the stored levels, up to n, the EZ pair (e, y) that
    ez_decompose reads off the extension's generator tables lies in the
    coend class of its own section x, and each face d sends x to the
    section that (e o d, y) names: X's own at level N, a class above."""
    if n <= X.N:
        raise BadDimension(f"level {n} is already stored")
    Y, ks = X.extend_to(n), range(X.N + 1, n + 1)
    class_of = tagged_coend([X], X.site, ks)[2]

    def named(f: Morphism, y: str) -> str | None:
        return X.act(f, y) if f.src == X.N else class_of.get((f, f.dst, y))

    faces = [d for _, d in generator_morphisms(X.site, n) if X.N < d.dst > d.src]
    return all(named(e, y) == x
               and all(named(compose(e, d), y) == Y.act(d, x) for d in faces if d.dst == k)
               for k in ks for x in Y.level(k) for e, y in [Y.ez_decompose(k, x)])


def restrict_skeletal(X: SkeletalPresheaf, k: int) -> SkeletalPresheaf:
    """The first k levels reread as a skeletal presheaf, i.e. the data
    whose extension is sk_k X."""
    k = min(k, X.N)
    levels = {n: X.level(n) for n in range(k + 1)}
    return restriction(X, levels, f"res{k}_{X.name}")


def verify_restriction_roundtrip(X: SkeletalPresheaf, k: int) -> bool:
    """Extending the k-truncation back to the stored range reproduces
    the k-skeleton levelwise, via the evaluation of the extension pairs."""
    ext = restrict_skeletal(X, k).extend_to(X.N)
    skX, _ = skeleton(X, k)
    for n in range(min(k, X.N) + 1, X.N + 1):
        values = [X.act(e, y) for e, y in ext._ez_level(n).values()]
        if len(set(values)) != len(values) or set(values) != set(skX.level(n)):
            return False
    return True


def verify_ez_groupoid(X: SkeletalPresheaf) -> Report:
    """Any two (epi, nondegenerate) decompositions (s1, y1), (s2, y2) of
    a section, at levels up to 3, are related by exactly one cosymmetry:
    the th that mediator reads off with th o s1 = s2, which must carry y2
    to y1, and over Q must be the identity."""
    report = Report(f"ez-groupoid({X.name})")
    top = min(3, X.N)
    for r in range(top + 1):
        decomps: dict[str, list[tuple[Morphism, str]]] = {x: [] for x in X.level(r)}
        for m in range(r + 1):
            for e in enumerate_hom(r, m, X.site):
                if not in_boundary(e):  # an epi
                    table = X.table(e)
                    for y in nondegenerate_sections(X, m):
                        decomps[table[y]].append((e, y))
        ok = all(
            (th := mediator(s1, s2)) is not None
            and (X.site is SiteTag.QSIGMA or th == identity(th.src))
            and X.act(th, y2) == y1
            for ds in decomps.values()
            for (s1, y1), (s2, y2) in itertools.product(ds, repeat=2)
        )
        report.check(f"level {r} decompositions connected uniquely", ok)
    return report


# -- functoriality audit -----------------------------------------------------


def verify_functorial(X: SkeletalPresheaf) -> Report:
    """Action respects every two- and three-letter generator word: its
    composite equals its normal form's, a word on an empty level passing
    unread.  The number of words is charged before any is checked."""
    report = Report(f"functorial({X.name})")
    name_of = {g: gname for gname, g in generator_morphisms(X.site, X.N)}
    gens = list(name_of)
    # a word g1 o g2 o g3 is counted at its middle letter g2
    by_src, by_dst = Counter(g.src for g in gens), Counter(g.dst for g in gens)
    words = sum(by_src[g.dst] * (1 + by_dst[g.src]) for g in gens)
    charge(words, f"functoriality audit of {X.name} checks {words} generator words")

    def holds(word) -> bool:
        # the last step is taken from the word's memoised prefix; the word is not kept
        return not X.levels[word[0].dst] or (
            _take(X._word(word[-1:]), X._word(word[:-1]))
            == X._positions(reduce(compose, word)))

    # a passing pair on a nonempty level acts as its composite h, so the
    # verdict of each of its triples depends on (h, g3) alone
    composite, shared = {}, {}
    for g1, g2 in itertools.product(gens, repeat=2):
        if g1.src == g2.dst:
            report.check(f"{name_of[g1]} o {name_of[g2]}", ok := holds((g1, g2)))
            composite[g1, g2] = ok and X.levels[g1.dst] and compose(g1, g2)
    for (g1, g2), h in composite.items():
        for g3 in gens:
            if g2.src == g3.dst:
                if not h:
                    ok = holds((g1, g2, g3))
                elif (ok := shared.get((h, g3))) is None:
                    ok = shared[h, g3] = holds((g1, g2, g3))
                report.check(f"{name_of[g1]} o {name_of[g2]} o {name_of[g3]}", ok)
    return report


# -- text and JSON serialization ---------------------------------------------


def dumps_presheaf(X: SkeletalPresheaf) -> str:
    lines = [f"site: {X.site}", f"truncation: {X.N}"]
    for n in range(X.N + 1):
        lines.append(f"level {n}: " + " ".join(X.level(n)))
    for gname, g in generator_morphisms(X.site, X.N):
        lines.append(f"{gname}:")
        for x in X.level(g.dst):
            lines.append(f"  {x} -> {X.action[g][x]}")
    return "\n".join(lines) + "\n"


def dumps_presheaf_json(X: SkeletalPresheaf) -> str:
    return json.dumps(
        {
            "site": str(X.site),
            "truncation": X.N,
            "levels": {str(n): list(X.level(n)) for n in range(X.N + 1)},
            "action": {
                gname: X.action[g]
                for gname, g in generator_morphisms(X.site, X.N)
            },
        },
        indent=2,
    )


def _read_text(text: str) -> dict:
    """The text format read into the JSON format's dict, blocks keyed by
    their names as written; only the syntax of each line is checked."""
    data: dict = {"levels": {}, "action": {}}
    current = None
    for raw in text.splitlines():
        stripped = raw.strip()
        if not stripped or stripped[0] == "#":
            continue
        # pairs first; of the rest only a level listing "->" holds " -> "
        if raw[0] in " \t" and " -> " in stripped and stripped[:6] != "level ":
            if current is None:
                raise InputError(f"action pair outside a block: {stripped!r}")
            x, _, v = stripped.split()  # ids hold no whitespace
            current[x] = v
        elif stripped.startswith("site:"):
            data["site"] = stripped.split(":", 1)[1]
        elif stripped.startswith("truncation:"):
            data["truncation"] = int(stripped.split(":", 1)[1])
        elif stripped.startswith("level "):
            head, _, rest = stripped.partition(":")
            data["levels"][head.split()[1]] = rest.split()
        elif stripped.endswith(":"):
            current = data["action"].setdefault(stripped[:-1], {})
        else:
            raise InputError(f"cannot parse line {stripped!r}")
    return data


def loads_presheaf(text: str, name: str = "loaded") -> SkeletalPresheaf:
    """A presheaf from its text or JSON format, raising InputError at the
    first failure.  Text is read into the JSON format's dict, and one path
    checks both: the types, a truncation N with N * N at most the number
    of blocks before any generator is listed (a complete file has at least
    3N(N+1)/2), the levels, each block's name as generator_morphisms
    spells it, the structure and the relation instances."""
    text = text.strip()
    try:
        data = json.loads(text) if text.startswith("{") else _read_text(text)
        site_tag = SiteTag.parse(data["site"])
        N, blocks = data["truncation"], data["action"]
        if type(N) is not int:  # not a float, a bool or a string
            raise TypeError(f"a truncation must be an integer, not {N!r}")
        levels = {int(n): ids for n, ids in data["levels"].items()}
        if not all(isinstance(ids, list) and all(isinstance(x, str) for x in ids)
                   for ids in levels.values()):
            raise TypeError("a level must be a list of section ids")
        if N < 0 or N * N > len(blocks):
            raise InputError(f"malformed presheaf: truncation {N} with "
                             f"{len(blocks)} generator blocks")
        stray = sorted(n for n in levels if not 0 <= n <= N)
        if stray:
            raise InputError(f"malformed presheaf: level {stray[0]} outside truncation {N}")
        named = dict(generator_morphisms(site_tag, N))
        bad = [gname for gname in blocks if gname not in named]
        if bad:
            raise InputError(f"malformed presheaf: bad generator name {bad[0]!r} "
                             f"for site {site_tag} at truncation {N}")
        action = {named[gname]: dict(table) for gname, table in blocks.items()}
        if not all(isinstance(v, str) for t in action.values() for v in t.values()):
            raise TypeError("an action must send section ids to section ids")
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        raise InputError(f"malformed presheaf: {type(exc).__name__}: {exc}") from exc
    X = SkeletalPresheaf(site_tag, N, levels, action, name)
    audit = verify_functorial(X)
    if not audit.ok:
        first = audit.failures[0]
        raise InputError(f"relation violated by action: {first.label}")
    return X
