"""The box category Q and the symmetric cubical PROP QSigma.

Objects are cube dimensions ``n >= 0``.  An arrow ``[m] -> [n]`` is a
formal cubical (m, n)-product: an n-tuple of entries, each either a
constant bit or an ordered conjunction ``xi1 ^ ... ^ xik`` of distinct
symbols drawn from x1..xm, with no symbol used twice across the tuple.

Q is the subcategory of arrows with no conjunctions of length >= 2 and
symbols appearing in increasing order; it is generated by faces (delta)
and degeneracies (sigma).  QSigma adds conjunctions (gamma) and
coordinate permutations (pi).

Text syntax: ``(x3,1,x1^x5^x2,0):5->4``.  The printer emits exactly this
compact form; the parser additionally tolerates whitespace.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .errors import (
    BadDimension,
    CompositionMismatch,
    IndexOutOfRange,
    InputError,
    MorphismSyntaxError,
    NotEpi,
    SymcubeError,
    charge,
)
from .report import Report

CubeObject = int  # a cube dimension


class SiteTag(Enum):
    Q = "Q"
    QSIGMA = "QSigma"
    __hash__ = object.__hash__  # members are singletons; hashed in C as cache keys

    @classmethod
    def parse(cls, text: str) -> "SiteTag":
        for tag in cls:
            if tag.value.lower() == text.strip().lower():
                return tag
        raise MorphismSyntaxError(f"unknown site {text!r}; expected Q or QSigma")

    def __str__(self):
        return self.value


class Entry:
    """One output coordinate of a formal product: Const or Conj."""

    __slots__ = ()

    def key(self) -> tuple:
        raise NotImplementedError

    def __lt__(self, other):
        return self.key() < other.key()


class Const(Entry, int):
    """A constant bit; an int, so it hashes and compares in C."""

    __slots__ = ()

    def __new__(cls, bit: int):
        if bit not in (0, 1):
            raise MorphismSyntaxError(f"constant {bit!r} is not a bit")
        return int.__new__(cls, bit)

    bit = property(int)

    def key(self):
        # Const 0 < Const 1 < any Conj
        return (0, int(self))

    __str__ = int.__repr__

    def __repr__(self):
        return f"Const({int(self)})"


class Conj(Entry, tuple):
    """An ordered conjunction of distinct symbols; length 1 is a bare
    symbol.  A tuple of its symbols, so it hashes and compares in C."""

    __slots__ = ()

    def __new__(cls, symbols):
        symbols = tuple(symbols)
        if not symbols:
            raise MorphismSyntaxError("conjunctions are nonempty")
        if not all(type(s) is int and s >= 1 for s in symbols):
            raise MorphismSyntaxError(f"bad symbols {symbols}")
        if len(set(symbols)) != len(symbols):
            raise MorphismSyntaxError(f"repeated symbol in {symbols}")
        return tuple.__new__(cls, symbols)

    symbols = property(tuple)

    def key(self):
        return (1, *self)

    def __str__(self):
        return "^".join(f"x{s}" for s in self)

    def __repr__(self):
        return f"Conj{tuple(self)}"


ZERO, ONE = Const(0), Const(1)

_MORPHISM_RE = re.compile(r"\s*\((.*)\)\s*:\s*(\d+)\s*->\s*(\d+)\s*\Z", re.DOTALL)
_CONJ_RE = re.compile(r"\s*x(\d+)\s*(?:\^\s*x(\d+)\s*)*\Z")


class Morphism:
    """A formal cubical (src, dst)-product."""

    __slots__ = ("src", "dst", "entries", "_hash")

    def __init__(self, src: CubeObject, dst: CubeObject, entries):
        entries = tuple(entries)
        if src < 0 or dst < 0:
            raise BadDimension(f"negative dimension in {src}->{dst}")
        if len(entries) != dst:
            raise MorphismSyntaxError(f"expected {dst} entries, got {len(entries)}")
        seen = set()
        for e in entries:
            if not isinstance(e, Entry):
                raise MorphismSyntaxError(f"{e!r} is not an entry")
            if isinstance(e, Conj):
                for s in e.symbols:
                    if not 1 <= s <= src:
                        raise MorphismSyntaxError(f"symbol x{s} outside 1..{src}")
                    if s in seen:
                        raise MorphismSyntaxError(f"symbol x{s} used twice")
                    seen.add(s)
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_hash", hash((src, dst, entries)))

    def symbols(self) -> tuple[int, ...]:
        """All symbols used, in written (left-to-right) order."""
        return tuple(s for e in self.entries if isinstance(e, Conj) for s in e)

    def key(self):
        return (self.src, self.dst, tuple(e.key() for e in self.entries))

    def __eq__(self, other):
        return (
            isinstance(other, Morphism)
            and self.src == other.src
            and self.dst == other.dst
            and self.entries == other.entries
        )

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self.key() < other.key()

    def __str__(self):
        return "({}):{}->{}".format(
            ",".join(str(e) for e in self.entries), self.src, self.dst
        )

    def __repr__(self):
        return f"Morphism({str(self)!r})"

    @classmethod
    def parse(cls, text: str) -> "Morphism":
        m = _MORPHISM_RE.fullmatch(text)
        if not m:
            raise MorphismSyntaxError(
                f"cannot parse morphism {text!r}; expected e.g. (x1^x2,0):2->2"
            )
        body, src, dst = m.group(1), int(m.group(2)), int(m.group(3))
        entries = []
        if body.strip():
            for part in body.split(","):
                part = part.strip()
                if part == "0":
                    entries.append(ZERO)
                elif part == "1":
                    entries.append(ONE)
                elif _CONJ_RE.fullmatch(part):
                    entries.append(
                        Conj(int(s) for s in re.findall(r"x(\d+)", part))
                    )
                else:
                    raise MorphismSyntaxError(f"bad entry {part!r} in {text!r}")
        return cls(src, dst, entries)


parse_morphism = Morphism.parse


def _arrow(src: CubeObject, dst: CubeObject, entries: tuple) -> Morphism:
    """The Morphism with these entries, unchecked, for arrows valid by construction."""
    f = object.__new__(Morphism)
    f.src, f.dst, f.entries, f._hash = src, dst, entries, hash((src, dst, entries))
    return f


class Permutation:
    """A permutation of {1..n} in one-line notation: one_line[i-1] = p(i)."""

    __slots__ = ("one_line",)

    def __init__(self, one_line):
        one_line = tuple(one_line)
        if sorted(one_line) != list(range(1, len(one_line) + 1)):
            raise MorphismSyntaxError(f"{one_line} is not a permutation")
        object.__setattr__(self, "one_line", one_line)

    @property
    def n(self) -> int:
        return len(self.one_line)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @classmethod
    def transposition(cls, i: int, j: int, n: int) -> "Permutation":
        line = list(range(1, n + 1))
        line[i - 1], line[j - 1] = j, i
        return cls(line)

    @classmethod
    def from_cycles(cls, text: str, n: int) -> "Permutation":
        """Parse disjoint cycles like ``(1 2 4 3)`` or ``(1 2)(3 4)`` or ``id``."""
        text = text.strip()
        if text in ("id", "()", ""):
            return cls.identity(n)
        if not re.fullmatch(r"(\s*\(\s*\d+(?:[\s,]+\d+)*\s*\)\s*)+", text):
            raise MorphismSyntaxError(f"cannot parse cycles {text!r}")
        line, seen = list(range(1, n + 1)), set()
        for cycle in re.findall(r"\(([^()]*)\)", text):
            members = [int(s) for s in re.split(r"[\s,]+", cycle.strip())]
            if any(not 1 <= v <= n for v in members) or len(set(members)) != len(members):
                raise MorphismSyntaxError(f"bad cycle ({cycle}) for n={n}")
            shared = [v for v in members if v in seen]
            if shared:
                raise MorphismSyntaxError(
                    f"cycles in {text!r} share the letter {shared[0]}; write disjoint cycles")
            seen.update(members)
            for a, b in zip(members, members[1:] + members[:1]):
                line[a - 1] = b
        return cls(line)

    def __call__(self, i: int) -> int:
        return self.one_line[i - 1]

    def inverse(self) -> "Permutation":
        line = [0] * self.n
        for i, v in enumerate(self.one_line, start=1):
            line[v - 1] = i
        return Permutation(line)

    def is_identity(self) -> bool:
        return self.one_line == tuple(range(1, self.n + 1))

    def adjacent_word(self) -> list[int]:
        """Indices [b1..bk] with self = s_b1 o ... o s_bk (s_bk applied first),
        where s_i swaps i and i+1."""
        line = list(self.one_line)
        swaps = []
        for limit in range(len(line) - 1, 0, -1):
            for t in range(limit):
                if line[t] > line[t + 1]:
                    line[t], line[t + 1] = line[t + 1], line[t]
                    swaps.append(t + 1)
        # sorting self by s_t1..s_tk means self = s_tk o ... o s_t1
        return swaps[::-1]

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its least element."""
        seen, out = set(), []
        for start in range(1, self.n + 1):
            if start in seen:
                continue
            cycle, v = [start], self(start)
            seen.add(start)
            while v != start:
                cycle.append(v)
                seen.add(v)
                v = self(v)
            if len(cycle) > 1:
                out.append(tuple(cycle))
        return out

    def __eq__(self, other):
        return isinstance(other, Permutation) and other.one_line == self.one_line

    def __hash__(self):
        return hash(self.one_line)

    def __str__(self):
        cycles = self.cycles()
        if not cycles:
            return "id"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)

    def __repr__(self):
        return f"Permutation({list(self.one_line)})"


# -- generators --------------------------------------------------------------


def identity(n: CubeObject) -> Morphism:
    return Morphism(n, n, (Conj((i,)) for i in range(1, n + 1)))


@lru_cache(maxsize=None)
def delta(i: int, eps: int, n: CubeObject) -> Morphism:
    """Face [n] -> [n+1]: insert the constant eps at position i."""
    if not 1 <= i <= n + 1:
        raise IndexOutOfRange(f"delta({i},{eps}) needs 1 <= i <= {n + 1}")
    entries = [Conj((s,)) for s in range(1, n + 1)]
    entries.insert(i - 1, Const(eps))
    return Morphism(n, n + 1, entries)


@lru_cache(maxsize=None)
def sigma(i: int, n: CubeObject) -> Morphism:
    """Degeneracy [n+1] -> [n]: omit the symbol x_i."""
    if not 1 <= i <= n + 1:
        raise IndexOutOfRange(f"sigma({i}) needs 1 <= i <= {n + 1}")
    return Morphism(
        n + 1, n, (Conj((s,)) for s in range(1, n + 2) if s != i)
    )


@lru_cache(maxsize=None)
def gamma(i: int, n: CubeObject) -> Morphism:
    """Conjunction [n+1] -> [n]: merge x_i and x_{i+1}."""
    if not 1 <= i <= n:
        raise IndexOutOfRange(f"gamma({i}) needs 1 <= i <= {n}")
    entries = [Conj((s,)) for s in range(1, i)]
    entries.append(Conj((i, i + 1)))
    entries.extend(Conj((s,)) for s in range(i + 2, n + 2))
    return Morphism(n + 1, n, entries)


@lru_cache(maxsize=None)
def pi(p: Permutation) -> Morphism:
    """Cosymmetry [n] -> [n] with entries (x_{p^-1(1)}, ..., x_{p^-1(n)})."""
    inv = p.inverse()
    return Morphism(p.n, p.n, (Conj((inv(i),)) for i in range(1, p.n + 1)))


def _cosymmetry_perms(site: SiteTag, n: CubeObject) -> list[Permutation]:
    """The permutations of [n]'s cosymmetries: all n! over QSigma, one over Q."""
    if site is SiteTag.Q:
        return [Permutation.identity(n)]
    return [Permutation(p) for p in itertools.permutations(range(1, n + 1))]


def symmetry(m: CubeObject, n: CubeObject) -> Morphism:
    """The braiding [m] + [n] -> [n] + [m]: (x_{m+1},...,x_{m+n},x_1,...,x_m)."""
    entries = [Conj((m + i,)) for i in range(1, n + 1)]
    entries.extend(Conj((i,)) for i in range(1, m + 1))
    return Morphism(m + n, n + m, entries)


def constant(bits, n_src: CubeObject = 0) -> Morphism:
    """The constant product (bits): [n_src] -> [len(bits)]."""
    return Morphism(n_src, len(bits), (Const(b) for b in bits))


def endpoint(eps: int, n: CubeObject) -> Morphism:
    """The vertex {eps} = (eps,...,eps): [0] -> [n]."""
    return constant([eps] * n)


# -- composition and monoidal structure --------------------------------------


def compose(g: Morphism, f: Morphism) -> Morphism:
    """The composite g o f (f applied first).

    Substitute f's entries for g's symbols, delete 1s from conjunctions
    of length >= 2, and collapse any conjunction containing 0 to 0.  An
    all-1 substitution leaves the empty conjunction, which is 1.
    """
    if f.dst != g.src:
        raise CompositionMismatch(
            f"cannot compose {g} after {f}: {f}.dst != {g}.src"
        )
    return _arrow(f.src, g.dst, tuple([_substitute(e, f.entries) for e in g.entries]))


def _substitute(e: Entry, sub: tuple) -> Entry:
    """The entry e with the entries sub put in for its symbols."""
    if type(e) is Const:
        return e
    if len(e) == 1:  # a bare symbol takes its entry as it is
        return sub[e[0] - 1]
    return _conjoin([sub[s - 1] for s in e])


def _conjoin(xs) -> Entry:
    """The conjunction of the entries xs: 0 if one is 0, else their
    symbols in order with the 1s dropped, and 1 if none is left."""
    merged = []
    for x in xs:
        if type(x) is Conj:
            merged.extend(x)
        elif x == 0:
            return ZERO
    return tuple.__new__(Conj, merged) if merged else ONE


def compose_many(*maps: Morphism) -> Morphism:
    """compose_many(h, g, f) = h o g o f."""
    result = maps[-1]
    for g in reversed(maps[:-1]):
        result = compose(g, result)
    return result


def tensor(f: Morphism, g: Morphism) -> Morphism:
    """The monoidal product f (+) g: shift g's symbols by f.src, concatenate."""
    shift = f.src
    shifted = tuple(
        e if type(e) is Const else tuple.__new__(Conj, [s + shift for s in e])
        for e in g.entries
    )
    return _arrow(f.src + g.src, f.dst + g.dst, f.entries + shifted)


# -- normal form -------------------------------------------------------------


@dataclass(frozen=True)
class Factorization:
    """The canonical normal form delta..delta gamma..gamma pi sigma..sigma.

    faces:  [(i1,e1),...] with i1 > i2 > ... (applied last, smallest first)
    conjs:  [k1,...] with k1 < k2 < ... (k_r applied first)
    perm:   permutation of the ell = src - len(degens) surviving symbols
    degens: [j1,...] with j1 < j2 < ... (j_m applied first)
    """

    faces: tuple[tuple[int, int], ...]
    conjs: tuple[int, ...]
    perm: Permutation
    degens: tuple[int, ...]
    src: CubeObject
    dst: CubeObject

    def __post_init__(self):
        faces = tuple(tuple(p) for p in self.faces)
        object.__setattr__(self, "faces", faces)
        object.__setattr__(self, "conjs", tuple(self.conjs))
        object.__setattr__(self, "degens", tuple(self.degens))
        ell = self.ell
        for ok, what in (
            (all(i1 > i2 for (i1, _), (i2, _) in zip(faces, faces[1:])), "faces"),
            (all(1 <= i <= self.dst and e in (0, 1) for i, e in faces), "faces"),
            (list(self.conjs) == sorted(set(self.conjs)), "conjs"),
            (all(1 <= k <= ell - 1 for k in self.conjs), "conjs"),
            (list(self.degens) == sorted(set(self.degens)), "degens"),
            (all(1 <= j <= self.src for j in self.degens), "degens"),
            (self.perm.n == ell, "perm"),
            (self.dst == ell - len(self.conjs) + len(faces), "arity"),
        ):
            if not ok:
                raise InputError(f"malformed factorization: bad {what}")

    @property
    def ell(self) -> int:
        return self.src - len(self.degens)

    def generators(self) -> list[Morphism]:
        """The generators in application (first-to-last) order: the
        degeneracies, the adjacent swaps of the permutation, the
        conjunctions, then the faces."""
        word = []
        d = self.src
        for j in reversed(self.degens):
            d -= 1
            word.append(sigma(j, d))
        for t in reversed(self.perm.adjacent_word()):
            word.append(pi(Permutation.transposition(t, t + 1, d)))
        for k in reversed(self.conjs):
            d -= 1
            word.append(gamma(k, d))
        for i, eps in reversed(self.faces):
            word.append(delta(i, eps, d))
            d += 1
        return word

    def evaluate(self) -> Morphism:
        result = identity(self.src)
        for g in self.generators():
            result = compose(g, result)
        return result

    def __str__(self):
        parts = [f"delta({i},{e})" for i, e in self.faces]
        parts.extend(f"gamma({k})" for k in self.conjs)
        if not self.perm.is_identity():
            parts.append(f"pi{self.perm}")
        parts.extend(f"sigma({j})" for j in self.degens)
        return " ".join(parts) if parts else f"id({self.src})"


def factor(f: Morphism) -> Factorization:
    """Read the unique normal form off a formal product.

    Omitted symbols give the degeneracies; the concatenation of surviving
    symbol ranks gives the permutation; positions where adjacent coordinates
    share a conjunction give the gamma indices; constant positions give the
    faces (largest index first).
    """
    written = f.symbols()
    present = sorted(written)
    degens = tuple(j for j in range(1, f.src + 1) if j not in set(present))
    rank = {s: t for t, s in enumerate(present, start=1)}
    p_inv = Permutation(rank[s] for s in written)
    conjs, pos = [], 0
    for e in f.entries:
        if isinstance(e, Conj):
            L = len(e.symbols)
            conjs.extend(range(pos + 1, pos + L))
            pos += L
    faces = tuple(
        sorted(
            ((i, e.bit) for i, e in enumerate(f.entries, start=1) if isinstance(e, Const)),
            reverse=True,
        )
    )
    return Factorization(faces, tuple(conjs), p_inv.inverse(), degens, f.src, f.dst)


def enumerate_factorizations(m: CubeObject, n: CubeObject):
    """All well-formed Factorizations [m] -> [n], for the bijection check."""
    for dropped in range(m + 1):
        ell = m - dropped
        for degens in itertools.combinations(range(1, m + 1), dropped):
            for perm in itertools.permutations(range(1, ell + 1)):
                for r in range(max(0, ell - n), max(0, ell - 1) + 1):
                    q = ell - r
                    if q > n:
                        continue
                    for conjs in itertools.combinations(range(1, ell), r):
                        for posns in itertools.combinations(range(1, n + 1), n - q):
                            for bits in itertools.product((0, 1), repeat=n - q):
                                faces = tuple(
                                    sorted(zip(posns, bits), reverse=True)
                                )
                                yield Factorization(
                                    faces, conjs, Permutation(perm), degens, m, n
                                )


# -- hom-set enumeration -----------------------------------------------------


def hom_count(m: CubeObject, n: CubeObject, site: SiteTag = SiteTag.QSIGMA) -> int:
    """|Hom([m],[n])| by the normal-form count (no enumeration)."""
    symmetric = site is SiteTag.QSIGMA
    total, arrangements = 0, 1
    for ell in range(0, m + 1):
        if ell:  # the ell variables used, chosen in order over QSigma
            arrangements = arrangements * (m - ell + 1) // (1 if symmetric else ell)
        max_r = max(0, ell - 1) if symmetric else 0
        for r in range(max(0, ell - n), max_r + 1):
            q = ell - r
            conj_words = math.comb(ell - 1, r) if ell >= 1 else (1 if r == 0 else 0)
            total += arrangements * conj_words * math.comb(n, n - q) * 2 ** (n - q)
    return total


@lru_cache(maxsize=None)
def _enumerate_hom(m: CubeObject, n: CubeObject, site: SiteTag) -> tuple[Morphism, ...]:
    """Hom([m],[n]) in canonical order, as built: entries are picked left
    to right, each in key order from the symbols still free, so the
    arrows come out sorted."""
    rows = [((), tuple(range(1, m + 1)))]
    for _ in range(n):
        rows = [(entries + (e,), rest) for entries, free in rows
                for e, rest in _entry_choices(free, site)]
    return tuple([_arrow(m, n, entries) for entries, _ in rows])  # valid by construction


@lru_cache(maxsize=None)
def _entry_choices(free: tuple[int, ...], site: SiteTag) -> tuple[tuple[Entry, tuple], ...]:
    """Each entry writable with the symbols free, in key order (0, 1, then
    conjunctions by symbol word, a prefix before its extensions), with
    the symbols it leaves free.  Over Q an entry is one symbol, and only
    larger symbols stay free."""
    choices = [(ZERO, free), (ONE, free)]
    if site is SiteTag.Q:
        return (*choices, *[(tuple.__new__(Conj, (s,)), free[i + 1:])
                            for i, s in enumerate(free)])

    def extend(word, free):
        for i, s in enumerate(free):
            rest = free[:i] + free[i + 1:]
            choices.append((tuple.__new__(Conj, word + (s,)), rest))
            extend(word + (s,), rest)

    extend((), free)
    return tuple(choices)


def enumerate_hom(m: CubeObject, n: CubeObject,
                  site: SiteTag = SiteTag.QSIGMA) -> tuple[Morphism, ...]:
    """The complete hom-set, duplicate-free, in canonical order, charged
    to the resource limit by its size."""
    if m < 0 or n < 0:
        raise BadDimension(f"negative dimension in hom set [{m}] -> [{n}]")
    charge(hom_count(m, n, site), f"hom set {site}([{m}],[{n}])")
    return _enumerate_hom(m, n, site)


@lru_cache(maxsize=None)
def hom_rank(m: CubeObject, n: CubeObject, site: SiteTag) -> dict[tuple, int]:
    """The rank of each arrow of Hom([m],[n]), its index in enumerate_hom,
    keyed by the arrow's entries, which fix it within the hom set."""
    return {f.entries: r for r, f in enumerate(_enumerate_hom(m, n, site))}


@lru_cache(maxsize=None)
def _hom_columns(m: CubeObject, n: CubeObject, site: SiteTag) -> tuple[tuple[Entry, ...], ...]:
    """The n coordinate columns of Hom([m],[n]): column i holds entry i+1
    of each arrow, by rank.  Hom([m],[0]) has one arrow and no column."""
    return tuple(zip(*[f.entries for f in _enumerate_hom(m, n, site)]))


@lru_cache(maxsize=None)
def precompose_table(g: Morphism, n: CubeObject, site: SiteTag) -> tuple[int, ...]:
    """The rank of f o g in Hom(g.src, n) for each f of Hom(g.dst, n), by
    rank, read column by column."""
    if n == 0:  # one arrow on each side, and no column to read
        return (0,)
    # the one column of Hom(g.dst, 1) holds every entry over g.dst's symbols
    image = {e: _substitute(e, g.entries) for e in _hom_columns(g.dst, 1, site)[0]}
    columns = [map(image.__getitem__, c) for c in _hom_columns(g.dst, n, site)]
    return tuple(map(hom_rank(g.src, n, site).__getitem__, zip(*columns)))


@lru_cache(maxsize=None)
def postcompose_table(h: Morphism, k: CubeObject, site: SiteTag) -> tuple[int, ...]:
    """The rank of h o f in Hom(k, h.dst) for each f of Hom(k, h.src), by
    rank: entry i of h o f is read off the columns of h's i-th entry."""
    count, columns = len(_enumerate_hom(k, h.src, site)), _hom_columns(k, h.src, site)
    if h.dst == 0:  # every h o f is the one arrow [k] -> [0]
        return (0,) * count
    out = [itertools.repeat(e, count) if type(e) is Const
           else columns[e[0] - 1] if len(e) == 1
           else map(_conjoin, zip(*[columns[s - 1] for s in e]))
           for e in h.entries]
    return tuple(map(hom_rank(k, h.dst, site).__getitem__, zip(*out)))


# -- classification ----------------------------------------------------------


@dataclass(frozen=True)
class Flags:
    in_Q: bool
    in_plus: bool
    in_minus: bool
    is_mono: bool
    is_epi: bool
    is_iso: bool


def is_box_arrow(f: Morphism) -> bool:
    """Q-membership: no conjunction of length >= 2, symbols increasing."""
    if any(isinstance(e, Conj) and len(e.symbols) > 1 for e in f.entries):
        return False
    written = f.symbols()
    return all(a < b for a, b in zip(written, written[1:]))


def classify(f: Morphism) -> Flags:
    """The flags read off the entries: f is epi when no entry is a
    constant, and mono when every entry is a constant or a bare symbol
    and every symbol is used."""
    is_epi = not any(type(e) is Const for e in f.entries)
    is_mono = (all(type(e) is Const or len(e) == 1 for e in f.entries)
               and len(f.symbols()) == f.src)
    return Flags(in_Q=is_box_arrow(f), in_plus=is_mono, in_minus=is_epi,
                 is_mono=is_mono, is_epi=is_epi, is_iso=is_mono and is_epi)


def vertices_action(f: Morphism) -> dict[tuple[int, ...], tuple[int, ...]]:
    """The table {0,1}^m -> {0,1}^n; conjunctions evaluate as minimum."""
    table = {}
    for bits in itertools.product((0, 1), repeat=f.src):
        image = tuple(
            e.bit if isinstance(e, Const) else min(bits[s - 1] for s in e.symbols)
            for e in f.entries
        )
        table[bits] = image
    return table


def ez_factor(f: Morphism) -> tuple[Morphism, Morphism]:
    """Split f as (epi, mono) with mono o epi = f, read off the entries:
    the epi keeps f's non-constant entries in order, and the mono, a
    face word, puts the constants back."""
    kept = tuple(e for e in f.entries if type(e) is not Const)
    free = iter(range(1, len(kept) + 1))
    mono = tuple(e if type(e) is Const else tuple.__new__(Conj, (next(free),))
                 for e in f.entries)
    return _arrow(f.src, len(kept), kept), _arrow(len(kept), f.dst, mono)


def mediator(e1: Morphism, e2: Morphism) -> Morphism | None:
    """The one cosymmetry th with th o e1 = e2, read off the entries: th
    puts e1's entries, which are distinct, in e2's order.  None when no
    cosymmetry does that."""
    at = {e: tuple.__new__(Conj, (i,)) for i, e in enumerate(e1.entries, start=1)}
    if len(at) < e1.dst:
        raise InputError(f"{e1} repeats an entry, so no one cosymmetry is read off it")
    if e1.src != e2.src or e1.dst != e2.dst or at.keys() != set(e2.entries):
        return None
    return _arrow(e1.dst, e1.dst, tuple(map(at.__getitem__, e2.entries)))


# -- union-find --------------------------------------------------------------


class _UnionFind:
    """Union-find over range(n) with path halving.  The smaller root wins
    each union, so parent[x] <= x always and every class is rooted at its
    least number."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    def union_all(self, pairs, x0: int = 0, y0: int = 0):
        """Merge the classes of x0 + x and y0 + y for every (x, y) in pairs."""
        parent = self.parent
        for x, y in pairs:
            x += x0
            y += y0
            # find, inlined: this loop carries every coend's gluing
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            while parent[y] != y:
                parent[y] = y = parent[parent[y]]
            if x < y:
                parent[y] = x
            elif y < x:
                parent[x] = y

    def roots(self) -> list[int]:
        """Point every number at its root; returns the roots, increasing."""
        parent = self.parent
        for x in range(len(parent)):
            # parent[x] < x is already compressed onto its root
            parent[x] = parent[parent[x]]
        return [x for x, root in enumerate(parent) if root == x]

    def classes(self) -> dict[int, list[int]]:
        """Root -> members in increasing order, roots in increasing order."""
        groups: dict[int, list[int]] = {root: [] for root in self.roots()}
        for x, root in enumerate(self.parent):
            groups[root].append(x)
        return groups


# -- split pushouts ----------------------------------------------------------


@dataclass(frozen=True)
class SplitWitness:
    d0: Morphism  # P -> cod(sigma1), section of tau1
    d1: Morphism  # cod(sigma2) -> src, section of sigma2
    d2prime: Morphism  # cod(sigma1) -> src, section of sigma1


@dataclass(frozen=True)
class SplitPushout:
    """An absolute pushout cocone for a cospan of epis with common source.

    tau1 o sigma1 = tau2 o sigma2; the witness sections satisfy the
    five split-pushout relations (None when no section triple does)."""

    sigma1: Morphism
    sigma2: Morphism
    tau1: Morphism
    tau2: Morphism
    witness: SplitWitness | None


def sections_of(e: Morphism) -> list[Morphism]:
    """All sections of an epi, in canonical order, read off its entries:
    a section puts x_j on one symbol of e's j-th entry and 1 on the
    others, and a constant on each symbol that e omits."""
    if not classify(e).is_epi:
        raise NotEpi(f"{e} is not an epimorphism")
    used = e.symbols()
    free = [s for s in range(1, e.src + 1) if s not in used]
    sections = []
    for carriers in itertools.product(*e.entries):
        for bits in itertools.product((ZERO, ONE), repeat=len(free)):
            entries = dict.fromkeys(used, ONE)
            entries.update(zip(free, bits))
            entries.update((s, Conj((j,))) for j, s in enumerate(carriers, start=1))
            row = tuple(entries[s] for s in range(1, e.src + 1))
            sections.append(_arrow(e.dst, e.src, row))
    return sorted(sections, key=Morphism.key)


def check_split_witness(
    a1: Morphism,
    a2: Morphism,
    p1: Morphism,
    p2: Morphism,
    d0: Morphism,
    d1: Morphism,
    d2prime: Morphism,
) -> Report:
    """The five relations (with d'_1 = d'_2 d_0 p_2 left implicit)."""
    report = Report("split-witness")
    C, B, P = a2.dst, a1.dst, p2.dst
    report.check("a2 d1 = id_C", compose(a2, d1) == identity(C))
    report.check("d0 p1 = a1 d1", compose(d0, p1) == compose(a1, d1))
    report.check("p2 d0 = id_P", compose(p2, d0) == identity(P))
    report.check(
        "a2 d'2 d0 p2 = a2 d'2",
        compose_many(a2, d2prime, d0, p2) == compose(a2, d2prime),
    )
    report.check("a1 d'2 = id_B", compose(a1, d2prime) == identity(B))
    report.check("square commutes", compose(p2, a1) == compose(p1, a2))
    return report


def _search_witness(a1, a2, p1, p2):
    """First section triple (canonical order) satisfying all five relations."""
    for d0 in sections_of(p2):
        for d1 in sections_of(a2):
            for d2p in sections_of(a1):
                if check_split_witness(a1, a2, p1, p2, d0, d1, d2p).ok:
                    return SplitWitness(d0, d1, d2p)
    return None


def _join_cocone(a1: Morphism, a2: Morphism) -> tuple[Morphism, Morphism]:
    """A commuting cocone on the join of the two block partitions.

    Each epi partitions its surviving symbols into ordered conjunction
    blocks.  Coordinates of the pushout are join classes of symbols,
    except that a class dies if it meets a symbol deleted on either
    side, if the two block orders impose conflicting adjacencies, or if
    the adjacency links close a cycle.  Terminates on any two epis,
    equal, generator or composite.
    """
    N = a1.src
    uf = _UnionFind(N)  # symbol s is number s - 1
    supp1 = {s for e in a1.entries for s in e.symbols}
    supp2 = {s for e in a2.entries for s in e.symbols}
    alive = supp1 & supp2
    links = []
    for f in (a1, a2):
        for e in f.entries:
            for s, t in zip(e.symbols, e.symbols[1:]):
                links.append((s, t))
    uf.union_all(links, -1, -1)
    buckets: dict[int, list[tuple[int, int]]] = {}
    for s, t in links:
        buckets.setdefault(uf.find(s - 1), []).append((s, t))
    chosen = []  # classes() yields roots, the least symbols, in order
    for root, numbers in uf.classes().items():
        members = [m + 1 for m in numbers]
        if not all(m in alive for m in members):
            continue
        succ: dict[int, int] = {}
        pred: dict[int, int] = {}
        consistent = True
        for s, t in buckets.get(root, ()):
            if succ.get(s, t) != t or pred.get(t, s) != s:
                consistent = False
                break
            succ[s], pred[t] = t, s
        if not consistent:
            continue
        order: list[int] = []
        for head in sorted(m for m in members if m not in pred):
            v: int | None = head
            while v is not None:
                order.append(v)
                v = succ.get(v)
        if len(order) != len(members):  # a cycle ate part of the class
            continue
        chosen.append(order)

    def leg(f: Morphism) -> Morphism:
        block = {}
        for b, e in enumerate(f.entries, start=1):
            for s in e.symbols:
                block[s] = b
        entries = [
            Conj(b for b, _ in itertools.groupby(block[s] for s in order))
            for order in chosen
        ]
        return Morphism(f.dst, len(chosen), entries)

    tau1, tau2 = leg(a1), leg(a2)
    if compose(tau1, a1) != compose(tau2, a2):
        raise SymcubeError(f"the join cocone of {a1} and {a2} does not commute")
    return tau1, tau2


def split_pushout(sigma1: Morphism, sigma2: Morphism) -> SplitPushout:
    """The absolute pushout of a span of epis with common source: the
    partition-join cocone, with the first witness that a search of the
    sections in canonical order finds (None when there is none)."""
    if sigma1.src != sigma2.src:
        raise CompositionMismatch(
            f"{sigma1} and {sigma2} do not share a source"
        )
    if not classify(sigma1).is_epi:
        raise NotEpi(f"{sigma1} is not an epimorphism")
    if not classify(sigma2).is_epi:
        raise NotEpi(f"{sigma2} is not an epimorphism")
    tau1, tau2 = _join_cocone(sigma1, sigma2)
    return SplitPushout(
        sigma1, sigma2, tau1, tau2, _search_witness(sigma1, sigma2, tau2, tau1)
    )


# -- relation verification ---------------------------------------------------


def verify_relations(n_max: int) -> Report:
    """Check every instance of the presentation's relations with base
    dimension up to n_max, charging each dimension's before checking it."""
    if n_max < 0:
        raise BadDimension(f"negative dimension bound {n_max}")
    report = Report(f"relations(n<={n_max})")

    def eq(label, lhs, rhs):
        report.check(label, lhs == rhs, f"{lhs} != {rhs}" if lhs != rhs else "")

    for n in range(0, n_max + 1):
        size = 4 * (n + 1) * (2 * n + 3)  # instances of the six relations below
        charge(size, f"relations at base dimension {n} have {size} instances")
        for i, j in itertools.combinations(range(1, n + 3), 2):
            for eps, eta in itertools.product((0, 1), repeat=2):
                eq(
                    f"delta-delta n={n} i={i} j={j} eps={eps} eta={eta}",
                    compose(delta(j, eta, n + 1), delta(i, eps, n)),
                    compose(delta(i, eps, n + 1), delta(j - 1, eta, n)),
                )
        for i in range(1, n + 2):
            for j in range(1, n + 2):
                for eps in (0, 1):
                    lhs = compose(sigma(j, n), delta(i, eps, n))
                    if i < j:
                        rhs = compose(delta(i, eps, n - 1), sigma(j - 1, n - 1))
                    elif i == j:
                        rhs = identity(n)
                    else:
                        rhs = compose(delta(i - 1, eps, n - 1), sigma(j, n - 1))
                    eq(f"sigma-delta n={n} i={i} j={j} eps={eps}", lhs, rhs)
        for i in range(1, n + 3):
            for j in range(i, n + 2):
                eq(
                    f"sigma-sigma n={n} i={i} j={j}",
                    compose(sigma(j, n), sigma(i, n + 1)),
                    compose(sigma(i, n), sigma(j + 1, n + 1)),
                )
        for i in range(1, n + 2):
            for j in range(i, n + 1):
                lhs = compose(gamma(j, n), gamma(i, n + 1))
                if j > i:
                    rhs = compose(gamma(i, n), gamma(j + 1, n + 1))
                else:
                    rhs = compose(gamma(i, n), gamma(i + 1, n + 1))
                eq(f"gamma-gamma n={n} i={i} j={j}", lhs, rhs)
        for i in range(1, n + 2):
            for j in range(1, n + 2):
                lhs = compose(sigma(j, n), gamma(i, n + 1))
                if j < i:
                    rhs = compose(gamma(i - 1, n), sigma(j, n + 1))
                elif j == i:
                    rhs = compose(sigma(i, n), sigma(i, n + 1))
                else:
                    rhs = compose(gamma(i, n), sigma(j + 1, n + 1))
                eq(f"sigma-gamma n={n} i={i} j={j}", lhs, rhs)
        for i in range(1, n + 3):
            for j in range(1, n + 2):
                for eps in (0, 1):
                    lhs = compose(gamma(j, n + 1), delta(i, eps, n + 1))
                    if j < i - 1:
                        rhs = compose(delta(i - 1, eps, n), gamma(j, n))
                    elif j in (i - 1, i):
                        # both cases collapse onto position j
                        if eps == 0:
                            rhs = compose(delta(j, 0, n), sigma(j, n))
                        else:
                            rhs = identity(n + 1)
                    else:
                        rhs = compose(delta(i, eps, n), gamma(j - 1, n))
                    eq(f"gamma-delta n={n} i={i} j={j} eps={eps}", lhs, rhs)
    return report


def verify_ez(n_max: int = 3) -> Report:
    """Degree behaviour of monos, split epis, epi-mono factorization and
    the unique mediating cosymmetry, exhaustively over objects <= n_max:
    for factorizations (e1, m1), (e2, m2) of an arrow, the th = mediator(e1,
    e2) with th o e1 = e2 and m2 o th = m1, the only one as e1 is split."""
    if n_max < 0:
        raise BadDimension(f"negative dimension bound {n_max}")
    report = Report(f"ez-axioms(objects<={n_max})")
    for m in range(n_max + 1):
        for n in range(n_max + 1):
            homs = enumerate_hom(m, n, SiteTag.QSIGMA)
            flags = {f: classify(f) for f in homs}
            monos = [f for f in homs if flags[f].is_mono]
            report.check(f"monos raise degree, preserve iff iso Hom({m},{n})",
                         all(m <= n and (m == n) == flags[f].is_iso for f in monos),
                         f"{len(monos)} monos")
            epis = [f for f in homs if flags[f].is_epi]
            report.check(f"all epis split Hom({m},{n})",
                         all(ss and all(compose(f, s) == identity(n) for s in ss)
                             for f, ss in zip(epis, map(sections_of, epis))),
                         f"{len(epis)} epis")
            factors = {f: ez_factor(f) for f in homs}
            report.check(f"epi-mono factorization Hom({m},{n})", all(
                compose(mo, e) == f and classify(e).is_epi and classify(mo).is_mono
                for f, (e, mo) in factors.items()))
            # all factorizations of each f, grouped by composite
            found: dict[Morphism, list[tuple[Morphism, Morphism]]] = {}
            for q in range(0, min(m, n) + 1):
                mid_epis = [e for e in enumerate_hom(m, q, SiteTag.QSIGMA)
                            if classify(e).is_epi]
                mid_monos = [mo for mo in enumerate_hom(q, n, SiteTag.QSIGMA)
                             if classify(mo).is_mono]
                pairs = len(mid_epis) * len(mid_monos)
                charge(pairs, f"{pairs} pairs of an epi and a mono through [{q}]")
                for e in mid_epis:
                    for mo in mid_monos:
                        found.setdefault(compose(mo, e), []).append((e, mo))
            pairs = sum(len(fs) ** 2 for fs in found.values())
            charge(pairs, f"{pairs} pairs of factorizations in Hom({m},{n})")
            unique_ok = all(
                factors[f] in found.get(f, [])
                and all((th := mediator(e1, e2)) is not None
                        and compose(th, e1) == e2 and compose(m2, th) == m1
                        for e1, m1 in found[f] for e2, m2 in found[f])
                for f in homs
            )
            report.check(f"unique mediating cosymmetry Hom({m},{n})", unique_ok)
    return report


def verify_split_pushouts(n_max: int = 4) -> Report:
    """Split-pushout witnesses and epi legs for every ordered pair of
    epi generators with common source [n], n <= n_max."""
    if n_max < 0:
        raise BadDimension(f"negative dimension bound {n_max}")
    report = Report(f"split-pushouts(n<={n_max})")
    pairs = n_max * (4 * n_max * n_max - 1) // 3  # (2n-1)^2 summed over n <= n_max
    charge(pairs, f"{pairs} pairs of epi generators with common source [n], n <= {n_max}")
    for n in range(1, n_max + 1):
        epis = [sigma(i, n - 1) for i in range(1, n + 1)]
        epis += [gamma(i, n - 1) for i in range(1, n)]
        for g1, g2 in itertools.product(epis, repeat=2):
            label = f"{g1} vs {g2}"
            po = split_pushout(g1, g2)
            if po.witness is None:
                report.check(label, False, "no witness")
                continue
            w = po.witness
            checks = check_split_witness(
                g1, g2, po.tau2, po.tau1, w.d0, w.d1, w.d2prime
            )
            ok = checks.ok and classify(po.tau1).is_epi and classify(po.tau2).is_epi
            report.check(label, ok, "" if ok else str(checks))
    return report
