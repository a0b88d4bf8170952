"""Seeded cubical grids for the homology_grid workload.

Each grid is a finite set of squares glued edge to edge.  It is built
only from public constructors: the squares are representables, their
disjoint union is a coproduct, and all the edge identifications are one
coequalizer, taken as the pushout of the pair map along the fold.  The
seed permutes the order of the squares in the coproduct, which renames
section ids and permutes the rows and columns of the boundary matrices
without changing the space.
"""

from __future__ import annotations

import random

from symcube import (
    PresheafMap,
    SiteTag,
    compose,
    constant,
    delta,
    parse_morphism,
    pushout,
    representable,
    terminal_map,
)
from symcube.presheaf import coproduct

# the edges of a square as faces [1] -> [2]
LEFT, RIGHT = delta(1, 0, 1), delta(1, 1, 1)
BOTTOM, TOP = delta(2, 0, 1), delta(2, 1, 1)


def _postcompose(A, B, h) -> PresheafMap:
    """The map of representables A -> B given by composing with h."""
    return PresheafMap(
        A,
        B,
        {
            n: {s: str(compose(h, parse_morphism(s))) for s in A.level(n)}
            for n in range(A.N + 1)
        },
    )


class _Squares:
    """A coproduct of squares in a seeded order, with the maps from the
    interval onto their edges and corners."""

    def __init__(self, cells, site, rng):
        order = list(cells)
        rng.shuffle(order)
        self.square = representable(2, site)
        self.interval = representable(1, site, up_to=2)
        self.Y, injections = coproduct([self.square] * len(order))
        self.inj = dict(zip(order, injections))
        self._collapse = terminal_map(self.interval)

    def edge(self, cell, face) -> PresheafMap:
        return _postcompose(self.interval, self.square, face).then(
            self.inj[cell]
        )

    def collapsed(self, cell, face) -> PresheafMap:
        """The degenerate edge at the start vertex of an edge."""
        start = compose(face, constant([0], 0))
        vertex = _postcompose(self._collapse.dst, self.square, start)
        return self._collapse.then(vertex).then(self.inj[cell])

    def coequalize(self, pairs):
        """Identify f with g for every pair of maps interval -> squares."""
        m = len(pairs)
        E = coproduct([self.interval] * m)[0]
        E2 = coproduct([self.interval] * (2 * m))[0]
        N = self.Y.N
        both = [f for f, _ in pairs] + [g for _, g in pairs]
        to_Y = {n: {} for n in range(N + 1)}
        fold = {n: {} for n in range(N + 1)}
        for r, u in enumerate(both):
            for n in range(N + 1):
                for s, v in u.mapping[n].items():
                    to_Y[n][f"{r}:{s}"] = v
                    fold[n][f"{r}:{s}"] = f"{r % m}:{s}"
        return pushout(PresheafMap(E2, self.Y, to_Y), PresheafMap(E2, E, fold))[0]


def torus(a: int, b: int, rng: random.Random):
    """The a x b square grid with opposite sides identified."""
    sq = _Squares([(i, j) for i in range(a) for j in range(b)], SiteTag.QSIGMA, rng)
    pairs = []
    for i in range(a):
        for j in range(b):
            pairs.append((sq.edge((i, j), RIGHT), sq.edge(((i + 1) % a, j), LEFT)))
            pairs.append((sq.edge((i, j), TOP), sq.edge((i, (j + 1) % b), BOTTOM)))
    return sq.coequalize(pairs)


def moore(a: int, b: int, d: int, rng: random.Random):
    """M(Z/d, 1): the a x b grid as a disk whose first d bottom edges are
    glued to one loop edge and whose other boundary edges collapse to
    the base point, so the boundary reads the loop d times."""
    if not 1 <= d <= a:
        raise ValueError(f"need 1 <= d <= a, got d={d}, a={a}")
    sq = _Squares([(i, j) for i in range(a) for j in range(b)], SiteTag.Q, rng)
    pairs = []
    for i in range(a):
        for j in range(b):
            if i + 1 < a:
                pairs.append((sq.edge((i, j), RIGHT), sq.edge((i + 1, j), LEFT)))
            if j + 1 < b:
                pairs.append((sq.edge((i, j), TOP), sq.edge((i, j + 1), BOTTOM)))
    loop = sq.edge((0, 0), BOTTOM)
    for i in range(1, d):
        pairs.append((sq.edge((i, 0), BOTTOM), loop))
    rim = [((i, 0), BOTTOM) for i in range(d, a)]
    rim += [((i, b - 1), TOP) for i in range(a)]
    rim += [((0, j), LEFT) for j in range(b)]
    rim += [((a - 1, j), RIGHT) for j in range(b)]
    for cell, face in rim:
        pairs.append((sq.edge(cell, face), sq.collapsed(cell, face)))
    return sq.coequalize(pairs)
