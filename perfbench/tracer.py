"""Spans around the public entry points of each symcube layer.

The library binds its helpers with ``from .site import compose``, so a
function is patched at every module attribute that holds it, not only
in the module that defines it.  Methods are patched on their class.

Spans live in memory as parallel integer columns (name, parent, start,
end, work) plus a small payload table for spans that report more than
one count.  ``save`` writes them out; ``summarize`` turns a saved trace
into per-layer counts and self times, where a span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from pathlib import Path

LAYERS = ("site", "presheaf", "monoidal", "realize", "homotopy", "cli")
HOMOTOPY_ROOTS = (
    "homotopy.solve_lifting",
    "homotopy.is_fibrant",
    "homotopy.find_homotopy",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.work = array("q")
        self.payload: dict[int, dict] = {}
        self.stack = [-1]

    def wrap(self, span: str, fn, count=None):
        """fn recording one span per call; count(args, result) gives the
        span's work count, or a dict of counts kept as its payload."""
        nid = self.name_ids.setdefault(span, len(self.names))
        if nid == len(self.names):
            self.names.append(span)
        names, parents, starts, ends, works = (
            self.name, self.parent, self.start, self.end, self.work
        )
        stack, payload = self.stack, self.payload
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            works.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                n = count(args, result)
                if isinstance(n, dict):
                    payload[idx] = n
                else:
                    works[idx] = n
            return result

        traced.__wrapped__ = fn
        return traced

    def save(self, path: Path):
        header = {
            "names": self.names,
            "spans": len(self.name),
            "payload": {str(k): v for k, v in self.payload.items()},
        }
        path.with_suffix(".json").write_text(json.dumps(header))
        with open(path.with_suffix(".bin"), "wb") as fh:
            for column in (self.name, self.parent, self.start, self.end, self.work):
                column.tofile(fh)


# -- what each span counts -----------------------------------------------------


def _sections(X) -> int:
    return sum(len(ids) for ids in X.levels.values())


def _count_realize(args, S):
    X = args[0]
    K = len(S.levels) - 1
    pairs = sum(
        len(X.levels[n]) * (k + 2) ** n
        for k in range(K + 1)
        for n in range(X.N + 1)
    )
    return {"pairs": pairs, "simplices": sum(len(v) for v in S.levels.values())}


def _count_chains(args, C):
    entries, side = 0, 0
    for M in C.boundaries.values():
        entries += sum(len(row) - row.count(0) for row in M)
        side = max(side, len(M), len(M[0]) if M else 0)
    return {
        "entries": entries,
        "max_dim": side,
        "nondegenerate": sum(len(b) for b in C.bases.values()),
    }


def _count_coend(args, result):
    return {"index_tuples": len(result.class_of), "classes": len(result.reps)}


def install(tracer: Tracer):
    """Patch every traced entry point in the loaded symcube modules."""
    site, presheaf, monoidal, realize, homotopy, cli = (
        importlib.import_module(f"symcube.{layer}") for layer in LAYERS
    )
    modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "symcube"]

    def everywhere(span, owner, attr, count=None):
        original = getattr(owner, attr)
        wrapped = tracer.wrap(span, original, count)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)

    def method(span, cls, attr, count=None):
        setattr(cls, attr, tracer.wrap(span, cls.__dict__[attr], count))

    everywhere("site.compose", site, "compose")
    everywhere("site.enumerate_hom", site, "enumerate_hom", lambda a, r: len(r))
    everywhere("site.parse_morphism", site, "parse_morphism")
    everywhere("site.factor", site, "factor")
    everywhere("site.tensor", site, "tensor")
    SP = presheaf.SkeletalPresheaf
    method("presheaf.init", SP, "__init__")
    method("presheaf.act", SP, "act")
    method("presheaf.ez_decompose", SP, "ez_decompose")
    for cls in (SP, presheaf.TruncatedPresheaf):
        method("presheaf.extend_to", cls, "extend_to", lambda a, r: _sections(r))
    everywhere("presheaf.hom_presheaf", presheaf, "hom_presheaf", lambda a, r: len(r))
    everywhere("presheaf.loads", presheaf, "loads_presheaf", lambda a, r: len(a[0]))
    everywhere("monoidal.convolve", monoidal, "convolve", _count_coend)
    everywhere("monoidal.symmetrize", monoidal, "symmetrize_structure", _count_coend)
    everywhere("realize.realize", realize, "realize", _count_realize)
    everywhere("realize.chains", realize, "normalized_chains", _count_chains)
    everywhere("realize.snf", realize, "smith_normal_form")
    everywhere(
        "homotopy.solve_lifting", homotopy, "solve_lifting",
        lambda a, r: int(r is not None),
    )
    everywhere(
        "homotopy.is_fibrant", homotopy, "is_fibrant",
        lambda a, r: len(r.entries) - len(r.failures),
    )
    everywhere(
        "homotopy.find_homotopy", homotopy, "find_homotopy",
        lambda a, r: int(r is not None),
    )
    everywhere("cli.run", cli, "run")


# -- reading a saved trace -----------------------------------------------------


def load(path: Path):
    header = json.loads(path.with_suffix(".json").read_text())
    n = header["spans"]
    columns = [array("i"), array("i"), array("q"), array("q"), array("q")]
    with open(path.with_suffix(".bin"), "rb") as fh:
        for column in columns:
            column.fromfile(fh, n)
    payload = {int(k): v for k, v in header["payload"].items()}
    return header["names"], columns, payload


def summarize(path: Path) -> dict:
    """Per-layer metrics of one saved trace, named as in BENCHMARK.json."""
    names, (name, parent, start, end, work), payload = load(path)
    n = len(name)
    dur = [end[i] - start[i] for i in range(n)]
    self_ns = dur[:]
    for i in range(n):
        p = parent[i]
        if p >= 0:
            self_ns[p] -= dur[i]
    calls = {s: 0 for s in names}
    selfs = {s: 0 for s in names}
    works = {s: 0 for s in names}
    extra: dict[str, dict] = {}
    for i in range(n):
        s = names[name[i]]
        calls[s] += 1
        selfs[s] += self_ns[i]
        works[s] += work[i]
        for key, v in payload.get(i, {}).items():
            bucket = extra.setdefault(s, {})
            bucket[key] = bucket.get(key, 0) + v

    # presheaf maps enumerated beneath a homotopy-layer span
    roots = {names.index(s) for s in HOMOTOPY_ROOTS}
    hom_id = names.index("presheaf.hom_presheaf")
    under = 0
    for i in range(n):
        if name[i] != hom_id:
            continue
        p = parent[i]
        while p >= 0 and name[p] not in roots:
            p = parent[p]
        if p >= 0:
            under += work[i]

    def ex(s, key):
        return extra.get(s, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    total_ns = sum(dur[i] for i in range(n) if names[name[i]] == "cli.run")
    m = {}
    for s in names:
        if s != "cli.run":
            m[f"{s}.calls"] = calls[s]
            m[f"{s}.self_s"] = selfs[s] / 1e9
    m["site.enumerate_hom.arrows"] = works["site.enumerate_hom"]
    m["presheaf.extend_to.sections"] = works["presheaf.extend_to"]
    m["presheaf.hom_presheaf.maps"] = works["presheaf.hom_presheaf"]
    m["presheaf.loads.bytes"] = works["presheaf.loads"]
    for s in ("monoidal.convolve", "monoidal.symmetrize"):
        m[f"{s}.index_tuples"] = ex(s, "index_tuples")
        m[f"{s}.classes"] = ex(s, "classes")
    m["monoidal.convolve.class_ratio"] = ratio(
        ex("monoidal.convolve", "classes"), ex("monoidal.convolve", "index_tuples")
    )
    m["realize.realize.pairs"] = ex("realize.realize", "pairs")
    m["realize.realize.simplices"] = ex("realize.realize", "simplices")
    m["realize.realize.nondegenerate"] = ex("realize.chains", "nondegenerate")
    m["realize.realize.useful_ratio"] = ratio(
        ex("realize.chains", "nondegenerate"), ex("realize.realize", "pairs")
    )
    m["realize.chains.entries"] = ex("realize.chains", "entries")
    m["realize.chains.max_dim"] = ex("realize.chains", "max_dim")
    m["homotopy.solve_lifting.fillers"] = works["homotopy.solve_lifting"]
    m["homotopy.find_homotopy.found"] = works["homotopy.find_homotopy"]
    answers = sum(works[s] for s in HOMOTOPY_ROOTS)
    m["homotopy.useful_ratio"] = ratio(answers, under)
    m["cli.queries"] = calls["cli.run"]
    m["cli.self_s"] = selfs["cli.run"] / 1e9
    for layer in LAYERS:
        layer_ns = sum(v for s, v in selfs.items() if s.split(".")[0] == layer)
        m[f"{layer}.share"] = ratio(layer_ns, total_ns)
    m["realize.realize.share"] = ratio(selfs["realize.realize"], total_ns)
    m["realize.chains_snf.share"] = ratio(
        selfs["realize.chains"] + selfs["realize.snf"], total_ns
    )
    m["trace.spans"] = n
    m["trace.cold_s"] = total_ns / 1e9
    return m
