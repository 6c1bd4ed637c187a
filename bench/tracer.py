"""Wrapper-based tracing of the ktrans layers, installed from outside the package.

Every public function of each ktrans module is replaced by a timing wrapper on
its defining module and at every name another ktrans module bound to it with
``from .x import f``.  Public methods and arithmetic operators of the classes a
module defines are wrapped on the class.  Nothing under ``src/`` changes.

Each wrapped call is a span (name, start, end, parent).  Self time (duration
minus the time covered by child spans), call counts and inclusive time are
aggregated as the program runs, so they are exact however long the run is; the
raw spans are kept in memory up to ``MAX_SPANS`` and written out by ``dump``.

Not wrapped, so their time counts toward the layer of the calling span: the
tiny protocol methods (``__call__``, ``__eq__``, ``__hash__``, ``__bool__``),
properties, private helpers, and generators, whose bodies run inside their
consumer.  ``SignedPermutation.__init__`` is counted, not timed, and the
tableaux ``enumerate_tableaux`` yields are counted.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from array import array

LAYERS = ("weyl", "rings", "tableaux", "hecke", "groth_a", "kn", "expand", "cli")
MAX_SPANS = 100_000
_ARITH = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
          "__neg__", "__pow__"}


def _is_function(obj) -> bool:
    """A plain function, or one behind ``functools.lru_cache``."""
    return inspect.isfunction(obj) or inspect.isfunction(getattr(obj, "__wrapped__", None))


class MemoCounter(dict):
    """A dict that counts ``get`` lookups, swapped in for ``expand._cache``."""

    hits = 0
    misses = 0

    def get(self, key, default=None):
        value = dict.get(self, key, default)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.group_of: list[int] = []
        self.groups: list[str] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.group_depth: list[int] = []
        self.group_ns: list[int] = []
        self.counts: dict[str, int] = {}
        self.spans = 0
        self.op = -1
        # raw spans, in the order they end; ids count span starts, and
        # parent -1 is the benchmark itself
        self.rec = {k: array("q") for k in ("id", "name", "start", "end", "parent", "op")}
        self._ids: list[int] = []      # open span ids
        self._child: list[int] = []    # child time accumulated per open span
        self._restore: list[tuple[object, str, object]] = []
        self.memo: MemoCounter | None = None
        self.memo_cold: tuple[int, int] | None = None  # (hits, misses) when the cold phase ended
        self.cache_bytes = 0
        self.cache_entries = 0

    # -- registration ------------------------------------------------------

    def _group(self, group: str) -> int:
        if group not in self.groups:
            self.groups.append(group)
            self.group_depth.append(0)
            self.group_ns.append(0)
        return self.groups.index(group)

    def _register(self, name: str, layer: str, group: str | None) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        self.group_of.append(self._group(group or name))
        self.calls.append(0)
        self.self_ns.append(0)
        return len(self.names) - 1

    def span_wrapper(self, fn, name: str, layer: str, group: str | None = None):
        idx = self._register(name, layer, group)
        gi = self.group_of[idx]
        clock = time.perf_counter_ns
        ids, child, rec = self._ids, self._child, self.rec
        calls, self_ns = self.calls, self.self_ns
        gdepth, gns = self.group_depth, self.group_ns
        r_id, r_name, r_start, r_end, r_parent, r_op = (
            rec["id"], rec["name"], rec["start"], rec["end"], rec["parent"], rec["op"])
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer.spans
            tracer.spans = sid + 1
            ids.append(sid)
            child.append(0)
            gdepth[gi] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                dur = end - start
                ids.pop()
                self_ns[idx] += dur - child.pop()
                calls[idx] += 1
                gdepth[gi] -= 1
                if not gdepth[gi]:
                    gns[gi] += dur
                if child:
                    child[-1] += dur
                if sid < MAX_SPANS:
                    r_id.append(sid)
                    r_name.append(idx)
                    r_start.append(start)
                    r_end.append(end)
                    r_parent.append(ids[-1] if ids else -1)
                    r_op.append(tracer.op)

        return wrapper

    def count_wrapper(self, fn, name: str):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def yield_counter(self, fn, name: str):
        """Counts the items a generator yields, under ``name``."""
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item

        return wrapper

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, modules: dict) -> None:
        """Wrap the layers; ``modules`` maps each name in LAYERS to its module."""
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = modules[layer]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj)
                elif _is_function(obj) and obj.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    if name == "tableaux.enumerate_tableaux":
                        new = self.yield_counter(obj, name)
                    elif inspect.isgeneratorfunction(obj):
                        continue
                    else:
                        new = self.span_wrapper(obj, name, layer, _GROUPS.get(name))
                    wrapped[id(obj)] = new
        # rebind at every module that holds the original object
        for layer in LAYERS:
            mod = modules[layer]
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._set(mod, attr, wrapped[id(obj)])
        self._wrap_checks(modules["cli"])
        expand = modules["expand"]
        self.memo = MemoCounter(expand._cache)
        self._set(expand, "_cache", self.memo)
        self._wrap_save(expand)

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr == "__init__" and cls.__name__ == "SignedPermutation":
                self._set(cls, attr, self.count_wrapper(raw, "weyl.SignedPermutation.__init__"))
                continue
            if attr.startswith("_") and attr not in _ARITH:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            group = _GROUPS.get(name) or _GROUPS.get(f"{layer}.{cls.__name__}")
            if isinstance(raw, staticmethod):
                self._set(cls, attr, staticmethod(self.span_wrapper(raw.__func__, name, layer, group)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self.span_wrapper(raw, name, layer, group))

    def _wrap_checks(self, cli) -> None:
        # each verify-suite check is one span, cli.check.<check name>; the
        # seeded pi-braid check reaches its function by module name, so the
        # module attribute carries the same wrapper as the CHECKS entry
        by_id = {}
        for name, fn in cli.CHECKS:
            by_id[id(fn)] = self.span_wrapper(fn, f"cli.check.{name}", "cli")
        self._set(cli, "CHECKS", [(name, by_id[id(fn)]) for name, fn in cli.CHECKS])
        for attr, obj in list(vars(cli).items()):
            if id(obj) in by_id and attr != "CHECKS":
                self._set(cli, attr, by_id[id(obj)])

    def _wrap_save(self, expand) -> None:
        save = expand.save_cache
        tracer = self

        @functools.wraps(save)
        def counted_save(path):
            entries = save(path)
            tracer.cache_entries += entries
            tracer.cache_bytes += os.path.getsize(path)
            return entries

        self._set(expand, "save_cache", counted_save)

    def end_cold_phase(self) -> None:
        """Freeze the memo counts; the warm phase that follows is not counted."""
        self.memo_cold = (self.memo.hits, self.memo.misses)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------------

    def _find(self, name: str) -> int | None:
        try:
            return self.names.index(name)
        except ValueError:
            return None

    def calls_of(self, *names: str) -> int:
        return sum(self.calls[i] for n in names if (i := self._find(n)) is not None)

    def incl_s(self, group: str) -> float:
        if group not in self.groups:
            return 0.0
        return self.group_ns[self.groups.index(group)] / 1e9

    def self_s(self, name: str) -> float:
        i = self._find(name)
        return 0.0 if i is None else self.self_ns[i] / 1e9

    def layer_totals(self) -> dict[str, tuple[float, int]]:
        out = {layer: [0, 0] for layer in LAYERS}
        for i, layer in enumerate(self.layer_of):
            out[layer][0] += self.self_ns[i]
            out[layer][1] += self.calls[i]
        return {layer: (ns / 1e9, n) for layer, (ns, n) in out.items()}

    def dump(self, path: str) -> int:
        """Write the recorded spans as JSON lines; returns how many."""
        rec = self.rec
        n = len(rec["name"])
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names, "spans": self.spans,
                                 "recorded": n,
                                 "columns": ["id", "name", "start_ns", "end_ns",
                                             "parent", "op"]}) + "\n")
            for i in range(n):
                fh.write(f"[{rec['id'][i]},{rec['name'][i]},{rec['start'][i]},{rec['end'][i]},"
                         f"{rec['parent'][i]},{rec['op'][i]}]\n")
        return n


# Spans that one metric reports together; time is counted once at the
# outermost span of the group, so nested members are not double counted.
_GROUPS = {
    "tableaux.gp": "tableaux.gf",
    "tableaux.gq": "tableaux.gf",
    "rings.TruncPoly.__mul__": "rings.poly_mul",
    "rings.TruncPoly.__rmul__": "rings.poly_mul",
    "rings.TruncPoly.__add__": "rings.poly_add",
    "rings.TruncPoly.__radd__": "rings.poly_add",
    "rings.YRational": "rings.yrational",
    "groth_a.groth_poly": "groth_a.groth",
    "groth_a.groth_single": "groth_a.groth",
}


def layer_metrics(tr: Tracer, check_names: list[str]) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, by name, with their units."""
    hits, misses = tr.memo_cold or (tr.memo.hits, tr.memo.misses)
    lookups = hits + misses
    m: dict[str, tuple[float, str]] = {
        "weyl.perm_builds": (tr.counts.get("weyl.SignedPermutation.__init__", 0), "count"),
        "weyl.mul_calls": (tr.calls_of("weyl.SignedPermutation.__mul__"), "count"),
        "weyl.mul_s": (tr.incl_s("weyl.SignedPermutation.__mul__"), "s"),
        "weyl.length_calls": (tr.calls_of("weyl.length"), "count"),
        "weyl.length_s": (tr.incl_s("weyl.length"), "s"),
        "weyl.descents_calls": (tr.calls_of("weyl.SignedPermutation.descents"), "count"),
        "weyl.descents_s": (tr.incl_s("weyl.SignedPermutation.descents"), "s"),
        "weyl.length_increment_ok_calls": (tr.calls_of("weyl.length_increment_ok"), "count"),
        "weyl.demazure_apply_calls": (tr.calls_of("weyl.demazure_apply"), "count"),
        "weyl.demazure_apply_s": (tr.incl_s("weyl.demazure_apply"), "s"),
        "expand.transition_steps": (tr.calls_of("expand.transition_step"), "count"),
        "expand.transition_step_s": (tr.incl_s("expand.transition_step"), "s"),
        "expand.worklist_s": (tr.self_s("expand.expand_grassmannian"), "s"),
        "expand.memo_hits": (hits, "count"),
        "expand.memo_misses": (misses, "count"),
        "expand.memo_hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
        "expand.cache_save_s": (tr.incl_s("expand.save_cache"), "s"),
        "expand.cache_load_s": (tr.incl_s("expand.load_cache"), "s"),
        "expand.cache_bytes": (tr.cache_bytes, "bytes"),
        "expand.cache_entries": (tr.cache_entries, "count"),
        "expand.recombine_s": (tr.incl_s("expand.expansion_poly"), "s"),
        "hecke.fstanley_calls": (tr.calls_of("hecke.fstanley"), "count"),
        "hecke.fstanley_s": (tr.incl_s("hecke.fstanley"), "s"),
        "hecke.quasi_s": (tr.incl_s("hecke.quasi"), "s"),
        "tableaux.gf_calls": (tr.calls_of("tableaux.gp", "tableaux.gq"), "count"),
        "tableaux.gf_s": (tr.incl_s("tableaux.gf"), "s"),
        "tableaux.tableaux_enumerated": (tr.counts.get("tableaux.enumerate_tableaux", 0), "count"),
        "rings.poly_mul_calls": (tr.calls_of("rings.TruncPoly.__mul__", "rings.TruncPoly.__rmul__"), "count"),
        "rings.poly_mul_s": (tr.incl_s("rings.poly_mul"), "s"),
        "rings.poly_add_s": (tr.incl_s("rings.poly_add"), "s"),
        "rings.yrational_s": (tr.incl_s("rings.yrational"), "s"),
        "kn.kn_eval_calls": (tr.calls_of("kn.kn_eval"), "count"),
        "kn.kn_eval_s": (tr.incl_s("kn.kn_eval"), "s"),
        "kn.apply_R_s": (tr.incl_s("kn.apply_R_bcd"), "s"),
        "kn.apply_M_s": (tr.incl_s("kn.apply_M_bcd"), "s"),
        "groth_a.groth_s": (tr.incl_s("groth_a.groth"), "s"),
    }
    for name in check_names:
        m[f"cli.check_s.{name}"] = (tr.incl_s(f"cli.check.{name}"), "s")
    for layer, (self_s, calls) in tr.layer_totals().items():
        m[f"{layer}.self_s"] = (self_s, "s")
        m[f"{layer}.calls"] = (calls, "count")
    m["trace.spans"] = (tr.spans, "count")
    return m
