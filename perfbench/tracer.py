"""Span tracer that times zerosum's public functions from outside the package.

``Tracer.install()`` replaces each traced function in every ``zerosum.*``
module namespace that binds it (and each traced method on its class) with a
wrapper that appends one span to an in-memory list: id, parent id, name,
start, end and a small ``info`` value read from the result (a node count, a
hit flag, ...).  ``uninstall()`` restores the originals, so that the
benchmark's own checks after a pass are not traced.  Nothing inside ``src/``
is edited; spans inside the program are a later change.

Spans opened in forked pool workers (``jobs > 1``) stay in the worker's
memory and are not collected.  The parent's span around the fanned-out call
covers the wait, and the node counts come back in the returned SearchStats.

``summarize`` turns one process's spans into additive sums; ``finish``
turns merged sums into the per-layer metrics.  Self time of a span is its
duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import gzip
import json
import os
import sys
import time
from collections import defaultdict

# Lazily built Group tables: method name -> the slot that caches it.  A call
# is traced only when the slot is still empty, i.e. when it builds the table.
_TABLES = {
    "elements": "_elements",
    "automorphisms": "_aut",
    "perm_table": "_perm",
    "add_index_table": "_add_idx",
    "neg_index_table": "_neg_idx",
}


def _first_len(args, kwargs, res):
    return len(args[0])


def _truthy(args, kwargs, res):
    return 1 if res else 0


def _stats(args, kwargs, res):
    stats = res[1]
    return [stats.nodes, stats.leaves]


def _cases(args, kwargs, res):
    return sum(v["cases"] for v in res.details["items"].values())


def _scanned(args, kwargs, res):
    return res.orbits_scanned


def _item2(args, kwargs, res):
    return [res.orbits_scanned, res.details["hit_count"]]


def _in_family(args, kwargs, res):
    return 0 if res.tag == "not_in_upsilon" else 1


def _stored_bytes(args, kwargs, res):
    cache, key = args[0], args[1]
    return os.path.getsize(cache._path(key))


# (span name, module, owner class or None, attribute, info hook)
FUNCTIONS = [
    ("groups.max_order_elements", "zerosum.groups", "Group", "max_order_elements", None),
    ("sequences.apply_hom", "zerosum.sequences", "Sequence", "apply_hom", None),
    ("sequences.decode", "zerosum.sequences", "Sequence", "from_json_obj", None),
    ("sequences.encode", "zerosum.sequences", "Sequence", "to_json_obj", None),
    ("subsums.restricted_sums", "zerosum.subsums", None, "restricted_sums", _first_len),
    ("subsums.subsequence_sums", "zerosum.subsums", None, "subsequence_sums", _first_len),
    ("subsums.is_zero_sum_free", "zerosum.subsums", None, "is_zero_sum_free", _first_len),
    ("subsums.is_minimal_zero_sum", "zerosum.subsums", None, "is_minimal_zero_sum", _first_len),
    ("subsums.find_zero_sum_subsequence", "zerosum.subsums", None,
     "find_zero_sum_subsequence", _first_len),
    ("enumeration.enumerate_sequences", "zerosum.enumeration", None, "enumerate_sequences",
     _stats),
    ("enumeration.max_length_with", "zerosum.enumeration", None, "max_length_with", _stats),
    ("enumeration.davenport", "zerosum.enumeration", None, "davenport", None),
    ("enumeration.s_leq", "zerosum.enumeration", None, "s_leq", None),
    ("cache.load", "zerosum.enumeration", "ResultCache", "load", _truthy),
    ("cache.store", "zerosum.enumeration", "ResultCache", "store", _stored_bytes),
    ("properties.matches_eq1", "zerosum.properties", None, "matches_eq1", _truthy),
    ("properties.property_a_witnesses", "zerosum.properties", None,
     "property_a_witnesses", None),
    ("properties.verify_property_b", "zerosum.properties", None, "verify_property_b", None),
    ("properties.verify_property_c", "zerosum.properties", None, "verify_property_c", None),
    ("classification.classify_long_zero_sum", "zerosum.classification", None,
     "classify_long_zero_sum", None),
    ("classification.construct_exceptional", "zerosum.classification", None,
     "construct_exceptional", None),
    ("classification.verify_casen", "zerosum.classification", None, "verify_casen", None),
    ("perturbation.verify_perturbation", "zerosum.perturbation", None,
     "verify_perturbation", _cases),
    ("perturbation.upsilon_class", "zerosum.perturbation", None, "upsilon_class",
     _in_family),
    ("lifting.verify_propbfix_item1", "zerosum.lifting", None, "verify_propbfix_item1",
     _scanned),
    ("lifting.verify_propbfix_item2", "zerosum.lifting", None, "verify_propbfix_item2",
     _item2),
    ("lifting.image_in_coords", "zerosum.lifting", "Homomorphism", "image_in_coords", None),
]
# generator functions: the span runs from the call to exhaustion; info is
# the number of items yielded
GENERATORS = [
    ("decomposition.block_decompositions", "zerosum.decomposition", None,
     "block_decompositions"),
]


class Tracer:
    def __init__(self):
        # span: [id, parent, name, start, end, info]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [len(self.spans), self._stack[-1] if self._stack else -1, name, 0.0, 0.0, None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        rec[3] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[4] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, hook):
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                res = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if hook is not None:
                rec[5] = hook(args, kwargs, res)
            return res

        traced.__wrapped__ = fn
        return traced

    def _wrap_gen(self, name, fn):
        def traced(*args, **kwargs):
            rec = self._open(name)
            found = 0
            try:
                for item in fn(*args, **kwargs):
                    found += 1
                    yield item
            finally:
                self._close(rec)
                rec[5] = found

        traced.__wrapped__ = fn
        return traced

    def _wrap_table(self, method, slot):
        def traced(grp):
            if getattr(grp, slot) is not None:
                return method(grp)
            rec = self._open("groups.table")
            try:
                res = method(grp)
            finally:
                self._close(rec)
            nbytes = res.shape[0] * grp.size * 2 if slot == "_perm" else 0
            rec[5] = [method.__name__, grp.n, nbytes]
            return res

        traced.__wrapped__ = method
        return traced

    # -- installing ----------------------------------------------------------

    def _set(self, holder, attr, value) -> None:
        raw = holder.__dict__[attr] if isinstance(holder, type) else getattr(holder, attr)
        self._undo.append((holder, attr, raw))
        setattr(holder, attr, value)

    def _patch(self, modname, owner, attr, make) -> None:
        module = sys.modules[modname]
        if owner is not None:
            cls = getattr(module, owner)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(make(raw.__func__)))
            else:
                self._set(cls, attr, make(raw))
            return
        orig = getattr(module, attr)
        wrapped = make(orig)
        # every zerosum namespace that imported the function by name
        for name, mod in list(sys.modules.items()):
            if mod is None or not name.startswith("zerosum"):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, key, wrapped)

    def install(self) -> "Tracer":
        """Wrap every traced function; zerosum must already be imported."""
        for name, modname, owner, attr, hook in FUNCTIONS:
            self._patch(modname, owner, attr, lambda fn, n=name, h=hook: self._wrap(n, fn, h))
        for name, modname, owner, attr in GENERATORS:
            self._patch(modname, owner, attr, lambda fn, n=name: self._wrap_gen(n, fn))
        group_cls = sys.modules["zerosum.groups"].Group
        for method, slot in _TABLES.items():
            self._set(group_cls, method, self._wrap_table(group_cls.__dict__[method], slot))
        return self

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, raw = self._undo.pop()
            setattr(holder, attr, raw)


def write_spans(path: str, runs: list[tuple[str, list[list]]]) -> None:
    """Write spans as gzipped JSON lines: run id, id, parent, name, start,
    end, info."""
    with gzip.open(path, "wt") as fh:
        for run_id, spans in runs:
            for s in spans:
                fh.write(json.dumps([run_id, *s]) + "\n")


# ---------------------------------------------------------------------------
# spans -> per-layer metrics

SUM_KEYS = (
    "tables_s perm_bytes moe_calls moe_s apply_calls apply_s decode_calls decode_s "
    "encode_calls encode_s sub_calls sub_self_s sub_terms enum_self_s nodes leaves "
    "hits misses load_s store_s stored_bytes eq1_calls eq1_s eq1_hits pa_calls pa_s "
    "classify_calls classify_s construct_calls construct_s cases pert_s ups_calls "
    "ups_s ups_in samples item1_s image_calls image_s item2_cands item2_hits "
    "dec_calls dec_s dec_found spans"
).split()

# span name -> (calls key, seconds key); the seconds are inclusive
_INCLUSIVE = {
    "groups.max_order_elements": ("moe_calls", "moe_s"),
    "sequences.apply_hom": ("apply_calls", "apply_s"),
    "sequences.decode": ("decode_calls", "decode_s"),
    "sequences.encode": ("encode_calls", "encode_s"),
    "cache.load": (None, "load_s"),
    "cache.store": (None, "store_s"),
    "properties.matches_eq1": ("eq1_calls", "eq1_s"),
    "properties.property_a_witnesses": ("pa_calls", "pa_s"),
    "classification.classify_long_zero_sum": ("classify_calls", "classify_s"),
    "classification.construct_exceptional": ("construct_calls", "construct_s"),
    "perturbation.verify_perturbation": (None, "pert_s"),
    "perturbation.upsilon_class": ("ups_calls", "ups_s"),
    "lifting.verify_propbfix_item1": (None, "item1_s"),
    "lifting.image_in_coords": ("image_calls", "image_s"),
    "decomposition.block_decompositions": ("dec_calls", "dec_s"),
}


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans: list[list]) -> dict:
    """Additive sums over the spans of one process."""
    out = dict.fromkeys(SUM_KEYS, 0)
    out["spans"] = len(spans)
    by_id = {s[0]: s for s in spans}
    child_s = defaultdict(float)
    hit_parents = set()
    for sid, parent, name, t0, t1, info in spans:
        if parent >= 0:
            child_s[parent] += t1 - t0
            if name == "cache.load" and info:
                hit_parents.add(parent)
    for sid, parent, name, t0, t1, info in spans:
        dur = t1 - t0
        layer = _layer(name)
        pair = _INCLUSIVE.get(name)
        if pair is not None:
            calls, secs = pair
            if calls:
                out[calls] += 1
            out[secs] += dur
        if name == "groups.table":
            # perm_table builds automorphisms() and elements() inside its span
            out["tables_s"] += dur - child_s[sid]
            out["perm_bytes"] += info[2]
        elif layer == "subsums":
            out["sub_self_s"] += dur - child_s[sid]
            if parent < 0 or _layer(by_id[parent][2]) != "subsums":
                out["sub_calls"] += 1
                out["sub_terms"] += info
        elif layer == "enumeration":
            out["enum_self_s"] += dur - child_s[sid]
            if name == "enumeration.max_length_with" or (
                name == "enumeration.enumerate_sequences" and sid not in hit_parents
            ):
                out["nodes"] += info[0]
                out["leaves"] += info[1]
        elif name == "cache.load":
            out["hits" if info else "misses"] += 1
        elif name == "cache.store":
            out["stored_bytes"] += info
        elif name == "properties.matches_eq1":
            out["eq1_hits"] += info
        elif name == "perturbation.verify_perturbation":
            out["cases"] += info
        elif name == "perturbation.upsilon_class":
            out["ups_in"] += info
        elif name == "lifting.verify_propbfix_item1":
            out["samples"] += info
        elif name == "lifting.verify_propbfix_item2":
            out["item2_cands"] += info[0]
            out["item2_hits"] += info[1]
        elif name == "decomposition.block_decompositions":
            out["dec_found"] += info
    return out


def merge(sums: list[dict]) -> dict:
    out = dict.fromkeys(SUM_KEYS, 0)
    for s in sums:
        for k in SUM_KEYS:
            out[k] += s[k]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def finish(s: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass from its merged sums."""
    return {
        "groups.tables_s": s["tables_s"],
        "groups.perm_bytes": s["perm_bytes"],
        "groups.max_order_elements_calls": s["moe_calls"],
        "groups.max_order_elements_s": s["moe_s"],
        "sequences.apply_hom_calls": s["apply_calls"],
        "sequences.apply_hom_s": s["apply_s"],
        "sequences.decode_calls": s["decode_calls"],
        "sequences.decode_s": s["decode_s"],
        "sequences.encode_calls": s["encode_calls"],
        "sequences.encode_s": s["encode_s"],
        "subsums.calls": s["sub_calls"],
        "subsums.s": s["sub_self_s"],
        "subsums.terms": s["sub_terms"],
        "subsums.terms_per_s": _ratio(s["sub_terms"], s["sub_self_s"]),
        "enumeration.search_s": s["enum_self_s"],
        "enumeration.nodes": s["nodes"],
        "enumeration.leaves": s["leaves"],
        "enumeration.nodes_per_s": _ratio(s["nodes"], s["enum_self_s"]),
        "enumeration.leaf_ratio": _ratio(s["leaves"], s["nodes"]),
        "enumeration.cache_hits": s["hits"],
        "enumeration.cache_misses": s["misses"],
        "enumeration.cache_load_s": s["load_s"],
        "enumeration.cache_store_s": s["store_s"],
        "enumeration.cache_bytes": s["stored_bytes"],
        "properties.matches_eq1_calls": s["eq1_calls"],
        "properties.matches_eq1_s": s["eq1_s"],
        "properties.matches_eq1_hit_ratio": _ratio(s["eq1_hits"], s["eq1_calls"]),
        "properties.property_a_calls": s["pa_calls"],
        "properties.property_a_s": s["pa_s"],
        "classification.classify_calls": s["classify_calls"],
        "classification.classify_s": s["classify_s"],
        "classification.construct_calls": s["construct_calls"],
        "classification.construct_s": s["construct_s"],
        "perturbation.cases": s["cases"],
        "perturbation.cases_per_s": _ratio(s["cases"], s["pert_s"]),
        "perturbation.upsilon_calls": s["ups_calls"],
        "perturbation.upsilon_s": s["ups_s"],
        "perturbation.in_family_ratio": _ratio(s["ups_in"], s["ups_calls"]),
        "lifting.samples": s["samples"],
        "lifting.samples_per_s": _ratio(s["samples"], s["item1_s"]),
        "lifting.image_calls": s["image_calls"],
        "lifting.image_s": s["image_s"],
        "lifting.item2_candidates": s["item2_cands"],
        "lifting.item2_hit_ratio": _ratio(s["item2_hits"], s["item2_cands"]),
        "decomposition.calls": s["dec_calls"],
        "decomposition.s": s["dec_s"],
        "decomposition.found": s["dec_found"],
        "trace.spans": s["spans"],
    }
