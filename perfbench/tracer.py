"""Spans around titscomplex library functions, installed from outside the library.

`Tracer.install()` replaces each function in TRACED by a wrapper that
records (name, parent span, start, end, count) in memory.  The modules bind
functions by name (`from .linalg import span_if_free`), so the wrapper is set
at every module attribute of the package that holds the original, not only
in the defining module.  Methods are wrapped on their class.

Only the functions below are wrapped; time spent in unwrapped helpers (for
example `_extend_span`, `Mat.is_invertible`) counts to the self time of the
nearest wrapped caller.  Small helpers called millions of times (`vadd`,
`check_budget`) are left out on purpose, because wrapping them would cost
more than the work they do.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time


def _grassmannian(args, res):
    return (id(args[0]), args[1], len(res))


def _complex(args, res):
    return (
        sum(res.f_vector),
        res.f_vector[-1] if res.f_vector else 0,
        sum(len(v.members) for v in res.vertices),
        res.included_not_cofree,
    )


def _nnz(args, res):
    return sum(len(col) for b in res.boundaries for col in b.cols)


# (layer, attribute path in titscomplex.<layer>, count hook on (args, result))
TRACED = [
    ("rings", "make_ring", None),
    ("rings", "parse_ring_spec", None),
    ("linalg", "span_if_free", None),
    ("linalg", "quotient_free_rank_members", None),
    ("grassmann", "SummandCatalog.grassmannian", _grassmannian),
    ("grassmann", "grassmannian_size_formula", None),
    ("complexes", "build_filtration", _complex),
    ("complexes", "build_tits_complex", None),
    ("homology", "chain_complex", _nnz),
    ("homology", "reduced_homology", None),
    ("homology", "smith_rank_and_divisors", lambda args, res: res[0]),
    ("homology", "IntEchelon.add", lambda args, res: bool(res)),
    ("steinberg", "apartment_span_rank", lambda args, res: (res.rank, res.apartments_used)),
    ("steinberg", "apartment_class", None),
    ("cli", "main", None),
]

LAYERS = ("rings", "linalg", "grassmann", "complexes", "homology", "steinberg", "cli")


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # span: [name, parent index or -1, start, end, count-hook value]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name, fn, hook):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if hook is not None:
                rec[4] = hook(args, res)
            return res

        return wrapper

    def install(self):
        originals = {}
        for layer in LAYERS:
            importlib.import_module(f"titscomplex.{layer}")
        for layer, path, hook in TRACED:
            mod = sys.modules[f"titscomplex.{layer}"]
            name = f"{layer}.{path}"
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self._wrap(name, cls.__dict__[meth], hook))
            else:
                fn = getattr(mod, path)
                originals[id(fn)] = (fn, self._wrap(name, fn, hook))
        for modname, mod in list(sys.modules.items()):
            if modname != "titscomplex" and not modname.startswith("titscomplex."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])

    def summary(self) -> dict:
        """Raw per-layer times (seconds), counts, and layer self times under cli.main."""
        spans = self.spans
        child_sum = [0.0] * len(spans)
        root = [0] * len(spans)
        for i, (_, parent, t0, t1, _) in enumerate(spans):
            if parent >= 0:
                child_sum[parent] += t1 - t0
                root[i] = root[parent]
            else:
                root[i] = i
        times: dict[str, float] = {}
        counts: dict[str, int] = {}
        layers = {layer: 0.0 for layer in LAYERS}

        def add(table, key, value):
            table[key] = table.get(key, 0) + value

        smith_seen: dict[int, int] = {}
        grass_seen = set()
        wall = 0.0
        for i, (name, parent, t0, t1, info) in enumerate(spans):
            dur = t1 - t0
            self_t = dur - child_sum[i]
            if spans[root[i]][0] == "cli.main":
                layers[name.split(".")[0]] += self_t
            if name == "cli.main":
                wall += dur
                add(times, "cli.self_s", self_t)
            elif name == "rings.make_ring":
                add(times, "rings.make_ring_s", dur)
            elif name == "linalg.span_if_free":
                add(times, "linalg.span_if_free_s", dur)
                add(counts, "linalg.span_if_free_calls", 1)
            elif name == "linalg.quotient_free_rank_members":
                add(times, "linalg.quotient_free_rank_s", dur)
                add(counts, "linalg.quotient_free_rank_calls", 1)
            elif name == "grassmann.SummandCatalog.grassmannian":
                add(times, "grassmann.grassmannian_s", self_t)
                if info[:2] not in grass_seen:
                    grass_seen.add(info[:2])
                    add(counts, "grassmann.summands", info[2])
            elif name == "complexes.build_filtration":
                add(times, "complexes.build_s", self_t)
                for key, value in zip(
                    ("simplices", "facets", "member_vectors", "included_not_cofree"), info
                ):
                    add(counts, f"complexes.{key}", value)
            elif name == "homology.chain_complex":
                add(times, "homology.chain_complex_s", dur)
                add(counts, "homology.nnz", info)
            elif name == "homology.smith_rank_and_divisors":
                # reduced_homology reduces boundaries[0], [1], ... in order
                d = smith_seen.get(parent, 0)
                smith_seen[parent] = d + 1
                add(times, f"homology.smith_s.d{d}", dur)
                add(counts, f"homology.smith_rank.d{d}", info)
            elif name == "homology.IntEchelon.add":
                add(times, "homology.echelon_add_s", dur)
                add(counts, "homology.echelon_adds", 1)
                add(counts, "homology.echelon_gains", int(info))
            elif name == "steinberg.apartment_span_rank":
                add(times, "steinberg.apartment_span_s", self_t)
                add(counts, "steinberg.span_rank", info[0])
                add(counts, "steinberg.apartments_used", info[1])
            elif name == "steinberg.apartment_class":
                add(times, "steinberg.apartment_class_s", dur)
                add(counts, "steinberg.apartment_class_calls", 1)
        return {"times": times, "counts": counts, "layers": layers, "wall": wall}
