"""The per-layer metrics: which ``fmtori`` calls are traced and what is
derived from their spans.

For every traced function the run reports ``<module>.<name>.calls`` and
``<module>.<name>.self_s``.  ``layer_metric_names`` lists the rest: input
sizes of the normal forms, the search funnels, the thread-pool time, the
gate's pass per thread count, and the hit ratios of the package's caches.
"""

from __future__ import annotations

import inspect

from fmtori import (
    acceptance,
    corpus,
    lattices,
    matrices,
    oracles,
    parallel,
    partners,
    product_audit,
    slopes,
    varieties,
)
from tracer import NAME, NOTE, PARENT, START, END, Tracer

import workloads


def _max_bits(args, kwargs, result) -> int:
    """Largest bit length among the entries of the matrix argument."""
    bits = 0
    for row in args[0].data:
        for x in row:
            bits = max(bits, x.bit_length() if isinstance(x, int)
                       else max(x.numerator.bit_length(), x.denominator.bit_length()))
    return bits


def _bound_args(fn):
    sig = inspect.signature(fn)

    def bound(args, kwargs):
        b = sig.bind(*args, **kwargs)
        b.apply_defaults()
        return b.arguments

    return bound


_pmap_args = _bound_args(parallel.pmap)
_kernel_args = _bound_args(product_audit.search_kernel_class)
_criteria_args = _bound_args(acceptance.run_criteria)


def _kernel_search_note(args, kwargs, result):
    bound = _kernel_args(args, kwargs)
    return bound["v"].ns_basis, bound["coeff_bound"], result


# (module, class or None, attribute, note)
TRACED = [
    (matrices, matrices.Mat, "__init__", None),
    (matrices, matrices.Mat, "__matmul__", None),
    (matrices, matrices.Mat, "det", _max_bits),
    (matrices, matrices.Mat, "inverse", None),
    (matrices, matrices.Mat, "rank", None),
    (matrices, None, "snf", _max_bits),
    (matrices, None, "hnf_columns", _max_bits),
    (matrices, None, "integer_kernel", None),
    (matrices, None, "solve_exact", None),
    (lattices, lattices.Lattice, "__init__", None),
    (lattices, lattices.Lattice, "intersect", None),
    (lattices, None, "sublattice_where_integral", None),
    (lattices, None, "quotient_structure", None),
    (lattices, None, "saturate", None),
    (varieties, varieties.NSClass, "__post_init__", None),
    (varieties, varieties.Homomorphism, "__post_init__", None),
    (varieties, varieties.FiniteSubgroup, "__post_init__", None),
    (varieties, None, "dual", None),
    (varieties, None, "product", None),
    (slopes, None, "slope_subvariety", None),
    (slopes, None, "member_lattice", None),
    (slopes, None, "slope_kernel", None),
    (slopes, None, "projection_invariants", None),
    (product_audit, None, "audit_equivalence", None),
    (product_audit, None, "is_ample", None),
    (product_audit, None, "kernel_torsion_subgroup", None),
    (product_audit, None, "search_product_classes", lambda a, k, r: len(r)),
    (product_audit, None, "search_kernel_class", _kernel_search_note),
    (partners, None, "fingerprint", None),
    (partners, None, "find_isomorphism_certificate", None),
    (oracles, None, "torsion_points", None),
    (oracles, None, "subgroup_points", None),
    (corpus, None, "render_json", None),
    (parallel, None, "pmap", lambda a, k, r: (len(r), _pmap_args(a, k)["threads"])),
    (acceptance, None, "run_criteria", lambda a, k, r: _criteria_args(a, k)["threads"]),
]

CACHES = [
    (slopes, "_ambient_product"),
    (product_audit, "_product_variety"),
    (product_audit, "_dual_product_variety"),
]

GATE_THREADS = (1, 4)


def _span_name(module, cls, attr) -> str:
    short = module.__name__.rpartition(".")[2]
    return f"{short}.{cls.__name__}.{attr}" if cls else f"{short}.{attr}"


SPAN_NAMES = [_span_name(m, c, a) for m, c, a, _ in TRACED]
MAX_BITS = ["matrices.Mat.det", "matrices.snf", "matrices.hnf_columns"]


def layer_metric_names() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = "count"
        out[f"{name}.self_s"] = "s"
    for name in MAX_BITS:
        out[f"{name}.max_bits"] = "bits"
    out["product_audit.search.audited_ratio"] = "ratio"
    out["product_audit.search.hit_ratio"] = "ratio"
    out["kernel_search.evaluated_ratio"] = "ratio"
    out["parallel.pmap.threaded_s"] = "s"
    for t in GATE_THREADS:
        out[f"acceptance.run_criteria.threads_{t}.wall_s"] = "s"
    for module, attr in CACHES:
        out[f"cache.{module.__name__.rpartition('.')[2]}.{attr}.hit_ratio"] = "ratio"
    out["trace.overhead"] = "ratio"
    return out


def install() -> Tracer:
    tracer = Tracer("fmtori")
    for (module, cls, attr, note), name in zip(TRACED, SPAN_NAMES):
        if cls is not None:
            tracer.trace_method(cls, attr, name, note)
        elif attr == "pmap":
            # pool threads start with no open span; their spans belong to pmap
            tracer.trace_function(module, attr, name, note, replace=lambda pmap: (
                lambda fn, items, threads=1: pmap(tracer.adopt(fn), items, threads)))
        else:
            tracer.trace_function(module, attr, name, note)
    return tracer


def _ratio(num, den) -> float:
    # an undefined ratio (no attempts on this workload) reads 0
    return num / den if den else 0.0


def _under(span, name) -> bool:
    p = span[PARENT]
    while p is not None:
        if p[NAME] == name:
            return True
        p = p[PARENT]
    return False


def summarize(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced operation (without trace.overhead)."""
    calls = dict.fromkeys(SPAN_NAMES, 0)
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    for span, own in tracer.self_times():
        calls[span[NAME]] += 1
        self_s[span[NAME]] += own
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    for name in MAX_BITS:
        out[f"{name}.max_bits"] = max((s[NOTE] for s in tracer.spans if s[NAME] == name), default=0)

    search, kernel = "product_audit.search_product_classes", "product_audit.search_kernel_class"
    evaluated = audits = hits = kernel_calls = kernel_candidates = 0
    threaded = 0.0
    gate = dict.fromkeys(GATE_THREADS, 0.0)
    for s in tracer.spans:
        n = s[NAME]
        if n == "parallel.pmap":
            items, threads = s[NOTE]
            if threads > 1:
                threaded += s[END] - s[START]
            if s[PARENT] is not None and s[PARENT][NAME] == search:
                evaluated += items
        elif n == search:
            hits += s[NOTE]
        elif n == "product_audit.audit_equivalence" and _under(s, search):
            audits += 1
        elif n == "product_audit.kernel_torsion_subgroup" and _under(s, kernel):
            kernel_calls += 1
        elif n == kernel:
            basis, bound, found = s[NOTE]
            kernel_candidates += workloads.candidates_through(
                basis, bound, found.e if found is not None else None)
        elif n == "acceptance.run_criteria":
            gate[s[NOTE]] = gate.get(s[NOTE], 0.0) + s[END] - s[START]
    out["product_audit.search.audited_ratio"] = _ratio(audits, evaluated)
    out["product_audit.search.hit_ratio"] = _ratio(hits, audits)
    out["kernel_search.evaluated_ratio"] = _ratio(kernel_calls, kernel_candidates)
    out["parallel.pmap.threaded_s"] = threaded
    for t in GATE_THREADS:
        out[f"acceptance.run_criteria.threads_{t}.wall_s"] = gate[t]
    return out


def cache_ratios() -> dict[str, float]:
    out = {}
    for module, attr in CACHES:
        info = getattr(module, attr).cache_info()
        out[f"cache.{module.__name__.rpartition('.')[2]}.{attr}.hit_ratio"] = _ratio(
            info.hits, info.hits + info.misses)
    return out
