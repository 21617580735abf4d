"""Layer tracing from outside the program.

The tracer wraps the public functions and methods of each buildinglab
module (a layer) and records a span per call: name, start, end, parent.
Spans stay in memory and are summarised when the pass ends.  Per-element
methods called hundreds of thousands of times get a call counter instead
of a span (spanning them doubles a run), and the cheapest accessors are
left unwrapped.  Nothing inside `src/` is changed; the wrappers are
installed on the imported modules and classes and removed afterwards.

A layer's self time is the duration of its spans minus the time covered by
their child spans; work in a counted-only method is self time of the span
that called it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "coxeter", "localfield", "projline", "chambers", "moufang",
          "btree")

FIELD_CLASSES = ("FiniteField", "PadicField", "LaurentField")
FIELD_OPS = ("add", "mul", "inv", "neg")

# Per-element methods: counted, never spanned.  The field methods add, mul,
# inv and neg are counted on each field class (see Tracer.install).
COUNTED = {
    "coxeter": {"CoxeterSystem.multiply", "CoxeterElement.inverse"},
    "chambers": {"ChamberComplex.w_distance", "ChamberComplex.projection"},
    "btree": {"neighbors"},
    "projline": {"hua_triple_product"},
}

# Hot helpers left unwrapped: a wrapper would cost more than their work and
# no metric reads them.  Their time is self time of the calling span.
UNWRAPPED = {
    "coxeter": {"CoxeterElement.__init__", "CoxeterElement.is_identity",
                "CoxeterSystem.right_multiply",
                "CoxeterSystem.length_increases",
                "CoxeterSystem.element_from_word"},
    "chambers": {"span_contains", "subspace_leq", "rref", "nonzero_vectors",
                 "ChamberComplex.chamber_index", "ChamberComplex.panel_id",
                 "ChamberComplex.panel_members",
                 "ChamberComplex.copanel_members", "ChamberComplex.neighbors",
                 "ChamberComplex.gallery_distance",
                 "SchubertCoordinates.encode", "SchubertCoordinates.decode",
                 "SchubertCoordinates.base_panel",
                 "SchubertCoordinates.level_panel"},
    "moufang": {"identity_perm", "compose", "inverse_perm", "conjugate",
                "commutator", "MoufangFrame.vertex",
                "MoufangFrame.chamber_on_edge", "MoufangFrame.root_path",
                "MoufangFrame.star", "MoufangFrame.maps_apartment_to_itself",
                "MoufangFrame.induced_vertex_map",
                "MoufangFrame.is_reflection_through",
                "MoufangFrame.root_group", "MoufangFrame.root_group_of_path"},
    "projline": {"is_inf", "pl_inv", "pl_neg", "pl_add", "pl_sub", "tau",
                 "iota", "pl_apply", "recover_square",
                 "recover_multiplication", "sample_point", "format_point",
                 "parse_point"},
    "btree": {"base_vertex", "make_vertex", "vertex_key", "vertex_label",
              "residue_lifts", "vertex_matrix", "tree_distance", "hnf_lattice",
              "normalize_end", "ends_equal", "mat_mul", "mat_det",
              "mat_integral", "mat_json", "sl2_sample", "iwasawa_decompose",
              "ray_to_end", "cone_vs_ultrametric", "end_label"},
}


def _targets(layer: str, module):
    """(qualified name, owner, attribute) for each public function and
    method defined in the module, including constructors."""
    out = []
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) \
                != module.__name__:
            continue
        if inspect.isfunction(obj):
            out.append((name, module, name))
        elif inspect.isclass(obj):
            if layer == "localfield" or tuple in obj.__mro__:
                continue  # field elements are per-element; named tuples
            for attr, member in vars(obj).items():
                if inspect.isfunction(member) and (
                        attr == "__init__" or not attr.startswith("_")):
                    out.append((f"{name}.{attr}", obj, attr))
    return out


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if observe is not None:
                observe(self.counts, args, result)
            return result
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"buildinglab.{layer}")
                   for layer in LAYERS}
        package = [m for n, m in sys.modules.items()
                   if n.startswith("buildinglab") and m is not None]
        for layer, module in modules.items():
            counted = COUNTED.get(layer, set())
            skipped = UNWRAPPED.get(layer, set())
            for qual, owner, attr in _targets(layer, module):
                if qual in skipped:
                    continue
                name = f"{layer}.{qual}"
                original = vars(owner)[attr]
                if qual in counted:
                    wrapped = self._counter(f"{name}.calls", original)
                else:
                    wrapped = self._span(name, original, OBSERVERS.get(name))
                self._patch(owner, attr, original, wrapped)
                if owner is module:
                    # `from .x import f` copies the binding into other modules
                    for other in package:
                        if other is not module and \
                                vars(other).get(attr) is original:
                            self._patch(other, attr, original, wrapped)
        # Field methods are per-element: counted on each concrete class.
        for cls_name in FIELD_CLASSES:
            cls = getattr(modules["localfield"], cls_name)
            for op in FIELD_OPS:
                self._patch(cls, op, vars(cls)[op], self._counter(
                    f"localfield.{cls_name}.{op}.calls", vars(cls)[op]))

    def _patch(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- summary -------------------------------------------------------------

    def metrics(self) -> dict:
        """The per-layer metrics of this pass, by metric name."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        calls: dict[str, int] = defaultdict(int)
        for name, start, end, parent in spans:
            calls[name] += 1
            if parent >= 0:
                child_time[parent] += end - start
        self_s = dict.fromkeys(LAYERS, 0.0)
        cli_self = 0.0
        for k, (name, start, end, parent) in enumerate(spans):
            own = end - start - child_time[k]
            self_s[name.split(".", 1)[0]] += own
            if name == "cli.main":
                cli_self += own
        counts, t = self.counts, self._outermost
        found = counts["moufang.automorphisms_found"]
        searches = calls["moufang.find_automorphisms"]
        compared = counts["projline.pairs_compared"]
        out = {
            "coxeter.enumerate_s": t("coxeter.CoxeterSystem.__init__"),
            "coxeter.elements": counts["coxeter.elements"],
            "coxeter.multiply.calls":
                counts["coxeter.CoxeterSystem.multiply.calls"],
            "coxeter.inverse.calls":
                counts["coxeter.CoxeterElement.inverse.calls"],
            "chambers.build_s": t("chambers.build_flag_building"),
            "chambers.verify_s": t("chambers.verify_building_axioms"),
            "chambers.check_apartment_s":
                t("chambers.ChamberComplex.check_apartment"),
            "chambers.check_apartment.calls":
                calls["chambers.ChamberComplex.check_apartment"],
            "chambers.apartment_s":
                t("chambers.ChamberComplex.apartment_containing"),
            "chambers.w_distance.calls":
                counts["chambers.ChamberComplex.w_distance.calls"],
            "chambers.coords_s": t(
                "chambers.ChamberComplex.schubert_coordinates",
                "chambers.SchubertCoordinates.verify"),
            "chambers.projection.calls":
                counts["chambers.ChamberComplex.projection.calls"],
            "moufang.search_s": t("moufang.find_automorphisms"),
            "moufang.search.calls": searches,
            "moufang.automorphisms_found": found,
            "moufang.found_per_search": _ratio(found, searches),
            "moufang.transitivity_s": t("moufang.moufang_transitivity_check"),
            "moufang.group_checks_s": t(
                "moufang.product_stabilizer_check",
                "moufang.commutator_containment_check",
                "moufang.quadrangle_identity_check"),
            "projline.recovery_s": t("projline.recovery_check"),
            "projline.hua.calls": counts["projline.hua_triple_product.calls"],
            "projline.useful_ratio": _ratio(
                compared, compared + counts["projline.pairs_skipped"]),
            "btree.iwasawa_s": t("btree.iwasawa_report"),
            "btree.ball_s": t("btree.build_tree_ball"),
            "btree.boundary_s": t("btree.boundary_transitivity_check"),
            "btree.neighbors.calls": counts["btree.neighbors.calls"],
        }
        for cls in FIELD_CLASSES:
            for op in FIELD_OPS:
                key = f"localfield.{cls}.{op}.calls"
                out[key] = counts[key]
        out["cli.self_s"] = cli_self
        for layer in LAYERS:
            out[f"{layer}.layer_self_s"] = self_s[layer]
        return out

    def _outermost(self, *names) -> float:
        """Time in spans of these names, not counting a span nested inside
        another of them."""
        spans = self.spans
        wanted = set(names)
        total = 0.0
        for name, start, end, parent in spans:
            if name not in wanted:
                continue
            p = parent
            while p >= 0 and spans[p][0] not in wanted:
                p = spans[p][3]
            if p < 0:
                total += end - start
        return total


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _observe_coxeter(counts, args, result):
    counts["coxeter.elements"] += args[0].order


def _observe_search(counts, args, result):
    counts["moufang.automorphisms_found"] += len(result)


def _observe_recovery(counts, args, result):
    counts["projline.pairs_compared"] += result["pairs_compared"]
    counts["projline.pairs_skipped"] += result["skipped"]


OBSERVERS = {
    "coxeter.CoxeterSystem.__init__": _observe_coxeter,
    "moufang.find_automorphisms": _observe_search,
    "projline.recovery_check": _observe_recovery,
}
