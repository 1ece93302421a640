"""Spans around calls into each abtqft layer, installed from outside.

Nothing under `src/` knows about tracing: `Tracer.install` wraps the
public functions and methods named in SPANS, in every loaded abtqft module
that holds them (modules that import a function by name keep their own
reference, so each one is patched), and `uninstall` puts the originals
back.  A span records its name, start, end, parent span and op id; spans
stay in memory and are written out as JSON when the run ends.  The
sub-microsecond circle helpers are only counted.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

import gen

# span name -> (module, attribute or Class.method) it wraps
SPANS = [
    ("intmat.smith", "abtqft.intmat", "smith"),
    ("intmat.as_int_matrix", "abtqft.intmat", "as_int_matrix"),
    ("intmat.solve_linear", "abtqft.intmat", "solve_linear"),
    ("intmat.kernel_basis", "abtqft.intmat", "kernel_basis"),
    ("fgab.group_init", "abtqft.fgab", "FgAbGroup.__init__"),
    ("fgab.canonical_key", "abtqft.fgab", "FgAbGroup.canonical_key"),
    ("fgab.morphism_apply", "abtqft.fgab", "GroupMorphism.__call__"),
    ("fgab.solve", "abtqft.fgab", "solve"),
    ("fgab.kernel", "abtqft.fgab", "kernel"),
    ("fgab.pullback", "abtqft.fgab", "pullback"),
    ("moncat.hom", "abtqft.moncat", "MorTensorCat.hom"),
    ("moncat.hofiber_hom", "abtqft.moncat", "HofibCat.hom"),
    ("moncat.coset_keys", "abtqft.moncat", "HomSet.element_keys"),
    ("moncat.xi", "abtqft.moncat", "xi_is_equivalence"),
    ("moncat.xi", "abtqft.moncat", "XiFunctor.apply_object"),
    ("discrete.complex_build", "abtqft.discrete.complexes",
     "CellComplex.__init__"),
    ("discrete.metric_surface", "abtqft.discrete.surfaces",
     "MetricSurface.__init__"),
    ("discrete.tangent_transport", "abtqft.discrete.surfaces",
     "TangentBundle.__init__"),
    ("discrete.chern", "abtqft.discrete.connections", "chern_number"),
    ("discrete.stokes", "abtqft.discrete.cochains", "check_stokes"),
    ("invariants.su_psi", "abtqft.invariants.psi", "su_psi"),
    ("invariants.psi", "abtqft.invariants.psi", "psi"),
    ("invariants.tangent_bounding", "abtqft.invariants.scenes",
     "tangent_bounding"),
    ("invariants.cs_quadrature", "abtqft.invariants.chern_simons",
     "cs_su2_quadrature"),
]
# every module loaded from the checkout (the library and the benchmark's
# own) gets the wrapped function in place of each reference it holds
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COUNTED = [("analytic.wrap", "abtqft.analytic", "wrap_unit"),
           ("analytic.wrap", "abtqft.analytic", "wrap_half")]


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = []       # [name id, start, end, parent index, op id]
        self.notes = []       # [span index, key, value]
        self.counts = Counter()
        self.extra = {}
        self.op = -1
        self._stack = []
        self._undo = []

    def name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn, note=None):
        """`fn` recording one span per call; `note(tracer, index, args,
        result)` may attach values to the span after it ends."""
        nid = self.name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            rec = [nid, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(rec)
            stack.append(index)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                note(self, index, args, result)
            return result
        return traced

    def counted(self, name, fn):
        """`fn` counting its calls by op, under the key "OP:NAME"."""
        counts = self.counts

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            counts[f"{self.op}:{name}"] += 1
            return fn(*args, **kwargs)
        return counting

    def parent_name(self):
        """Name of the innermost open span, or None."""
        return self.names[self.spans[self._stack[-1]][0]] if self._stack else None

    # -- patching -----------------------------------------------------------

    def install(self):
        """Wrap every layer function; call after the workload's imports."""
        for name, module, attr in SPANS:
            self._patch(module, attr, lambda fn, n=name: self.wrap(
                n, fn, NOTES.get(n)))
        for name, module, attr in COUNTED:
            self._patch(module, attr, lambda fn, n=name: self.counted(n, fn))
        from abtqft import acceptance
        for i, (label, fn) in enumerate(list(acceptance.CRITERIA)):
            acceptance.CRITERIA[i] = (label, self.wrap(f"acceptance.c{i + 1}",
                                                       fn))
            self._undo.append(lambda i=i, old=(label, fn):
                              acceptance.CRITERIA.__setitem__(i, old))

    def _patch(self, module, attr, make):
        mod = importlib.import_module(module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, make(original))
            self._undo.append(lambda: setattr(cls, meth, original))
            return
        original = getattr(mod, attr)
        wrapped = make(original)
        for other in list(sys.modules.values()):
            if not (getattr(other, "__file__", None) or "").startswith(ROOT):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    setattr(other, key, wrapped)
                    self._undo.append(
                        lambda o=other, k=key: setattr(o, k, original))

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    # -- output -------------------------------------------------------------

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "notes": self.notes, "counts": self.counts,
                       "extra": self.extra}, fh)

    def merge_file(self, path):
        """Append the spans a child process wrote (op ids are kept)."""
        with open(path) as fh:
            data = json.load(fh)
        offset = len(self.spans)
        ids = [self.name_id(n) for n in data["names"]]
        for nid, start, end, parent, op in data["spans"]:
            self.spans.append([ids[nid], start, end,
                               parent + offset if parent >= 0 else -1, op])
        self.notes.extend([i + offset, k, v] for i, k, v in data["notes"])
        self.counts.update(data["counts"])
        for key, value in data["extra"].items():
            self.extra.setdefault(key, []).append(value)


# -- notes: values read off a call's arguments or result ----------------------

def _note_smith(tracer, index, args, result):
    if tracer.parent_name() == "op.large":      # the sized matrices only
        U, V = result.U, result.V
        biggest = max(abs(int(v)) for A in (U, V) for v in A.flat)
        tracer.notes.append([index, "digits", len(str(biggest))])


def _note_hom(tracer, index, args, result):
    tracer.notes.append([index, "nonempty", int(not result.is_empty)])


def _note_complex(tracer, index, args, result):
    n = args[0].n_cells
    tracer.notes.append([index, "cells", sum(n.values())])
    tracer.notes.append([index, "V", n[0]])


def _note_quadrature(tracer, index, args, result):
    from abtqft.invariants.chern_simons import _grid_sizes
    r = int(args[0])
    n_chi, n_theta, n_phi = _grid_sizes(r)
    tracer.notes.append([index, "refinement", r])
    tracer.notes.append([index, "points", n_chi * n_theta * n_phi])


def _headroom(tolerance_name):
    def note(tracer, index, args, result):
        tolerance = getattr(sys.modules["abtqft.invariants.psi"],
                            tolerance_name)
        miss = abs(result.raw - round(result.raw))
        if miss:
            tracer.notes.append([index, "headroom", tolerance / miss])
    return note


NOTES = {"intmat.smith": _note_smith, "moncat.hom": _note_hom,
         "discrete.complex_build": _note_complex,
         "invariants.cs_quadrature": _note_quadrature,
         "invariants.psi": _headroom("PSI_TOLERANCE"),
         "invariants.su_psi": _headroom("SU_TOLERANCE")}


# -- per-layer metrics ---------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer, ops, batch, passes):
    """Per-layer metrics from the spans of `passes` whole traced passes
    over the ops at indices `batch`, plus the ops run once per run.

    Counts and self times are per pass and come from the batch ops only;
    the acceptance criteria, which run once per run, are per run.
    Returns (metrics, absent), where metrics maps name -> (value, unit)
    and absent maps name -> reason.
    """
    names = tracer.names
    spans = tracer.spans
    in_batch = set(batch)
    covered = [0.0] * len(spans)
    for nid, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls, self_s, incl = Counter(), defaultdict(float), defaultdict(list)
    once_incl = defaultdict(list)
    for i, (nid, start, end, parent, op) in enumerate(spans):
        name = names[nid]
        if op not in in_batch:
            once_incl[name].append(end - start)
            continue
        calls[name] += 1
        self_s[name] += end - start - covered[i]
        incl[name].append(end - start)
    notes = defaultdict(dict)
    for index, key, value in tracer.notes:
        notes[index][key] = value

    def by_name(name):
        nid = tracer._name_ids.get(name)
        return [i for i, s in enumerate(spans)
                if s[0] == nid and s[4] in in_batch]

    def parent_is(i, name):
        p = spans[i][3]
        return p >= 0 and names[spans[p][0]] == name

    out, absent = {}, {}

    def put(name, value, unit, source=None):
        out[name] = (value, unit)
        if source is not None and not calls[source]:
            absent[name] = f"no {source} call on this workload"

    per = 1.0 / max(passes, 1)
    for layer in ("intmat.smith", "intmat.as_int_matrix",
                  "intmat.solve_linear", "fgab.group_init",
                  "fgab.canonical_key", "fgab.morphism_apply", "fgab.solve",
                  "fgab.kernel", "moncat.hom", "moncat.hofiber_hom",
                  "moncat.xi", "discrete.complex_build",
                  "invariants.su_psi", "invariants.cs_quadrature",
                  "invariants.psi"):
        put(f"{layer}.calls", calls[layer] * per, "count", layer)
    for layer in ("intmat.smith", "intmat.as_int_matrix",
                  "intmat.solve_linear", "intmat.kernel_basis",
                  "fgab.group_init", "fgab.canonical_key",
                  "fgab.morphism_apply", "fgab.solve", "fgab.kernel",
                  "fgab.pullback", "moncat.hom", "moncat.hofiber_hom",
                  "moncat.coset_keys", "moncat.xi", "discrete.complex_build",
                  "discrete.metric_surface", "discrete.tangent_transport",
                  "discrete.chern", "discrete.stokes", "invariants.su_psi",
                  "invariants.tangent_bounding", "invariants.cs_quadrature",
                  "invariants.psi"):
        put(f"{layer}.self_s", self_s[layer] * per, "s", layer)

    # sized sweeps: the spans directly under the op that owns the size
    def sized(span_name, root, size):
        return [i for i in by_name(span_name) if parent_is(i, root)
                and ops[spans[i][4]].get("n") == size]

    def median_ms(indices):
        return 1e3 * _median([spans[i][2] - spans[i][1] for i in indices])

    for n in gen.ALGEBRA_SIZES:
        mine = sized("intmat.smith", "op.large", n)
        put(f"intmat.smith_ms.n{n}", median_ms(mine), "ms", "op.large")
        put(f"intmat.smith_digits.n{n}",
            max((notes[i]["digits"] for i in mine), default=0), "count",
            "op.large")
    for n in gen.GEOMETRY_SIZES:
        put(f"discrete.complex_build_ms.v{n * n}",
            median_ms(sized("discrete.complex_build", "op.torus", n)), "ms",
            "op.torus")
        put(f"discrete.transport_ms.v{n * n}",
            median_ms(sized("discrete.tangent_transport", "op.torus", n)),
            "ms", "op.torus")
    quad = by_name("invariants.cs_quadrature")
    for r in gen.REFINEMENTS:
        put(f"invariants.cs_quadrature_ms.r{r}",
            median_ms([i for i in quad if notes[i]["refinement"] == r]), "ms",
            "invariants.cs_quadrature")
    put("invariants.cs_quadrature.points",
        sum(notes[i]["points"] for i in quad) * per, "count",
        "invariants.cs_quadrature")

    solves = by_name("fgab.solve")
    smith_id = tracer._name_ids.get("intmat.smith")
    missed = {s[3] for s in spans if s[0] == smith_id}
    put("fgab.solve.miss_ratio",
        sum(1 for i in solves if i in missed) / max(len(solves), 1), "ratio",
        "fgab.solve")
    homs = by_name("moncat.hom")
    put("moncat.hom.per_s",
        len(homs) / sum(incl["moncat.hom"]) if homs else 0.0, "1/s",
        "moncat.hom")
    put("moncat.hom.nonempty_ratio",
        sum(notes[i]["nonempty"] for i in homs) / max(len(homs), 1), "ratio",
        "moncat.hom")
    wraps = sum(n for key, n in tracer.counts.items()
                if key.split(":")[1] == "analytic.wrap"
                and int(key.split(":")[0]) in in_batch)
    put("analytic.wrap.calls", wraps * per, "count")
    if not wraps:
        absent["analytic.wrap.calls"] = "no wrap_unit/wrap_half call"
    put("discrete.cells", sum(notes[i].get("cells", 0)
                              for i in by_name("discrete.complex_build")) * per,
        "count", "discrete.complex_build")
    for layer in ("invariants.psi", "invariants.su_psi"):
        rooms = [notes[i]["headroom"] for i in by_name(layer)
                 if "headroom" in notes[i]]
        put(f"{layer}.headroom_min", min(rooms, default=0.0), "ratio")
        if not rooms:
            absent[f"{layer}.headroom_min"] = (
                f"no {layer} result off an exact integer on this workload")

    for k in range(1, 12):
        name = f"acceptance.c{k}"
        out[f"{name}_s"] = (sum(once_incl[name]), "s")
        if not once_incl[name]:
            absent[f"{name}_s"] = "no suite acceptance on this workload"
    put("cli.main.self_s", self_s["cli.main"] * per, "s", "cli.main")
    for key in ("import_numpy_s", "import_abtqft_s"):
        put(f"cli.{key}", _median(tracer.extra.get(key, [])), "s", "cli.main")
    return out, absent
