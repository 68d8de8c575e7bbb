"""Per-layer tracing from outside the program.

Every public function and method of the layer modules is wrapped, and
the wrapper is put in place at every name that refers to the original:
`fuzz` and `classify` bind names with `from .homalg import ...`, so the
module attributes of every burchkit module are rewritten, not only the
defining one.  A wrapped call opens a span when it crosses into another
layer; a layer's self time is the time in its spans minus the time in
spans they open into other layers.  Calls inside the same layer, and the
hot ring calls listed in COUNT_ONLY, are only counted; their time stays
with the enclosing span.

Besides calls and self time per layer, the tracer derives a few counts
from arguments and results: distinct maps handed to kernel_minimal_gens
within each round (compared by value), dense matrix cells assembled by
HomogeneousMap.matrix, and an elimination operation estimate from the
shapes passed to rref, nullspace and reduce_row.
"""

import importlib
import inspect
from time import perf_counter

LAYERS = (
    "cli", "problemfile", "fixtures", "fuzz", "classify", "hw",
    "rings", "monomial", "semigroup", "homalg", "linalg",
)

# dunder methods that carry ring arithmetic; other dunders stay unwrapped
_DUNDERS = ("__init__", "__add__", "__mul__", "__contains__")

# called hundreds of thousands of times per round; a span each would
# cost more than the call
COUNT_ONLY = frozenset({
    "monomial.divides",
    "monomial.MonomialIdeal.member",
    "monomial.MonomialIdeal.__contains__",
    "semigroup.NumericalSemigroup.__contains__",
    "semigroup.NumericalSemigroup.contains",
    "semigroup.RelativeIdealSet.contains",
    "semigroup.RelativeIdealSet.__contains__",
    "rings.QIdeal.member",
    "rings.SgIdeal.member",
    "homalg.GradedAlgebra.mult",
    "homalg.GradedAlgebra.deg",
    "homalg.GradedAlgebra.basis",
    "homalg.QuotientView.mult",
    "homalg.QuotientView.deg",
    "homalg.QuotientView.basis",
    "homalg.scale_module_elt",
})


def _map_key(f):
    cols = tuple(tuple(tuple(sorted(e.items())) for e in col) for col in f.cols)
    return hash((f.algebra.p, f.algebra.ring, f.source.shifts, f.target.shifts, cols))


class Tracer:
    def __init__(self):
        self.calls = {}          # qualified name -> calls
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.kmg_calls = 0
        self.kmg_distinct = 0    # summed over rounds
        self._kmg_maps = set()   # maps seen in the current round
        self.matrix_cells = 0
        self.elim_ops = 0
        self.max_cols = 0
        self._stack = []         # [layer, time spent in child spans]
        self._patches = []       # (owner, attribute, original)

    # ------------------------------------------------------- wrappers

    def _timed(self, layer, qual, fn, before=None, after=None):
        calls = self.calls
        calls[qual] = 0
        stack = self._stack
        self_s = self.self_s

        def wrapper(*args, **kwargs):
            calls[qual] += 1
            if before is not None:
                before(args)
            if stack and stack[-1][0] == layer:
                out = fn(*args, **kwargs)
            else:
                frame = [layer, 0.0]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    stack.pop()
                    self_s[layer] += dt - frame[1]
                    if stack:
                        stack[-1][1] += dt
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def _counted(self, qual, fn):
        calls = self.calls
        calls[qual] = 0

        def wrapper(*args, **kwargs):
            calls[qual] += 1
            return fn(*args, **kwargs)

        return wrapper

    # hooks for the derived counts

    def _kmg_before(self, args):
        self.kmg_calls += 1
        self._kmg_maps.add(_map_key(args[0]))

    def end_round(self):
        """Count the round's distinct maps; the next round starts afresh."""
        self.kmg_distinct += len(self._kmg_maps)
        self._kmg_maps.clear()

    def _matrix_after(self, args, out):
        rows, src, tgt = out
        self.matrix_cells += len(tgt) * len(src)

    def _elim_before(self, args):
        rows, ncols = args[0], args[1]
        m = len(rows)
        self.elim_ops += m * ncols * min(m, ncols)
        self.max_cols = max(self.max_cols, ncols)

    def _reduce_before(self, args):
        row, pivots = args[0], args[2]
        self.elim_ops += len(pivots) * len(row)
        self.max_cols = max(self.max_cols, len(row))

    _HOOKS = {
        "homalg.kernel_minimal_gens": ("_kmg_before", None),
        "homalg.HomogeneousMap.matrix": (None, "_matrix_after"),
        "linalg.rref": ("_elim_before", None),
        "linalg.nullspace": ("_elim_before", None),
        "linalg.reduce_row": ("_reduce_before", None),
    }

    def _wrap(self, layer, qual, fn):
        if qual in COUNT_ONLY:
            return self._counted(qual, fn)
        before, after = self._HOOKS.get(qual, (None, None))
        return self._timed(
            layer, qual, fn,
            getattr(self, before) if before else None,
            getattr(self, after) if after else None,
        )

    # ------------------------------------------------ install / remove

    def install(self):
        modules = {layer: importlib.import_module("burchkit." + layer) for layer in LAYERS}
        replaced = {}  # id(original) -> wrapper, for module-level functions
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrap(layer, "%s.%s" % (layer, name), obj)
                elif inspect.isclass(obj):
                    for attr, meth in list(vars(obj).items()):
                        if not inspect.isfunction(meth):
                            continue
                        if attr.startswith("_") and attr not in _DUNDERS:
                            continue
                        qual = "%s.%s.%s" % (layer, name, attr)
                        self._patch(obj, attr, self._wrap(layer, qual, meth))
        # every module that bound an original by name gets the wrapper
        for mod in [importlib.import_module("burchkit")] + list(modules.values()):
            for name, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    self._patch(mod, name, wrapper)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --------------------------------------------------------- report

    def layer_calls(self, layer):
        prefix = layer + "."
        return sum(n for q, n in self.calls.items() if q.startswith(prefix))

    def unreached(self, names):
        return [q for q in names if self.calls.get(q, 0) == 0]
