"""In-process span tracer for the conekit layers.

The tracer wraps public functions and methods of the conekit modules from
outside: it replaces module attributes (in every conekit module that holds
the function, since modules import names with ``from .x import y``) and
class attributes for methods, ``cached_property`` getters and static
methods.  Nothing under ``src/`` changes; ``restore`` puts every original
back.

Each call records a span (name, start, end, parent span, request id) in
memory.  Self time is a span's duration minus the time its child spans
cover.  A few counts are taken from arguments and results at the same
boundaries: the pullback repeat ratio and denominator size, and the number
of schedule steps.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from functools import cached_property
from time import perf_counter

# (module, attribute) of every traced function, spanned as
# "<module>.<attribute>", and (module, class, attribute, span name) of every
# traced method; module names are given without the "conekit." prefix.
FUNCTIONS = (
    ("qlattice", "intersect"),
    ("qlattice", "class_of"),
    ("qlattice", "is_negative_definite"),
    ("qlattice", "determinant"),
    ("qlattice", "solve_linear"),
    ("qlattice", "gram_block"),
    ("km_surface", "build_km_surface"),
    ("contract", "km_psi"),
    ("cohom", "target_context"),
    ("cohom", "km_family_cohomology"),
    ("cohom", "floor_pullback_stats"),
    ("cohom", "chi_rr"),
    ("cohom", "cohomology_of_nA"),
    ("cone3fold", "adjunction_consistency"),
    ("cone3fold", "kvv_schedule"),
    ("scenarios", "verify_plt_nonnormal"),
    ("scenarios", "verify_bad_fano"),
    ("scenarios", "sweep_kvv"),
    ("cli", "main"),
)
METHODS = (
    ("contract", "Contraction", "gram_inverse", "contract.gram_inverse"),
    ("contract", "Contraction", "pullback", "contract.pullback"),
    ("contract", "Contraction", "pullback_class", "contract.pullback_class"),
    ("contract", "Contraction", "classify_singularities", "contract.classify_singularities"),
    ("cone3fold", "ConeModel", "build", "cone3fold.ConeModel.build"),
)


class Tracer:
    def __init__(self) -> None:
        # One entry per call, indexed by span id:
        # (name, start, end, parent span id or -1, request id).
        self.spans: list = []
        self._open: list[int] = []
        self.request = -1
        self._undo: list = []
        # Per-request pullback arguments, to count repeats.  The contraction
        # objects are kept alive for the request so their ids stay unique.
        self._seen_pullbacks: set = set()
        self._contractions: list = []
        self.pullback_repeats = 0
        self.max_den_bits = 0
        self.kvv_steps = 0

    def start_request(self, request: int) -> None:
        self.request = request
        self._seen_pullbacks.clear()
        self._contractions.clear()

    def _wrap(self, name: str, fn, after=None):
        spans, open_spans = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = open_spans[-1] if open_spans else -1
            open_spans.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                open_spans.pop()
                spans[sid] = (name, start, end, parent, self.request)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _after_pullback(self, args, result) -> None:
        contraction, divisor = args[0], args[1]
        key = (id(contraction), divisor)
        if key in self._seen_pullbacks:
            self.pullback_repeats += 1
        else:
            self._seen_pullbacks.add(key)
            self._contractions.append(contraction)
        for _, coeff in result.entries:
            self.max_den_bits = max(self.max_den_bits, coeff.denominator.bit_length())

    def _after_kvv(self, args, result) -> None:
        self.kvv_steps += len(result.steps)

    def install(self) -> None:
        """Wrap every traced function and method of the imported conekit."""
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("conekit")]
        for mod_name, attr in FUNCTIONS:
            original = getattr(sys.modules[f"conekit.{mod_name}"], attr)
            after = self._after_kvv if attr == "kvv_schedule" else None
            wrapper = self._wrap(f"{mod_name}.{attr}", original, after)
            for module in modules:
                for key, value in vars(module).items():
                    if value is original:
                        self._undo.append((module, key, value))
                        setattr(module, key, wrapper)
        for mod_name, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[f"conekit.{mod_name}"], cls_name)
            original = cls.__dict__[attr]
            if isinstance(original, cached_property):
                replacement = cached_property(self._wrap(name, original.func))
                replacement.__set_name__(cls, attr)
            elif isinstance(original, staticmethod):
                replacement = staticmethod(self._wrap(name, original.__func__))
            else:
                after = self._after_pullback if attr == "pullback" else None
                replacement = self._wrap(name, original, after)
            self._undo.append((cls, attr, original))
            setattr(cls, attr, replacement)

    def restore(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    def totals(self) -> dict[str, list]:
        """{span name: [calls, self seconds]} over every recorded span."""
        covered = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start - covered.get(sid, 0.0)
        return out
