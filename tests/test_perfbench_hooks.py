"""The benchmark's tracer wraps conekit functions by name; a renamed or
deleted traced name must fail here rather than in a traced benchmark run.
The tracer's call counts are deterministic, so a few are pinned here."""

import contextlib
import importlib
import importlib.util
import io
import sys
from pathlib import Path

import conekit.cli
import conekit.cohom

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _conekit_namespaces():
    """Snapshot of every conekit module's and class's attributes."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name.startswith("conekit"):
            out[name] = dict(vars(module))
            for value in vars(module).values():
                if isinstance(value, type) and value.__module__ == name:
                    out[f"{name}.{value.__qualname__}"] = dict(vars(value))
    return out


def test_every_traced_name_resolves():
    tracer_mod = _load_tracer()
    for mod_name, attr in tracer_mod.FUNCTIONS:
        module = importlib.import_module(f"conekit.{mod_name}")
        assert callable(getattr(module, attr, None)), f"conekit.{mod_name}.{attr}"
    for mod_name, cls_name, attr, _ in tracer_mod.METHODS:
        cls = getattr(importlib.import_module(f"conekit.{mod_name}"), cls_name, None)
        assert cls is not None, f"conekit.{mod_name}.{cls_name}"
        assert attr in vars(cls), f"conekit.{mod_name}.{cls_name}.{attr}"


def test_tracer_installs_records_and_restores():
    tracer_mod = _load_tracer()
    before = _conekit_namespaces()
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        tracer.start_request(0)
        with contextlib.redirect_stdout(io.StringIO()):
            code = conekit.cli.main(
                ["cone", "--d", "5", "--q", "3", "--ledger", "adjunction"]
            )
    finally:
        tracer.restore()
    assert code == 0
    totals = tracer.totals()
    for name in ("cli.main", "cone3fold.ConeModel.build", "cone3fold.adjunction_consistency"):
        assert totals[name][0] == 1, name
    assert _conekit_namespaces() == before


def _traced_calls(argv):
    """Span counts of one CLI run from a cold target_context cache, as in a
    fresh process."""
    conekit.cohom.target_context.cache_clear()
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        tracer.start_request(0)
        with contextlib.redirect_stdout(io.StringIO()):
            code = conekit.cli.main(argv)
    finally:
        tracer.restore()
    assert code == 0
    return {name: calls for name, (calls, _) in tracer.totals().items()}


def test_deterministic_call_counts():
    # verify plt computes each h^i(nA - E_j) report once: 3 for the h1 chain,
    # n = 3 for its uniform tail (which reuses n = 2), 3 for the subtracted
    # chain
    calls = _traced_calls(["verify", "plt", "--d", "5", "--q", "3"])
    assert calls["cohom.cohomology_of_nA"] == 7
    assert calls["contract.km_psi"] == calls["contract.gram_inverse"] == 1
    # a target pairing D1 . pullback(D2) pulls back one side only, and nothing
    # keeps a pulled-back divisor but the model's pullback(A), which is also
    # what the multiplicity table is read from, the contraction's one
    # pullback(-K_T), which every degree pairs against, and the steps of the
    # walks, pullback(E_i) on the first move of E_i: E_1..E_4 for the family
    # tables (5, 3, 1) and (5, 3, 2) and every twist nA - E_5, and E_5
    assert calls["contract.pullback"] == 8
    # the same eight at d = 45: a walk pulls back only the curves it moves
    calls = _traced_calls(["verify", "plt", "--d", "45", "--q", "3"])
    assert calls["contract.pullback"] == 8
    # contract shares the one cached contraction per d
    calls = _traced_calls(["contract", "--d", "5", "--pullback", "E_1"])
    assert calls["cohom.target_context"] == 1
    assert calls["contract.km_psi"] == calls["contract.gram_inverse"] == 1
    # sweep and the family table pair named divisors through the registry's
    # pairing table, so they build no class vector, and its K.C column is
    # summed from the stored coordinates: no dense pairing at all
    calls = _traced_calls(["sweep", "--d-min", "5", "--d-max", "5"])
    assert calls.get("qlattice.class_of", 0) == 0
    assert calls.get("qlattice.intersect", 0) == 0
    # the 21 rows are one walk: pullback(E_i) once for each i <= d, whose
    # degree is summed from the K.C column, so d pullbacks whatever the
    # number of rows, and no pullback(-K_T)
    assert calls["contract.pullback"] == 5
    calls = _traced_calls(["sweep", "--d-min", "9", "--d-max", "9"])
    assert calls["contract.pullback"] == 9
    calls = _traced_calls(["cohom", "--d", "5", "--q1", "3", "--q2", "2"])
    assert calls.get("qlattice.class_of", 0) == 0
    # the cone ledger, the surface sanity check and the discrepancy solve read
    # the pairing table and its K.C column, so no dense pairing is left
    calls = _traced_calls(["cone", "--d", "5", "--q", "3", "--ledger", "adjunction"])
    assert calls.get("qlattice.intersect", 0) == 0
    assert calls.get("qlattice.class_of", 0) == 0
    assert calls.get("contract.pullback_class", 0) == 0
    # -K_T once for the ampleness of A, A once for the model's cached
    # pullback(A) (the multiplicities read it too), and E_i for each of the 5
    # sections
    assert calls["contract.pullback"] == 2 + 5
    calls = _traced_calls(["km-surface", "--d", "5", "--check"])
    assert calls.get("qlattice.intersect", 0) == 0
    calls = _traced_calls(["verify", "plt", "--d", "5", "--q", "3"])
    assert calls.get("contract.pullback_class", 0) == 0


def test_traced_schedule_counts_its_closed_form_steps():
    # the benchmark's cone3fold.kvv_schedule.steps metric is the length of the
    # traced call's result; 8 is the closed-form count
    # 1 + (ceil(3*1) - 1) + (ceil(3*2) - 1) of this request
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        tracer.start_request(0)
        with contextlib.redirect_stdout(io.StringIO()):
            code = conekit.cli.main(
                ["kvv-schedule", "--e", "1,2", "--delta", "0,0", "--target", "3"]
            )
    finally:
        tracer.restore()
    assert code == 0
    assert tracer.totals()["cone3fold.kvv_schedule"][0] == 1
    assert tracer.kvv_steps == 8
