import json
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_qlattice import registry_of

from conekit.km_surface import (
    BlowupStep,
    KMSurface,
    build_km_surface,
    km_sanity,
    replay,
)
from conekit.qlattice import IntersectionLattice, intersect


def test_rank_and_gamma_square_d5():
    s = build_km_surface(5)
    assert s.lattice.rank == 12
    assert s.pairing("Gamma", "Gamma") == -6


def test_gamma_square_d3():
    assert build_km_surface(3).pairing("Gamma", "Gamma") == -2


def test_canonical_square():
    # blowing up 2d+1 points of the plane: K^2 = 9 - (1 + 2d)
    for d in (3, 5, 7):
        lat = build_km_surface(d).lattice
        assert intersect(lat, lat.canonical, lat.canonical) == 9 - (1 + 2 * d)


def test_d_below_three_rejected():
    with pytest.raises(ValueError):
        build_km_surface(2)


@pytest.mark.parametrize("d", range(3, 21))
def test_sanity_all_pass(d):
    assert km_sanity(build_km_surface(d))["all_pass"]


def test_picard_rank_is_2_plus_2d():
    for d in range(3, 21):
        assert build_km_surface(d).lattice.rank == 2 + 2 * d


def test_basis_ordering():
    s = build_km_surface(3)
    assert s.lattice.basis_names == (
        "H", "e0", "e_1_1", "e_1_2", "e_2_1", "e_2_2", "e_3_1", "e_3_2",
    )


def test_build_is_deterministic():
    a = json.dumps(build_km_surface(6).to_json_dict(), sort_keys=False)
    b = json.dumps(build_km_surface(6).to_json_dict(), sort_keys=False)
    assert a.encode() == b.encode()


def test_registry_names():
    s = build_km_surface(4)
    names = set(s.registry.names())
    expected = {"Gamma", "F"}
    for i in range(1, 5):
        expected |= {f"E_{i}", f"l_{i}", f"lp_{i}"}
    assert names == expected


def _sum(*classes):
    """The elementwise sum of dense classes."""
    return tuple(map(sum, zip(*classes)))


def _dense_sanity(s):
    """km_sanity's items recomputed from dense classes, all pairs."""
    lat, cls = s.lattice, s.registry.class_vector
    idx = range(1, s.d + 1)

    def dot(a, b):
        return intersect(lat, cls(a), cls(b))

    return {
        "fibre_decomposition": all(
            _sum(cls(f"E_{i}"), cls(f"E_{i}"), cls(f"l_{i}"), cls(f"lp_{i}")) == cls("F")
            for i in idx
        ),
        "exceptional_orthogonal": all(
            dot(a, b) == 0 for a, b in combinations(s.exceptional_names(), 2)
        ),
        "minus_one_meets": all(
            dot(f"E_{i}", other) == 1
            for i in idx
            for other in ("Gamma", f"l_{i}", f"lp_{i}")
        ),
        "anticanonical": (
            _sum(cls("Gamma"), cls("F")) == tuple(-k for k in lat.canonical)
        ),
        "gamma_dot_fibre": dot("Gamma", "F") == 2,
    }


def _with_lp1_moved(s):
    """S(d) with lp_1 re-registered as lp_1 + E_1, which breaks the fibre
    decomposition, the orthogonality and the meets of E_1."""
    reg = s.registry
    entries = {name: reg.class_vector(name) for name in reg.names()}
    entries["lp_1"] = _sum(entries["lp_1"], entries["E_1"])
    return KMSurface(s.d, registry_of(s.lattice, entries))


@pytest.mark.parametrize("d", (3, 5, 8))
@pytest.mark.parametrize("moved", (False, True), ids=("surface", "lp1-moved"))
def test_sanity_matches_dense_all_pairs(d, moved):
    s = build_km_surface(d)
    if moved:
        s = _with_lp1_moved(s)
    report = km_sanity(s)
    assert {item["name"]: item["pass"] for item in report["items"]} == _dense_sanity(s)
    assert report["all_pass"] != moved
    for a, b in combinations_with_replacement(s.registry.names(), 2):
        assert s.pairing(a, b) == intersect(
            s.lattice, s.registry.class_vector(a), s.registry.class_vector(b)
        )


def test_pairing_unknown_name_raises_on_either_side():
    s = build_km_surface(5)
    for a, b in (("X", "Gamma"), ("Gamma", "X"), ("X", "Y")):
        with pytest.raises(ValueError, match=r"^unknown curve name: 'X'$"):
            s.pairing(a, b)


def _dense_replay(degrees, plan):
    """The blow-up replay on rank-length coordinate lists, as the oracle."""
    rank = 1 + len(plan)
    curves = {n: [deg] + [0] * len(plan) for n, deg in degrees.items()}
    for k, step in enumerate(plan, start=1):
        for name, mult in step.through:
            curves[name][k] = -mult
        if step.register is not None:
            curves[step.register] = [0] * rank
            curves[step.register][k] = 1
    lattice = IntersectionLattice(("H",) + tuple(s.exceptional for s in plan))
    return registry_of(lattice, {n: tuple(v) for n, v in curves.items()})


def _same_registry(reg, oracle):
    """Same basis, names, classes, pairing table and K.C column, and ``reg``
    stores each class as nonzero coordinates in index order."""
    assert reg.lattice.basis_names == oracle.lattice.basis_names
    assert reg.names() == oracle.names()
    for name in oracle.names():
        stored = reg.coords[name]
        assert all(a for _, a in stored)
        assert [i for i, _ in stored] == sorted({i for i, _ in stored})
        assert reg.class_vector(name) == oracle.class_vector(name)
        assert reg.pairing_row(name) == oracle.pairing_row(name)
        assert reg.canonical_dot(name) == oracle.canonical_dot(name)


@st.composite
def blowup_plans(draw):
    """Degrees of up to four plane curves and a plan of up to five steps,
    each through a few of the curves so far (a name may repeat, with a zero
    multiplicity among the choices), some registering a new curve."""
    n = draw(st.integers(0, 4))
    degrees = {f"c_{i}": draw(st.integers(0, 3)) for i in range(n)}
    names, plan = list(degrees), []
    for k in range(1, draw(st.integers(1, 5)) + 1):
        through = draw(
            st.lists(st.tuples(st.sampled_from(names), st.integers(0, 2)), max_size=4)
            if names
            else st.just([])
        )
        register = draw(st.sampled_from([None, f"E_{k}", *names]))
        plan.append(BlowupStep(f"e{k}", tuple(through), register))
        if register is not None and register not in names:
            names.append(register)
    return degrees, tuple(plan)


@given(blowup_plans())
def test_replay_matches_the_dense_replay_on_random_plans(case):
    degrees, plan = case
    _same_registry(replay(degrees, plan), _dense_replay(degrees, plan))
