import json
from itertools import combinations, combinations_with_replacement

import pytest

from conekit.km_surface import KMSurface, build_km_surface, km_sanity
from conekit.qlattice import CurveRegistry, intersect


def test_rank_and_gamma_square_d5():
    s = build_km_surface(5)
    assert s.lattice.rank == 12
    assert s.pairing("Gamma", "Gamma") == -6


def test_gamma_square_d3():
    assert build_km_surface(3).pairing("Gamma", "Gamma") == -2


def test_canonical_square():
    # blowing up 2d+1 points of the plane: K^2 = 9 - (1 + 2d)
    for d in (3, 5, 7):
        s = build_km_surface(d)
        assert intersect(s.lattice, s.canonical, s.canonical) == 9 - (1 + 2 * d)


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


def _dense_sanity(s):
    """km_sanity's items recomputed from dense class vectors, all pairs."""
    lat, cls = s.lattice, s.registry.class_vector
    idx = range(1, s.d + 1)

    def dot(a, b):
        return intersect(lat, cls(a), cls(b))

    return {
        "fibre_decomposition": all(
            2 * cls(f"E_{i}") + cls(f"l_{i}") + cls(f"lp_{i}") == cls("F")
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
        "anticanonical": cls("Gamma") + cls("F") == -lat.canonical,
        "gamma_dot_fibre": dot("Gamma", "F") == 2,
    }


def _with_lp1_moved(s):
    """S(d) with lp_1 re-registered as lp_1 + E_1, which breaks the fibre
    decomposition, the orthogonality and the meets of E_1."""
    reg = s.registry
    entries = dict(reg.entries)
    entries["lp_1"] = entries["lp_1"] + entries["E_1"]
    return KMSurface(s.d, CurveRegistry.of(s.lattice, entries))


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
