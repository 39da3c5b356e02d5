from fractions import Fraction
from math import floor, gcd

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conekit.cli import _rat_json
from conekit.cohom import FamilyDescriptor, family_divisor, target_context
from conekit.contract import Contraction
from conekit.km_surface import build_km_surface
from conekit.qlattice import (
    CurveRegistry,
    IntersectionLattice,
    NamedDivisor,
    class_of,
    curve_sort_key,
    determinant,
    floor_divisor,
    frac_divisor,
    gram_block,
    intersect,
    is_negative_definite,
    pair,
    pair_canonical,
    solve_linear,
)

S5 = build_km_surface(5)

small_rats = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def vec(*values) -> tuple[Fraction, ...]:
    """A dense class with ``Fraction`` coordinates."""
    return tuple(map(Fraction, values))


def registry_of(lattice, classes) -> CurveRegistry:
    """A registry of the dense classes ``{name: tuple}``, which must be
    integral and of the lattice's rank, stored as their nonzero coordinates."""
    coords = {}
    for name in sorted(classes, key=curve_sort_key):
        cls = classes[name]
        lattice.check_rank(cls)
        if any(a.denominator != 1 for a in cls):
            shown = ", ".join(map(str, cls))
            raise ValueError(f"class of curve {name} is not integral: ({shown})")
        coords[name] = [(i, int(a)) for i, a in enumerate(cls) if a]
    return CurveRegistry(lattice, coords)


def _blown_up_plane(rank: int) -> IntersectionLattice:
    return IntersectionLattice(("H",) + tuple(f"E_{k}" for k in range(1, rank)))


# --- intersect ---------------------------------------------------------------


def test_gamma_square_d5():
    assert S5.pairing("Gamma", "Gamma") == 4 - 2 * 5


def test_fibre_square_zero():
    assert S5.pairing("F", "F") == 0


def test_blowup_basis_pairings():
    # direct expansion of the classes in the orthogonal blow-up basis
    for i in range(1, 6):
        assert S5.pairing(f"E_{i}", f"l_{i}") == 1
        assert S5.pairing("Gamma", f"l_{i}") == 0


@given(
    st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.tuples(*[st.lists(small_rats, min_size=n, max_size=n)] * 2)
    )
)
@settings(max_examples=100)
def test_intersect_is_the_diagonal_form(vectors):
    # oracle: v^T G w with G = diag(1, -1, ..., -1) written out in full
    v, w = vectors
    n = len(v)
    G = [[(1 if i == 0 else -1) if i == j else 0 for j in range(n)] for i in range(n)]
    expected = sum(v[i] * G[i][j] * w[j] for i in range(n) for j in range(n))
    assert intersect(_blown_up_plane(n), vec(*v), vec(*w)) == expected


@pytest.mark.parametrize("d", range(3, 9))
def test_canonical_class_of_the_blown_up_plane(d):
    lat = build_km_surface(d).lattice
    assert lat.canonical == vec(-3, *[1] * (2 * d + 1))


def test_intersect_rank_mismatch():
    with pytest.raises(ValueError, match=r"^vector has length 2, lattice rank is 12$"):
        intersect(S5.lattice, vec(1, 2), vec(1, 2))


@given(
    st.lists(small_rats, min_size=12, max_size=12),
    st.lists(small_rats, min_size=12, max_size=12),
    st.lists(small_rats, min_size=12, max_size=12),
    small_rats,
)
@settings(max_examples=60)
def test_intersect_symmetric_bilinear(a, b, c, scalar):
    lat = S5.lattice
    u, v, w = vec(*a), vec(*b), vec(*c)
    assert intersect(lat, u, v) == intersect(lat, v, u)
    u_plus_sw = tuple(x + scalar * y for x, y in zip(u, w))
    expected = intersect(lat, u, v) + scalar * intersect(lat, w, v)
    assert intersect(lat, u_plus_sw, v) == expected


# --- elimination kernel: determinant and solve ------------------------------


def _laplace_det(m):
    """Independent oracle: cofactor expansion along the first row."""
    if not m:
        return Fraction(1)
    return sum(
        (-1) ** j * m[0][j] * _laplace_det([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m))
        if m[0][j] != 0
    )


@st.composite
def square_matrices(draw):
    """Small rational matrices; about a third are made singular on purpose by
    replacing one row with a combination of the others."""
    n = draw(st.integers(min_value=1, max_value=5))
    m = [draw(st.lists(small_rats, min_size=n, max_size=n)) for _ in range(n)]
    if n > 1 and draw(st.integers(0, 2)) == 0:
        i = draw(st.integers(0, n - 1))
        weights = draw(st.lists(small_rats, min_size=n, max_size=n))
        m[i] = [
            sum(w * m[r][c] for r, w in enumerate(weights) if r != i)
            for c in range(n)
        ]
    return m


@given(square_matrices())
@settings(max_examples=100)
def test_determinant_matches_laplace_expansion(m):
    assert determinant(m) == _laplace_det(m)


def test_determinant_needs_a_row_swap():
    assert determinant([[0, 1], [1, 0]]) == -1
    assert determinant([[0, 0, 2], [0, 3, 0], [5, 0, 0]]) == -30


@given(square_matrices(), st.lists(small_rats, min_size=5, max_size=5))
@settings(max_examples=100)
def test_solve_linear_is_exact_or_reports_singularity(m, b):
    n = len(m)
    rhs = b[:n]
    if _laplace_det(m) == 0:
        with pytest.raises(ValueError, match=r"^singular linear system$"):
            solve_linear(m, rhs)
    else:
        x = solve_linear(m, rhs)
        assert [sum(a * xi for a, xi in zip(row, x)) for row in m] == rhs


# --- negative definiteness ---------------------------------------------------


def _ldl_pivots(block):
    """Independent oracle: rational LDL^T pivots of a symmetric matrix."""
    n = len(block)
    m = [list(row) for row in block]
    pivots = []
    for k in range(n):
        piv = m[k][k]
        pivots.append(piv)
        if piv == 0:
            return pivots + [Fraction(0)] * (n - k - 1)
        for i in range(k + 1, n):
            factor = m[i][k] / piv
            for j in range(k, n):
                m[i][j] -= factor * m[k][j]
    return pivots


def _oracle_negative_definite(lat, subset):
    return all(p < 0 for p in _ldl_pivots(gram_block(lat, subset)))


def test_exceptional_set_negative_definite():
    subset = [S5.registry.class_vector(n) for n in S5.exceptional_names()]
    assert is_negative_definite(S5.lattice, subset)
    assert _oracle_negative_definite(S5.lattice, subset)


def test_fibre_not_negative_definite():
    assert not is_negative_definite(S5.lattice, [S5.registry.class_vector("F")])


def test_minus_one_curve_negative_definite():
    assert is_negative_definite(S5.lattice, [S5.registry.class_vector("E_1")])


def test_dependent_subset_reported():
    gamma = S5.registry.class_vector("Gamma")
    with pytest.raises(ValueError, match=r"^subset is linearly dependent$"):
        is_negative_definite(S5.lattice, [gamma, tuple(2 * a for a in gamma)])


@given(st.lists(st.sampled_from(S5.exceptional_names()), min_size=1, max_size=6, unique=True))
@settings(max_examples=40)
def test_negative_definite_matches_ldl_oracle(names):
    subset = [S5.registry.class_vector(n) for n in names]
    assert is_negative_definite(S5.lattice, subset) == _oracle_negative_definite(
        S5.lattice, subset
    )


@st.composite
def lattices_with_subsets(draw):
    """The plane blown up n - 1 times and a subset of random classes on it,
    sometimes dependent.  The H coordinate is mostly 0, where every block is
    negative definite or dependent; with an H part the blocks are often
    indefinite."""
    n = draw(st.integers(min_value=1, max_value=5))
    h = st.sampled_from([0, 0, 0, 1, -1, 2])
    ints = st.lists(st.integers(min_value=-2, max_value=2), min_size=n - 1, max_size=n - 1)
    k = draw(st.integers(min_value=1, max_value=n))
    subset = [vec(draw(h), *draw(ints)) for _ in range(k)]
    return _blown_up_plane(n), subset


def test_negative_definite_rejects_swap_with_negative_pivots():
    # the leading minor is 0, so elimination swaps rows; both pivots are then
    # -1, yet the block has determinant -1 and is indefinite
    # block of H - E_1 and -E_1 on the plane blown up once
    lat = _blown_up_plane(2)
    subset = [vec(1, -1), vec(0, -1)]
    assert gram_block(lat, subset) == [[0, -1], [-1, -1]]
    assert not is_negative_definite(lat, subset)
    assert not _oracle_negative_definite(lat, subset)


@given(lattices_with_subsets())
@settings(max_examples=200)
def test_negative_definite_matches_ldl_oracle_on_random_lattices(case):
    lat, subset = case
    # v_1..v_k are independent iff their Euclidean Gram matrix is nonsingular
    euclid = [
        [sum(x * y for x, y in zip(v, w)) for w in subset]
        for v in subset
    ]
    if _laplace_det(euclid) == 0:
        event("dependent")
        with pytest.raises(ValueError, match=r"^subset is linearly dependent$"):
            is_negative_definite(lat, subset)
    else:
        expected = _oracle_negative_definite(lat, subset)
        event("negative definite" if expected else "not negative definite")
        assert is_negative_definite(lat, subset) == expected


# --- the pullback solve (Contraction) ----------------------------------------


def test_solve_exceptional_correction_of_minus_one_curve():
    # orthogonalize E_i against {Gamma, l_i, lp_i}: known closed form
    for d in (3, 5, 8):
        s = build_km_surface(d)
        pulled = Contraction(s, ("Gamma", "l_1", "lp_1")).pullback(
            NamedDivisor.of({"E_1": 1})
        )
        assert [pulled.terms[n] for n in ("Gamma", "l_1", "lp_1")] == [
            Fraction(1, 2 * d - 4), Fraction(1, 2), Fraction(1, 2)
        ]


def test_solve_canonical_against_minus_two_curve():
    assert Contraction(S5, ("l_1",)).relative_canonical() == {"l_1": 0}


def test_solve_canonical_against_gamma():
    # K.Gamma = 2d-6 and Gamma^2 = 4-2d force a_Gamma = -(2d-6)/(2d-4)
    for d in (3, 5, 9):
        table = Contraction(build_km_surface(d), ("Gamma",)).relative_canonical()
        assert table == {"Gamma": -Fraction(2 * d - 6, 2 * d - 4)}


CONTRACTED = ("Gamma", "l_2", "lp_2", "l_3")
PSI_OFF = Contraction(S5, CONTRACTED)


@given(
    st.dictionaries(
        st.sampled_from([n for n in S5.registry.names() if n not in CONTRACTED]),
        small_rats,
        min_size=0,
        max_size=6,
    )
)
@settings(max_examples=60)
def test_solve_residual_identically_zero(terms):
    pulled = PSI_OFF.pullback_class(NamedDivisor.of(terms))
    assert all(intersect(S5.lattice, pulled, c) == 0 for c in PSI_OFF.contracted_classes)


# --- floors ------------------------------------------------------------------


def test_floor_of_integral_divisor_is_identity():
    D = NamedDivisor.of({"E_1": 2, "l_3": -5})
    assert floor_divisor(D) == D
    assert frac_divisor(D).is_zero()


def test_floor_of_negative_half():
    D = NamedDivisor.of({"l_1": Fraction(-1, 2)})
    assert floor_divisor(D) == NamedDivisor.of({"l_1": -1})


def test_frac_of_pulled_back_family_divisor():
    from conekit.contract import km_psi

    psi = km_psi(S5)
    A = NamedDivisor.of({"E_1": 1, "E_2": 1, "E_3": 1, "E_4": -1})
    frac = frac_divisor(psi.pullback(A))
    expected = {f"l_{i}": Fraction(1, 2) for i in range(1, 5)}
    expected.update({f"lp_{i}": Fraction(1, 2) for i in range(1, 5)})
    expected["Gamma"] = Fraction(1, 3)
    assert frac == NamedDivisor.of(expected)


@given(
    st.dictionaries(
        st.sampled_from(S5.registry.names()), small_rats, min_size=0, max_size=6
    )
)
@settings(max_examples=80)
def test_floor_plus_frac_is_identity(terms):
    D = NamedDivisor.of(terms)
    assert floor_divisor(D) + frac_divisor(D) == D
    assert all(0 <= c < 1 for _, c in frac_divisor(D).entries)


# --- class_of ----------------------------------------------------------------


def test_singular_fibre_class():
    for i in range(1, 6):
        combo = class_of(
            S5.registry, NamedDivisor.of({f"E_{i}": 2, f"l_{i}": 1, f"lp_{i}": 1})
        )
        assert combo == S5.registry.class_vector("F")


def test_empty_divisor_class_is_zero():
    assert not any(class_of(S5.registry, NamedDivisor.zero()))


def test_anticanonical_class():
    combo = class_of(S5.registry, NamedDivisor.of({"Gamma": 1, "F": 1}))
    assert combo == tuple(-k for k in S5.lattice.canonical)


def test_unknown_curve_name():
    reg, known = S5.registry, NamedDivisor.of({"E_1": 1})
    unknown = NamedDivisor.of({"E_1": 1, "nope": 1})
    for route in (
        lambda: class_of(reg, unknown),
        lambda: pair(reg, unknown, known),
        lambda: pair(reg, known, unknown),
        lambda: pair_canonical(reg, unknown),
    ):
        with pytest.raises(ValueError, match=r"^unknown curve name: 'nope'$"):
            route()


# --- the named pairing table (dense route as the oracle) ---------------------


def test_registry_refuses_a_non_integral_curve_class():
    # the pairing table and the K.C column hold ints
    lat = _blown_up_plane(2)
    registry_of(lat, {"c": vec(1, -1)})
    message = r"^class of curve c is not integral: \(1/2, 0\)$"
    with pytest.raises(ValueError, match=message):
        registry_of(lat, {"b": vec(1, 0), "c": vec(Fraction(1, 2), 0)})

SURFACES = {d: build_km_surface(d) for d in (3, 5, 8)}


def _divisors(draw, names, coeffs=(small_rats, small_rats)):
    """One named divisor over ``names`` per coefficient strategy."""
    return [
        NamedDivisor.of(draw(st.dictionaries(st.sampled_from(names), c, max_size=6)))
        for c in coeffs
    ]


def _over(primes):
    """Rationals n/p, p one of the given primes and |n| <= 10^20, so a
    divisor's common denominator is a product of them."""
    return st.builds(
        lambda n, p: Fraction(n, p),
        st.integers(min_value=-10**20, max_value=10**20),
        st.sampled_from(primes),
    )


# large denominators, coprime between the two divisors of a pair
LARGE_COPRIME = (_over((10**9 + 7, 2**61 - 1)), _over((998_244_353, 2**31 - 1)))


@st.composite
def km_divisor_pairs(draw):
    s = SURFACES[draw(st.sampled_from(sorted(SURFACES)))]
    return (s.registry, *_divisors(draw, s.registry.names()))


@st.composite
def random_class_divisor_pairs(draw, coeffs=(small_rats, small_rats)):
    """A registry of up to six sparse random curve classes on the plane
    blown up n - 1 times, sharing coordinates, plus two named divisors over
    its curves with coefficients drawn from ``coeffs``."""
    n = draw(st.integers(min_value=1, max_value=5))
    entries = st.sampled_from([0, 0, 0, 1, -1, 2, -3])
    k = draw(st.integers(min_value=1, max_value=6))
    reg = registry_of(
        _blown_up_plane(n),
        {
            f"c_{i}": vec(*draw(st.lists(entries, min_size=n, max_size=n)))
            for i in range(k)
        },
    )
    return (reg, *_divisors(draw, reg.names(), coeffs))


def _check_pair_against_dense_route(reg, D1, D2):
    lat = reg.lattice
    v1, v2 = class_of(reg, D1), class_of(reg, D2)
    assert pair(reg, D1, D2) == intersect(lat, v1, v2)
    assert pair_canonical(reg, D1) == intersect(lat, lat.canonical, v1)


@given(st.one_of(km_divisor_pairs(), random_class_divisor_pairs()))
@settings(max_examples=100)
def test_class_of_is_the_scale_and_add_sum(case):
    # oracle: every curve class scaled in full, zeros included, and added
    # coordinate by coordinate from the zero vector
    reg, D, _ = case
    expected = [Fraction(0)] * reg.lattice.rank
    for name, c in D.entries:
        scaled = [c * a for a in reg.class_vector(name)]
        expected = [x + y for x, y in zip(expected, scaled)]
    assert class_of(reg, D) == tuple(expected)


@given(km_divisor_pairs())
@settings(max_examples=80)
def test_pair_matches_dense_route_on_km_surfaces(case):
    _check_pair_against_dense_route(*case)


@given(
    st.one_of(random_class_divisor_pairs(), random_class_divisor_pairs(LARGE_COPRIME))
)
@settings(max_examples=200)
def test_pair_matches_dense_route_on_random_lattices(case):
    _check_pair_against_dense_route(*case)


@pytest.mark.parametrize(
    "d1,d2",
    [
        ({"X_9": 1}, {"E_1": 1}),
        ({"E_1": 1}, {"X_9": 1}),
        ({"E_1": 1, "Gamma": 2}, {"Gamma": 1, "X_9": 1, "l_1": 1, "Y_9": 1}),
        ({"X_9": 1}, {"Y_9": 1}),
    ],
    ids=["left", "right", "right-among-known", "both"],
)
def test_pair_rejects_an_unknown_name_on_either_side(d1, d2):
    # the first unknown name is reported, left divisor before right
    D1, D2 = NamedDivisor.of(d1), NamedDivisor.of(d2)
    with pytest.raises(ValueError, match=r"^unknown curve name: 'X_9'$") as err:
        pair(S5.registry, D1, D2)
    assert str(err.value) == "unknown curve name: 'X_9'"


def test_pairing_rows_keep_only_nonzero_entries():
    reg = SURFACES[5].registry
    lat = reg.lattice
    for name in reg.names():
        row = reg.pairing_row(name)
        assert all(x != 0 for x in row.values())
        # the sparse K.C column against the dense canonical class
        assert reg.canonical_dot(name) == intersect(
            lat, lat.canonical, reg.class_vector(name)
        )
        for other in reg.names():
            expected = intersect(
                reg.lattice, reg.class_vector(name), reg.class_vector(other)
            )
            assert row.get(other, 0) == expected


# --- the numerator route against a Fraction oracle ---------------------------


def _oracle_floor(D):
    """Componentwise floor on the Fraction coefficients, zeros dropped."""
    return {n: Fraction(floor(c)) for n, c in D.entries if floor(c)}


def _oracle_frac(D):
    return {n: c - floor(c) for n, c in D.entries if c != floor(c)}


def _oracle_pullback(psi, D):
    """D plus c * (-G^{-1}(C.C_j)) for every term c*C, one Fraction product
    per term, from the Fraction Gram inverse and the pairing table."""
    out = dict(D.entries)
    for name, c in D.entries:
        for j, dot in psi.registry.pairing_row(name).items():
            for k, g in psi.gram_inverse.get(j, {}).items():
                out[k] = out.get(k, 0) - c * g * dot
    return {n: x for n, x in out.items() if x}


def _oracle_pair(reg, D1, D2):
    """D1.D2 from the pairing table, one Fraction product per term."""
    t2 = D2.terms
    return sum(
        (c * t2[o] * x for n, c in D1.entries
         for o, x in reg.pairing_row(n).items() if o in t2),
        Fraction(0),
    )


def _check_numerator_route(psi, D):
    """floor, frac, pullback, pair and pair_canonical on integer numerators
    against the Fraction oracles."""
    reg = psi.registry
    pulled = psi.pullback(D)
    assert pulled.terms == _oracle_pullback(psi, D)
    assert pair(reg, D, pulled) == _oracle_pair(reg, D, pulled)
    for X in (D, pulled):
        floored, frac = floor_divisor(X), frac_divisor(X)
        assert floored.terms == _oracle_floor(X)
        assert frac.terms == _oracle_frac(X)
        for Y in (X, floored, frac):  # the stored form is the canonical one
            assert list(Y.nums) == sorted(Y.nums, key=curve_sort_key)
            assert 0 not in Y.nums.values()
            assert Y.den > 0 and gcd(Y.den, *Y.nums.values()) == 1
        assert pair(reg, floored, floored) == _oracle_pair(reg, floored, floored)
        assert pair_canonical(reg, X) == sum(
            (c * reg.canonical_dot(n) for n, c in X.entries), Fraction(0)
        )


class _Surface:
    def __init__(self, registry):
        self.registry = registry


# negative coefficients, and denominators coprime within one divisor
MIXED_RATS = st.one_of(small_rats, *LARGE_COPRIME)


@given(lattices_with_subsets(), st.data())
@settings(max_examples=200)
def test_numerator_route_matches_fraction_oracle_on_random_lattices(case, data):
    # the subset's curves are contracted and the divisor is drawn over one
    # curve per basis class; a subset that is not negative definite is left
    # uncontracted, the pullback is then the identity and the divisor may
    # use its curves too
    lat, subset = case
    classes = {f"c_{i}": v for i, v in enumerate(subset)}
    for k in range(lat.rank):
        classes[f"b_{k}"] = vec(*[int(i == k) for i in range(lat.rank)])
    reg = registry_of(lat, classes)
    try:
        psi = Contraction(_Surface(reg), tuple(f"c_{i}" for i in range(len(subset))))
        event("contracted")
    except ValueError:
        psi = Contraction(_Surface(reg), ())
    names = [n for n in reg.names() if n not in psi.contracted]
    D = NamedDivisor.of(
        data.draw(st.dictionaries(st.sampled_from(names), MIXED_RATS, max_size=6))
    )
    _check_numerator_route(psi, D)


@pytest.mark.parametrize("d", range(3, 13))
def test_numerator_route_matches_fraction_oracle_on_family_divisors(d):
    # n.A - E_j for every family A on S(d), n = 0..3, without a subtracted
    # curve and with the first fresh one (E_d when there is none)
    psi = target_context(d)
    for q1 in range(d + 1):
        for q2 in range(d - q1 + 1):
            A = family_divisor(FamilyDescriptor(d, q1, q2))
            for n in range(4):
                for j in (None, min(q1 + q2 + 1, d)):
                    minus_e = NamedDivisor.of({f"E_{j}": -1} if j else {})
                    _check_numerator_route(psi, A.scale(n) + minus_e)


# --- serialization: the CLI's hook for every printed Fraction ---------------


@given(small_rats)
def test_rat_round_trip(x):
    assert Fraction(_rat_json(x)) == x


def test_rat_format():
    assert _rat_json(Fraction(1, 2)) == "1/2"
    assert _rat_json(Fraction(-6, 4)) == "-3/2"
    assert _rat_json(Fraction(3)) == "3"
