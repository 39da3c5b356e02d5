"""Numerical ledger of the cone threefolds over the rank-one target.

The threefold tower (a relative Proj over the source surface, its fibre-wise
contraction, and the cone obtained by collapsing the negative section) is
never modelled as a scheme.  Every intersection number of the symbolic cycles
(sections S+/S-, reduced fibres R_C over contracted curves, section curves
E_i^+/E_i^-, resolution divisors F) is *derived by formula from surface
data*, and overdetermined entries are cross-checked against each other; a
mismatch raises ``InvariantError``, it is never absorbed.

The multiplicities m_C come from the fractional part of the pulled-back
polarization: each contracted curve must carry fractional coefficient 0
(then m_C = 1) or a unit fraction 1/m_C.

Each ledger function returns the plain dict (or list of dicts) that
``conekit cone`` prints, with exact ``Fraction`` values, so callers such as
:func:`adjunction_consistency` and the plt verifier read numbers by key.
Curves are listed in the contraction's ``curve_sort_key`` order.
"""

from __future__ import annotations

import heapq
import sys
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from math import ceil, gcd, lcm
from operator import add, floordiv, mul

from .contract import Contraction
from .km_surface import KMSurface
from .qlattice import (
    InvariantError,
    NamedDivisor,
    Rat,
    frac_divisor,
    pair,
    pair_canonical,
)


def validate_assumption_a(psi: Contraction, pulled_back: NamedDivisor) -> dict[str, int]:
    """Extract the multiplicity table {contracted curve: m_C} from
    ``pulled_back = psi.pullback(A)`` of an integral polarization A.

    Each contracted curve must appear in the fractional part of the pullback
    with coefficient 0 (m_C = 1) or 1/m (m_C = m); anything else violates the
    cone's structural assumption and is reported with the offending curve.
    """
    frac = frac_divisor(pulled_back).terms
    coeffs = {name: frac.get(name, Fraction(0)) for name in psi.contracted}
    bad = [n for n in frac if n not in coeffs] or [
        n for n, c in coeffs.items() if c.numerator > 1
    ]
    if bad:
        raise ValueError(
            f"fractional coefficient of {bad[0]} is {frac[bad[0]]}, "
            "not a unit fraction"
        )
    return {name: c.denominator for name, c in coeffs.items()}


class ConeModel:
    """A contraction of S(d) and an ample integral polarization on the
    target satisfying the unit-fraction assumption, plus the derived
    multiplicity table."""

    def __init__(self, psi: Contraction, polarization: NamedDivisor) -> None:
        if not psi.is_ample_rho1(polarization):
            raise ValueError(f"polarization is not ample: {polarization}")
        self.psi = psi
        self.polarization = polarization
        self._dot_e_memo: dict[int, Rat] = {}  # by polarization_dot_e
        self.mc  # validates the unit-fraction assumption

    @staticmethod
    def build(psi: Contraction, A: NamedDivisor) -> "ConeModel":
        return ConeModel(psi, A)

    @property
    def surface(self) -> KMSurface:
        return self.psi.surface

    @property
    def d(self) -> int:
        return self.surface.d

    @cached_property
    def mc(self) -> dict[str, int]:
        if not self.polarization.is_integral():
            raise ValueError(f"polarization must be integral: {self.polarization}")
        return validate_assumption_a(self.psi, self.pulled_back_polarization)

    @cached_property
    def surface_classification(self) -> dict:
        """The boundary-free classification of the surface contraction,
        computed once per model."""
        return self.psi.classify_singularities()

    @cached_property
    def pulled_back_polarization(self) -> NamedDivisor:
        return self.psi.pullback(self.polarization)

    def polarization_dot_e(self, i: int) -> Rat:
        """pullback(A) . E_i on the source surface, paired once per i."""
        memo = self._dot_e_memo
        if i not in memo:
            memo[i] = pair(
                self.surface.registry,
                NamedDivisor.of({f"E_{i}": 1}),
                self.pulled_back_polarization,
            )
        return memo[i]

    @cached_property
    def crepant_coefficients(self) -> dict[str, Rat]:
        """Coefficients c_C with K_X + sum c_C R_C equal to the pullback of K_Y.

        c_C = (-C^2 - 2 m_C)/(-C^2) per contracted curve; the discrepancy of
        R_C over Y is -c_C.
        """
        out: dict[str, Rat] = {}
        for name in self.psi.contracted:
            sq = self.surface.pairing(name, name)
            out[name] = Fraction(-sq - 2 * self.mc[name], -sq)
        return out


def cone_curve_numbers(model: ConeModel, curve: str) -> dict:
    """The fibre-divisor record over one contracted curve.

    K_X meets the section curves C^+ and C^- in (-C^2 - 2 m_C)/m_C; they have
    square zero inside the fibre divisor (C^+/- inside R_C) and are disjoint
    from the opposite sections (S^+/- . C^+/-).  The surface pullback of C is
    m_C times R_C.
    """
    if curve not in model.psi.contracted:
        raise ValueError(f"{curve} is not contracted")
    m = model.mc[curve]
    sq = model.surface.pairing(curve, curve)
    return {
        "curve": curve,
        "m": m,
        "square": sq,
        "pullback_multiplicity": m,
        "section_curve_square_in_fibre": Fraction(0),
        "section_dot_section_curve": Fraction(0),
        "k_dot_section_curve": Fraction(-sq - 2 * m, m),
    }


def section_numbers(model: ConeModel, i: int, j: int) -> dict:
    """Intersection numbers of the section curves E_i^+/- with the ledger cycles.

    Overdetermined: the K_Y values are produced both as K_X + crepant sum and
    from the closed Gamma-only form, and E_i^Y . f(E_j^{+/-}) must be
    1/(2d-4); a disagreement raises.
    """
    d = model.d
    if not (1 <= i <= d and 1 <= j <= d):
        raise ValueError(f"section indices out of range 1..{d}: ({i}, {j})")

    a_dot_ei = model.polarization_dot_e(i)
    a_dot_ej = model.polarization_dot_e(j)
    m_gamma = model.mc["Gamma"]
    m_l = model.mc[f"l_{i}"]
    m_lp = model.mc[f"lp_{i}"]

    def unit_defect(m: int) -> Rat:
        return Fraction(m - 1, m)

    k_x_plus = unit_defect(m_gamma) + unit_defect(m_l) + unit_defect(m_lp) - 1 - a_dot_ei
    k_x_minus = unit_defect(m_gamma) + unit_defect(m_l) + unit_defect(m_lp) - 1 + a_dot_ei

    # uniform crepant sum: sum over contracted C of c_C (C.E_i)/m_C
    crepant = model.crepant_coefficients
    crepant_sum = Fraction(0)
    for name, dot in model.surface.registry.pairing_row(f"E_{i}").items():
        if name in crepant:
            crepant_sum += crepant[name] * Fraction(dot, model.mc[name])

    # printed form of the same sum: Gamma term plus (1-m)/m for the two
    # (-2)-curves of the i-th fibre
    gamma_sq = model.surface.pairing("Gamma", "Gamma")
    gamma_term = Fraction(-gamma_sq - 2 * m_gamma, -gamma_sq * m_gamma)
    printed = (
        gamma_term
        + Fraction(1 - m_l, m_l)
        + Fraction(1 - m_lp, m_lp)
    )
    if crepant_sum != printed:
        raise InvariantError(
            f"crepant sum mismatch at i={i}: uniform {crepant_sum} vs printed {printed}"
        )

    k_y_plus = k_x_plus + crepant_sum
    k_y_minus = k_x_minus + crepant_sum
    # Gamma-only closed form for the same numbers
    closed_plus = unit_defect(m_gamma) - 1 - a_dot_ei + gamma_term
    closed_minus = unit_defect(m_gamma) - 1 + a_dot_ei + gamma_term
    if k_y_plus != closed_plus or k_y_minus != closed_minus:
        raise InvariantError(f"K_Y section numbers disagree at i={i}")

    e_y_dot = model.psi.target_intersect(
        NamedDivisor.of({f"E_{j}": 1}), NamedDivisor.of({f"E_{i}": 1})
    )
    if e_y_dot != Fraction(1, 2 * d - 4):
        raise InvariantError(
            f"E^Y.f(E^+/-) is {e_y_dot} at (i,j)=({i},{j}), expected 1/(2d-4)"
        )

    return {
        "i": i,
        "j": j,
        "polarization_dot_e_i": a_dot_ei,
        "s_plus_dot_e_plus_j": a_dot_ej,
        "s_minus_dot_e_minus_j": -a_dot_ej,
        "k_x_dot_e_plus": k_x_plus,
        "k_x_dot_e_minus": k_x_minus,
        "k_y_dot_f_e_plus": k_y_plus,
        "k_y_dot_f_e_minus": k_y_minus,
        "e_y_dot_f_e": e_y_dot,
    }


def plt_coefficient_b(model: ConeModel, i: int) -> dict:
    """The boundary coefficient of the negative section over the cone point.

    b = (p - 1/(2d-4)) / p where p = pullback(A).E_i; the pair over the cone
    is plt when b < 1 and the surface contraction is klt.
    """
    p = model.polarization_dot_e(i)
    if p == 0:
        raise ValueError(f"pullback(A).E_{i} = 0: coefficient undefined")
    b = (p - Fraction(1, 2 * model.d - 4)) / p
    surface_class = model.surface_classification
    return {
        "i": i,
        "polarization_dot_e": p,
        "b": b,
        "plt": b < 1 and surface_class["klt"],
        "surface_certificate": f"surface contraction is "
        f"{surface_class['classification']} (minimal-resolution criterion)",
    }


def resolution_ledger(model: ConeModel) -> list[dict]:
    """Pullback coefficients of the explicit resolution over every fibre
    divisor whose curve has multiplicity m >= 2.

    One divisor F+ over the positive side with discrepancy (m-2)/m, and a
    chain F-_1 ... F-_{m-1} over the negative side linking the negative
    section to the fibre divisor: the coefficients of F+ and of the chain in
    the pullbacks of S+, S- and R_C.
    """
    records = []
    for name, m in model.mc.items():
        if m < 2:
            continue
        chain_names = [f"F^-_{k}" for k in range(1, m)]
        records.append({
            "curve": name,
            "m": m,
            "f_plus_discrepancy": Fraction(m - 2, m),
            "mu_s_plus_coeff": Fraction(1, m),
            "mu_s_minus_chain": [Fraction(m - k, m) for k in range(1, m)],
            "mu_r_f_plus": Fraction(1, m),
            "mu_r_minus_chain": [Fraction(k, m) for k in range(1, m)],
            "dual_graph": " - ".join(["S~^-"] + chain_names + [f"R~_{name}"]),
        })
    return records


def adjunction_consistency(model: ConeModel) -> dict:
    """Cross-check the threefold ledger against pure lattice arithmetic.

    For each section curve E_i^+/-, the ledger value of (K_X + S+ + S-) . E
    must equal (K_S + sum (m_C-1)/m_C C) . E_i computed on the surface; for
    each contracted curve, the ledger value of K_X . C^+/- must equal the
    same adjoint divisor paired with C.  Both sides come from independent
    code paths.
    """
    reg = model.surface.registry
    boundary = NamedDivisor.of(
        {name: Fraction(m - 1, m) for name, m in model.mc.items()}
    )

    def adjoint_dot(name: str) -> Rat:
        C = NamedDivisor.of({name: 1})
        return pair_canonical(reg, C) + pair(reg, C, boundary)

    checks = []

    def check(name: str, lhs: Rat, rhs: Rat) -> None:
        checks.append({"name": name, "lhs": lhs, "rhs": rhs, "pass": lhs == rhs})

    for i in range(1, model.d + 1):
        rec = section_numbers(model, i, i)
        rhs = adjoint_dot(f"E_{i}")
        # S^+ . E_i^+ = pol.E_i and S^- . E_i^+ = 0 (sections are disjoint)
        pol = rec["polarization_dot_e_i"]
        check(f"sections:E_{i}^+", rec["k_x_dot_e_plus"] + pol, rhs)
        check(f"sections:E_{i}^-", rec["k_x_dot_e_minus"] - pol, rhs)
    for name in model.psi.contracted:
        # S+. C+ = S-.C- = 0 and cross terms vanish
        lhs = cone_curve_numbers(model, name)["k_dot_section_curve"]
        check(f"curve:{name}", lhs, adjoint_dot(name))
    return {"all_pass": all(c["pass"] for c in checks), "checks": checks}


def picard_chain(model: ConeModel) -> dict[str, int]:
    """Picard ranks along the tower.

    The Proj adds one to the surface rank; the fibre-wise contraction removes
    one rank per contracted curve; collapsing the negative section removes
    one more.  Internal consistency (target rank one, cone rank one) is
    asserted.
    """
    rho_s = model.surface.lattice.rank
    rho_t = model.psi.picard_rank_after()
    rho_x = rho_s + 1
    rho_y = rho_x - len(model.psi.contracted)
    rho_z = rho_y - 1
    if rho_t != 1 or rho_y != 2 or rho_z != 1:
        raise InvariantError(
            f"Picard chain inconsistent: {(rho_s, rho_t, rho_x, rho_y, rho_z)}"
        )
    return dict(rho_s=rho_s, rho_t=rho_t, rho_x=rho_x, rho_y=rho_y, rho_z=rho_z)


# A schedule longer than this is refused before its first step.  The limit
# bounds time and output size, not memory: a trace holds one period of steps
# and is printed a block of rows at a time, so the 999,994-step
# ``--e 2,3 --target 199999`` prints 147.5 MB in about 2.7 s and peaks at
# about 20 MiB (Python 3.11, shared 2-vCPU machine).  At the limit a trace is
# 125 to 180 MB (one to four multiplicities); for k > 4 multiplicities the
# limit is its 4/k share, as the trace grows with k.
KVV_MAX_STEPS = 1_000_000


class _RatText(dict):
    """The text ``str(Fraction(n, den))`` prints, keyed on the numerator n and
    built from gcd(n, den) without a ``Fraction``, each rendered once: for
    the few numerators a schedule repeats, its mu and delta values."""

    def __init__(self, den: int) -> None:
        super().__init__()
        self.den = den

    def __missing__(self, n: int) -> str:
        g = gcd(n, self.den)
        text = str(n // g) if g == self.den else f"{n // g}/{self.den // g}"
        self[n] = text
        return text


def _repeat(column: list, a: int, b: int) -> list:
    """``[column[j % len(column)] for j in range(a, b)]`` by slicing and list
    repetition."""
    start = a % len(column)
    head = column[start:start + b - a]
    times, rest = divmod(b - a - len(head), len(column))
    return head + column * times + column[:rest]


class Rows(Sequence):
    """A read-only sequence of ``length`` rows, row j built by ``row(j)`` when
    it is read; equal to a list or a ``Rows`` holding equal rows."""

    def __init__(self, length: int, row) -> None:
        self.length = length
        self.row = row

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, j: int):
        return self.row(range(self.length)[j])

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, Rows)):
            return list(self) == list(other)
        return NotImplemented


class Table(Rows):
    """Dicts under one tuple of ``keys``, given by columns: ``columns(a, b)``
    lists, for each key in order, the values of rows [a, b).  Row j, read as
    ``table[j]``, is that dict; the JSON writer renders the table a block of
    rows at a time and builds no dict."""

    def __init__(self, keys: tuple[str, ...], length: int, columns) -> None:
        super().__init__(
            length, lambda j: dict(zip(keys, [col[0] for col in columns(j, j + 1)]))
        )
        self.keys = keys
        self.columns = columns


class KvvTrace:
    """A schedule of ``len(steps)`` steps, held as its first ``period``:
    ``period[r] = (chosen, mu_num, lam_num, delta_num)``, the 1-based index
    whose coefficient reached one and the numerators over ``den`` (shared by
    every step) of mu, lambda and the coefficients after the step.  The
    period is sum(e) steps, or every step when there are fewer.  Step j is
    period step j mod sum(e) with lambda raised by (j div sum(e)) * den and
    the same coefficient tuple; mu of a later period's first step is
    n_0 + den - n_last.  ``steps`` is the read-only sequence of every step,
    built on reading, and ``columns`` the printed columns of a block of
    them, which ``to_json_dict`` hands out as a ``Table``."""

    def __init__(
        self,
        multiplicities: tuple[int, ...],
        delta0: tuple[Rat, ...],
        target: Rat,
        den: int,
        period: tuple[tuple[int, int, int, tuple[int, ...]], ...],
        count: int,
    ) -> None:
        self.multiplicities = multiplicities
        self.delta0 = delta0
        self.target = target
        self.den = den
        self.period = period
        self.steps = Rows(count, self.step)

    def step(self, j: int) -> tuple[int, int, int, tuple[int, ...]]:
        """Step j, ``(chosen, mu_num, lam_num, delta_num)``."""
        period = self.period
        k, r = divmod(j, len(period))
        chosen, mu, lam, delta = period[r]
        if k and not r:
            mu = period[0][2] + self.den - period[-1][2]
        return chosen, mu, lam + k * self.den, delta

    @cached_property
    def _texts(self) -> tuple[list, ...]:
        """Per period step, what its printed rows repeat: the mu text (a
        later period's, for step 0), the chosen index, the numerator and
        denominator of lambda reduced (gcd(n + k*den, den) = gcd(n, den)
        for every period k) with its ``/q`` suffix, and the list of delta
        texts, one per distinct coefficient tuple, that every period shares.
        mu and delta texts come from one ``_RatText``."""
        den, text = self.den, _RatText(self.den)
        chosen, mus, lams, deltas = map(list, zip(*self.period))
        mu = list(map(text.__getitem__, mus))
        first_mu, mu[0] = mu[0], text[lams[0] + den - lams[-1]]
        gcds = list(map(gcd, lams, repeat(den)))
        step = list(map(floordiv, repeat(den), gcds))
        suffix = ["" if q == 1 else f"/{q}" for q in step]
        lists = {raised: list(map(text.__getitem__, raised)) for raised in set(deltas)}
        delta = list(map(lists.__getitem__, deltas))
        return first_mu, mu, chosen, list(map(floordiv, lams, gcds)), step, suffix, delta

    def columns(self, a: int, b: int) -> list[list]:
        """The printed j, mu, chosen, lambda and delta columns of steps
        [a, b), 0 <= a < b <= len(steps): the period's columns repeated by
        list repetition, with only lambda's text built per row, as the
        period step's reduced numerator plus k times its denominator."""
        first_mu, mu, chosen, num, step, suffix, delta = self._texts
        mu = _repeat(mu, a, b)
        if a == 0:
            mu[0] = first_mu
        periods = map(floordiv, range(a, b), repeat(len(self.period)))
        nums = map(add, _repeat(num, a, b), map(mul, _repeat(step, a, b), periods))
        lam = list(map(add, map(str, nums), _repeat(suffix, a, b)))
        return [list(range(a, b)), mu, _repeat(chosen, a, b), lam, _repeat(delta, a, b)]

    def to_json_dict(self) -> dict:
        """The printed payload: multiplicities, delta0, target and one row
        per step (j, mu, chosen, lambda, delta), rationals as ``p/q`` texts;
        the steps are a ``Table`` over ``columns``, whose rows one period
        apart share their ``delta`` list."""
        return {
            "multiplicities": list(self.multiplicities),
            "delta0": list(map(str, self.delta0)),
            "target": str(self.target),
            "steps": Table(
                ("j", "mu", "chosen", "lambda", "delta"), len(self.steps), self.columns
            ),
        }


def _closed_form_steps(e: tuple[int, ...], delta: tuple[Rat, ...], target: Rat) -> int:
    """The step count by index: index i reaches 1 at lambda = (k - delta_i)/e_i
    for k >= 1, ceil(target*e_i + delta_i) - 1 times below the target, and
    one step more is at or above it (none for target 0)."""
    if not target:
        return 0
    return 1 + sum(ceil(target * ev + dv) - 1 for ev, dv in zip(e, delta))


def _period_steps(numerators: list[int], stop: int, den: int) -> int:
    """The step count by period: the step at numerator n recurs at n + k*den
    for k >= 0, ceil((stop - n)/den) times below ``stop``, and one step more
    is at or above it (none without a period)."""
    if not numerators:
        return 0
    return 1 + sum(-((n - stop) // den) for n in numerators)


def kvv_schedule(
    multiplicities,
    delta0,
    lambda_target,
) -> KvvTrace:
    """Coefficient-reduction schedule behind the birational vanishing descent.

    At every step, raise all coefficients proportionally to the
    multiplicities until one reaches 1 (mu_j = min (1-delta_i)/e_i, ties to
    the lowest index), then drop that coefficient by one and advance lambda
    by mu_j.  lambda diverges (each index recurs, contributing 1/e_i between
    recurrences), so any target is reached in finitely many steps.

    Computed in closed form: index i reaches 1 at lambda = (k - delta_i)/e_i
    for k >= 1, so the steps are a merge of these progressions, taken in
    integer numerators over D = lcm(e_i * den(delta_i)) by a heap keyed on
    (numerator, index).  After a step at lambda = N/D, coefficient j has
    numerator delta_j*D + e_j*N - (times j has fired)*D.  The steps are those
    at lambda below the target and the first at or above it, so their number,
    1 + sum_i (ceil(target*e_i + delta_i) - 1) for a positive target, is
    checked against ``KVV_MAX_STEPS`` (its 4/k share for k > 4 indices) before
    the first step, and (target + 1) * D, above every printed numerator,
    against Python's int-to-str limit.  Index i fires e_i times per unit of
    lambda, so the heap runs for one period of sum(e) steps at most; the heap
    after it, checked to be the first shifted by D, makes step j + sum(e)
    step j shifted.  The trace holds that period, and the step count
    recomputed from the period's numerators must equal the closed form.
    """
    e = tuple(multiplicities)
    if not e or not all(isinstance(x, int) and x >= 1 for x in e):
        shown = ", ".join(map(str, e))
        raise ValueError(f"multiplicities must be positive integers: [{shown}]")
    delta = tuple(Fraction(x) for x in delta0)
    if len(delta) != len(e):
        raise ValueError("delta0 and multiplicities must have equal length")
    if any(x < 0 or x >= 1 for x in delta):
        shown = ", ".join(map(str, delta))
        raise ValueError(f"initial coefficients must lie in [0,1): [{shown}]")
    target = Fraction(lambda_target)
    if target < 0:
        raise ValueError(f"target must be nonnegative: {target}")
    count = _closed_form_steps(e, delta, target)
    max_steps = KVV_MAX_STEPS * 4 // max(len(e), 4)
    if count > max_steps:
        # a count past 64 bits is shown by its power of two, not in decimal,
        # which can be too long to print (Python's int-to-str digit limit)
        bits = count.bit_length()
        shown = count if bits <= 64 else f"at least 2^{bits - 1}"
        raise ValueError(
            f"schedule needs {shown} steps, above the limit of {max_steps}"
        )

    den = lcm(*(ev * dv.denominator for ev, dv in zip(e, delta)))
    limit = sys.get_int_max_str_digits()
    if limit and den * (ceil(target) + 1) >= 10**limit:
        raise ValueError(
            f"schedule denominator is at least 2^{den.bit_length() - 1}: numbers "
            f"over it would exceed the limit of {limit} decimal digits"
        )
    start = [dv.numerator * (den // dv.denominator) for dv in delta]
    gap = [den // ev for ev in e]
    first = sorted(((den - s) // ev, i) for i, (s, ev) in enumerate(zip(start, e)))
    heap = list(first)  # a sorted list is a heap
    stop = ceil(target * den)  # lambda < target  <=>  numerator < stop
    cycle = sum(e)  # steps per unit of lambda: index i fires e_i times
    fired = [0] * len(e)
    period: list[tuple[int, int, int, tuple[int, ...]]] = []
    lam = 0
    while lam < stop and len(period) < cycle:
        n, i = heap[0]
        heapq.heapreplace(heap, (n + gap[i], i))
        raised = [s + ev * n - f * den for s, ev, f in zip(start, e, fired)]
        if not all(0 <= x <= den for x in raised):
            shown = ", ".join(str(Fraction(x, den)) for x in raised)
            raise InvariantError(
                f"coefficient left [0,1] at step {len(period)}: [{shown}]"
            )
        raised[i] -= den
        fired[i] += 1
        period.append((i + 1, n - lam, n, tuple(raised)))
        lam = n
    # the state after one period is the first one shifted by den, so every
    # later step repeats a checked one, one unit of lambda on
    if len(period) == cycle and sorted(heap) != [(m + den, x) for m, x in first]:
        raise InvariantError(f"schedule did not repeat after {cycle} steps")
    steps = _period_steps([n for _, _, n, _ in period], stop, den)
    if steps != count:
        raise InvariantError(
            f"schedule period gives {steps} steps, its closed form {count}"
        )
    return KvvTrace(e, delta, target, den, tuple(period), count)
