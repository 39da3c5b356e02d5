"""The rank-one del Pezzo degeneration surface S(d), replayed over the plane.

S(d) is the smooth rational surface obtained from the plane by 2d+1 blow-ups:
one point off a conic Gamma that is tangent to every line through it, then d
points on Gamma, then the d residual tangency points.  Everything downstream
needs only the resulting Picard lattice and the named curve classes, so the
construction is purely combinatorial: a plan is a tuple of :class:`BlowupStep`
recording which named curves pass through each centre with which multiplicity,
and :func:`replay` runs it over the plane (H^2 = 1, K = -3H, curves given by
their degrees) to produce the curve registry and its lattice.

Resulting data, in the orthogonal basis (H, e0, e_1_1, e_1_2, ..., e_d_1, e_d_2):

* ``Gamma = 2H - sum_i (e_i_1 + e_i_2)``, so ``Gamma^2 = 4 - 2d``
* ``l_i   = H - e0 - e_i_1 - e_i_2`` (fibre component, a (-2)-curve)
* ``lp_i  = e_i_1 - e_i_2``          (fibre component, a (-2)-curve)
* ``E_i   = e_i_2``                  (the (-1)-curve of the fibre)
* ``F     = H - e0``                 (general fibre), ``F = 2E_i + l_i + lp_i``
* ``K     = -3H + e0 + sum (e_i_1 + e_i_2)``, and ``-K = Gamma + F``
"""

from __future__ import annotations

from fractions import Fraction

from .qlattice import (
    ClassVector,
    CurveRegistry,
    IntersectionLattice,
    NamedDivisor,
    class_of,
    format_rat,
)

MIN_D = 3  # below this Gamma^2 >= 0 and the contraction of Gamma is unavailable
# The work of every command grows as d^2; at d = 200 the costliest one,
# km-surface --check, takes about 0.6 s and 56 MiB and prints 3.2 MB
# (Python 3.11 on a shared 2-vCPU machine).
MAX_D = 200


class BlowupStep:
    """One blow-up: new orthogonal basis element plus affected named curves.

    ``through`` lists (curve name, multiplicity of the curve at the centre);
    replay subtracts multiplicity times the new exceptional class from each.
    ``register`` optionally enters the exceptional curve itself in the
    registry under the given name.
    """

    def __init__(
        self,
        exceptional: str,
        through: tuple[tuple[str, int], ...] = (),
        register: str | None = None,
    ) -> None:
        self.exceptional = exceptional
        self.through = through
        self.register = register


def replay(degrees: dict[str, int], plan: tuple[BlowupStep, ...]) -> CurveRegistry:
    """Replay a blow-up plan over the plane, whose named curves are given by
    their degrees.

    Each step adds a (-1) class orthogonal to the others (the lattice's
    canonical class gains it too) and reduces every named curve through the
    centre by its multiplicity.  Curve coordinates are ints.
    """
    rank = 1 + len(plan)  # H, then one exceptional class per step
    curves = {n: [deg] + [0] * len(plan) for n, deg in degrees.items()}
    for k, step in enumerate(plan, start=1):
        for curve_name, mult in step.through:
            curves[curve_name][k] = -mult
        if step.register is not None:
            curves[step.register] = [0] * rank
            curves[step.register][k] = 1

    lattice = IntersectionLattice(("H",) + tuple(step.exceptional for step in plan))
    return CurveRegistry.of(
        lattice, {n: ClassVector(tuple(v)) for n, v in curves.items()}
    )


class KMSurface:
    """S(d) with its rank 2+2d lattice and the named curves used downstream.

    >>> s = build_km_surface(5)
    >>> s.lattice.rank
    12
    >>> s.pairing("Gamma", "Gamma")
    Fraction(-6, 1)
    >>> s.pairing("E_2", "l_2")
    Fraction(1, 1)
    """

    def __init__(self, d: int, registry: CurveRegistry) -> None:
        self.d = d
        self.registry = registry

    @property
    def lattice(self) -> IntersectionLattice:
        return self.registry.lattice

    @property
    def canonical(self) -> ClassVector:
        return self.lattice.canonical

    @property
    def canonical_named(self) -> NamedDivisor:
        """K expressed in registered curves: K = -(Gamma + F)."""
        return NamedDivisor.of({"Gamma": -1, "F": -1})

    def exceptional_names(self) -> tuple[str, ...]:
        """The 2d+1 curves contracted by the map to the rank-one surface."""
        return tuple(
            ["Gamma"]
            + [f"l_{i}" for i in range(1, self.d + 1)]
            + [f"lp_{i}" for i in range(1, self.d + 1)]
        )

    def pairing(self, a: str, b: str):
        row = self.registry.pairing_row(a)
        self.registry.pairing_row(b)  # an unknown name on either side raises
        return Fraction(row.get(b, 0))

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "rank": self.lattice.rank,
            "basis": list(self.lattice.basis_names),
            "canonical": [format_rat(c) for c in self.canonical.coeffs],
            "curves": {
                name: [format_rat(c) for c in cls.coeffs]
                for name, cls in self.registry.entries
            },
        }


def km_blowup_plan(d: int) -> tuple[BlowupStep, ...]:
    """The 2d+1 step plan: the strange point, then P_i on Gamma, then the
    residual tangency points Q_i (on Gamma, on the fibre, and on the first
    exceptional curve)."""
    steps: list[BlowupStep] = [
        BlowupStep(
            exceptional="e0",
            # every fibre line passes through the strange point, F included
            through=tuple([("F", 1)] + [(f"l_{i}", 1) for i in range(1, d + 1)]),
        )
    ]
    for i in range(1, d + 1):
        steps.append(
            BlowupStep(
                exceptional=f"e_{i}_1",
                through=(("Gamma", 1), (f"l_{i}", 1)),
                register=f"lp_{i}",
            )
        )
        steps.append(
            BlowupStep(
                exceptional=f"e_{i}_2",
                through=(("Gamma", 1), (f"l_{i}", 1), (f"lp_{i}", 1)),
                register=f"E_{i}",
            )
        )
    return tuple(steps)


def build_km_surface(d: int) -> KMSurface:
    """Construct S(d); requires d >= MIN_D so that Gamma^2 = 4 - 2d < 0, and
    d <= MAX_D to bound the work."""
    if d < MIN_D:
        raise ValueError(f"d must be >= {MIN_D}, got {d}")
    if d > MAX_D:
        raise ValueError(f"d must be <= {MAX_D}, got {d}")
    degrees = {"Gamma": 2, "F": 1}
    degrees.update((f"l_{i}", 1) for i in range(1, d + 1))
    return KMSurface(d=d, registry=replay(degrees, km_blowup_plan(d)))


def km_sanity(s: KMSurface) -> dict:
    """Check the structural identities of S(d) and report each one.

    (a) F = 2E_i + l_i + lp_i as classes, for every i
    (b) the 2d+1 curves Gamma, l_i, lp_i are pairwise orthogonal
    (c) E_i.Gamma = E_i.l_i = E_i.lp_i = 1
    (d) -K = Gamma + F
    (e) Gamma.F = 2

    (a) and (d) are class identities, compared as dense class vectors; (b),
    (c) and (e) read the registry's named pairing table, so (b) costs one
    table row per exceptional curve.  Returns the printed report:
    ``{"all_pass", "items": [{"name", "pass", "detail"}]}``.
    """
    items: list[dict] = []
    lat, reg = s.lattice, s.registry
    f_class = reg.class_vector("F")

    def item(name: str, ok: bool, detail: str) -> None:
        items.append({"name": name, "pass": ok, "detail": detail})

    ok = True
    for i in range(1, s.d + 1):
        combo = class_of(
            reg, NamedDivisor.of({f"E_{i}": 2, f"l_{i}": 1, f"lp_{i}": 1})
        )
        if combo != f_class:
            ok = False
    item("fibre_decomposition", ok, "F = 2E_i + l_i + lp_i for all i")

    exceptional = set(s.exceptional_names())
    ok = all(
        other == a or other not in exceptional
        for a in exceptional
        for other in reg.pairing_row(a)
    )
    item(
        "exceptional_orthogonal",
        ok,
        "Gamma, l_i, lp_i pairwise orthogonal (2d+1 curves)",
    )

    ok = all(
        s.pairing(f"E_{i}", other) == 1
        for i in range(1, s.d + 1)
        for other in ("Gamma", f"l_{i}", f"lp_{i}")
    )
    item("minus_one_meets", ok, "E_i.Gamma = E_i.l_i = E_i.lp_i = 1")

    anti_k = class_of(reg, NamedDivisor.of({"Gamma": 1, "F": 1}))
    item("anticanonical", anti_k == -lat.canonical, "-K = Gamma + F")

    item("gamma_dot_fibre", s.pairing("Gamma", "F") == 2, "Gamma.F = 2")

    return {"all_pass": all(i["pass"] for i in items), "items": items}
