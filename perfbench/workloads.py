"""Seeded request generators for the conekit CLI benchmark.

A workload is an endless stream of *passes*; a pass is a short list of CLI
argv lists.  Pass ``k`` of a seed is drawn from its own generator, so the
same seed always yields the same requests in the same order, however many
passes a run gets through.

Each pass has a fixed shape (how many requests of each kind and size class)
and the seed picks the concrete parameters inside each size class.  That
keeps the cost of a pass nearly the same from seed to seed, which is what
lets a half-minute run report figures that repeat across seeds, while the
inputs themselves still change with the seed.

Every generated request is valid and finishes in a few seconds: d <= 45
for the verifiers, sweep windows inside [6, 13], and schedule targets in
[100, 800] with at most about 12000 steps.
"""

from __future__ import annotations

import random
from fractions import Fraction

# verify-ladder: two thirds small requests, one per d in SMALL_D, and one
# third large ones, one per (kind, d range, q) in LARGE_SLOTS (q None:
# drawn).  The kind of a small request is drawn below SMALL_PLT_FROM and is
# verify plt from there on: the median falls in the upper quarter of the
# small requests, and there the kinds differ in cost by a third.  Large
# kinds are fixed and their d ranges narrow because the cost of a large
# request grows steeply with d (d = 26 costs a fifth more than d = 25) and
# differs by kind.  The latency tail falls on the two cheapest large slots,
# so they share one d and one q (at d = 25, q = 2 costs more than q = 3,
# and drawing q moved the tail by a sixth from seed to seed).
SMALL_D = range(5, 13)
SMALL_PLT_FROM = 10
LARGE_SLOTS = (
    ("plt", 25, 25, 3),
    ("cone", 25, 25, 3),
    ("fano", 34, 34, None),
    ("plt", 43, 45, None),
)

# sweep-grid: each pass splits [6, 8] into two windows at a point drawn by
# the seed and sweeps the rest of [6, 13] in four fixed windows, in an order
# drawn by the seed.  A request for the split costs under 0.8 s, one for
# [9, 10], 11 or 12 about 1.1 s, and one for 13 about 1.4 s (fresh process,
# 2-vCPU virtual machine).  For three to seven passes in a run, the median
# and the latency tail (the eleventh largest request) both fall among the
# three 1.1 s windows, which are the same for every seed; seeded windows
# there moved the tail by a fifth from seed to seed.
SWEEP_SPLIT = (6, 8)
SWEEP_FIXED = ((9, 10), (11, 11), (12, 12), (13, 13))

# kvv-trace: (schedule steps, number of multiplicities, explicit --delta)
# of each request in a pass.  A request takes about target * sum(e) steps,
# so the target is set from the steps wanted and the multiplicities drawn.
# Per-step cost grows with the number of multiplicities, so that number is
# fixed per size class.  The median falls in the middle size class and the
# latency tail inside the largest one, for any run of three to five passes.
# One request per pass leaves out --delta, so the CLI's all-zero default
# runs too; the others draw each entry r/p with p in KVV_DENOMINATORS.
# Small denominators make coefficients reach 1 together, so the schedule's
# tie steps (mu = 0) run as well.
KVV_SLOTS = (
    (1500, 2, False), (1500, 3, True), (1500, 5, True),
    (5000, 3, True), (5000, 3, True), (5000, 3, True),
    (12000, 4, True), (12000, 4, True), (12000, 4, True), (12000, 4, True),
)
KVV_TARGET = (100, 800)
KVV_DENOMINATORS = (1, 2, 3, 4, 5, 6)

WORKLOADS = ("verify-ladder", "sweep-grid", "kvv-trace")


def plt_qs(d: int) -> list[int]:
    """Every q with q >= 2, d >= q + 2 and (q - 1) | (2d - 4)."""
    return [q for q in range(2, d - 1) if (2 * d - 4) % (q - 1) == 0]


def _plt(rng: random.Random, d: int, q: int | None) -> list[str]:
    q = q or rng.choice(plt_qs(d))
    return ["verify", "plt", "--d", str(d), "--q", str(q)]


def _cone(rng: random.Random, d: int, q: int | None) -> list[str]:
    q = q or rng.choice(plt_qs(d))
    return ["cone", "--d", str(d), "--q", str(q), "--ledger", "adjunction"]


def _fano(q: int) -> list[str]:
    return ["verify", "fano", "--q", str(q)]


def _fano_qs(lo: int, hi: int) -> list[int]:
    """The q with lo <= 4q + 2 <= hi (fano requests have d = 4q + 2)."""
    return [q for q in range(1, hi) if lo <= 4 * q + 2 <= hi]


def _ladder_request(
    rng: random.Random, kind: str, lo: int, hi: int, q: int | None = None
) -> list[str]:
    """A verify plt, verify fano or adjunction-ledger request with d in
    [lo, hi], and q drawn unless given (plt and adjunction only)."""
    if kind == "fano":
        return _fano(rng.choice(_fano_qs(lo, hi)))
    d = rng.randint(lo, hi)
    return _plt(rng, d, q) if kind == "plt" else _cone(rng, d, q)


def verify_ladder_pass(rng: random.Random) -> list[list[str]]:
    requests = []
    for d in SMALL_D:
        kinds = ["plt", "cone"] + (["fano"] if _fano_qs(d, d) else [])
        kind = rng.choice(kinds) if d < SMALL_PLT_FROM else "plt"
        requests.append(_ladder_request(rng, kind, d, d))
    requests += [_ladder_request(rng, *slot) for slot in LARGE_SLOTS]
    rng.shuffle(requests)
    return requests


def sweep_grid_pass(rng: random.Random) -> list[list[str]]:
    lo, hi = SWEEP_SPLIT
    cut = rng.randrange(lo, hi)
    windows = [(lo, cut), (cut + 1, hi), *SWEEP_FIXED]
    rng.shuffle(windows)
    return [["sweep", "--d-min", str(a), "--d-max", str(b)] for a, b in windows]


def _delta(rng: random.Random, n: int) -> list[Fraction]:
    """n initial coefficients in [0, 1) with small denominators, 0 included."""
    out = []
    for _ in range(n):
        p = rng.choice(KVV_DENOMINATORS)
        out.append(Fraction(rng.randrange(p), p))
    return out


def _kvv(rng: random.Random, steps: int, n: int, explicit: bool) -> list[str]:
    lo, hi = KVV_TARGET
    while True:
        e = [rng.randint(1, 13) for _ in range(n)]
        target = round(steps / sum(e))
        if lo <= target <= hi:
            break
    argv = ["kvv-schedule", "--e", ",".join(map(str, e))]
    if explicit:
        argv += ["--delta", ",".join(str(x) for x in _delta(rng, n))]
    return argv + ["--target", str(target)]


def kvv_trace_pass(rng: random.Random) -> list[list[str]]:
    requests = [_kvv(rng, *slot) for slot in KVV_SLOTS]
    rng.shuffle(requests)
    return requests


_PASSES = {
    "verify-ladder": verify_ladder_pass,
    "sweep-grid": sweep_grid_pass,
    "kvv-trace": kvv_trace_pass,
}


def make_pass(workload: str, seed: int, index: int) -> list[list[str]]:
    """Pass ``index`` of ``workload`` for ``seed``; the same arguments always
    give the same argv lists."""
    return _PASSES[workload](random.Random(f"{workload}:{seed}:{index}"))
