"""Output checks for benchmark requests, independent of the conekit engine.

Each check parses a request's stdout and tests closed-form facts about the
answer, using nothing from conekit.  ``check`` returns the list of problems
found (empty when the output is right) and the amount of work the output
reports: sweep rows for ``sweep``, schedule steps for ``kvv-schedule``, and
zero otherwise.
"""

from __future__ import annotations

import functools
import json
from fractions import Fraction


def _opt(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _check_verify(argv: list[str], payload: dict) -> list[str]:
    problems = []
    if payload.get("verdict") is not True:
        problems.append(f"verdict is {payload.get('verdict')!r}, not true")
    values = {}
    for cert in payload["certificates"]:
        if ";MISMATCH" in cert["rule"]:
            problems.append(f"rule of {cert['claim']} reports a mismatch")
        values[cert["claim"]] = cert["value"]
    q = int(_opt(argv, "--q"))
    if argv[1] == "plt":
        want = Fraction(q - 2, q - 1)
        if Fraction(values.get("b", "nan")) != want:
            problems.append(f"b = {values.get('b')}, expected {want}")
    elif values.get("h2(Z,O_Z)") != str(q - 1):
        problems.append(f"h2(Z,O_Z) = {values.get('h2(Z,O_Z)')}, expected {q - 1}")
    return problems


def _check_adjunction(payload: dict) -> list[str]:
    report = payload["data"]["adjunction"]
    problems = [] if report["all_pass"] is True else ["all_pass is not true"]
    for c in report["checks"]:
        if c["pass"] is not True or Fraction(c["lhs"]) != Fraction(c["rhs"]):
            problems.append(f"adjunction check {c['name']}: {c['lhs']} vs {c['rhs']}")
    return problems


def _expected_h1(q1: int, q2: int) -> int:
    if q2 == 0:
        return 0
    return q2 - 1 if q1 >= q2 else q1


def _check_sweep(argv: list[str], text: str) -> tuple[list[str], int]:
    d_min, d_max = int(_opt(argv, "--d-min")), int(_opt(argv, "--d-max"))
    lines = text.splitlines()
    if not lines or lines[0] != "d,q1,q2,ample,h1,kvv_violation":
        return ["missing csv header"], 0
    problems = []
    keys = []
    for line in lines[1:]:
        d, q1, q2, ample, h1, violation = line.split(",")
        d, q1, q2, h1 = int(d), int(q1), int(q2), int(h1)
        keys.append((d, q1, q2))
        if h1 != _expected_h1(q1, q2):
            problems.append(f"row {line}: h1 should be {_expected_h1(q1, q2)}")
        if ample != ("true" if q1 > q2 else "false"):
            problems.append(f"row {line}: ample should be {q1 > q2}")
        if violation != ("true" if q1 > q2 and h1 > 0 else "false"):
            problems.append(f"row {line}: kvv_violation should be ample and h1 > 0")
    grid = [
        (d, q1, q2)
        for d in range(d_min, d_max + 1)
        for q1 in range(d + 1)
        for q2 in range(d - q1 + 1)
    ]
    if keys != grid:
        problems.append(
            f"{len(keys)} rows, expected the {len(grid)} rows of the (d, q1, q2) grid"
        )
    return problems, len(keys)


def _check_kvv(argv: list[str], payload: dict) -> tuple[list[str], int]:
    """lambda is the running sum of mu and never decreases; mu is 0 only
    when the chosen coefficient was left at exactly 1 by the step before (two
    coefficients reached 1 together); every delta entry lies in [0, 1]; the
    last step is the first with lambda >= target."""
    # The same coefficient strings recur from step to step, so each is
    # parsed and range-checked once.
    frac = functools.cache(Fraction)
    in_unit = functools.cache(lambda x: 0 <= frac(x) <= 1)
    target = Fraction(_opt(argv, "--target"))
    steps = payload["steps"]
    if not steps:
        return ["empty schedule"], 0
    lam = Fraction(0)
    delta = payload["delta0"]
    for step in steps:
        prev = lam
        mu = frac(step["mu"])
        lam += mu
        where = f"step {step['j']}"
        if Fraction(step["lambda"]) != lam:
            return [f"{where}: lambda is not the running sum of mu"], len(steps)
        if mu < 0:
            return [f"{where}: lambda decreases"], len(steps)
        if mu == 0 and frac(delta[step["chosen"] - 1]) != 1:
            return [f"{where}: mu = 0 but the chosen coefficient was below 1"], len(steps)
        delta = step["delta"]
        if not all(map(in_unit, delta)):
            return [f"{where}: delta entry outside [0, 1]"], len(steps)
        if prev >= target:
            return [f"{where}: schedule runs past the target"], len(steps)
    if lam < target:
        return [f"schedule stops at lambda {lam} below target {target}"], len(steps)
    return [], len(steps)


def check(argv: list[str], stdout: bytes) -> tuple[list[str], int]:
    """Problems with the output of ``conekit <argv>``, and its work count."""
    try:
        text = stdout.decode("utf-8")
        if argv[0] == "sweep":
            return _check_sweep(argv, text)
        payload = json.loads(text)
        if argv[0] == "kvv-schedule":
            return _check_kvv(argv, payload)
        if argv[0] == "verify":
            return _check_verify(argv, payload), 0
        if argv[0] == "cone":
            return _check_adjunction(payload), 0
    except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        return [f"unreadable output: {exc!r}"], 0
    return [f"no check for {argv[0]}"], 0
