#!/usr/bin/env python3
"""Closed-loop, fresh-process benchmark of the conekit CLI.

    python3 perfbench/run.py --workload verify-ladder --seed 1 --seconds 40 --trace 0

Run from the root of a conekit checkout; the program is imported from
``src/`` (nothing needs building).

``--trace 0`` measures end to end.  One client sends requests in a closed
loop: each request runs ``python -m conekit.cli <argv>`` as a fresh process
and the next starts only after it exits, so every request pays interpreter
start-up, imports and the cold ``target_context`` build, as a user does.
Requests come in passes from the seeded generator in ``workloads.py``; a
run measures whole passes, at least three, stopping at the pass boundary
nearest to ``--seconds`` of scaled time (below).  Set-up time is the median of fresh interpreters
that only import ``conekit.cli``, timed before and after the loop.

The speed of a shared machine drifts by tens of percent within seconds, so
a fixed stdlib-only probe process runs before and after every timed child,
and each child's wall time is scaled by ``PROBE_REF_S`` over the mean of
the two probes around it.  The reported times are seconds on a machine
where the probe takes ``PROBE_REF_S``; the unscaled wall-clock figures are
printed in the report as well.

``--trace 1`` replays the first pass in-process through ``cli.main`` with
the layers' public functions wrapped by ``tracer.py`` and reports per-layer
calls, self time and counters, plus the tracing overhead against the same
replay untraced.

Every output is checked by ``checks.py``, and the sha256 of every request's
stdout is kept under ``perfbench/.state/``: a request whose bytes differ
from an earlier run of the same argv, or a run whose digest differs from an
earlier run of the same seed, fails, and so does a traced run whose counts
differ from an earlier traced run of the same seed on the same sources.
Only results without problems are kept.  The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it are a readable report.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from checks import check
from tracer import Tracer
from workloads import WORKLOADS, make_pass

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
STATE = BENCH / ".state"

SETUP_SAMPLES = 16
# The probe: a fresh interpreter doing exact-rational arithmetic, the same
# kind of work as conekit, with nothing from conekit in it.  A slow spell of
# the machine slows the probe and the child next to it alike; on a 2-vCPU
# virtual machine this cut the spread of 20-second medians of one repeated
# request from about 0.22 to 0.06 of the median.
PROBE = (
    "from fractions import Fraction\n"
    "s = Fraction(0)\n"
    "for i in range(1, 25000):\n"
    "    s += Fraction(1, i % 97 + 1)\n"
)
PROBE_REF_S = 0.15
REQUEST_TIMEOUT_S = 30.0
TAIL_BEYOND = 10
MIN_PASSES = 3

# Deterministic per-layer counts and their units: they must repeat exactly
# across traced runs of one seed on the same sources.
COUNT_METRICS = {
    "qlattice.intersect.calls": "count",
    "qlattice.class_of.calls": "count",
    "qlattice.determinant.calls": "count",
    "qlattice.solve_linear.calls": "count",
    "km_surface.build_km_surface.calls": "count",
    "contract.pullback.calls": "count",
    "contract.pullback.repeat_ratio": "ratio",
    "contract.pullback.max_den_bits": "bits",
    "contract.pullback_class.calls": "count",
    "cohom.km_family_cohomology.calls": "count",
    "cohom.chi_rr.calls": "count",
    "cohom.cohomology_of_nA.calls": "count",
    "cone3fold.kvv_schedule.steps": "count",
    "cli.stdout_bytes": "bytes",
}
# Spans whose self time is reported as "<span>.self_s".
TIME_METRICS = (
    "qlattice.intersect",
    "qlattice.class_of",
    "qlattice.is_negative_definite",
    "qlattice.solve_linear",
    "qlattice.gram_block",
    "km_surface.build_km_surface",
    "contract.km_psi",
    "contract.gram_inverse",
    "contract.pullback",
    "contract.classify_singularities",
    "cohom.target_context",
    "cohom.km_family_cohomology",
    "cohom.floor_pullback_stats",
    "cohom.chi_rr",
    "cohom.cohomology_of_nA",
    "cone3fold.ConeModel.build",
    "cone3fold.adjunction_consistency",
    "cone3fold.kvv_schedule",
    "scenarios.verify_plt_nonnormal",
    "scenarios.verify_bad_fano",
    "scenarios.sweep_kvv",
    "cli.main",
)


class DigestBook:
    """What runs of one workload in this checkout must repeat: the sha256 of
    every request's stdout by argv and of every run's first pass by seed,
    which must also hold across versions of the code, and the deterministic
    counts of traced runs by seed and source digest, which only have to
    repeat for the same code.  Only results without problems are
    remembered; every result is compared with what was remembered."""

    def __init__(self, path: Path) -> None:
        self.path = path
        data = json.loads(path.read_text()) if path.exists() else {}
        self.requests: dict = data.get("requests", {})
        self.runs: dict = data.get("runs", {})
        self.counts: dict = data.get("counts", {})
        self.compared = 0

    def _recall(self, book: dict, key: str, value, ok: bool):
        """The value remembered under ``key`` if it differs from ``value``,
        else None; remembers ``value`` when nothing is and ``ok``."""
        known = book.get(key)
        if known is None:
            if ok:
                book[key] = value
            return None
        self.compared += 1
        return known if known != value else None

    def request(self, argv: list[str], digest: str, ok: bool) -> list[str]:
        known = self._recall(self.requests, " ".join(argv), digest, ok)
        return [f"stdout digest {digest[:12]} differs from earlier {known[:12]}"] if known else []

    def run(self, seed: int, digest: str, ok: bool) -> list[str]:
        known = self._recall(self.runs, str(seed), digest, ok)
        return [f"run digest {digest[:12]} differs from earlier {known[:12]}"] if known else []

    def traced_counts(self, seed: int, source: str, counts: dict, ok: bool) -> list[str]:
        known = self._recall(self.counts, f"{seed}:{source}", counts, ok)
        if not known:
            return []
        return [
            f"{name} = {counts[name]}, an earlier traced run of this seed and "
            f"source gave {known.get(name)}"
            for name in counts
            if known.get(name) != counts[name]
        ]

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(
            {"requests": self.requests, "runs": self.runs, "counts": self.counts}
        ))
        os.replace(tmp, self.path)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digest(records: list[dict]) -> str:
    """Digest of the first pass: argv and stdout digest of each request."""
    lines = [" ".join(r["argv"]) + " " + r["digest"] for r in records if r["pass"] == 0]
    return sha256("\n".join(lines).encode())


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def environment() -> dict:
    """Commit (when the checkout is a git work tree), a digest of the
    sources, the Python version and the processor count."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "conekit").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
    }


def run_child(cmd: list[str], env: dict) -> tuple[float, list[str], bytes, bytes]:
    """Run ``cmd`` in the checkout and wait for it; (seconds from spawn to
    exit, problems, stdout, stderr).  The waits block instead of polling
    (``Popen.wait`` with a timeout sleeps up to 50 ms between polls, which
    would show up in every timing); a timer kills a child that outlives
    REQUEST_TIMEOUT_S."""
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    timer = threading.Timer(REQUEST_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out, err = proc.communicate()
    finally:
        fired = not timer.is_alive()
        timer.cancel()
    elapsed = perf_counter() - start
    if fired:
        problems = [f"timed out after {REQUEST_TIMEOUT_S:.0f} s"]
    else:
        problems = [] if proc.returncode == 0 else [f"exit code {proc.returncode}"]
    return elapsed, problems, out, err


def check_import(env: dict) -> None:
    """Import conekit.cli once, untimed (this also writes its bytecode), and
    check that it comes from src/ and not from an installed copy."""
    probe = [sys.executable, "-c", "import conekit.cli; print(conekit.cli.__file__)"]
    _, problems, out, err = run_child(probe, env)
    where = out.decode().strip()
    if problems or Path(where).resolve() != (SRC / "conekit" / "cli.py").resolve():
        raise RuntimeError(f"cannot import conekit.cli from {SRC}: {problems} {err.decode()}")


class Probe:
    """Runs the probe and scales a child's wall time by the probes taken
    just before and just after it."""

    def __init__(self, env: dict) -> None:
        self.env = env
        self.last = self.run()

    def run(self) -> float:
        elapsed, problems, _, err = run_child([sys.executable, "-c", PROBE], self.env)
        if problems:
            raise RuntimeError(f"probe failed: {problems} {err.decode()}")
        return elapsed

    def scale(self) -> float:
        """PROBE_REF_S over the mean of the last probe and a new one; call
        right after the timed child has exited."""
        before, self.last = self.last, self.run()
        return 2 * PROBE_REF_S / (before + self.last)


def measure_setup(env: dict, probe: Probe, count: int) -> list[tuple[float, float]]:
    """(scaled, wall) times of ``count`` fresh interpreters that import
    conekit.cli."""
    cmd = [sys.executable, "-c", "import conekit.cli"]
    samples = []
    for _ in range(count):
        elapsed, problems, _, err = run_child(cmd, env)
        if problems:
            raise RuntimeError(f"importing conekit.cli failed: {problems} {err.decode()}")
        samples.append((elapsed * probe.scale(), elapsed))
    return samples


def fresh_request(argv: list[str], env: dict, probe: Probe) -> dict:
    """Run ``conekit <argv>`` as a fresh process and check its output."""
    wall, problems, out, err = run_child(
        [sys.executable, "-m", "conekit.cli", *argv], env
    )
    latency = wall * probe.scale()
    work = 0
    if not problems:
        problems, work = check(argv, out)
    if err and problems:
        problems.append("stderr: " + err.decode(errors="replace").strip()[-300:])
    return {"argv": argv, "latency_s": latency, "wall_s": wall, "problems": problems,
            "work": work, "digest": sha256(out)}


def tail(latencies: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least TAIL_BEYOND samples above
    it (nearest rank), and its value; (100, max) below TAIL_BEYOND + 1."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100, ordered[-1]
    pct = 100 * (n - TAIL_BEYOND) // n
    rank = max(1, -(-pct * n // 100))
    return pct, ordered[rank - 1]


def fresh_run(workload: str, seed: int, seconds: float, book: DigestBook) -> dict:
    env = child_env()
    check_import(env)
    probe = Probe(env)
    # Half the set-up samples are taken before the loop and half after, so
    # the median spans the run rather than its first seconds.
    setup = measure_setup(env, probe, SETUP_SAMPLES // 2)
    records = []
    start = perf_counter()
    index, elapsed = 0, 0.0
    # Whole passes only, so every run has the same mix; stop at the pass
    # boundary nearest to the end of the measuring time, but not before
    # MIN_PASSES, which the latency tail needs to fall inside the largest
    # size class of a pass.  The measuring time is scaled like the requests
    # (each request's slot, its probe and check included, by the request's
    # scale), so a slow spell of the machine does not change the number of
    # passes, and with it the ranks the median and the tail fall on.
    while index < MIN_PASSES or elapsed + elapsed / index / 2 < seconds:
        for argv in make_pass(workload, seed, index):
            slot = perf_counter()
            record = fresh_request(argv, env, probe)
            record["pass"] = index
            record["problems"] += book.request(
                argv, record["digest"], not record["problems"]
            )
            records.append(record)
            elapsed += (perf_counter() - slot) * record["latency_s"] / record["wall_s"]
        index += 1
    wall_elapsed = perf_counter() - start
    setup += measure_setup(env, probe, SETUP_SAMPLES - len(setup))

    ok = [r for r in records if not r["problems"]]
    # Throughput is per second the client spent waiting for requests, which
    # leaves out the probes and the output checks between them.
    scaled = [r["latency_s"] for r in records]
    wall = [r["wall_s"] for r in records]
    pct, tail_s = tail(scaled)
    metrics = {
        "setup_s": (statistics.median(s for s, _ in setup), "s"),
        "latency_p50_s": (statistics.median(scaled), "s"),
        "latency_tail_s": (tail_s, "s"),
        "throughput_rps": (len(ok) / sum(scaled), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MiB"),
    }
    extra = {"failed_frac": (1 - len(ok) / len(records), "ratio")}
    work = sum(r["work"] for r in ok) / sum(scaled)
    if workload == "sweep-grid":
        extra["sweep_rows_per_s"] = (work, "1/s")
    if workload == "kvv-trace":
        extra["kvv_steps_per_s"] = (work, "1/s")
    extra.update({
        "wall_setup_s": (statistics.median(w for _, w in setup), "s"),
        "wall_latency_p50_s": (statistics.median(wall), "s"),
        "wall_latency_tail_s": (tail(wall)[1], "s"),
        "wall_throughput_rps": (len(ok) / sum(wall), "1/s"),
    })
    return {
        "records": records,
        "setup_samples": setup,
        "elapsed_s": elapsed,
        "wall_elapsed_s": wall_elapsed,
        "passes": index,
        "tail_percentile": pct,
        "metrics": metrics,
        "extra": extra,
    }


def replay(
    argvs: list[list[str]], clear, tracer: Tracer | None
) -> tuple[float, list[tuple[int, bytes]]]:
    """Run each argv through cli.main in this process, calling ``clear`` to
    empty the target_context cache before each, as in a fresh process;
    total seconds and outputs."""
    import conekit.cli

    main = conekit.cli.main
    outputs = []
    start = perf_counter()
    for i, argv in enumerate(argvs):
        clear()
        if tracer is not None:
            tracer.start_request(i)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
        outputs.append((rc, buf.getvalue().encode()))
    return perf_counter() - start, outputs


def traced_run(workload: str, seed: int, book: DigestBook) -> dict:
    sys.path.insert(0, str(SRC))
    import conekit.cli
    import conekit.cohom

    if Path(conekit.cli.__file__).resolve() != (SRC / "conekit" / "cli.py").resolve():
        raise RuntimeError(f"conekit.cli imported from {conekit.cli.__file__}")
    argvs = make_pass(workload, seed, 0)
    clear = conekit.cohom.target_context.cache_clear
    plain_before, outputs = replay(argvs, clear, None)
    tracer = Tracer()
    tracer.install()
    try:
        traced_s, traced_outputs = replay(argvs, clear, tracer)
    finally:
        tracer.restore()
    totals = tracer.totals()
    with open(STATE / f"spans-{workload}-{seed}.jsonl", "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    spans = len(tracer.spans)
    tracer.spans.clear()
    plain_after, _ = replay(argvs, clear, None)

    records = []
    for argv, (rc, out), (_, traced_out) in zip(argvs, outputs, traced_outputs):
        problems, work = check(argv, out) if rc == 0 else ([f"exit code {rc}"], 0)
        if traced_out != out:
            problems.append("traced replay printed different bytes")
        problems += book.request(argv, sha256(out), not problems)
        records.append({"argv": argv, "problems": problems, "work": work,
                        "digest": sha256(out), "pass": 0})

    pullbacks = totals["contract.pullback"][0]
    counts: dict = {
        "contract.pullback.repeat_ratio": tracer.pullback_repeats / pullbacks if pullbacks else 0.0,
        "contract.pullback.max_den_bits": tracer.max_den_bits,
        "cone3fold.kvv_schedule.steps": tracer.kvv_steps,
        "cli.stdout_bytes": sum(len(out) for _, out in traced_outputs),
    }
    for name in COUNT_METRICS:
        if name.endswith(".calls"):
            counts[name] = totals[name.removesuffix(".calls")][0]
    times = {f"{span}.self_s": totals[span][1] for span in TIME_METRICS}
    times["trace.overhead_s"] = traced_s - (plain_before + plain_after) / 2
    return {
        "records": records,
        "counts": counts,
        "times": times,
        "untraced_s": [plain_before, plain_after],
        "traced_s": traced_s,
        "spans": spans,
    }


def report_failures(records: list[dict]) -> None:
    failed = [r for r in records if r["problems"]]
    for r in failed[:5]:
        sys.stderr.write(f"FAILED conekit {' '.join(r['argv'])}: {'; '.join(r['problems'])}\n")
    if len(failed) > 5:
        sys.stderr.write(f"... and {len(failed) - 5} more failed requests\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "conekit" / "cli.py").is_file():
        sys.stderr.write(f"no conekit sources under {SRC}; run from a conekit checkout\n")
        return 2
    STATE.mkdir(exist_ok=True)
    load_start = os.getloadavg()
    env_info = environment()
    book = DigestBook(STATE / f"digests-{args.workload}.json")

    print(f"# conekit benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    if args.trace:
        result = traced_run(args.workload, args.seed, book)
    else:
        result = fresh_run(args.workload, args.seed, args.seconds, book)
    records = result["records"]
    clean = not any(r["problems"] for r in records)
    problems = []
    if args.trace:
        problems += book.traced_counts(
            args.seed, env_info["source_sha256"], result["counts"], clean
        )
    digest = run_digest(records)
    problems += book.run(args.seed, digest, clean and not problems)
    book.save()
    load_end = os.getloadavg()

    failed = sum(1 for r in records if r["problems"])
    env_info.update(loadavg_start=load_start, loadavg_end=load_end)
    print("# " + " ".join(f"{k}={v}" for k, v in env_info.items()))
    print(f"# requests: {len(records)} attempted, {failed} failed; "
          f"run digest {digest[:16]} over the {sum(r['pass'] == 0 for r in records)} "
          f"requests of pass 0; {book.compared} results compared with earlier runs")
    if args.trace:
        print(f"# traced replay of pass 0 in-process: {result['spans']} spans; "
              f"untraced {result['untraced_s'][0]:.3f} s and {result['untraced_s'][1]:.3f} s, "
              f"traced {result['traced_s']:.3f} s")
        print("## deterministic counts (repeat exactly across traced runs of a seed "
              "on the same sources)")
        for name, value in result["counts"].items():
            print(f"{name:45s} {value}")
        print("## timings")
        for name, value in result["times"].items():
            print(f"{name:45s} {value:.6f} s")
        metrics = {n: {"value": v, "unit": COUNT_METRICS[n]} for n, v in result["counts"].items()}
        metrics.update({name: {"value": v, "unit": "s"} for name, v in result["times"].items()})
    else:
        print(f"# closed loop, 1 client, fresh process per request: "
              f"{result['passes']} passes in {result['elapsed_s']:.2f} s scaled, "
              f"{result['wall_elapsed_s']:.2f} s wall; times scaled to a "
              f"{PROBE_REF_S} s probe, wall_* unscaled")
        for name, (value, unit) in {**result["metrics"], **result["extra"]}.items():
            note = ""
            if name.endswith("setup_s"):
                note = f"  (median of {SETUP_SAMPLES} imports of conekit.cli)"
            elif name.endswith("latency_tail_s"):
                note = f"  (p{result['tail_percentile']} of {len(records)} requests)"
            elif name.endswith("latency_p50_s"):
                note = f"  (of {len(records)} requests)"
            print(f"{name:20s} {value:.6g} {unit}{note}")
        metrics = {n: {"value": v, "unit": u} for n, (v, u) in result["metrics"].items()}

    for p in problems:
        sys.stderr.write(f"FAILED {p}\n")
    report_failures(records)

    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
