"""Closed-loop runner: one caller, one thread, whole rounds until time is up.

Each round's inputs are generated before the round starts and its
outputs are checked after it ends; only the operations themselves are
inside the timed phase.  An exception never stops a run: it is timed,
counted by class and reported.

Every round of a workload has the same slots, each of the same cost (the
rounds differ only by orthogonal maps of fixed shapes), so a slot's
fastest latency over the rounds of a run is its cost with the
interference of other work on a shared host taken out.  The end-to-end
latency and throughput metrics are built from these per-slot minima;
plain wall-clock figures are recorded beside them.  Successive rounds run
on each CPU the process may use in turn, so a slot's minimum does not
depend on which CPU the scheduler happened to leave the process on while
another tenant loaded it.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import time
from collections import Counter

import numpy as np

from workloads import WORKLOADS

SETUP_REPS = 7
# Rounds run even when they take longer than --seconds, so every slot has
# a minimum over at least this many samples.
MIN_ROUNDS = 3
# Checks run outside the timed phase.  Once they have used this many
# seconds in a phase, later rounds go unchecked, which bounds the run time
# if the library gets much faster; wrong_ratio is taken over checked ops.
CHECK_BUDGET_S = 8.0


class Outcome:
    """Everything recorded about the operations of one phase."""

    def __init__(self):
        self.lat_s: list[float] = []
        # fastest latency of each slot of the round over all rounds
        self.slot_best: list[float] = []
        self.wall_s = 0.0
        self.rounds = 0
        self.errors: Counter = Counter()
        self.error_s: Counter = Counter()
        self.wrong: list[str] = []
        self.intervals = 0
        self.uncertified = 0
        self.checked = 0
        self.check_s = 0.0

    @property
    def attempted(self) -> int:
        return len(self.lat_s)

    @property
    def failed(self) -> int:
        return sum(self.errors.values())

    def merge(self, other: "Outcome") -> None:
        self.lat_s += other.lat_s
        self.wall_s += other.wall_s
        self.rounds += other.rounds
        self.errors.update(other.errors)
        self.error_s.update(other.error_s)
        self.wrong += other.wrong
        self.intervals += other.intervals
        self.uncertified += other.uncertified
        self.checked += other.checked
        self.check_s += other.check_s


def execute(ops, out: Outcome, tracer=None, op_base: int = 0) -> None:
    """Run one round's ops back to back, then check their outputs."""
    results = []
    perf = time.perf_counter
    t_round = perf()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = op_base + i
            span = tracer.open("op." + op.family)
        t0 = perf()
        try:
            res, err = op.call(), None
        except Exception as exc:  # counted and reported, never fatal
            res, err = None, exc
        dt = perf() - t0
        if tracer is not None:
            tracer.close(span, {"error": type(err).__name__} if err else None)
        results.append((res, err, dt))
    out.wall_s += perf() - t_round
    out.rounds += 1
    lat = [dt for _, _, dt in results]
    if not out.slot_best:
        out.slot_best = lat
    elif len(lat) != len(out.slot_best):
        raise RuntimeError(f"round of {len(lat)} ops after rounds of {len(out.slot_best)}")
    else:
        out.slot_best = [min(a, b) for a, b in zip(out.slot_best, lat)]

    t_check = perf()
    check = out.check_s < CHECK_BUDGET_S
    keyed: dict = {}
    for op, (res, err, dt) in zip(ops, results):
        out.lat_s.append(dt)
        if err is not None:
            name = type(err).__name__
            out.errors[name] += 1
            out.error_s[name] += dt
            continue
        if op.interval:
            out.intervals += 1
            out.uncertified += 0 if res.certified else 1
        if op.key:
            keyed[op.key] = res
        if not check:
            continue
        try:
            bad = op.check(res, keyed)
        except Exception as exc:
            bad = f"check raised {type(exc).__name__}: {exc}"
        out.checked += 1
        if bad:
            out.wrong.append(f"{op.family}: {bad}")
    out.check_s += perf() - t_check


class _RotateCpus:
    """Context manager; step(r) pins the process to the r-th allowed CPU
    (cyclically), and leaving restores the original affinity."""

    def __enter__(self):
        self.allowed = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        return self

    def step(self, r: int) -> None:
        if len(self.allowed) > 1:
            os.sched_setaffinity(0, {self.allowed[r % len(self.allowed)]})

    def __exit__(self, *exc):
        if len(self.allowed) > 1:
            os.sched_setaffinity(0, set(self.allowed))


def run_phase(workload: str, seed: int, seconds: float, setup: "SetupClock") -> Outcome:
    """Whole rounds until `seconds` of op time have passed."""
    make_round, _ = WORKLOADS[workload]
    out = Outcome()
    with _RotateCpus() as cpus:
        while out.wall_s < seconds or out.rounds < MIN_ROUNDS:
            setup.between_rounds(out.wall_s)
            cpus.step(out.rounds)
            execute(make_round(seed, out.rounds), out)
    setup.finish()
    return out


def run_paired(workload: str, seed: int, seconds: float, tracer, setup: "SetupClock") -> tuple[Outcome, Outcome]:
    """Each round twice, untraced then traced, until the untraced op time
    reaches `seconds`.  Pairing the rounds keeps slow drift in machine
    speed out of the overhead ratio."""
    make_round, _ = WORKLOADS[workload]
    plain, traced = Outcome(), Outcome()
    with _RotateCpus() as cpus:
        while plain.wall_s < seconds or plain.rounds < MIN_ROUNDS:
            setup.between_rounds(plain.wall_s)
            cpus.step(plain.rounds)
            execute(make_round(seed, plain.rounds), plain)
            with tracer:
                execute(make_round(seed, traced.rounds), traced, tracer, op_base=traced.attempted)
    setup.finish()
    return plain, traced


class SetupClock:
    """Times set-up SETUP_REPS times: the library import in a fresh
    interpreter (`import_s`, a callable) plus generating a round and running
    the warm-up ops.  The first rep runs before the first round; the others
    run between rounds, spread over the phase, because machine speed on a
    shared host drifts over tens of seconds and reps taken back to back
    would all follow the drift.  Set-up is never inside a timed round."""

    def __init__(self, workload: str, seed: int, seconds: float, import_s):
        self.workload, self.seed, self.seconds, self.import_s = workload, seed, seconds, import_s
        self.reps: list[float] = []
        self._rep()

    def _rep(self) -> None:
        make_round, warmup = WORKLOADS[self.workload]
        t_import = self.import_s()
        t0 = time.perf_counter()
        make_round(self.seed, 0)
        execute(warmup(), Outcome())
        self.reps.append(t_import + time.perf_counter() - t0)

    def between_rounds(self, wall_s: float) -> None:
        if len(self.reps) < SETUP_REPS and wall_s >= len(self.reps) * self.seconds / SETUP_REPS:
            self._rep()

    def finish(self) -> None:
        while len(self.reps) < SETUP_REPS:
            self._rep()

    @property
    def median_s(self) -> float:
        return statistics.median(self.reps)


def percentile_ms(lat_s: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(lat_s), q)) * 1e3


def end_to_end(out: Outcome, setup_s: float) -> dict:
    """The end-to-end metrics of an untraced phase.  ops_per_s and the
    percentiles come from the per-slot fastest latencies; the _wall
    figures are over every op as it ran."""
    att = max(out.attempted, 1)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(out.slot_best) / sum(out.slot_best), "1/s"),
        "op_ms_p50": (percentile_ms(out.slot_best, 50), "ms"),
        "op_ms_p90": (percentile_ms(out.slot_best, 90), "ms"),
        "ops_per_s_wall": (out.attempted / out.wall_s, "1/s"),
        "op_ms_p50_wall": (percentile_ms(out.lat_s, 50), "ms"),
        "op_ms_p90_wall": (percentile_ms(out.lat_s, 90), "ms"),
        "fail_ratio": (out.failed / att, "ratio"),
        "wrong_ratio": (len(out.wrong) / max(out.checked, 1), "ratio"),
        "uncertified_ratio": (out.uncertified / out.intervals if out.intervals else 0.0, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def environment() -> dict:
    import scipy

    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{cfg.get('name')} {cfg.get('version')}"
    except (TypeError, KeyError):  # numpy without the dict form of show_config
        blas = "unknown"

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
    }


def beyond_p90(lat_s: list[float]) -> int:
    p90 = np.percentile(np.asarray(lat_s), 90)
    return int(sum(1 for x in lat_s if x > p90))


