"""hyperconvex benchmark: closed-loop workloads with independent output checks.

Run from the repository root:

    python3 benchmarks/run.py --workload aw-sweep --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 25
    python3 benchmarks/run.py --self-test

One caller, one thread, one process per workload (``--workload all``
starts one child process per workload, one after another).  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it runs every round twice, untraced then with spans recorded, until half
of ``--seconds`` of untraced op time has passed, and reports per-layer
metrics, the tracing overhead and the baseline probes.  The last line of standard output is one JSON
object; the lines before it are for people.  Results and spans are
written under benchmarks/results/.
"""

import os

# Pin BLAS/OpenMP pools before numpy is imported anywhere.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
# The library reads its geometric tolerance from here; benchmark the defaults.
os.environ.pop("HYPERCONVEX_TOL", None)

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("aw-sweep", "polytope-batch", "small-queries")
E2E_REPORTED = ("setup_s", "ops_per_s", "op_ms_p50", "op_ms_p90", "peak_rss_mb")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true", help="check that the output checks reject perturbed answers")
    return p.parse_args(argv)


_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import hyperconvex; print(time.perf_counter() - t)"
)


def _import_library() -> None:
    """Import hyperconvex from this checkout's src/, or exit non-zero."""
    if not (SRC / "hyperconvex" / "__init__.py").is_file():
        sys.exit(f"benchmark: no hyperconvex sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import hyperconvex

    if Path(hyperconvex.__file__).resolve().parent != SRC / "hyperconvex":
        sys.exit(f"benchmark: imported hyperconvex from {hyperconvex.__file__}, not from {SRC}")


def _import_seconds() -> float:
    """Time to import hyperconvex (numpy included) in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)], stdout=subprocess.PIPE,
                          text=True, check=True, timeout=120)
    return float(proc.stdout.split()[-1])


def _report(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def run_workload(args) -> int:
    _import_library()
    import harness
    import oracles
    import probes
    from spans import Tracer, aggregate

    env = harness.environment()
    setup = harness.SetupClock(args.workload, args.seed, args.seconds if args.trace == 0 else args.seconds / 2,
                               _import_seconds)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace, "env": env}

    if args.trace == 0:
        out = harness.run_phase(args.workload, args.seed, args.seconds, setup)
        e2e = harness.end_to_end(out, setup.median_s)
        metrics = {k: e2e[k] for k in E2E_REPORTED}
    else:
        tracer = Tracer()
        out, traced = harness.run_paired(args.workload, args.seed, args.seconds / 2, tracer, setup)
        e2e = harness.end_to_end(out, setup.median_s)
        metrics = per_layer(aggregate(tracer.spans), out, traced)
        metrics.update(probes.run(args.workload))
        record["missing_trace_targets"] = tracer.missing
        RESULTS.mkdir(exist_ok=True)
        tracer.write(RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    slots, beyond = len(out.slot_best), harness.beyond_p90(out.slot_best)
    if args.trace:
        out.merge(traced)

    problems = oracles.self_test()
    correct = not out.wrong and not problems
    record.update(
        end_to_end=_report(e2e),
        setup_reps_s=setup.reps,
        latency_slots=slots,
        latency_rounds=out.rounds,
        beyond_p90=beyond,
        per_layer=_report(metrics) if args.trace else None,
        attempted=out.attempted,
        checked=out.checked,
        failures={k: {"count": c, "s": out.error_s[k]} for k, c in out.errors.items()},
        wrong=out.wrong[:50],
        self_test=problems,
    )
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  rounds {out.rounds}  ops {out.attempted}"
          f"  checked {out.checked} ({out.check_s:.1f} s)")
    print("env " + "  ".join(f"{k}={v}" for k, v in env.items()))
    if args.trace:
        print("end-to-end figures below are from the untraced rounds only")
    for name, (value, unit) in e2e.items():
        extra = (f"  (slot minima: {slots} slots x {out.rounds} rounds)" if name == "op_ms_p50"
                 else f"  ({beyond} slots beyond)" if name == "op_ms_p90" else "")
        print(f"  {name:<18} {value:>12.6g} {unit}{extra}")
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"  {name:<48} {value:>14.6g} {unit}")
    for name, count in sorted(out.errors.items()):
        print(f"failed {name}: {count} ops, {out.error_s[name]:.4f} s")
    for line in out.wrong[:10]:
        print(f"WRONG {line}")
    for line in problems:
        print(f"SELF-TEST {line}")
    print(json.dumps({"correct": correct, "attempted": out.attempted, "failed": out.failed, "metrics": _report(metrics)}))
    return 0


def per_layer(agg: dict, untraced, traced) -> dict:
    """Per-layer metrics from the traced phase's spans."""
    import workloads

    def g(name, field):
        return float(agg.get(name, {}).get(field, 0.0))

    m = {}
    sup = "hypermetrics.ball_sup"
    m[f"{sup}.calls"] = (g(sup, "calls"), "count")
    m[f"{sup}.evals"] = (g(sup, "evals"), "count")
    m[f"{sup}.self_s"] = (g(sup, "self_s"), "s")
    m[f"{sup}.evals_per_s"] = (g(sup, "evals") / g(sup, "s") if g(sup, "s") else 0.0, "1/s")
    m[f"{sup}.uncertified"] = (g(sup, "uncertified"), "count")
    for fn in ("hausdorff", "attouch_wets", "aw_origin", "sup_distance_gap", "truncated_hausdorff"):
        m[f"hypermetrics.{fn}.calls"] = (g(f"hypermetrics.{fn}", "calls"), "count")
        m[f"hypermetrics.{fn}.s"] = (g(f"hypermetrics.{fn}", "s"), "s")
    build = "projection.evaluator_build"
    m[f"{build}.calls"] = (g(build, "calls"), "count")
    m[f"{build}.s"] = (g(build, "s"), "s")
    ev = "projection.distance_eval"
    m[f"{ev}.rows"] = (g(ev, "rows"), "count")
    m[f"{ev}.s"] = (g(ev, "s"), "s")
    m[f"{ev}.us_per_row"] = (1e6 * g(ev, "s") / g(ev, "rows") if g(ev, "rows") else 0.0, "us")
    for n, mm, *_ in workloads.GRID:
        rows = g(ev, f"rows.n{n}m{mm}")
        m[f"{ev}.us_per_row.n{n}m{mm}"] = (1e6 * g(ev, f"s.n{n}m{mm}") / rows if rows else 0.0, "us")
    tev = "projection.truncated_eval"
    m[f"{tev}.rows"] = (g(tev, "rows"), "count")
    m[f"{tev}.s"] = (g(tev, "s"), "s")
    mnp = "projection.min_norm_point"
    m[f"{mnp}.calls"] = (g(mnp, "calls"), "count")
    m[f"{mnp}.s"] = (g(mnp, "s"), "s")
    m[f"{mnp}.fail"] = (g(mnp, "fail"), "count")
    for name in ("projection.metric_projection", "projection.truncated_distance"):
        m[f"{name}.calls"] = (g(name, "calls"), "count")
        m[f"{name}.s"] = (g(name, "s"), "s")
    m["config.default_tolerances.calls"] = (g("config.default_tolerances", "calls"), "count")
    for name in ("grassmann.gap", "bundle.chart_convex", "independence.independence_radius"):
        m[f"{name}.calls"] = (g(name, "calls"), "count")
        m[f"{name}.s"] = (g(name, "s"), "s")
    m["trace.overhead_ratio"] = (traced.wall_s / untraced.wall_s, "ratio")
    att = max(traced.attempted, 1)
    m["ops.fail_ratio"] = (traced.failed / att, "ratio")
    m["ops.wrong_ratio"] = (len(traced.wrong) / max(traced.checked, 1), "ratio")
    m["ops.uncertified_ratio"] = (traced.uncertified / traced.intervals if traced.intervals else 0.0, "ratio")
    return m


def run_all(args) -> int:
    """One child process per workload, so peak memory is per workload."""
    summary, ok = {}, True
    attempted = failed = 0
    for wl in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            print(f"{wl}: exit code {proc.returncode}")
            return proc.returncode or 1
        res = json.loads(lines[-1])
        ok &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        summary.update({f"{wl}.{k}": v for k, v in res["metrics"].items()})
        print()
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": summary}))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.self_test:
        _import_library()
        import oracles

        problems = oracles.self_test()
        for line in problems:
            print(line)
        print("self-test " + ("FAILED" if problems else "passed"))
        return 1 if problems else 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
