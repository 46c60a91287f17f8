"""Host-time benchmark of the paper's figure sweeps.

Usage (from the repository root)::

    python3 hostbench/run.py --workload fig12_stall --seed 1 --seconds 20 --trace 0
    python3 hostbench/run.py --workload figs_warm --seed 2 --seconds 20 --trace 1

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes one
separate traced pass and prints the per-layer metrics instead. The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 only when
every output check passed. See ``hostbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from arith import geomean, median, tail_percentile
from hostspeed import adjust, bracket, pass_factor, probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Timed ``import repro.analysis.experiments`` runs in fresh interpreters.
IMPORT_REPEATS = 9
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = {False: 9, True: 3}

_IMPORT_PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import repro.analysis.experiments\n"
    "print(time.perf_counter() - start)\n"
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def hermetic_env(work: Path) -> dict[str, str]:
    """Clear inherited ``REPRO_*`` knobs; point the caches into *work*."""
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    chosen = {
        "REPRO_CACHE_DIR": str(work / "results"),
        "REPRO_TRACE_CACHE_DIR": str(work / "traces-0"),
    }
    os.environ.update(chosen)
    return chosen


def import_seconds() -> float:
    """Seconds to import the package in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


class Setup:
    """Everything a run pays before its first timed point, done once."""

    def __init__(self, workload, seed: int, work: Path, index: int,
                 workers: int) -> None:
        from grids import SCALE, FigureRunner
        from repro.analysis import engine as engine_mod
        from repro.workloads import suite

        os.environ["REPRO_TRACE_CACHE_DIR"] = str(work / f"traces-{index}")
        suite.clear_trace_memo()
        counters = suite.trace_counters()
        before = counters.snapshot()
        start = time.perf_counter()
        names = workload.kernels or suite.DEFAULT_SUITE
        self.traces = {
            name: suite.load_trace(name, SCALE, seed) for name in names
        }
        self.cache_dir = work / f"results-{index}"
        self.engine = engine_mod.configure(
            workers=workers, cache_dir=self.cache_dir,
        )
        self.fill = None
        if workload.warm:
            with FigureRunner(workload, self.traces) as runner:
                self.fill = runner.run_pass(self.engine)
        self.seconds = time.perf_counter() - start
        self.trace_delta = counters.since(before)


class Checks:
    """Counts jobs and failures; compares digests and tables across passes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.digest: str | None = None
        self.tables: str | None = None
        self.problems: list[str] = []

    def add(self, label: str, result, expect_all_cached: bool = False):
        from grids import tables

        check = result.log
        self.attempted += check.jobs
        self.failed += check.failed_jobs + check.failed_checks
        if check.failed_jobs or check.failed_checks:
            self.problems.append(
                f"{label}: {check.failed_jobs} failed jobs, "
                f"{check.failed_checks} results failing validate_stats"
            )
        rendered = tables(result)
        if self.digest is None:
            self.digest, self.tables = check.digest, rendered
        else:
            if check.digest != self.digest:
                self.failed += 1
                self.problems.append(f"{label}: digest {check.digest} != {self.digest}")
            if rendered != self.tables:
                self.failed += 1
                self.problems.append(f"{label}: rendered tables differ")
        if expect_all_cached and result.engine_delta["cache_hits"] != check.jobs:
            self.failed += 1
            self.problems.append(
                f"{label}: {result.engine_delta['cache_hits']} cache hits "
                f"for {check.jobs} jobs"
            )
        return check


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_untraced(workload, seed: int, seconds: float, work: Path, checks: Checks):
    from grids import WORKERS, FigureRunner

    import_seconds()  # untimed: compiles bytecode, as a user's first run did
    # Each sample starts after a garbage collection (and for set-ups,
    # with the previous set-up's traces freed), between two probes.
    imports, import_readings = [], [probe()]
    for _ in range(IMPORT_REPEATS):
        gc.collect()
        imports.append(import_seconds())
        import_readings.append(probe())
    setup_seconds, setup_readings = [], [probe()]
    setup = None
    for index in range(SETUP_REPEATS[workload.warm]):
        setup = None
        gc.collect()
        setup = Setup(workload, seed, work, index, WORKERS)
        setup_seconds.append(setup.seconds)
        setup_readings.append(probe())
        if setup.fill is not None:
            checks.add(f"fill {index}", setup.fill)
            setup.fill = None

    passes = []
    jobs = retired = 0
    with FigureRunner(workload, setup.traces, probe=probe) as runner:
        while not passes or (sum(p.wall for p in passes)
                             + max(p.wall for p in passes)) <= seconds:
            if workload.warm:
                engine = setup.engine
            else:
                from repro.analysis import engine as engine_mod
                engine = engine_mod.configure(
                    workers=WORKERS, cache_dir=work / f"pass-{len(passes)}",
                )
            result = runner.run_pass(engine)
            check = checks.add(f"pass {len(passes) + 1}", result,
                               expect_all_cached=workload.warm)
            jobs += check.jobs
            retired += check.totals["retired"]
            result.log = result.results = None  # keep the heap small
            passes.append(result)
            if len(passes) == 1 and not workload.warm:
                checks.add("replay", runner.run_pass(engine),
                           expect_all_cached=True)

    rss = peak_rss_mb()

    def summarize(setup_s, walls, points, cpus):
        return {
            "setup_s": (setup_s, "s"),
            "pass_s": (median(walls), "s"),
            "point_p50_s": (median(points), "s"),
            "sim_kips": (retired / sum(walls) / 1000.0, "kinst/s"),
            "jobs_per_s": (jobs / sum(walls), "1/s"),
            "cpu_s": (median(cpus), "s"),
            "peak_rss_mb": (rss, "MiB"),
        }, tail_percentile(points, 0.9)

    raw, raw_p90 = summarize(
        median(imports) + median(setup_seconds),
        [p.wall for p in passes], [t for p in passes for t in p.points],
        [p.cpu for p in passes],
    )
    # Every timing is rescaled to reference host speed (hostspeed.py).
    factors = [pass_factor(p.points, p.point_speeds) for p in passes]
    metrics, p90 = summarize(
        median(adjust(imports, bracket(import_readings)))
        + median(adjust(setup_seconds, bracket(setup_readings))),
        [p.wall * f for p, f in zip(passes, factors)],
        [t for p in passes for t in adjust(p.points, p.point_speeds)],
        [p.cpu * f for p, f in zip(passes, factors)],
    )
    info = {
        "raw": {name: value for name, (value, _) in raw.items()},
        "raw_point_p90_s": raw_p90,
        "speed_factors": factors,
        "passes": len(passes),
        "pass_walls_s": [p.wall for p in passes],
        "points": sum(len(p.points) for p in passes),
        "point_p90_s": p90 if p90 is not None else
        "not printed: fewer than ten points beyond it",
        "import_s": imports,
        "setup_rest_s": setup_seconds,
        "jobs_per_pass": jobs // len(passes),
    }
    return metrics, info


def run_traced(workload, seed: int, work: Path, checks: Checks):
    from grids import WORKERS, FigureRunner
    from repro.analysis import engine as engine_mod
    from spans import SpanRecorder

    setup = Setup(workload, seed, work, 0, WORKERS)
    with FigureRunner(workload, setup.traces) as runner:
        if workload.warm:
            checks.add("fill", setup.fill)
            busy = setup.fill
            untraced = runner.run_pass(setup.engine)
            checks.add("untraced replay", untraced, expect_all_cached=True)
            cache_dir = setup.cache_dir
        else:
            untraced = busy = runner.run_pass(setup.engine)
            checks.add("untraced pass", untraced)
            cache_dir = work / "traced"
        engine = engine_mod.configure(workers=1, cache_dir=cache_dir)
        manifest = cache_dir / "manifest.jsonl"
        manifest_before = _file_stats(manifest)
        recorder = SpanRecorder()
        recorder.install()
        try:
            with recorder.span("traced_pass"):
                traced = runner.run_pass(engine)
        finally:
            recorder.restore()
    check = checks.add("traced pass", traced, expect_all_cached=workload.warm)
    recorder.write(HERE / "out" / f"spans-{workload.name}-{seed}.jsonl")
    manifest_after = _file_stats(manifest)

    layers = recorder.by_layer()
    own = recorder.self_times()
    # The harness's own checks run inside the root span; the pass wall
    # leaves them out, so other_s is the program's unwrapped time.
    wall = traced.wall
    layer_self = sum(
        t for span, t in zip(recorder.spans, own) if span.name in recorder.layer_of
    )

    def self_s(layer):
        return layers.get(layer, {}).get("self_s", 0.0)

    def total_s(layer):
        return layers.get(layer, {}).get("total_s", 0.0)

    def calls(layer):
        return layers.get(layer, {}).get("calls", 0)

    totals = traced.log.totals

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    reads = totals["cache_reads"]
    misses = {
        kind: totals[f"miss_{kind}"] for kind in ("filtered", "capacity", "conflict")
    }
    retired, cycles = totals["retired"], totals["cycles"]
    bypass = totals["operands_bypass"]
    supplied, queries = totals["predictor_supplied"], totals["predictor_queries"]
    executed = traced.engine_delta["executed"]
    simulated = total_s("core")
    entry_sizes = [
        path.stat().st_size for path in cache_dir.glob("??/*.json")
    ]
    metrics = {
        "workloads.trace_gen_s": (setup.trace_delta["trace_gen_seconds"], "s"),
        "workloads.trace_load_s": (total_s("workloads"), "s"),
        "workloads.traces_generated": (setup.trace_delta["traces_generated"], "count"),
        "workloads.trace_insts": (
            sum(len(t.records) for t in setup.traces.values()), "count"),
        "vm.analysis_s": (total_s("vm"), "s"),
        "core.simulate_s": (simulated, "s"),
        "core.self_s": (self_s("core"), "s"),
        "core.us_per_inst": (
            ratio(simulated, retired) * 1e6 if executed else 0.0, "us"),
        "core.us_per_cycle": (
            ratio(simulated, cycles) * 1e6 if executed else 0.0, "us"),
        "core.cycles": (cycles, "count"),
        "core.retired": (retired, "count"),
        "core.ipc_geomean": (geomean(traced.log.ipcs), "inst/cycle"),
        "core.issue_blocked_cycles": (totals["issue_blocked_cycles"], "count"),
        "core.dispatch_stall_cycles": (totals["dispatch_stall_cycles"], "count"),
        "core.bypass_fraction": (
            ratio(bypass, bypass + totals["operands_storage"]), "ratio"),
        "frontend.self_s": (self_s("frontend"), "s"),
        "frontend.calls": (calls("frontend"), "count"),
        "frontend.branch_mispredicts": (totals["branch_mispredicts"], "count"),
        "rename.self_s": (self_s("rename"), "s"),
        "rename.calls": (calls("rename"), "count"),
        "rename.stall_cycles": (totals["rename_stall_cycles"], "count"),
        "predict.self_s": (self_s("predict"), "s"),
        "predict.calls": (calls("predict"), "count"),
        "predict.accuracy": (ratio(totals["predictor_correct"], supplied), "ratio"),
        "predict.coverage": (ratio(supplied, queries), "ratio"),
        "regfile.self_s": (self_s("regfile"), "s"),
        "regfile.calls": (calls("regfile"), "count"),
        "regfile.cache_reads": (reads, "count"),
        "regfile.miss_rate": (
            ratio(sum(v for k, v in totals.items() if k.startswith("miss_")), reads),
            "ratio"),
        "regfile.miss_filtered": (misses["filtered"], "count"),
        "regfile.miss_capacity": (misses["capacity"], "count"),
        "regfile.miss_conflict": (misses["conflict"], "count"),
        "regfile.writes_filtered": (totals["writes_filtered"], "count"),
        "regfile.rf_reads": (totals["rf_reads"], "count"),
        "memory.self_s": (self_s("memory"), "s"),
        "memory.calls": (calls("memory"), "count"),
        "memory.load_miss_replays": (totals["load_miss_replays"], "count"),
        "oracle.validate_s": (total_s("oracle"), "s"),
        "stats.to_dict_s": (total_s("stats.to_dict"), "s"),
        "stats.from_dict_s": (total_s("stats.from_dict"), "s"),
        "stats.bytes_per_job": (
            statistics.fmean(entry_sizes) if entry_sizes else 0.0, "B"),
        "engine.self_s": (self_s("engine"), "s"),
        "engine.cache_hits": (traced.engine_delta["cache_hits"], "count"),
        "engine.cache_misses": (traced.engine_delta["cache_misses"], "count"),
        "engine.retries": (traced.engine_delta["retries"], "count"),
        "engine.worker_util": (
            busy.engine_delta["job_seconds"] / (WORKERS * busy.wall), "ratio"),
        "obs.manifest_records": (manifest_after[0] - manifest_before[0], "count"),
        "obs.manifest_bytes": (manifest_after[1] - manifest_before[1], "B"),
        "analysis.aggregate_s": (self_s("analysis.aggregate"), "s"),
        "analysis.render_s": (self_s("analysis.render"), "s"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead": (wall / untraced.cpu, "ratio"),
        "other_s": (wall - layer_self, "s"),
    }
    info = {
        "absent": recorder.absent,
        "spans": len(recorder.spans),
        "untraced_wall_s": untraced.wall,
        "untraced_cpu_s": untraced.cpu,
        "jobs_per_pass": check.jobs,
    }
    return metrics, info


def _file_stats(path: Path) -> tuple[int, int]:
    """(lines, bytes) of a file, or zeros when it does not exist."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return 0, 0
    return data.count(b"\n"), len(data)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from grids import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    work = HERE / ".work" / f"{workload.name}-{os.getpid()}"
    chosen = hermetic_env(work)
    print("env: " + " ".join(f"{k}={v}" for k, v in chosen.items()))
    checks = Checks()
    try:
        if args.trace:
            metrics, info = run_traced(workload, args.seed, work, checks)
        else:
            metrics, info = run_untraced(
                workload, args.seed, args.seconds, work, checks,
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    info["digest"] = checks.digest
    info["fail_frac"] = checks.failed / checks.attempted
    for key, value in info.items():
        print(f"{key}: {json.dumps(value)}")
    for problem in checks.problems:
        print(f"CHECK FAILED: {problem}")
    correct = checks.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
