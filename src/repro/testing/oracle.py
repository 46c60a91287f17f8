"""Differential oracle: in-order functional reference for SimStats.

The timing simulator and the fault-tolerant engine around it can fail in
ways that look like success — a retried job whose partially-unwound
worker left a corrupted stats object, a cache entry truncated mid-write
and "repaired" into the wrong shape. The oracle guards against that with
two independent layers:

* :func:`validate_stats` — *internal* conservation invariants that any
  well-formed :class:`~repro.core.stats.SimStats` satisfies, checkable
  without the trace (non-negative counters, cache reads = hits + misses,
  writes = initial + fill, ...). The engine runs this on every freshly
  executed result *before* the result cache is written.
* :func:`check_run` — *differential* invariants against an in-order
  replay of the trace (:func:`replay_trace`): retired instructions,
  operand reads satisfied (bypass + storage), and register-file traffic
  must match what the functional stream implies, per storage scheme.
  The chaos suite runs this after every fault-injection run so recovery
  never silently publishes corrupted results.

Both return a list of human-readable violation strings (empty = clean)
rather than raising, so tests can assert on the full set at once.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.stats import SimStats
from repro.vm.trace import Trace

__all__ = [
    "ReplaySummary",
    "replay_trace",
    "validate_stats",
    "check_run",
    "check_results",
]


@dataclass(frozen=True)
class ReplaySummary:
    """What an in-order replay of a trace implies about any simulation.

    Attributes:
        retired: committed dynamic instructions.
        source_operands: architectural register source reads (zero-register
            reads are already stripped from the trace).
        dest_writes: instructions producing an architectural register value.
    """

    retired: int
    source_operands: int
    dest_writes: int


def replay_trace(trace: Trace) -> ReplaySummary:
    """Replay *trace* in order and count the quantities every scheme conserves.

    The machine starts with an empty rename map: a register that no
    earlier record wrote holds initial architectural state, which gets
    no physical register and is read from no storage under any scheme.
    Only sources an earlier record defined count as operands.
    """
    source_operands = 0
    dest_writes = 0
    defined: set[int] = set()
    for inst in trace.records:
        source_operands += sum(
            1 for s in inst.sources
            if s is not None and s >= 0 and s in defined
        )
        if inst.dest is not None and inst.dest >= 0:
            dest_writes += 1
            defined.add(inst.dest)
    return ReplaySummary(
        retired=len(trace.records),
        source_operands=source_operands,
        dest_writes=dest_writes,
    )


def _counter_fields(stats: SimStats) -> dict[str, int | float]:
    fields = {
        "cycles": stats.cycles,
        "retired": stats.retired,
        "operands_bypass": stats.operands_bypass,
        "operands_bypass_first": stats.operands_bypass_first,
        "operands_storage": stats.operands_storage,
        "rf_reads": stats.rf_reads,
        "rf_writes": stats.rf_writes,
        "branch_mispredicts": stats.branch_mispredicts,
        "rc_miss_events": stats.rc_miss_events,
        "load_miss_replays": stats.load_miss_replays,
        "issue_blocked_cycles": stats.issue_blocked_cycles,
        "dispatch_stall_cycles": stats.dispatch_stall_cycles,
        "rename_stall_cycles": stats.rename_stall_cycles,
        "predictor_queries": stats.predictor_queries,
        "predictor_supplied": stats.predictor_supplied,
        "predictor_correct": stats.predictor_correct,
    }
    if stats.cache is not None:
        cache = stats.cache
        fields.update({
            "cache.reads": cache.reads,
            "cache.hits": cache.hits,
            "cache.writes_initial": cache.writes_initial,
            "cache.writes_fill": cache.writes_fill,
            "cache.writes_filtered": cache.writes_filtered,
            "cache.instances_cached": cache.instances_cached,
            "cache.instances_never_read": cache.instances_never_read,
            "cache.values_freed": cache.values_freed,
            "cache.values_never_cached": cache.values_never_cached,
        })
        for label, count in cache.misses.items():
            fields[f"cache.misses[{label}]"] = count
    return fields


def validate_stats(stats: SimStats) -> list[str]:
    """Internal conservation invariants; no trace required.

    This is the engine's pre-cache gate: cheap enough to run on every
    executed job, strict enough that a corrupted or half-unwound stats
    object cannot make it into the content-addressed result cache.
    """
    violations: list[str] = []
    for name, value in _counter_fields(stats).items():
        if value < 0:
            violations.append(f"{name} is negative ({value})")
    if stats.retired > 0 and stats.cycles <= 0:
        violations.append(
            f"retired {stats.retired} instructions in {stats.cycles} cycles"
        )
    if stats.operands_bypass_first > stats.operands_bypass:
        violations.append(
            "operands_bypass_first "
            f"{stats.operands_bypass_first} > operands_bypass "
            f"{stats.operands_bypass}"
        )
    if stats.predictor_supplied > stats.predictor_queries:
        violations.append(
            f"predictor_supplied {stats.predictor_supplied} > "
            f"predictor_queries {stats.predictor_queries}"
        )
    if stats.predictor_correct > stats.predictor_supplied:
        violations.append(
            f"predictor_correct {stats.predictor_correct} > "
            f"predictor_supplied {stats.predictor_supplied}"
        )
    cache = stats.cache
    if cache is not None:
        miss_total = sum(cache.misses.values())
        if cache.reads != cache.hits + miss_total:
            violations.append(
                f"cache reads {cache.reads} != hits {cache.hits} + "
                f"misses {miss_total}"
            )
        if cache.instances_cached != cache.writes_initial + cache.writes_fill:
            violations.append(
                f"instances_cached {cache.instances_cached} != "
                f"writes_initial {cache.writes_initial} + "
                f"writes_fill {cache.writes_fill}"
            )
        if cache.instances_never_read > cache.instances_cached:
            violations.append(
                f"instances_never_read {cache.instances_never_read} > "
                f"instances_cached {cache.instances_cached}"
            )
        if cache.values_never_cached > cache.values_freed:
            violations.append(
                f"values_never_cached {cache.values_never_cached} > "
                f"values_freed {cache.values_freed}"
            )
    return violations


def check_run(trace: Trace, stats: SimStats) -> list[str]:
    """Cross-check *stats* against an in-order replay of *trace*.

    Scheme-aware: register-cache schemes must conserve reads through the
    cache into the backing file; the monolithic scheme reads every
    storage operand from the register file; the two-level scheme models
    its register file internally and reports no rf traffic.
    """
    violations = list(validate_stats(stats))
    replay = replay_trace(trace)
    if stats.retired != replay.retired:
        violations.append(
            f"retired {stats.retired} != trace length {replay.retired}"
        )
    operands = stats.operands_bypass + stats.operands_storage
    if operands != replay.source_operands:
        violations.append(
            f"bypass {stats.operands_bypass} + storage "
            f"{stats.operands_storage} = {operands} != trace source "
            f"operands {replay.source_operands}"
        )
    scheme = stats.scheme
    if scheme == "register_cache":
        cache = stats.cache
        if cache is None:
            violations.append("register_cache scheme has no cache stats")
        else:
            if stats.operands_storage != cache.reads:
                violations.append(
                    f"operands_storage {stats.operands_storage} != "
                    f"cache reads {cache.reads}"
                )
            miss_total = sum(cache.misses.values())
            if stats.rf_reads != miss_total:
                violations.append(
                    f"rf_reads {stats.rf_reads} != cache misses {miss_total}"
                )
        if stats.rf_writes != replay.dest_writes:
            violations.append(
                f"rf_writes {stats.rf_writes} != trace dest writes "
                f"{replay.dest_writes}"
            )
    elif scheme == "monolithic":
        if stats.operands_storage != stats.rf_reads:
            violations.append(
                f"operands_storage {stats.operands_storage} != "
                f"rf_reads {stats.rf_reads}"
            )
        if stats.rf_writes != replay.dest_writes:
            violations.append(
                f"rf_writes {stats.rf_writes} != trace dest writes "
                f"{replay.dest_writes}"
            )
    # two_level: the hierarchical file accounts reads/writes internally
    # (tl_* counters); no rf_* conservation law applies.
    return violations


def check_results(
    traces: dict[str, Trace],
    results: dict[str, SimStats],
) -> dict[str, list[str]]:
    """Oracle-check a sweep's results; returns per-benchmark violations.

    Falsy slots (:class:`~repro.analysis.engine.JobFailure` holes from a
    gracefully degraded sweep) are skipped — a hole is an *explicit*
    failure, not a silently corrupted result.
    """
    violations: dict[str, list[str]] = {}
    for name, stats in results.items():
        if not stats:
            continue
        trace = traces.get(name)
        if trace is None:
            found = validate_stats(stats)
        else:
            found = check_run(trace, stats)
        if found:
            violations[name] = found
    return violations
