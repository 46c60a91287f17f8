"""Resource-limit tests for the timing model: structure sizes, widths,
stalls, and configuration variants not covered by the cycle-exact tests.
"""

from repro.core.config import (
    monolithic_config,
    two_level_config,
    use_based_config,
)
from repro.core.pipeline import Pipeline
from repro.isa.assembler import assemble
from repro.vm.machine import run_program
from repro.workloads.suite import load_trace


def run_source(source, config):
    trace = run_program(assemble(source))
    pipeline = Pipeline(trace, config)
    return pipeline, pipeline.run()


BASE = dict(model_memory=False, model_icache=False, predictor_enabled=False)


def test_retire_width_bounds_throughput():
    # 64 independent nops retire at most 8 per cycle.
    source = "\n".join(["nop"] * 64) + "\nhalt"
    _, stats = run_source(source, use_based_config(**BASE))
    assert stats.cycles >= 64 // 8


def test_tiny_rob_throttles():
    source = "\n".join(f"addi r{1 + i % 8}, r0, {i}" for i in range(64))
    source += "\nhalt"
    big, stats_big = run_source(source, use_based_config(**BASE))
    small, stats_small = run_source(
        source, use_based_config(rob_size=8, **BASE)
    )
    assert stats_small.cycles > stats_big.cycles
    assert stats_small.dispatch_stall_cycles > 0


def test_tiny_window_throttles():
    source = "\n".join(f"addi r{1 + i % 8}, r0, {i}" for i in range(64))
    source += "\nhalt"
    _, stats = run_source(source, use_based_config(window_size=4, **BASE))
    _, wide = run_source(source, use_based_config(**BASE))
    assert stats.cycles >= wide.cycles


def test_preg_exhaustion_stalls_dispatch():
    # 80 writers with a barely-sufficient register file: dispatch must
    # stall until retirement frees registers, but the run completes.
    source = "\n".join(f"addi r{1 + i % 40}, r0, {i}" for i in range(80))
    source += "\nhalt"
    config = use_based_config(num_pregs=72, wrongpath_alloc=0, **BASE)
    _, stats = run_source(source, config)
    assert stats.retired == 81
    assert stats.dispatch_stall_cycles > 0


def test_store_retire_limit():
    # Ten independent stores: at most two may retire per cycle.
    setup = "addi r1, r0, 100\naddi r2, r0, 7\n"
    stores = "\n".join(f"sw r2, {i}(r1)" for i in range(10))
    source = setup + stores + "\nhalt"
    config = use_based_config(
        model_memory=False, model_icache=False, predictor_enabled=False,
    )
    _, stats = run_source(source, config)
    assert stats.retired == 13


def test_store_buffer_backpressure_with_memory():
    # With the memory system on, a burst of stores to distinct lines
    # must drain through the 16-entry store buffer without deadlock.
    setup = "addi r1, r0, 4096\naddi r2, r0, 7\n"
    stores = "\n".join(f"sw r2, {i * 16}(r1)" for i in range(40))
    source = setup + stores + "\nhalt"
    config = use_based_config(predictor_enabled=False)
    _, stats = run_source(source, config)
    assert stats.retired == 43


def test_fully_associative_machine_runs():
    trace = load_trace("crc", scale=0.12)
    config = use_based_config(
        cache_entries=32, cache_assoc=0, indexing="round_robin"
    )
    stats = Pipeline(trace, config).run()
    assert stats.retired == len(trace)
    assert stats.cache.misses["conflict"] == 0  # one set: no conflicts


def test_minimum_indexing_machine_runs():
    trace = load_trace("strmatch", scale=0.12)
    stats = Pipeline(trace, use_based_config(indexing="minimum")).run()
    assert stats.retired == len(trace)


def test_non_power_of_two_cache_with_decoupled_indexing():
    trace = load_trace("crc", scale=0.12)
    config = use_based_config(cache_entries=48, cache_assoc=2)
    stats = Pipeline(trace, config).run()
    assert stats.retired == len(trace)


def test_wrongpath_reservation_restored_after_resolve():
    # A mispredicted branch reserves registers; after resolution the
    # reservation is released and the program completes normally.
    source = """
        addi r1, r0, 1
        beq  r1, r0, skip
        addi r2, r0, 2
    skip:
        addi r3, r0, 3
        halt
    """
    pipeline, stats = run_source(
        source, use_based_config(wrongpath_alloc=24, **BASE)
    )
    assert stats.branch_mispredicts == 1
    assert pipeline._wrongpath_reserved == 0
    assert stats.retired == 5


def test_issue_blocked_cycles_counted_for_rc_misses():
    filler = "\n".join(["nop"] * 50)
    source = f"""
        addi r1, r0, 1
        addi r2, r1, 1
        {filler}
        addi r3, r1, 1
        halt
    """
    _, stats = run_source(source, use_based_config(**BASE))
    assert stats.issue_blocked_cycles >= stats.rc_miss_events > 0


def test_backing_ports_two_reduces_serialization():
    # Two backing read ports should never be slower than one.
    trace = load_trace("hash_dict", scale=0.12)
    one = Pipeline(trace, use_based_config(backing_read_ports=1)).run()
    two = Pipeline(trace, use_based_config(backing_read_ports=2)).run()
    # Fill-time shifts can perturb scheduling slightly; allow 5%.
    assert two.cycles <= one.cycles * 1.05


def test_monolithic_wider_bypass_helps():
    # Four bypass stages cover the monolithic dead window entirely.
    trace = load_trace("compress", scale=0.12)
    narrow = Pipeline(trace, monolithic_config(3, bypass_stages=2)).run()
    wide = Pipeline(trace, monolithic_config(3, bypass_stages=4)).run()
    assert wide.cycles <= narrow.cycles


def test_two_level_bandwidth_matters_under_pressure():
    trace = load_trace("compress", scale=0.2)
    fast = Pipeline(trace, two_level_config(
        cache_entries=16, two_level_bandwidth=4
    )).run()
    slow = Pipeline(trace, two_level_config(
        cache_entries=16, two_level_bandwidth=1
    )).run()
    assert slow.cycles >= fast.cycles


def test_disable_icache_model():
    trace = load_trace("crc", scale=0.12)
    stats = Pipeline(trace, use_based_config(model_icache=False)).run()
    assert stats.retired == len(trace)


def test_max_cycles_guard():
    import pytest

    from repro.errors import SimulationError
    trace = load_trace("crc", scale=0.12)
    with pytest.raises(SimulationError, match="exceeded"):
        Pipeline(trace, use_based_config(max_cycles=10)).run()


def test_record_timing_leaves_stats_unchanged():
    trace = load_trace("crc", scale=0.05)
    for config in (
        use_based_config(), monolithic_config(), two_level_config(),
    ):
        plain = Pipeline(trace, config).run()
        timed = Pipeline(trace, config.replace(record_timing=True)).run()
        assert timed.to_dict() == plain.to_dict()
