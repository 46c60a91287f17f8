"""Unit tests for the differential oracle."""

import pytest

from repro.core.config import (
    lru_config,
    monolithic_config,
    two_level_config,
    use_based_config,
)
from repro.core.pipeline import Pipeline
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.testing import oracle
from repro.vm.machine import Machine
from repro.workloads.suite import load_trace

SCALE = 0.06


@pytest.fixture(scope="module")
def trace():
    return load_trace("compress", scale=SCALE)


def _run(trace, config):
    return Pipeline(trace, config).run()


class TestReplay:
    def test_replay_counts_match_trace(self, trace):
        replay = oracle.replay_trace(trace)
        assert replay.retired == len(trace.records)
        assert replay.source_operands == sum(
            len(inst.sources) for inst in trace.records
        )
        assert replay.dest_writes == sum(
            1 for inst in trace.records if inst.dest is not None
        )
        assert 0 < replay.dest_writes <= replay.retired

    def test_replay_skips_initial_state_reads(self):
        # r1 is read before any record writes it: initial architectural
        # state, which no storage scheme reads. The second ADDI reads
        # the renamed r1 and counts.
        program = Program(instructions=[
            Instruction(Opcode.ADDI, dest=1, src1=1, imm=0),
            Instruction(Opcode.ADDI, dest=2, src1=1, imm=1),
            Instruction(Opcode.HALT),
        ], name="initial_reads")
        trace = Machine(program).run()
        assert oracle.replay_trace(trace).source_operands == 1
        for config in (use_based_config(), monolithic_config(3),
                       two_level_config()):
            stats = _run(trace, config)
            assert oracle.check_run(trace, stats) == []


class TestValidateStats:
    def test_clean_run_passes(self, trace):
        stats = _run(trace, use_based_config())
        assert oracle.validate_stats(stats) == []

    def test_negative_counter_flagged(self, trace):
        stats = _run(trace, use_based_config())
        stats.retired = -stats.retired
        violations = oracle.validate_stats(stats)
        assert any("retired is negative" in v for v in violations)

    def test_broken_cache_conservation_flagged(self, trace):
        stats = _run(trace, use_based_config())
        stats.cache.hits += 7
        violations = oracle.validate_stats(stats)
        assert any("cache reads" in v for v in violations)

    def test_bypass_first_bound_flagged(self, trace):
        stats = _run(trace, use_based_config())
        stats.operands_bypass_first = stats.operands_bypass + 1
        violations = oracle.validate_stats(stats)
        assert any("operands_bypass_first" in v for v in violations)

    def test_predictor_ordering_flagged(self, trace):
        stats = _run(trace, use_based_config())
        stats.predictor_correct = stats.predictor_supplied + 1
        violations = oracle.validate_stats(stats)
        assert any("predictor_correct" in v for v in violations)


class TestCheckRun:
    @pytest.mark.parametrize("config_factory", [
        use_based_config, lru_config,
        lambda: monolithic_config(3), two_level_config,
    ])
    def test_every_scheme_conserves(self, trace, config_factory):
        stats = _run(trace, config_factory())
        assert oracle.check_run(trace, stats) == []

    def test_retired_mismatch_flagged(self, trace):
        stats = _run(trace, use_based_config())
        stats.retired += 1
        violations = oracle.check_run(trace, stats)
        assert any("trace length" in v for v in violations)

    def test_operand_conservation_flagged(self, trace):
        stats = _run(trace, use_based_config())
        stats.operands_storage += 1
        violations = oracle.check_run(trace, stats)
        assert violations  # breaks bypass+storage and storage==reads

    def test_rf_write_mismatch_flagged(self, trace):
        stats = _run(trace, use_based_config())
        stats.rf_writes += 1
        violations = oracle.check_run(trace, stats)
        assert any("rf_writes" in v for v in violations)

    def test_wrong_trace_is_detected(self, trace):
        stats = _run(trace, use_based_config())
        other = load_trace("pointer_chase", scale=SCALE)
        assert oracle.check_run(other, stats) != []


class TestCheckResults:
    def test_clean_sweep_has_no_violations(self, trace):
        stats = _run(trace, use_based_config())
        assert oracle.check_results({"compress": trace},
                                    {"compress": stats}) == {}

    def test_holes_are_skipped(self, trace):
        class Hole:
            def __bool__(self):
                return False

        assert oracle.check_results(
            {"compress": trace}, {"compress": Hole()},
        ) == {}

    def test_missing_trace_still_validates_internally(self, trace):
        stats = _run(trace, use_based_config())
        stats.cache.hits += 3
        violations = oracle.check_results({}, {"compress": stats})
        assert "compress" in violations
