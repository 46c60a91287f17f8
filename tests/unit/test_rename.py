"""Unit tests for freelist, map table, and renamer."""

import pytest

from repro.errors import RenameError
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.rename.freelist import FreeList
from repro.rename.map_table import MapTable
from repro.rename.renamer import Renamer
from repro.vm.trace import DynamicInst


# ----------------------------------------------------------------------
# FreeList


def test_freelist_counts():
    freelist = FreeList(8)
    assert freelist.free_count == 8
    preg = freelist.allocate()
    assert freelist.free_count == 7
    assert freelist.allocated_count == 1
    assert freelist.is_allocated(preg)


def test_freelist_exhaustion_raises():
    freelist = FreeList(2)
    freelist.allocate()
    freelist.allocate()
    with pytest.raises(RenameError, match="exhausted"):
        freelist.allocate()


def test_freelist_release_and_reuse():
    freelist = FreeList(2)
    a = freelist.allocate()
    freelist.release(a)
    assert freelist.free_count == 2
    assert not freelist.is_allocated(a)


def test_freelist_double_free_raises():
    freelist = FreeList(4)
    preg = freelist.allocate()
    freelist.release(preg)
    with pytest.raises(RenameError, match="unallocated"):
        freelist.release(preg)


def test_freelist_lifo_reuses_recent():
    freelist = FreeList(8, policy="lifo")
    a = freelist.allocate()
    b = freelist.allocate()
    freelist.release(a)
    freelist.release(b)
    assert freelist.allocate() == b  # most recently freed first


def test_freelist_fifo_round_robins():
    freelist = FreeList(4, policy="fifo")
    first = [freelist.allocate() for _ in range(4)]
    for preg in first:
        freelist.release(preg)
    assert freelist.allocate() == first[0]


def test_freelist_rejects_bad_policy():
    with pytest.raises(ValueError):
        FreeList(4, policy="random")


def test_freelist_reserved_range():
    freelist = FreeList(8, reserved=4)
    assert freelist.free_count == 4
    assert freelist.allocate() >= 4


# ----------------------------------------------------------------------
# MapTable


def test_map_table_define_and_lookup():
    table = MapTable()
    assert table.lookup(5) == (-1, -1)
    table.define(5, preg=100, cache_set=3)
    assert table.lookup(5) == (100, 3)


def test_map_table_define_returns_displaced():
    table = MapTable()
    assert table.define(5, 100) == -1
    assert table.define(5, 101) == 100


def test_map_table_out_of_range():
    table = MapTable(num_arch_regs=8)
    for arch_reg in (8, -1):
        with pytest.raises(RenameError, match="out of range"):
            table.lookup(arch_reg)
        with pytest.raises(RenameError, match="out of range"):
            table.define(arch_reg, 0)
    # A rejected define leaves the map untouched.
    assert table.preg == [-1] * 8 and table.cache_set == [-1] * 8


# ----------------------------------------------------------------------
# Renamer


def _dyn(inst, seq=0):
    return DynamicInst(seq, 0, inst)


def test_renamer_allocates_dest_and_tracks_prev():
    renamer = Renamer(FreeList(16), MapTable())
    _, first_dest, _, first_prev = renamer.rename(
        _dyn(Instruction(Opcode.ADDI, dest=5, src1=0, imm=1)), 0
    )
    assert first_dest >= 0
    assert first_prev == -1
    _, _, _, second_prev = renamer.rename(
        _dyn(Instruction(Opcode.ADDI, dest=5, src1=0, imm=2)), 0
    )
    assert second_prev == first_dest


def test_renamer_resolves_sources_through_map():
    renamer = Renamer(FreeList(16), MapTable())
    _, dest_preg, dest_set, _ = renamer.rename(
        _dyn(Instruction(Opcode.ADDI, dest=3, src1=0, imm=1)), 0
    )
    sources, _, _, _ = renamer.rename(
        _dyn(Instruction(Opcode.ADD, dest=4, src1=3, src2=3)), 0
    )
    assert sources == ((dest_preg, dest_set), (dest_preg, dest_set))


def test_renamer_unmapped_source_is_free():
    renamer = Renamer(FreeList(16), MapTable())
    sources, _, _, _ = renamer.rename(
        _dyn(Instruction(Opcode.ADD, dest=4, src1=7, src2=8)), 0
    )
    assert sources == ((-1, -1), (-1, -1))


def test_renamer_uses_set_assignment():
    assigned = []

    def assign(pred):
        assigned.append(pred)
        return 9

    renamer = Renamer(FreeList(16), MapTable(), assign_set=assign)
    _, _, dest_set, _ = renamer.rename(
        _dyn(Instruction(Opcode.ADDI, dest=3, src1=0, imm=1)), 4
    )
    assert dest_set == 9
    assert assigned == [4]


def test_renamer_no_dest_allocates_nothing():
    freelist = FreeList(16)
    renamer = Renamer(freelist, MapTable())
    assert renamer.rename(
        _dyn(Instruction(Opcode.SW, src1=1, src2=2, imm=0)), 0
    )[1:] == (-1, -1, -1)
    assert freelist.free_count == 16
