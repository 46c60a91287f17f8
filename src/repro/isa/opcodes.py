"""Opcode definitions for the synthetic RISC ISA.

The ISA is deliberately small but spans the operand structure the paper's
mechanisms are sensitive to: up to two register sources and one register
destination per instruction, loads and stores, conditional and indirect
branches, and a mix of execution latencies matching Table 1 of the paper
(integer ALU 1 cycle, branch resolution 2, integer multiply 4, FP ALU 3,
FP multiply 4, FP divide 18, loads 4-cycle load-to-use on an L1 hit).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class OpClass(enum.Enum):
    """Functional-unit class of an opcode.

    The timing model maps each class onto a pool of functional units with
    the latencies from Table 1 of the paper.
    """

    INT_ALU = "int_alu"
    BRANCH = "branch"
    INT_MUL = "int_mul"
    FP_ALU = "fp_alu"
    FP_MUL = "fp_mul"
    FP_DIV = "fp_div"
    LOAD = "load"
    STORE = "store"
    SYSTEM = "system"


#: Dense int id of each class (its position in :class:`OpClass`), so the
#: issue stage counts functional units in a list instead of hashing enums.
OP_CLASS_ID: dict[OpClass, int] = {cls: i for i, cls in enumerate(OpClass)}


#: Execute latency (cycles) per functional-unit class, from Table 1.
#: For loads this is the load-to-use latency on an L1 hit; the memory
#: hierarchy adds additional cycles on misses.
CLASS_LATENCY: dict[OpClass, int] = {
    OpClass.INT_ALU: 1,
    OpClass.BRANCH: 2,
    OpClass.INT_MUL: 4,
    OpClass.FP_ALU: 3,
    OpClass.FP_MUL: 4,
    OpClass.FP_DIV: 18,
    OpClass.LOAD: 4,
    OpClass.STORE: 1,
    OpClass.SYSTEM: 1,
}


class Opcode(enum.Enum):
    """Every opcode understood by the assembler, VM, and timing model."""

    # Integer ALU.
    ADD = "add"
    SUB = "sub"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SLL = "sll"
    SRL = "srl"
    SRA = "sra"
    SLT = "slt"
    SLTU = "sltu"
    ADDI = "addi"
    ANDI = "andi"
    ORI = "ori"
    XORI = "xori"
    SLLI = "slli"
    SRLI = "srli"
    SLTI = "slti"
    LUI = "lui"
    MOV = "mov"
    # Integer multiply/divide (multiplier pool).
    MUL = "mul"
    MULH = "mulh"
    DIV = "div"
    REM = "rem"
    # Floating point (modelled on integer state; latency is what matters).
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FDIV = "fdiv"
    # Memory.
    LW = "lw"
    LB = "lb"
    SW = "sw"
    SB = "sb"
    # Control.
    BEQ = "beq"
    BNE = "bne"
    BLT = "blt"
    BGE = "bge"
    JAL = "jal"
    JALR = "jalr"
    RET = "ret"
    # System.
    NOP = "nop"
    HALT = "halt"
    OUT = "out"


#: Map from opcode to functional-unit class.
OP_CLASS: dict[Opcode, OpClass] = {
    Opcode.ADD: OpClass.INT_ALU,
    Opcode.SUB: OpClass.INT_ALU,
    Opcode.AND: OpClass.INT_ALU,
    Opcode.OR: OpClass.INT_ALU,
    Opcode.XOR: OpClass.INT_ALU,
    Opcode.SLL: OpClass.INT_ALU,
    Opcode.SRL: OpClass.INT_ALU,
    Opcode.SRA: OpClass.INT_ALU,
    Opcode.SLT: OpClass.INT_ALU,
    Opcode.SLTU: OpClass.INT_ALU,
    Opcode.ADDI: OpClass.INT_ALU,
    Opcode.ANDI: OpClass.INT_ALU,
    Opcode.ORI: OpClass.INT_ALU,
    Opcode.XORI: OpClass.INT_ALU,
    Opcode.SLLI: OpClass.INT_ALU,
    Opcode.SRLI: OpClass.INT_ALU,
    Opcode.SLTI: OpClass.INT_ALU,
    Opcode.LUI: OpClass.INT_ALU,
    Opcode.MOV: OpClass.INT_ALU,
    Opcode.MUL: OpClass.INT_MUL,
    Opcode.MULH: OpClass.INT_MUL,
    Opcode.DIV: OpClass.INT_MUL,
    Opcode.REM: OpClass.INT_MUL,
    Opcode.FADD: OpClass.FP_ALU,
    Opcode.FSUB: OpClass.FP_ALU,
    Opcode.FMUL: OpClass.FP_MUL,
    Opcode.FDIV: OpClass.FP_DIV,
    Opcode.LW: OpClass.LOAD,
    Opcode.LB: OpClass.LOAD,
    Opcode.SW: OpClass.STORE,
    Opcode.SB: OpClass.STORE,
    Opcode.BEQ: OpClass.BRANCH,
    Opcode.BNE: OpClass.BRANCH,
    Opcode.BLT: OpClass.BRANCH,
    Opcode.BGE: OpClass.BRANCH,
    Opcode.JAL: OpClass.BRANCH,
    Opcode.JALR: OpClass.BRANCH,
    Opcode.RET: OpClass.BRANCH,
    Opcode.NOP: OpClass.SYSTEM,
    Opcode.HALT: OpClass.SYSTEM,
    Opcode.OUT: OpClass.SYSTEM,
}


@dataclass(frozen=True)
class OpcodeSpec:
    """Static properties of an opcode used by the assembler and VM.

    Attributes:
        opcode: the opcode this spec describes.
        op_class: functional-unit class (determines latency and FU pool).
        num_sources: number of register source operands (0-2).
        has_dest: whether the instruction writes a register destination.
        has_imm: whether the instruction carries an immediate.
        is_branch: conditional or unconditional control transfer.
        is_conditional: conditional branch (needs a predicted direction).
        is_indirect: target comes from a register (JALR/RET).
        is_load: reads memory.
        is_store: writes memory.
    """

    opcode: Opcode
    op_class: OpClass
    num_sources: int
    has_dest: bool
    has_imm: bool
    is_branch: bool = False
    is_conditional: bool = False
    is_indirect: bool = False
    is_load: bool = False
    is_store: bool = False

    @property
    def latency(self) -> int:
        """Execute latency in cycles for this opcode's class."""
        return CLASS_LATENCY[self.op_class]


def _spec(
    op: Opcode,
    num_sources: int,
    has_dest: bool,
    has_imm: bool,
    **flags: bool,
) -> OpcodeSpec:
    return OpcodeSpec(op, OP_CLASS[op], num_sources, has_dest, has_imm, **flags)


#: Full opcode table. Three-register ALU ops read two sources; immediate
#: forms read one. Stores read two sources (data + base) and have no dest.
SPECS: dict[Opcode, OpcodeSpec] = {
    **{
        op: _spec(op, 2, True, False)
        for op in (
            Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR, Opcode.XOR,
            Opcode.SLL, Opcode.SRL, Opcode.SRA, Opcode.SLT, Opcode.SLTU,
            Opcode.MUL, Opcode.MULH, Opcode.DIV, Opcode.REM,
            Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV,
        )
    },
    **{
        op: _spec(op, 1, True, True)
        for op in (
            Opcode.ADDI, Opcode.ANDI, Opcode.ORI, Opcode.XORI,
            Opcode.SLLI, Opcode.SRLI, Opcode.SLTI,
        )
    },
    Opcode.LUI: _spec(Opcode.LUI, 0, True, True),
    Opcode.MOV: _spec(Opcode.MOV, 1, True, False),
    Opcode.LW: _spec(Opcode.LW, 1, True, True, is_load=True),
    Opcode.LB: _spec(Opcode.LB, 1, True, True, is_load=True),
    Opcode.SW: _spec(Opcode.SW, 2, False, True, is_store=True),
    Opcode.SB: _spec(Opcode.SB, 2, False, True, is_store=True),
    Opcode.BEQ: _spec(
        Opcode.BEQ, 2, False, True, is_branch=True, is_conditional=True
    ),
    Opcode.BNE: _spec(
        Opcode.BNE, 2, False, True, is_branch=True, is_conditional=True
    ),
    Opcode.BLT: _spec(
        Opcode.BLT, 2, False, True, is_branch=True, is_conditional=True
    ),
    Opcode.BGE: _spec(
        Opcode.BGE, 2, False, True, is_branch=True, is_conditional=True
    ),
    Opcode.JAL: _spec(Opcode.JAL, 0, True, True, is_branch=True),
    Opcode.JALR: _spec(
        Opcode.JALR, 1, True, True, is_branch=True, is_indirect=True
    ),
    Opcode.RET: _spec(
        Opcode.RET, 1, False, False, is_branch=True, is_indirect=True
    ),
    Opcode.NOP: _spec(Opcode.NOP, 0, False, False),
    Opcode.HALT: _spec(Opcode.HALT, 0, False, False),
    Opcode.OUT: _spec(Opcode.OUT, 1, False, False),
}

#: Lookup from mnemonic text to opcode, for the assembler.
MNEMONICS: dict[str, Opcode] = {op.value: op for op in Opcode}


def spec_for(opcode: Opcode) -> OpcodeSpec:
    """Return the :class:`OpcodeSpec` for *opcode*."""
    return SPECS[opcode]
