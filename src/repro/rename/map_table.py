"""Rename map table with decoupled register-cache indices.

Per the paper (§4.1), decoupled indexing widens the map table: each
architectural register maps to a physical register *and* the register
cache set assigned to the value. Consumers obtain both through the
normal rename process, so the set index needs no extra indirection.

The two fields live in two flat int lists indexed by architectural
register (``-1`` when unmapped), so renaming allocates nothing.
"""

from __future__ import annotations

from repro.errors import RenameError
from repro.isa.instruction import NUM_ARCH_REGS


class MapTable:
    """Architectural-to-physical register map.

    Attributes:
        preg: physical register holding (or about to hold) each
            architectural register's value, or -1 if never written.
        cache_set: register-cache set assigned to that value at rename,
            or -1 when the storage scheme does not use decoupled
            indexing (or the register was never written).
    """

    def __init__(self, num_arch_regs: int = NUM_ARCH_REGS) -> None:
        self.num_arch_regs = num_arch_regs
        self.preg = [-1] * num_arch_regs
        self.cache_set = [-1] * num_arch_regs

    def lookup(self, arch_reg: int) -> tuple[int, int]:
        """``(preg, cache_set)`` of *arch_reg*; ``(-1, -1)`` if never written."""
        if not 0 <= arch_reg < self.num_arch_regs:
            raise RenameError(f"architectural register {arch_reg} out of range")
        return self.preg[arch_reg], self.cache_set[arch_reg]

    def define(self, arch_reg: int, preg: int, cache_set: int = -1) -> int:
        """Install a new mapping; returns the displaced preg, or -1.

        The displaced physical register becomes eligible for freeing
        when the defining instruction retires.
        """
        if not 0 <= arch_reg < self.num_arch_regs:
            raise RenameError(f"architectural register {arch_reg} out of range")
        previous = self.preg[arch_reg]
        self.preg[arch_reg] = preg
        self.cache_set[arch_reg] = cache_set
        return previous
