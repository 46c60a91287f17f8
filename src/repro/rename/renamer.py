"""The rename stage: allocation, mapping, and set assignment."""

from __future__ import annotations

from repro.rename.freelist import FreeList
from repro.rename.map_table import MapTable
from repro.vm.trace import DynamicInst


class Renamer:
    """Performs register renaming over the committed trace.

    Args:
        freelist: physical register freelist.
        map_table: architectural map table.
        assign_set: optional callable ``(pred_uses) -> int`` implementing
            a decoupled-indexing set-assignment policy; ``None`` leaves
            set assignment to the register cache (standard indexing).
    """

    def __init__(
        self,
        freelist: FreeList,
        map_table: MapTable,
        assign_set=None,
    ) -> None:
        self.freelist = freelist
        self.map_table = map_table
        self.assign_set = assign_set

    def rename(
        self, dyn: DynamicInst, pred_uses: int
    ) -> tuple[tuple[tuple[int, int], ...], int, int, int]:
        """Rename *dyn*, allocating a destination register if needed.

        Returns ``(sources, dest_preg, dest_set, prev_preg)``:

        * ``sources`` — per-source ``(preg, cache_set)`` pairs; a source
          whose architectural register was never written (initial
          state) is ``(-1, -1)`` and always ready;
        * ``dest_preg`` — the allocated destination register, or -1;
        * ``dest_set`` — the register-cache set assigned by decoupled
          indexing from *pred_uses*, or -1 under standard indexing and
          non-cache schemes;
        * ``prev_preg`` — the register displaced from the map (freed
          when *dyn* retires), or -1.

        The caller must have checked that the freelist has a register
        for a writing instruction; :meth:`FreeList.allocate` raises
        :class:`~repro.errors.RenameError` otherwise.
        """
        map_table = self.map_table
        preg_of = map_table.preg
        set_of = map_table.cache_set
        sources = tuple([(preg_of[arch], set_of[arch]) for arch in dyn.sources])
        dest = dyn.dest
        if dest is None:
            return sources, -1, -1, -1
        dest_preg = self.freelist.allocate()
        assign_set = self.assign_set
        dest_set = -1 if assign_set is None else assign_set(pred_uses)
        return sources, dest_preg, dest_set, map_table.define(
            dest, dest_preg, dest_set
        )
