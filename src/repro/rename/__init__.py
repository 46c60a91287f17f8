"""Register renaming: freelist, map table, and the rename stage."""

from repro.rename.freelist import FreeList
from repro.rename.map_table import MapTable
from repro.rename.renamer import Renamer

__all__ = ["FreeList", "MapTable", "Renamer"]
