"""Moduli keys and the names the command line needs before it computes.

Imports no arithmetic, so that parsing a command line, and refusing a
malformed one, compiles neither the ring nor the catalog.  pipelines
evaluates keys; SUITES and DEFAULT_GRID name its suites and its default
grid, and ModuliKey's fields are the key columns of the CLI's records.
"""

from __future__ import annotations

import functools

from .record import Record, setfield

SUITES = ("duality", "pipeline", "special", "symmetry")
DEFAULT_GRID = "k=1..4,n=k+1..10"  # pipelines.grid_keys() with its defaults


@functools.total_ordering
class ModuliKey(Record):
    """One compactified space: curves of degree d in grassmannian(k, n).
    Keys sort by (k, n, d, compactification)."""

    __slots__ = ("k", "n", "d", "compactification")

    def __init__(self, k: int, n: int, d: int, compactification: str):
        setfield(self, "k", k)
        setfield(self, "n", n)
        setfield(self, "d", d)
        setfield(self, "compactification", compactification)

    def astuple(self) -> tuple:  # written out: == and hash serve the route cache
        return (self.k, self.n, self.d, self.compactification)

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self.astuple() < other.astuple()
        return NotImplemented

    def __str__(self) -> str:
        return f"{self.compactification}(Gr({self.k},{self.n}),{self.d})"
