"""Moduli keys and every rule on them: validity, dimension, the k -> n-k
mirror and normal form, and the keys of a grid.  A key (k, n, d, M|S|H)
names degree d curves in Gr(k, n) as stable maps, semistable sheaves or
a Hilbert scheme.  SUITES and DEFAULT_GRID name pipelines' suites and its
default grid; ModuliKey's fields are the key columns of the CLI's records.

Imports no arithmetic, so that the command line refuses a bad key,
range or grid before it compiles the ring or the catalog.
"""

from __future__ import annotations

import functools

from .errors import InvalidParameters
from .record import Record, setfield

COMPACTIFICATIONS = ("M", "S", "H")
SUITES = ("duality", "pipeline", "special", "symmetry")
DEFAULT_GRID = "k=1..4,n=k+1..10"  # grid_keys() with its defaults


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


def validate_key(key: ModuliKey) -> None:
    """Raise InvalidParameters, naming the key, unless it names a
    supported space: degree 2 or 3 in Gr(k, n), 1 <= k <= n-1, n >= 3."""
    if key.compactification not in COMPACTIFICATIONS:
        raise InvalidParameters(f"compactification {key.compactification!r} not one of M, S, H")
    if key.d not in (2, 3):
        raise InvalidParameters(f"{key}: degree must be 2 or 3")
    if not 1 <= key.k <= key.n - 1:
        raise InvalidParameters(f"{key}: need 1 <= k <= n-1")
    if key.n < 3:
        raise InvalidParameters(f"{key}: need n >= 3")
    if key.compactification == "H" and key.d == 3 and key.n == 3:
        raise InvalidParameters(
            f"{key}: every cubic here lies in a plane, so the planar locus "
            "is the whole space and the blow-up to the Hilbert scheme "
            "degenerates"
        )


def has_pipeline(key: ModuliKey) -> bool:
    """S and H keys have a surgery pipeline; M is its base and has none."""
    return key.compactification != "M"


def normalize_key(key: ModuliKey) -> ModuliKey:
    """Fold k -> n-k duality so k <= n-k, returning such a key itself."""
    return key if 2 * key.k <= key.n else mirror_key(key)


def mirror_key(key: ModuliKey) -> ModuliKey:
    return ModuliKey(key.n - key.k, key.n, key.d, key.compactification)


def dim_expected(key: ModuliKey) -> int:
    """k(n-k) + dn - 3, the dimension of any of the three spaces."""
    return key.k * (key.n - key.k) + key.d * key.n - 3


def keys_for_pair(k: int, n: int) -> list[ModuliKey]:
    """The valid keys over one (k, n): both degrees of M and S, plus H."""
    out = []
    for d, comp in ((2, "M"), (2, "S"), (3, "M"), (3, "S"), (3, "H")):
        key = ModuliKey(k, n, d, comp)
        try:
            validate_key(key)
        except InvalidParameters:
            continue
        out.append(key)
    return out


def grid_keys(
    k_lo: int = 1, k_hi: int = 4, n_lo: int | None = None, n_hi: int = 10,
    n_offset: int = 1,
) -> list[ModuliKey]:
    """The valid keys with k_lo <= k <= k_hi and max(n_lo, k + n_offset)
    <= n <= n_hi; n_lo of None sets no bound beyond k + n_offset.  The
    defaults give DEFAULT_GRID.  Every key has k < n, so k stops at
    n_hi - 1, however large k_hi is."""
    keys: list[ModuliKey] = []
    for k in range(k_lo, min(k_hi, n_hi - 1) + 1):
        for n in range(max(k + n_offset, n_lo or 0), n_hi + 1):
            keys.extend(keys_for_pair(k, n))
    return sorted(keys)
