"""Workload definitions: seeded op lists, op execution and output digests.

Every workload is a stream of rounds.  A round is a fixed mix of ops
drawn from a finite universe, so each round costs about the same
whatever the seed.  The seed shuffles the deal of the ops inside each
stratum or menu category and the order of the ops in a round; the
program under test only ever sees the generated inputs.

The universes are finite so that ``expected.json`` can hold an output
digest for every op any seed can draw.  ``gen_expected.py`` writes it
from the program as it stands and accepts it only if the outputs pass
the structural checks listed there.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

WORKLOADS = ("big-key", "cli-cold")

# ------------------------------------------------------------------ big-key

BIG_N = range(36, 49)
# (compactification, degree, mode); M has no pipeline route.
BIG_COMBOS = (
    ("S", 2, "closed"),
    ("S", 2, "pipeline"),
    ("M", 3, "closed"),
    ("S", 3, "closed"),
    ("S", 3, "pipeline"),
    ("H", 3, "closed"),
    ("H", 3, "pipeline"),
)
# Op cost grows steeply with the dimension k(n-k) + 3n - 3.  A round
# draws one (k, n) from each of these strata of the pairs ordered by
# dimension, for every combo, so rounds cost about the same whatever the
# seed.  The last stratum holds only the largest 5% of the pairs, so the
# slowest ops, which set op_tail_s, come from a narrow band.
BIG_STRATA = (0.0, 0.2, 0.4, 0.6, 0.8, 0.95, 1.0)


def big_pairs() -> list[tuple[int, int]]:
    """All (k, n) with n in [36, 48] and n/4 <= k <= n/2, by dimension."""
    pairs = [(k, n) for n in BIG_N for k in range(-(-n // 4), n // 2 + 1)]
    return sorted(pairs, key=lambda p: (p[0] * (p[1] - p[0]) + 3 * p[1], p))


def big_strata() -> list[list[tuple[int, int]]]:
    pairs = big_pairs()
    cuts = [round(f * len(pairs)) for f in BIG_STRATA]
    return [pairs[lo:hi] for lo, hi in zip(cuts, cuts[1:])]


def big_key_name(k: int, n: int, comp: str, d: int) -> str:
    return f"{comp}(Gr({k},{n}),{d})"


# ----------------------------------------------------------------- cli-cold

# (expression, dimension) atoms for generated --space expressions.
_ATOMS = (
    ("P(1)", 1), ("P(2)", 2), ("P(3)", 3), ("P(4)", 4), ("P(6)", 6),
    ("Gr(1,3)", 2), ("Gr(2,4)", 4), ("Gr(2,5)", 6), ("Gr(3,6)", 9),
    ("F1(Gr(1,4))", 4), ("F1(Gr(2,5))", 8), ("Fx(Gr(2,5))", 3),
    ("MbarP1(2)", 2), ("MbarP1(3)", 4), ("WP(1,2,2)", 2),
    ("S(Gr(1,3),3)", 8), ("M(Gr(1,4),2)", 8), ("H(Gr(1,4),3)", 12),
)
_POOL_SEED = "cli-cold pool v1"
EXPR_COUNT = 40

# Ops per round for each menu category, and the exit code it expects.
CLI_MIX = {
    "expr": (2, 0),
    "key": (2, 0),
    "table": (1, 0),
    "verify": (1, 0),
    "malformed": (1, 2),
    "inexact": (1, 3),
}


def _expression(rng: random.Random) -> str:
    (a, da), (b, db), (c, dc) = rng.sample(_ATOMS, 3)
    shape = rng.randrange(6)
    if shape == 0:
        return f"{a} * {b}"
    if shape == 1:
        return f"{a} + {b}"
    if shape == 2:
        return f"({a} + {b}) * {c}"
    if shape == 3:
        return f"{a} * {b} + {c}"
    # Blow up a point-to-line center of the product, then (shape 5) blow
    # it back down, which must return the product.
    space, dim = f"{a} * {b}", da + db
    center = rng.randrange(0, min(dim, 4))
    up = f"blowup({space}, P({center}), {dim - center})"
    if shape == 4:
        return up
    return f"blowdown({up}, P({center}), P({dim - center - 1}))"


def cli_pool() -> dict[str, list[tuple[str, ...]]]:
    """The finite argv menu, by category; independent of the run seed."""
    rng = random.Random(_POOL_SEED)
    exprs: list[str] = []
    while len(exprs) < EXPR_COUNT:
        e = _expression(rng)
        if e not in exprs:
            exprs.append(e)
    pool: dict[str, list[tuple[str, ...]]] = {
        "expr": [
            ("betti", "--space", e) + (("--format", "json") if i % 3 == 0 else ())
            for i, e in enumerate(exprs)
        ]
    }
    keys = []
    for k, n in ((1, 4), (1, 5), (2, 5), (1, 6), (2, 6), (3, 7)):
        for d, comp in ((2, "S"), (3, "S"), (3, "H")):
            fmt = ("text", "json", "csv")[(k + n + d) % 3]
            keys.append(
                ("betti", "--k", str(k), "--n", str(n), "--d", str(d),
                 "--compactification", comp, "--trace", "--format", fmt)
            )
    pool["key"] = keys
    pool["table"] = [
        ("table", "--k", str(k), "--n", f"{k + 3}..{k + 6}", "--d", str(d),
         "--compactification", comp, "--format", fmt)
        for k in (1, 2)
        for d, comp in ((2, "S"), (3, "M"), (3, "H"))
        for fmt in ("csv", "json")
    ]
    pool["verify"] = [
        ("verify", "--grid", grid, "--suite", suite)
        for grid in ("k=1..2,n=k+1..6", "k=1..1,n=k+2..9")
        for suite in ("pipeline", "duality", "special")
    ] + [
        # "all" runs the duality and pipeline suites over the same keys,
        # so verify_pair's repeat work shows in the traced run.  Its grid
        # is smaller, so that it costs about what the other verify ops do
        # and no single op sets op_tail_s.
        ("verify", "--grid", "k=1..1,n=k+2..6", "--suite", "all"),
    ]
    pool["malformed"] = [
        ("betti", "--space", "P(3"),
        ("betti", "--space", "Gr(1,3) *"),
        ("betti", "--space", "Q(2)"),
        ("betti", "--space", "H(Gr(1,3),3)"),
        ("betti", "--space", "S(Gr(1,4),4)"),
        ("betti", "--space", "P(2) + (Gr(2,4)"),
        ("betti", "--k", "1", "--n", "3", "--d", "4", "--compactification", "S"),
        ("betti", "--k", "1", "--n", "3"),
        ("betti", "--space", "P(2)", "--k", "1"),
        ("table", "--k", "1", "--n", "9..4", "--d", "3", "--compactification", "S"),
        ("verify", "--grid", "k=1..x"),
        ("frobnicate",),
    ]
    pool["inexact"] = [
        ("betti", "--space", "P(1) - P(3)"),
        ("betti", "--space", "Gr(1,3) - Gr(2,5)"),
        ("betti", "--space", "blowup(P(3), P(1), 3)"),
        ("betti", "--space", "blowup(Gr(2,4), P(1), 2)"),
        ("betti", "--space", "blowdown(P(2), P(2), P(2))"),
        ("betti", "--space", "blowdown(Gr(2,4), Gr(2,4), P(3))"),
    ]
    return pool


def cli_expected_exit(category: str) -> int:
    return CLI_MIX[category][1]


# ---------------------------------------------------------------------- ops


@dataclass(frozen=True)
class Op:
    """One operation; ``key`` names its entry in expected.json."""

    workload: str
    key: str
    args: tuple


def universe(workload: str) -> list[Op]:
    """Every op any seed can draw for the workload."""
    if workload == "big-key":
        return [
            _big_op(k, n, combo)
            for k, n in big_pairs()
            for combo in BIG_COMBOS
        ]
    if workload == "cli-cold":
        return [
            _cli_op(cat, argv) for cat, items in cli_pool().items() for argv in items
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _big_op(k: int, n: int, combo: tuple[str, int, str]) -> Op:
    comp, d, mode = combo
    # Both routes share one digest, so the gate also checks that they agree.
    return Op("big-key", big_key_name(k, n, comp, d), (k, n, d, comp, mode))


def _cli_op(category: str, argv: tuple[str, ...]) -> Op:
    return Op("cli-cold", json.dumps(argv), (category,) + argv)


def _deal(rng: random.Random, items):
    """Endless draws from items: each pass is a fresh seeded shuffle, so
    every item comes up equally often over a run, whatever the seed."""
    items = list(items)
    while True:
        rng.shuffle(items)
        yield from items


def rounds(workload: str, seed: int):
    """Endless deterministic stream of rounds (lists of ops) for a seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "big-key":
        decks = {
            (combo, i): _deal(rng, stratum)
            for combo in BIG_COMBOS
            for i, stratum in enumerate(big_strata())
        }
        while True:
            ops = [_big_op(*next(deck), combo) for (combo, _), deck in decks.items()]
            rng.shuffle(ops)
            yield ops
    elif workload == "cli-cold":
        decks = {cat: _deal(rng, items) for cat, items in cli_pool().items()}
        while True:
            ops = [
                _cli_op(cat, next(decks[cat]))
                for cat, (count, _) in CLI_MIX.items()
                for _ in range(count)
            ]
            rng.shuffle(ops)
            yield ops
    else:
        raise ValueError(f"unknown workload {workload!r}")


# Rounds per part.  A run is a sequence of parts, each a fresh process
# doing a fixed amount of work of about six seconds, so a run samples
# several processes instead of resting on one.
ROUNDS_PER_PART = {"big-key": 1, "cli-cold": 4}


def part_rounds(workload: str, seed: int, part: int) -> list[list[Op]]:
    """The rounds of one part: the seed's stream, cut into equal parts."""
    per = ROUNDS_PER_PART[workload]
    return list(itertools.islice(rounds(workload, seed), part * per, (part + 1) * per))


# ------------------------------------------------------------------ digests


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def poly_digest(coeffs: tuple[int, ...]) -> str:
    return _sha(",".join(map(str, coeffs)))


def cli_digest(stdout: bytes, code: int) -> str:
    return _sha(f"exit={code}\n" + stdout.decode("utf-8", "replace"))


def load_expected() -> dict[str, dict[str, str]]:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


# ---------------------------------------------------------------- execution


def cache_objects(modules) -> dict[str, object]:
    """Every ``cache_clear``-bearing object of the modules, by name.

    The benchmark's tracer replaces some module attributes with wrappers
    that remember the object they wrap; the caches are looked up on the
    wrapped object so that tracing does not hide them.
    """
    out = {}
    for module in modules:
        for name, obj in vars(module).items():
            obj = getattr(obj, "bench_original", obj)
            if callable(getattr(obj, "cache_clear", None)):
                out[f"{module.__name__.rsplit('.', 1)[-1]}.{name}"] = obj
    return out


class CacheLedger:
    """Clears the program's caches from outside and keeps their counts.

    ``cache_info`` restarts at zero on every clear, so hits and misses
    are added up here before each clear.
    """

    def __init__(self, modules):
        self.caches = cache_objects(modules)
        self.hits = dict.fromkeys(self.caches, 0)
        self.misses = dict.fromkeys(self.caches, 0)

    def clear(self) -> None:
        self.collect()
        for name, obj in self.caches.items():
            obj.cache_clear()
            if obj.cache_info().currsize != 0:
                raise RuntimeError(f"cache {name} did not clear")

    def collect(self) -> None:
        for name, obj in self.caches.items():
            info = obj.cache_info()
            self.hits[name] += info.hits
            self.misses[name] += info.misses


class InProcess:
    """Runs big-key ops against the imported package, caches cleared."""

    def __init__(self):
        from curvebetti import catalog, pipelines

        self.pipelines = pipelines
        self.ledger = CacheLedger((catalog, pipelines))

    def run(self, op: Op):
        p = self.pipelines
        k, n, d, comp, mode = op.args
        return p.space_poly(p.ModuliKey(k, n, d, comp), mode)

    @staticmethod
    def digest(op: Op, out) -> str:
        return poly_digest(out.poly.coeffs)


def cli_command(argv: tuple[str, ...]) -> list[str]:
    return [sys.executable, "-m", "curvebetti", *argv]


def run_cli(argv: tuple[str, ...], command=cli_command) -> tuple[bytes, int, bytes]:
    proc = subprocess.run(
        command(argv), cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, timeout=60,
    )
    return proc.stdout, proc.returncode, proc.stderr
