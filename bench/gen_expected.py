"""Write expected.json: an output digest for every op of every workload.

    python3 bench/gen_expected.py

The digests come from the program as it stands.  They are accepted only
if every output also passes checks that do not trust the digests:

* closed equals pipeline for every S and H key;
* every polynomial has degree dim_expected(key), is palindromic and has
  nonnegative coefficients;
* S(Gr(1,3),3) equals the reference 1 2 3 3 3 3 3 2 1 on both routes;
* every cli-cold argv exits with its category's code and no traceback,
  and each JSON record of a moduli key is palindromic with the expected
  degree.

Run it again only when a change is meant to alter outputs.
"""

from __future__ import annotations

import json
import sys

import workloads as wl

REFERENCE_13 = (1, 2, 3, 3, 3, 3, 3, 2, 1)


def _fail(message: str) -> None:
    raise SystemExit(f"gen_expected: {message}")


def big_key(p) -> dict[str, str]:
    for mode in ("closed", "pipeline"):
        if p.simpson_d3(1, 3, mode).poly.coeffs != REFERENCE_13:
            _fail(f"S(Gr(1,3),3) {mode} differs from the reference")
    out: dict[str, str] = {}
    for op in wl.universe("big-key"):
        k, n, d, comp, mode = op.args
        key = p.ModuliKey(k, n, d, comp)
        poly = p.space_poly(key, mode).poly
        if poly.degree != p.dim_expected(key):
            _fail(f"{op.key} {mode}: degree {poly.degree}")
        if not poly.is_palindromic() or min(poly.coeffs) < 0:
            _fail(f"{op.key} {mode}: not palindromic and nonnegative")
        digest = wl.poly_digest(poly.coeffs)
        if out.setdefault(op.key, digest) != digest:
            _fail(f"{op.key}: closed and pipeline routes differ")
        print(f"big-key {op.key} {mode}", file=sys.stderr)
    return out


def _check_record(p, record: dict, what: str) -> None:
    coeffs = record["q_coefficients"]
    if min(coeffs) < 0:
        _fail(f"{what}: negative coefficient")
    # Only the moduli spaces are known to be palindromic: a sum of spaces
    # of different dimensions is not.
    if record["k"] is not None:
        key = p.ModuliKey(record["k"], record["n"], record["d"], record["compactification"])
        if len(coeffs) - 1 != p.dim_expected(key) or coeffs != coeffs[::-1]:
            _fail(f"{what}: degree {len(coeffs) - 1} or not palindromic")


def cli_cold(p) -> dict[str, str]:
    out: dict[str, str] = {}
    for op in wl.universe("cli-cold"):
        category, argv = op.args[0], op.args[1:]
        stdout, code, stderr = wl.run_cli(argv)
        if code != wl.cli_expected_exit(category):
            _fail(f"{op.key}: exit {code}, expected {wl.cli_expected_exit(category)}")
        if b"Traceback" in stderr:
            _fail(f"{op.key}: traceback on stderr")
        if code == 0 and "json" in argv and argv[0] != "verify":
            records = json.loads(stdout)
            for record in records if isinstance(records, list) else [records]:
                _check_record(p, record, op.key)
        out[op.key] = wl.cli_digest(stdout, code)
        print(f"cli-cold {op.key} exit {code}", file=sys.stderr)
    return out


def main() -> int:
    sys.path.insert(0, str(wl.SRC))
    from curvebetti import pipelines

    expected = {
        "cli-cold": cli_cold(pipelines),
        "big-key": big_key(pipelines),
    }
    with open(wl.EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    counts = {name: len(table) for name, table in expected.items()}
    print(f"wrote {wl.EXPECTED_PATH.name}: {counts}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
