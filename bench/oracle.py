"""Cross-check the ring against sympy on operands of big-key size.

    python3 bench/oracle.py --seed S

Runs in its own process so that importing sympy does not count towards
any workload's set-up time or peak memory.  Prints one JSON line with
the number of checks attempted and failed.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

import workloads as wl

CASES = 4
# big-key polynomials reach about 700 coefficients of up to ~200 bits;
# its denominators are products of (1 - q^j).
LEN_A = (300, 800)
LEN_B = (40, 300)
COEFF_BITS = 200


def _poly(rng: random.Random, length: int, bits: int) -> list[int]:
    coeffs = [rng.randint(-(1 << bits), 1 << bits) for _ in range(length)]
    coeffs[-1] = coeffs[-1] or 1
    return coeffs


def _den(rng: random.Random) -> list[int]:
    out = [1]
    for j in rng.sample(range(1, 60), 8):
        one_minus = [1] + [0] * (j - 1) + [-1]
        nxt = [0] * (len(out) + j)
        for i, c in enumerate(out):
            for t, d in enumerate(one_minus):
                nxt[i + t] += c * d
        out = nxt
    return out


def checks(seed: int):
    """Yield (name, passed) for each seeded comparison."""
    from curvebetti.polyring import IntPoly, NonExactDivision, exact_div
    from sympy import ZZ, Poly, symbols

    q = symbols("q")

    def sym(coeffs):
        return Poly(list(reversed(coeffs)), q, domain=ZZ)

    def back(poly):
        return tuple(reversed([int(c) for c in poly.all_coeffs()]))

    rng = random.Random(f"oracle:{seed}")
    for case in range(CASES):
        a = _poly(rng, rng.randint(*LEN_A), COEFF_BITS)
        b = _poly(rng, rng.randint(*LEN_B), COEFF_BITS // 4)
        yield f"mul {case}", (IntPoly(a) * IntPoly(b)).coeffs == back(sym(a) * sym(b))

        den = _den(rng)
        num = sym(a) * sym(den)
        # auto=False keeps the division in ZZ; the divisor is monic up to sign.
        quot, rem = num.div(sym(den), auto=False)
        ours = exact_div(IntPoly(back(num)), IntPoly(den))
        yield f"exact_div {case}", rem.is_zero and ours.coeffs == back(quot) == tuple(a)

        bumped = back(num + 1)
        rem = sym(bumped).rem(sym(den), auto=False)
        try:
            exact_div(IntPoly(bumped), IntPoly(den))
            raised = False
        except NonExactDivision:
            raised = True
        yield f"inexact_div {case}", raised and not rem.is_zero


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(wl.SRC))
    attempted, failures = 0, []
    for name, passed in checks(args.seed):
        attempted += 1
        if not passed:
            failures.append(name)
    print(json.dumps({"attempted": attempted, "failures": failures}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
