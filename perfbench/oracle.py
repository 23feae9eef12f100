"""Recompute the stored H2 dimensions in oracle.json with the brute-force oracle.

    python3 perfbench/oracle.py && git diff --exit-code perfbench/oracle.json

``tests/brute_oracle.py`` builds the coboundary and residual systems from the
equation lists by its own index arithmetic and eliminates with its own
Gaussian elimination, so it shares no code with the program under test.
Each key names the coefficients and the multiset of one-dimensional fixture
blocks; the sum is taken in sorted block order, which is isomorphic to every
seeded order and every transported copy the benchmark builds, and H2
dimensions are invariant under isomorphism.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ORACLE = HERE / "oracle.json"

KEYS = [
    "adjoint:L3+M+U",
    "trivial1:L3+M+U",
    "xmod:D+U+W",
    "adjoint:L3+L3",
    "adjoint:L3+Z",
    "adjoint:L3+M",
    "adjoint:L3+U",
    "adjoint:M+U",
    "adjoint:U+U",
    "adjoint:M+Z",
    "xmod:D+W",
    "xmod:D+U",
    "xmod:D+D",
    "xmod:D+Z",
    # smoke mode
    "adjoint:U",
    "adjoint:L3",
    "trivial1:L3",
    "xmod:D",
    "xmod:U",
]


def compute(key: str) -> list:
    from brute_oracle import brute_h2, brute_xmod_h2

    from assoc2 import rep2, xmod
    from inputs import direct_sum, zero_complex

    coeff, blocks = key.split(":")
    g = direct_sum(blocks.split("+"))
    if coeff == "xmod":
        x = xmod.algebra_to_crossed_module(g)
        return list(brute_xmod_h2(x, xmod.xmod_adjoint(x)))
    if coeff == "adjoint":
        return list(brute_h2(g, rep2.adjoint_representation(g)))
    return list(brute_h2(g, rep2.trivial_representation(g, zero_complex(int(coeff.removeprefix("trivial"))))))


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
    fresh = {key: compute(key) for key in KEYS}
    lines = [f"  {json.dumps(k)}: {json.dumps(fresh[k])}" for k in sorted(fresh)]
    ORACLE.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(fresh)} entries to {ORACLE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
