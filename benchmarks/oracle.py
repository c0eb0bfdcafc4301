"""Reference values of every checked density, computed with mpmath.

    python3 benchmarks/oracle.py           recompute and compare with oracles.json
    python3 benchmarks/oracle.py --write   recompute and rewrite oracles.json

Each value is computed twice, at a base precision and 20 digits higher, and
the two must agree to 1e-20 relative (`mporacle.two_precisions`).  Series
oracles (stable and inverse stable laws) take a base precision that scales
with their largest term; every other law is a Mellin-Barnes integral of its
Gamma-product transform, derived from its product representation.  The
compositions (1,..,n)/(n+1) are also checked against the Gauss-multiplication
identity with the stable law of index 1/(n+1).  Takes a few minutes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import mpmath as mp

import mporacle as O
from points import oracle_key, oracle_requests

ORACLE_FILE = Path(__file__).resolve().parent / "oracles.json"
UNDERFLOW_LOG10 = -400  # a density this small reads 0 in double precision
# the identity holds for exact (1..n)/(n+1); the double inputs differ from
# those, so the two routes can agree only to about the double rounding
GAUSS_AGREE = 1e-13


def _gauss_identity(mus, x, t):
    """(n+1)^-(n+1) t/x^2 h_{1/(n+1)}((n+1)^-(n+1) t/x, 1) when mu = (1..n)/(n+1)."""
    n = len(mus)
    if [round(m * (n + 1)) for m in mus] != list(range(1, n + 1)):
        return None

    def fn(x, t, extra=0):
        h = O.stable_density(1.0 / (n + 1), mp.mpf(n + 1) ** -(n + 1) * mp.mpf(t) / mp.mpf(x), 1.0, extra)
        with mp.workdps(40 + extra):
            c = mp.mpf(n + 1) ** -(n + 1)
            return c * mp.mpf(t) / mp.mpf(x) ** 2 * h

    return O.two_precisions(fn, x, t)[0]


def compute(kind, args):
    """(value, note) for one request."""
    if kind == "h":
        try:
            return O.two_precisions(O.stable_density, *args)[0], "series"
        except ArithmeticError:
            lg = O.stable_left_tail_log10(*args)
            if lg < UNDERFLOW_LOG10:
                return mp.mpf(0), f"underflow: log10 of the leading left-tail factor is {mp.nstr(lg, 6)}"
            raise
    if kind == "l":
        return O.two_precisions(O.inverse_stable_density, *args)[0], "series"
    if kind == "compose":
        gamma, mus, x, t = args
        value = O.two_precisions(O.composition, gamma, mus, x, t)[0]
        if gamma == 1.0:
            other = _gauss_identity(mus, x, t)
            if other is not None and abs(other - value) > GAUSS_AGREE * abs(value):
                raise ArithmeticError(f"compose{args}: Mellin-Barnes and Gauss identity disagree")
            return value, "mellin-barnes; gauss identity agrees" if other is not None else "mellin-barnes"
        return value, "mellin-barnes"
    fn = {
        "sfd": O.space_fractional,
        "mixed": O.mixed_density,
        "tfs": O.time_fractional,
        "ggprod": O.gg_product,
    }[kind]
    return O.two_precisions(fn, *args)[0], "mellin-barnes"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--write", action="store_true", help="rewrite oracles.json")
    args = parser.parse_args(argv)
    stored = {}
    if not args.write:
        stored = json.loads(ORACLE_FILE.read_text())["values"]
    values = {}
    worst = mp.mpf(0)
    t0 = time.perf_counter()
    for kind, req in oracle_requests():
        key = oracle_key(kind, req)
        value, note = compute(kind, req)
        values[key] = {"value": mp.nstr(value, 30, strip_zeros=False), "how": note}
        if not args.write:
            if key not in stored:
                print(f"missing from {ORACLE_FILE.name}: {key}", file=sys.stderr)
                return 1
            with mp.workdps(40):  # the stored strings carry 30 digits
                ref = mp.mpf(stored[key]["value"])
                gap = abs(ref - value) / abs(value) if value != 0 else abs(ref)
                worst = max(worst, gap)
    print(f"{len(values)} reference values in {time.perf_counter() - t0:.0f} s", file=sys.stderr)
    if args.write:
        doc = {"mpmath": mp.__version__, "agreement": "1e-20", "values": values}
        ORACLE_FILE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        return 0
    print(f"largest relative gap to {ORACLE_FILE.name}: {mp.nstr(worst, 3)}", file=sys.stderr)
    return 0 if worst <= O.AGREE else 1


if __name__ == "__main__":
    raise SystemExit(main())
