"""The fixed inputs of every workload, as plain data.

Both the benchmark (`run.py`) and the oracle command (`oracle.py`) read this
module, so a point and its reference value cannot drift apart.  Nothing here
imports anomdiff.  The run's seed only shuffles the order of the operations
in each pass and seeds the Monte Carlo commands of the `cli` workload; the
points themselves are fixed, so `min_digits` repeats exactly.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

# ---------------------------------------------------------------------------
# direct: densities on routes without quadrature

TIMES = (0.5, 1.0, 2.0)

# Scaled positions y: h is evaluated at x = y t^(1/nu), l at x = y t^nu, so
# each y sits at the same place of the law's profile for every t.
_H_BODY_LEFT = (0.1, 0.3, 1.0, 3.0, 10.0, 30.0)
_H_BODY_RIGHT = (0.3, 0.5, 1.0, 3.0, 10.0, 30.0)
H_CASES = (
    (0.5, "closed", _H_BODY_LEFT),
    (0.5, "auto", _H_BODY_LEFT),
    (1.0 / 3.0, "auto", _H_BODY_LEFT),
    (0.3, "auto", _H_BODY_LEFT),
    (0.7, "auto", _H_BODY_RIGHT),
    (0.2, "foxh", _H_BODY_LEFT),
    (0.3, "foxh", _H_BODY_LEFT),
    (0.5, "foxh", _H_BODY_LEFT),
    (0.7, "foxh", _H_BODY_RIGHT),
    (0.8, "foxh", _H_BODY_RIGHT),
    (0.9, "foxh", (1.0, 3.0, 10.0, 30.0)),
)

_L_WIDE = (0.1, 0.5, 1.0, 2.0, 3.0, 5.0)
_L_NARROW = (0.1, 0.5, 1.0, 2.0, 3.0)
L_CASES = (
    (0.5, "closed", _L_WIDE),
    (0.5, "auto", _L_WIDE),
    (1.0 / 3.0, "auto", _L_WIDE),
    (0.3, "auto", _L_WIDE),
    (0.7, "auto", _L_NARROW),
    (0.3, "wright", _L_WIDE),
    (0.6, "wright", _L_NARROW),
    (0.7, "wright", _L_NARROW),
    (0.2, "foxh", _L_WIDE),
    (0.3, "foxh", _L_WIDE),
    (0.5, "foxh", _L_WIDE),
    (0.7, "foxh", _L_NARROW),
    (0.9, "foxh", (0.1, 0.5, 1.0)),
)

# space_fractional_density on the contour route: (mu, nu, beta), x, t
SFD_CASES = ((1.0, 0.5, 0.5), (1.0, 0.7, 0.5), (1.5, 0.6, 1.0))
SFD_X = (0.3, 1.0, 3.0)
SFD_T = (0.7, 1.5)


def direct_points():
    """(law, nu, x, t, method) for every h and l operation of a pass."""
    out = []
    for nu, method, ys in H_CASES:
        for y in ys:
            for t in TIMES:
                out.append(("h", nu, y * t ** (1.0 / nu), t, method))
    for nu, method, ys in L_CASES:
        for y in ys:
            for t in TIMES:
                out.append(("l", nu, y * t**nu, t, method))
    return out


# Operations that fail every time today, with the fault each one shows.
DIRECT_FAULTS = (
    (("l", 0.7, 5.0, 1.0, "auto"), "wright route raises 'Wright series overflow'"),
    (("l", 0.9, 2.0, 1.0, "auto"), "wright route raises 'Wright series overflow'"),
    (("h", 1.0 / 6.0, 1.0, 1.0, "auto"), "auto picks the conv route; DomainError: depth capped at 4"),
    (("l", 0.9, 2.0, 1.0, "foxh"), "contour noise floor: 5e-14 against a true 7.8e-17"),
    (("h", 0.8, 0.05, 1.0, "foxh"), "contour noise floor: returns -3.5e-14"),
)

# ---------------------------------------------------------------------------
# nested: densities whose route integrates other densities

NESTED_COMPOSE = (
    (1.0, "1/4,2/4,3/4", 1.0, 1.0),
    (1.0, "1/4,2/4,3/4", 0.5, 2.0),
    (-1.0, "1/2,1,3/2", 1.0, 1.0),
    (2.0, "1/2,1,3/2", 1.0, 1.0),
    (1.0, "1/5,2/5,3/5,4/5", 1.0, 1.0),
)
NESTED_AUTO = (  # (law, nu, x, t): auto resolves to the depth-3 and depth-4 conv routes
    ("h", 0.25, 1.0, 1.0),
    ("h", 0.25, 2.0, 0.5),
    ("l", 0.25, 1.0, 1.0),
    ("l", 0.25, 0.5, 2.0),
    ("h", 0.2, 1.0, 1.0),
    ("l", 0.2, 1.0, 1.0),
)
NESTED_MIXED = ((0.7, 0.5, 1.0, 1.0), (0.4, 0.5, 1.0, 1.0))  # f_nu_beta(nu, beta, x, t)
NESTED_TFS = ((1.0, 1.5, 0.5, 1.0, 1.0), (2.0, 0.7, 0.5, 0.5, 2.0))  # (gamma, mu, nu, x, t)
NESTED_TFS_FAULT = ((1.0, 1.5, 0.7, 1.0, 1.0), "l_density inside the quadrature raises 'Wright series overflow'")
NESTED_SFD = ((1.0, 0.5, 0.5, 1.0, 1.0), (1.5, 0.5, 0.5, 0.6, 1.8))  # double_integral route
# mellin_convolve of two generalized gamma densities: ((gamma1, mu1), t1, (gamma2, mu2), x)
NESTED_MCONV = (((1.0, 0.5), 1.5, (1.0, 0.75), 1.0), ((2.0, 0.7), 0.8, (-1.0, 1.2), 0.5))

# ---------------------------------------------------------------------------
# cli: grids of the tabulate commands (the CLI's own linspace)

CLI_L_GRID = dict(xmin=0.1, xmax=3.0, nx=30, t=1.0)  # the CLI defaults
CLI_H_NU = 0.3
CLI_H_GRID = dict(xmin=0.1, xmax=3.0, nx=30, t=1.0)
CLI_G_PARAMS = dict(mu=1.0, nu=0.7, beta=0.5)
CLI_G_GRID = dict(xmin=0.2, xmax=3.0, nx=8, t=1.0)
CLI_COMPOSE_MU = "1/4,2/4,3/4"
CLI_COMPOSE_GRID = dict(xmin=0.2, xmax=3.0, nx=8, t=1.0)
CLI_COMPOSE_FAULT = "mu is parsed as a float, so the command exits 2"


def grid_x(grid):
    return [float(x) for x in np.linspace(grid["xmin"], grid["xmax"], int(grid["nx"]))]


def mu_floats(text):
    return tuple(float(Fraction(p)) for p in text.split(","))


# ---------------------------------------------------------------------------
# every reference value the benchmark needs, as (kind, args)


def oracle_requests():
    req = []
    for law, nu, x, t, _ in direct_points():
        req.append((law, (nu, x, t)))
    for (law, nu, x, t, _), _ in DIRECT_FAULTS:
        req.append((law, (nu, x, t)))
    for mu, nu, beta in SFD_CASES:
        for x in SFD_X:
            for t in SFD_T:
                req.append(("sfd", (mu, nu, beta, x, t)))
    for gamma, mu, x, t in NESTED_COMPOSE:
        req.append(("compose", (gamma, mu_floats(mu), x, t)))
    for law, nu, x, t in NESTED_AUTO:
        req.append((law, (nu, x, t)))
    for args in NESTED_MIXED:
        req.append(("mixed", args))
    for args in NESTED_TFS + (NESTED_TFS_FAULT[0],):
        req.append(("tfs", args))
    for args in NESTED_SFD:
        req.append(("sfd", args))
    for law1, t1, law2, x in NESTED_MCONV:
        req.append(("ggprod", (law1, t1, law2, x)))
    for x in grid_x(CLI_H_GRID):
        req.append(("h", (CLI_H_NU, x, CLI_H_GRID["t"])))
    p = CLI_G_PARAMS
    for x in grid_x(CLI_G_GRID):
        req.append(("sfd", (p["mu"], p["nu"], p["beta"], x, CLI_G_GRID["t"])))
    for x in grid_x(CLI_COMPOSE_GRID):
        req.append(("compose", (1.0, mu_floats(CLI_COMPOSE_MU), x, CLI_COMPOSE_GRID["t"])))
    seen = set()
    unique = []
    for kind, args in req:
        key = oracle_key(kind, args)
        if key not in seen:
            seen.add(key)
            unique.append((kind, args))
    return unique


def oracle_key(kind, args):
    return kind + repr(tuple(args))
