#!/usr/bin/env python3
"""Degree, slope and semistability of weighted flat bundles.

Three small stories: an irreducible representation is stable for any
weights; a weighted line inside a trivial rank-2 bundle destabilizes it;
a direct sum of two copies of one line is semistable but never stable.
"""

import numpy as np

from logconn import (
    Representation,
    WeightedFlag,
    WeightedFlatBundle,
    degree,
    invariant_subspaces,
    local_extension,
    normal_form,
    semistable,
    slope,
)

rng = np.random.default_rng(7)

# --- irreducible: stable, certified by the simple-spectrum closure (no proper set closed)
g1 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
g2 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
rep = Representation([0.0, 1.0, 2.0], [g1, g2, np.linalg.inv(g1 @ g2)])
enum = invariant_subspaces(rep)
print("irreducible rep:", enum.certificate, "invariant subspaces:", len(enum.subspaces))
wfb = WeightedFlatBundle(rep, tuple(WeightedFlag.trivial(3) for _ in range(3)))
print("degree:", degree(wfb), " verdict:", semistable(wfb).value)

# --- a heavy line destabilizes the trivial rank-2 bundle
rep2 = Representation([0.0, 1.0], [np.eye(2), np.eye(2)])
heavy_line = WeightedFlag((np.eye(2)[:, :1], np.eye(2)), (1, -1))
wfb2 = WeightedFlatBundle(rep2, (heavy_line, WeightedFlag.trivial(2)))
print("\nweighted trivial bundle: degree", degree(wfb2), " slope", slope(wfb2))
print("verdict:", semistable(wfb2).value, "(the line <e1> carries slope 1 > 0)")

# --- two copies of one line: semistable, not stable
rep3 = Representation([0.0, 1.0], [np.diag([2.0, 2.0]), np.diag([0.5, 0.5])])
wfb3 = WeightedFlatBundle(rep3, (WeightedFlag.trivial(2), WeightedFlag.trivial(2)))
print("\ndouble line verdict:", semistable(wfb3).value)

# --- local extension: weighted data realized as a connection matrix
g = np.array([[2.0, 1.0], [0.0, 0.5]], dtype=complex)
flag = WeightedFlag((np.eye(2)[:, :1], np.eye(2)), (1, 0))
conn = local_extension(g, flag)
print("\nlocal extension of a weighted flag:")
print("  A(z) coefficients:", [np.round(c, 4).tolist() for c in conn.a.coeffs])
nf = normal_form(conn)
print("  normal form recovers the weights:", nf.phi.entries)
print("  -Tr residue =", round(float(-np.trace(conn.residue).real), 10),
      "= Tr K + Tr Phi =", round(float((np.trace(nf.k) + sum(nf.phi.entries)).real), 10))
