"""Dense complex matrices and truncated matrix power series.

A series S(z) = sum_{j=0}^{N} S^j z^j is stored as a stack of complex
coefficient matrices.  The order N means "coefficients above N are
unknown", not zero, so arithmetic always truncates to the smallest
order of the operands.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "NumericFailure",
    "ShapeMismatchError",
    "as_matrix",
    "last_nonzero",
    "MatrixSeries",
    "WeightDiagonal",
]


class NumericFailure(Exception):
    """Marker base of the refusals where a computation, not its input, fails."""


class ShapeMismatchError(ValueError):
    pass


def as_matrix(a, square=False):
    """Validate and return `a` as a finite 2-d complex array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ShapeMismatchError(f"expected a 2-d matrix, got ndim={m.ndim}")
    if square and m.shape[0] != m.shape[1]:
        raise ShapeMismatchError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


def last_nonzero(coeffs):
    """Index of the last coefficient with a nonzero entry, -1 for an all-zero stack."""
    nonzero = np.flatnonzero(np.any(coeffs != 0, axis=(1, 2)))
    return int(nonzero[-1]) if nonzero.size else -1


@dataclass(frozen=True)
class MatrixSeries:
    """Truncated power series sum_{j<=N} coeffs[j] z^j with matrix coefficients.

    `coeffs` has shape (N+1, dim_out, dim_in).
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.ndim != 3:
            raise ShapeMismatchError("coeffs must be a (order+1, dim_out, dim_in) array")
        if c.shape[0] < 1 or c.shape[1] < 1 or c.shape[2] < 1:
            raise ShapeMismatchError(f"degenerate series shape {c.shape}")
        if not (np.all(np.isfinite(c.real)) and np.all(np.isfinite(c.imag))):
            raise ValueError("series has non-finite coefficients")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def order(self):
        return self.coeffs.shape[0] - 1

    @property
    def dim_out(self):
        return self.coeffs.shape[1]

    @property
    def dim_in(self):
        return self.coeffs.shape[2]

    @property
    def is_square(self):
        return self.dim_out == self.dim_in

    @classmethod
    def constant(cls, matrix, order=0):
        """The series matrix + 0*z + ... + 0*z^order."""
        m = as_matrix(matrix)
        c = np.zeros((order + 1,) + m.shape, dtype=np.complex128)
        c[0] = m
        return cls(c)

    @classmethod
    def identity(cls, dim, order=0):
        return cls.constant(np.eye(dim), order)

    def truncate(self, order):
        if order >= self.order:
            return self
        return MatrixSeries(self.coeffs[: order + 1].copy())

    def pad(self, order):
        """Extend with explicit zero coefficients (asserts exactness above N)."""
        if order <= self.order:
            return self
        c = np.zeros((order + 1, self.dim_out, self.dim_in), dtype=np.complex128)
        c[: self.order + 1] = self.coeffs
        return MatrixSeries(c)

    def __add__(self, other):
        if not isinstance(other, MatrixSeries):
            return NotImplemented
        if (self.dim_out, self.dim_in) != (other.dim_out, other.dim_in):
            raise ShapeMismatchError(
                f"add: shapes {(self.dim_out, self.dim_in)} vs {(other.dim_out, other.dim_in)}"
            )
        n = min(self.order, other.order)
        return MatrixSeries(self.coeffs[: n + 1] + other.coeffs[: n + 1])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return MatrixSeries(-self.coeffs)

    def __mul__(self, other):
        """Truncated Cauchy product, one matrix product per degree.

        Degree j is [A^0 ... A^j] [B^j; ...; B^0]: the left factor's
        coefficients side by side and the right factor's stacked in
        reverse, each formed once per product, of which degree j reads
        the first and the last j + 1 blocks.  Every degree runs over all
        its j + 1 pairs, zero coefficients included, so its rounding
        does not depend on where a factor's nonzero coefficients end.
        """
        if not isinstance(other, MatrixSeries):
            return NotImplemented
        if self.dim_in != other.dim_out:
            raise ShapeMismatchError(
                f"mul: inner dims {self.dim_in} vs {other.dim_out}"
            )
        n, q = min(self.order, other.order), self.dim_in
        wide, tall = np.concatenate(self.coeffs[: n + 1], axis=1), np.concatenate(other.coeffs[n::-1])
        out = np.empty((n + 1, self.dim_out, other.dim_in), dtype=np.complex128)
        for j in range(n + 1):
            np.matmul(wide[:, : (j + 1) * q], tall[(n - j) * q :], out=out[j])
        return MatrixSeries(out)

    def z_derivative(self):
        """The series of z * d/dz: coefficient j maps to j * coeffs[j]."""
        j = np.arange(self.order + 1).reshape(-1, 1, 1)
        return MatrixSeries(j * self.coeffs)

    def eval(self, z):
        """Horner evaluation at a complex point (truncated polynomial value)."""
        acc = np.zeros((self.dim_out, self.dim_in), dtype=np.complex128)
        for c in self.coeffs[::-1]:
            acc = acc * z + c
        return acc

    def max_coeff_norm(self):
        return np.linalg.norm(self.coeffs, 2, axis=(1, 2)).max()


@dataclass(frozen=True)
class WeightDiagonal:
    """Non-increasing integer weights phi^1 >= ... >= phi^r.

    The distinct values psi^1 > ... > psi^l with multiplicities d^1..d^l
    induce the block structure used by all block-triangularity tests.
    """

    entries: tuple = field(default=())

    def __post_init__(self):
        e = tuple(int(x) for x in self.entries)
        if len(e) == 0:
            raise ValueError("weight diagonal needs at least one entry")
        if any(e[i] < e[i + 1] for i in range(len(e) - 1)):
            raise ValueError(f"weights must be non-increasing, got {e}")
        object.__setattr__(self, "entries", e)

    @property
    def values(self):
        """Distinct weights psi^1 > ... > psi^l."""
        vals = []
        for x in self.entries:
            if not vals or vals[-1] != x:
                vals.append(x)
        return tuple(vals)

    @property
    def sizes(self):
        """Multiplicities d^1..d^l matching `values`."""
        return tuple(self.entries.count(v) for v in self.values)

    @property
    def block_slices(self):
        out = []
        start = 0
        for d in self.sizes:
            out.append(slice(start, start + d))
            start += d
        return tuple(out)

    def matrix(self):
        return np.diag(np.asarray(self.entries, dtype=np.complex128))

    def trace(self):
        return sum(self.entries)

