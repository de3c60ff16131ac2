"""Dense complex matrices and truncated matrix power series.

A series S(z) = sum_{j=0}^{N} S^j z^j is stored as a stack of complex
coefficient matrices.  The order N means "coefficients above N are
unknown", not zero, so arithmetic always truncates to the smallest
order of the operands and marks the result when orders were mixed.

Integer weight diagonals Phi = diag(phi^1 >= ... >= phi^r) act on
series by the twisted conjugation z^Phi S z^{-Phi'}, implemented as
per-entry shifts of coefficient indices.  A shift that would create a
pole raises :class:`NegativeValuationError`; this is how weight
violations of would-be morphisms surface.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ZERO_TOL",
    "ShapeMismatchError",
    "SingularLeadingCoefficientError",
    "NegativeValuationError",
    "as_matrix",
    "MatrixSeries",
    "WeightDiagonal",
    "twist",
]

# Absolute tolerance governing "is zero" tests in series valuations.
ZERO_TOL = 1e-10


class ShapeMismatchError(ValueError):
    pass


class SingularLeadingCoefficientError(ValueError):
    pass


class NegativeValuationError(ValueError):
    """A twisted series acquired a pole: some entry has a negative-power term."""

    def __init__(self, message, min_valuation, entries=()):
        super().__init__(message)
        self.min_valuation = min_valuation
        self.entries = tuple(entries)


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

    `coeffs` has shape (N+1, dim_out, dim_in).  `truncated` records that
    the value arose from mixing operands of unequal order (the result is
    exact only up to the shared order).
    """

    coeffs: np.ndarray
    truncated: bool = False

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

    @classmethod
    def zero(cls, dim_out, dim_in=None, order=0):
        if dim_in is None:
            dim_in = dim_out
        return cls(np.zeros((order + 1, dim_out, dim_in), dtype=np.complex128))

    def coeff(self, j):
        """Coefficient of z^j (zero above the order is *not* assumed; raises)."""
        if not 0 <= j <= self.order:
            raise IndexError(f"coefficient z^{j} outside stored order {self.order}")
        return self.coeffs[j]

    def truncate(self, order):
        if order >= self.order:
            return self
        return MatrixSeries(self.coeffs[: order + 1].copy(), truncated=True)

    def pad(self, order):
        """Extend with explicit zero coefficients (asserts exactness above N)."""
        if order <= self.order:
            return self
        c = np.zeros((order + 1, self.dim_out, self.dim_in), dtype=np.complex128)
        c[: self.order + 1] = self.coeffs
        return MatrixSeries(c, truncated=self.truncated)

    def __add__(self, other):
        if not isinstance(other, MatrixSeries):
            return NotImplemented
        if (self.dim_out, self.dim_in) != (other.dim_out, other.dim_in):
            raise ShapeMismatchError(
                f"add: shapes {(self.dim_out, self.dim_in)} vs {(other.dim_out, other.dim_in)}"
            )
        n = min(self.order, other.order)
        mixed = self.order != other.order
        return MatrixSeries(
            self.coeffs[: n + 1] + other.coeffs[: n + 1],
            truncated=mixed or self.truncated or other.truncated,
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return MatrixSeries(-self.coeffs, truncated=self.truncated)

    def __mul__(self, other):
        """Truncated Cauchy product, or scalar multiple."""
        if np.isscalar(other):
            return MatrixSeries(self.coeffs * other, truncated=self.truncated)
        if not isinstance(other, MatrixSeries):
            return NotImplemented
        if self.dim_in != other.dim_out:
            raise ShapeMismatchError(
                f"mul: inner dims {self.dim_in} vs {other.dim_out}"
            )
        n = min(self.order, other.order)
        mixed = self.order != other.order
        # a product with an exactly zero factor adds nothing to the sum, so
        # each degree runs only over the coefficients up to each operand's
        # last nonzero one (a padded polynomial such as a normal form's B)
        da, db = last_nonzero(self.coeffs[: n + 1]), last_nonzero(other.coeffs[: n + 1])
        out = np.zeros((n + 1, self.dim_out, other.dim_in), dtype=np.complex128)
        for j in range(min(n, da + db) + 1):
            lo, hi = max(0, j - db), min(j, da)
            out[j] = np.einsum("kab,kbc->ac", self.coeffs[lo : hi + 1], other.coeffs[j - hi : j - lo + 1][::-1])
        return MatrixSeries(out, truncated=mixed or self.truncated or other.truncated)

    def __rmul__(self, other):
        if np.isscalar(other):
            return MatrixSeries(self.coeffs * other, truncated=self.truncated)
        return NotImplemented

    def inverse(self):
        """Series inverse; requires a leading coefficient of condition at most 1e12.

        The result X satisfies self * X = X * self = I + O(z^{N+1}).
        """
        if not self.is_square:
            raise ShapeMismatchError("inverse needs a square series")
        a0 = self.coeffs[0]
        cond = np.linalg.cond(a0)
        if not np.isfinite(cond) or cond > 1e12:
            raise SingularLeadingCoefficientError(f"leading coefficient condition {cond:.3e} exceeds 1.0e+12")
        n = self.order
        r = self.dim_out
        inv = np.zeros((n + 1, r, r), dtype=np.complex128)
        x0 = np.linalg.inv(a0)
        inv[0] = x0
        for j in range(1, n + 1):
            acc = np.zeros((r, r), dtype=np.complex128)
            for k in range(1, j + 1):
                acc += self.coeffs[k] @ inv[j - k]
            inv[j] = -x0 @ acc
        return MatrixSeries(inv, truncated=self.truncated)

    def z_derivative(self):
        """The series of z * d/dz: coefficient j maps to j * coeffs[j]."""
        j = np.arange(self.order + 1).reshape(-1, 1, 1)
        return MatrixSeries(j * self.coeffs, truncated=self.truncated)

    def eval(self, z):
        """Horner evaluation at a complex point (truncated polynomial value)."""
        acc = np.zeros((self.dim_out, self.dim_in), dtype=np.complex128)
        for c in self.coeffs[::-1]:
            acc = acc * z + c
        return acc

    def max_coeff_norm(self):
        return np.linalg.norm(self.coeffs, 2, axis=(1, 2)).max()

    def allclose(self, other, atol=1e-12):
        n = min(self.order, other.order)
        return np.allclose(self.coeffs[: n + 1], other.coeffs[: n + 1], atol=atol, rtol=0.0)


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
    def dim(self):
        return len(self.entries)

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

    def shifted(self, offset):
        return WeightDiagonal(tuple(x + int(offset) for x in self.entries))


def _weight_entries(phi):
    if isinstance(phi, WeightDiagonal):
        return phi.entries
    return tuple(int(x) for x in phi)


def twist(series, phi_out, phi_in):
    """Twisted conjugation z^Phi S z^{-Phi'}: entry (i,m) shifts by phi^i - phi'^m.

    Shifts coefficient indices exactly (no rational functions).  Returns
    ``(twisted, min_valuation)`` where min_valuation is the smallest z-power
    carrying a nonzero entry of the result.  Raises
    :class:`NegativeValuationError` if any entry acquires a pole, which
    signals that the weights of a would-be morphism decreased.
    """
    po = _weight_entries(phi_out)
    pi = _weight_entries(phi_in)
    if len(po) != series.dim_out or len(pi) != series.dim_in:
        raise ShapeMismatchError(
            f"twist: weights {len(po)}x{len(pi)} vs series {series.dim_out}x{series.dim_in}"
        )
    n = series.order
    shifts = np.subtract.outer(po, pi)  # (dim_out, dim_in) integer shifts

    # Valuation of each scalar entry series; order+1 marks an all-zero entry.
    nonzero = np.abs(series.coeffs) > ZERO_TOL  # (n+1, out, in)
    val = np.where(nonzero.any(axis=0), nonzero.argmax(axis=0), n + 1)

    present = val <= n  # identically zero entries put no constraint
    if not present.any():
        # zero series: untouched knowledge horizon
        return MatrixSeries(series.coeffs.copy(), truncated=series.truncated), 0
    twisted_val = val + shifts
    min_valuation = int(twisted_val[present].min())
    # row-major, as Python ints for the message and the error's entries
    poles = [(i, m, int(twisted_val[i, m])) for i, m in np.argwhere(present & (twisted_val < 0)).tolist()]
    if poles:
        raise NegativeValuationError(
            f"twist produced poles at entries {[(i, m) for i, m, _ in poles]}",
            min_valuation,
            poles,
        )
    out_order = max(n + int(shifts[present].min()), 0)  # the least known order over the entries
    target = np.arange(n + 1)[:, None, None] + shifts  # z-power each coefficient moves to
    out = np.zeros((out_order + 1, series.dim_out, series.dim_in), dtype=np.complex128)
    keep = (target >= 0) & (target <= out_order)
    _, rows, cols = np.nonzero(keep)
    out[target[keep], rows, cols] = series.coeffs[keep]
    return MatrixSeries(out, truncated=series.truncated), min_valuation
