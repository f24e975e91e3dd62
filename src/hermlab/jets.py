"""Order-2 Wirtinger jets and dense linear algebra over jet scalars.

A jet carries a complex value together with its first and second Wirtinger
derivatives at a point of C^n.  Derivative slots are ordered
(d/dz_1 .. d/dz_n, d/dzbar_1 .. d/dzbar_n).  Every arithmetic operation
propagates derivatives exactly (Leibniz / quotient / chain rules), so any
quantity assembled from jets automatically knows its own derivatives.

The ``order`` attribute tracks how many derivative levels are still valid:
2 means value, d1 and d2 are all usable, 1 means d2 has been spent
(e.g. by extracting a derivative), 0 means only the value is meaningful.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DegenerateMetricError,
    InsufficientJetOrderError,
    SingularEvaluationError,
)


# real coordinates are ordered (x_1, y_1, ..., x_n, y_n); C and B below are
# the only definitions of the change of basis (README, Conventions)
def real_from_wirtinger(n):
    """Matrix C with (d/dx_k, d/dy_k) rows over the 2n Wirtinger slots."""
    C = np.zeros((2 * n, 2 * n), dtype=complex)
    for k in range(n):
        C[2 * k, k] = 1.0
        C[2 * k, n + k] = 1.0
        C[2 * k + 1, k] = 1.0j
        C[2 * k + 1, n + k] = -1.0j
    return C


def wirtinger_from_real(n):
    """Matrix B with (d/dz_k, d/dzbar_k) rows over the 2n real slots."""
    B = np.zeros((2 * n, 2 * n), dtype=complex)
    for k in range(n):
        B[k, 2 * k] = 0.5
        B[k, 2 * k + 1] = -0.5j
        B[n + k, 2 * k] = 0.5
        B[n + k, 2 * k + 1] = 0.5j
    return B


def conj_slots(X, *axes):
    """Complex conjugate of X with the dz / dzbar halves of ``axes`` swapped.

    On a derivative slot this differentiates the conjugate
    (d/dz conj(f) = conj(d/dzbar f)); on form slots it is the conjugate form.
    """
    Y = np.roll(X, [X.shape[a] // 2 for a in axes], axis=axes)
    return np.conjugate(Y, out=Y)  # in place: one temporary the size of X, not two


class Jet2:
    """Complex scalar with first/second Wirtinger derivatives at a point."""

    __slots__ = ("n", "value", "d1", "d2", "order")

    def __init__(self, n, value, d1=None, d2=None, order=2):
        self.n = n
        self.value = complex(value)
        self.d1 = d1
        self.d2 = d2
        self.order = order

    # ------------------------------------------------------------------
    # constructors
    @classmethod
    def constant(cls, value, n):
        m = 2 * n
        return cls(n, value, np.zeros(m, dtype=complex), np.zeros((m, m), dtype=complex), 2)

    @classmethod
    def coordinate(cls, k, value, n):
        """The jet of z_{k+1} at a point where it takes ``value``."""
        m = 2 * n
        d1 = np.zeros(m, dtype=complex)
        d1[k] = 1.0
        return cls(n, value, d1, np.zeros((m, m), dtype=complex), 2)

    def copy(self):
        return Jet2(
            self.n,
            self.value,
            None if self.d1 is None else self.d1.copy(),
            None if self.d2 is None else self.d2.copy(),
            self.order,
        )

    # ------------------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, Jet2):
            if other.n != self.n:
                raise ValueError("jet dimension mismatch")
            return other
        if isinstance(other, (int, float, complex, np.integer, np.floating, np.complexfloating)):
            return Jet2.constant(complex(other), self.n)
        return None

    def __repr__(self):
        return f"Jet2(n={self.n}, value={self.value!r}, order={self.order})"

    # ------------------------------------------------------------------
    # ring operations
    def __add__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        order = min(self.order, b.order)
        d1 = self.d1 + b.d1 if order >= 1 else None
        d2 = self.d2 + b.d2 if order >= 2 else None
        return Jet2(self.n, self.value + b.value, d1, d2, order)

    __radd__ = __add__

    def __sub__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        order = min(self.order, b.order)
        d1 = self.d1 - b.d1 if order >= 1 else None
        d2 = self.d2 - b.d2 if order >= 2 else None
        return Jet2(self.n, self.value - b.value, d1, d2, order)

    def __rsub__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return b - self

    def __neg__(self):
        d1 = -self.d1 if self.order >= 1 else None
        d2 = -self.d2 if self.order >= 2 else None
        return Jet2(self.n, -self.value, d1, d2, self.order)

    def __mul__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        a = self
        order = min(a.order, b.order)
        d1 = d2 = None
        if order >= 1:
            d1 = a.value * b.d1 + b.value * a.d1
        if order >= 2:
            d2 = (
                a.value * b.d2
                + b.value * a.d2
                + np.outer(a.d1, b.d1)
                + np.outer(b.d1, a.d1)
            )
        return Jet2(a.n, a.value * b.value, d1, d2, order)

    __rmul__ = __mul__

    def reciprocal(self):
        if self.value == 0:
            raise SingularEvaluationError("division by a jet with zero value")
        v = 1.0 / self.value
        d1 = d2 = None
        if self.order >= 1:
            d1 = -self.d1 * v * v
        if self.order >= 2:
            d2 = -self.d2 * v * v + 2.0 * np.outer(self.d1, self.d1) * v * v * v
        return Jet2(self.n, v, d1, d2, self.order)

    def __truediv__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return self * b.reciprocal()

    def __rtruediv__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return b * self.reciprocal()

    # ------------------------------------------------------------------
    # conjugation
    def conj(self):
        """Complex conjugate; swaps the dz and dzbar derivative slots."""
        d1 = d2 = None
        if self.order >= 1:
            d1 = conj_slots(self.d1, 0)
        if self.order >= 2:
            d2 = conj_slots(self.d2, 0, 1)
        return Jet2(self.n, np.conj(self.value), d1, d2, self.order)

    # ------------------------------------------------------------------
    # holomorphic function application (chain rule through order 2)
    def _compose(self, f0, f1, f2):
        d1 = d2 = None
        if self.order >= 1:
            d1 = f1 * self.d1
        if self.order >= 2:
            d2 = f1 * self.d2 + f2 * np.outer(self.d1, self.d1)
        return Jet2(self.n, f0, d1, d2, self.order)

    def exp(self):
        e = np.exp(self.value)
        return self._compose(e, e, e)

    def _require_right_halfplane(self, name):
        if self.value.real <= 0:
            raise SingularEvaluationError(
                f"{name} requires an argument with positive real part, got {self.value}"
            )

    def log(self):
        self._require_right_halfplane("ln")
        v = self.value
        return self._compose(np.log(v), 1.0 / v, -1.0 / (v * v))

    def sqrt(self):
        self._require_right_halfplane("sqrt")
        r = np.sqrt(self.value)
        return self._compose(r, 0.5 / r, -0.25 / (r * self.value))

    def powi(self, k):
        """Integer power, including negative exponents."""
        k = int(k)
        if k == 0:
            return Jet2.constant(1.0, self.n)
        if k < 0:
            return self.reciprocal().powi(-k)
        v = self.value
        f0 = v**k
        f1 = k * v ** (k - 1) if k >= 1 else 0.0
        f2 = k * (k - 1) * v ** (k - 2) if k >= 2 else 0.0
        return self._compose(f0, f1, f2)

    # ------------------------------------------------------------------
    # derivative extraction (spends one jet order)
    def wirtinger(self, k):
        """The jet of the derivative along Wirtinger slot ``k``."""
        if self.order < 1:
            raise InsufficientJetOrderError("jet has no derivatives left")
        d1 = self.d2[k].copy() if self.order >= 2 else None
        return Jet2(self.n, self.d1[k], d1, None, self.order - 1)

    def real_d1(self):
        """First derivatives along (x_1, y_1, ..., x_n, y_n)."""
        if self.order < 1:
            raise InsufficientJetOrderError("jet has no derivatives left")
        return real_from_wirtinger(self.n) @ self.d1

    def real_d2(self):
        """Second derivatives along pairs of real coordinate directions."""
        if self.order < 2:
            raise InsufficientJetOrderError("jet has no second derivatives left")
        C = real_from_wirtinger(self.n)
        return C @ self.d2 @ C.T


def jet_max_abs_diff(a, b):
    """Largest deviation between two jets over all shared derivative slots."""
    m = abs(a.value - b.value)
    order = min(a.order, b.order)
    if order >= 1:
        m = max(m, float(np.max(np.abs(a.d1 - b.d1))))
    if order >= 2:
        m = max(m, float(np.max(np.abs(a.d2 - b.d2))))
    return m


class JetMatrix:
    """Dense rectangular matrix with Jet2 entries."""

    __slots__ = ("rows", "cols", "n", "entries")

    def __init__(self, entries):
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.rows else 0
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged jet matrix")
        self.n = self.entries[0][0].n if self.rows and self.cols else 0

    @classmethod
    def identity(cls, size, n):
        one = Jet2.constant(1.0, n)
        zero = Jet2.constant(0.0, n)
        return cls([[one if i == j else zero for j in range(size)] for i in range(size)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def values(self):
        return np.array([[e.value for e in row] for row in self.entries], dtype=complex)

    def conj_transpose(self):
        return JetMatrix(
            [[self.entries[j][i].conj() for j in range(self.rows)] for i in range(self.cols)]
        )

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch in jet matrix product")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = self.entries[i][0] * other.entries[0][j]
                for k in range(1, self.cols):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            out.append(row)
        return JetMatrix(out)

    def hermitian_residual(self):
        """Largest deviation of entry(i,j) from conj(entry(j,i)), all slots."""
        worst = 0.0
        for i in range(self.rows):
            for j in range(self.cols):
                worst = max(
                    worst,
                    jet_max_abs_diff(self.entries[i][j], self.entries[j][i].conj()),
                )
        return worst

    def inverse(self):
        """Gauss-Jordan inverse with partial pivoting on entry values."""
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square jet matrix")
        size = self.rows
        a = [[e.copy() for e in row] for row in self.entries]
        b = [list(row) for row in JetMatrix.identity(size, self.n).entries]
        for col in range(size):
            pivot = max(range(col, size), key=lambda r: abs(a[r][col].value))
            if abs(a[pivot][col].value) == 0:
                raise SingularEvaluationError("singular jet matrix")
            a[col], a[pivot] = a[pivot], a[col]
            b[col], b[pivot] = b[pivot], b[col]
            inv_piv = a[col][col].reciprocal()
            a[col] = [x * inv_piv for x in a[col]]
            b[col] = [x * inv_piv for x in b[col]]
            for r in range(size):
                if r == col:
                    continue
                factor = a[r][col]
                if (
                    factor.value == 0
                    and factor.order >= 2
                    and not np.any(factor.d1)
                    and not np.any(factor.d2)
                ):
                    continue
                a[r] = [a[r][j] - factor * a[col][j] for j in range(size)]
                b[r] = [b[r][j] - factor * b[col][j] for j in range(size)]
        return JetMatrix(b)

    def cholesky(self):
        """Lower-triangular factor L with positive real diagonal, H = L L*.

        The recurrence runs entirely over jet scalars, so L carries exact
        derivatives of the factor field.
        """
        if self.rows != self.cols:
            raise ValueError("cholesky of a non-square jet matrix")
        size = self.rows
        vals = self.values()
        if self.hermitian_residual() > 1e-6:
            raise DegenerateMetricError("matrix is not Hermitian")
        eigs = np.linalg.eigvalsh((vals + vals.conj().T) / 2)
        if eigs.min() <= 1e-10:
            raise DegenerateMetricError(
                f"matrix is not positive definite (min eigenvalue {eigs.min():.3e})"
            )
        zero = Jet2.constant(0.0, self.n)
        L = [[zero for _ in range(size)] for _ in range(size)]
        for j in range(size):
            acc = self.entries[j][j]
            for k in range(j):
                acc = acc - L[j][k] * L[j][k].conj()
            L[j][j] = acc.sqrt()
            inv_diag = L[j][j].reciprocal()
            for i in range(j + 1, size):
                acc = self.entries[i][j]
                for k in range(j):
                    acc = acc - L[i][k] * L[j][k].conj()
                L[i][j] = acc * inv_diag
        return JetMatrix(L)
