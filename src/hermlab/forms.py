"""Pointwise exterior algebra over the 2n complexified cotangent directions.

Directions are indexed 0..2n-1 in the fixed order
(dz_1 .. dz_n, dzbar_1 .. dzbar_n); coefficients are jets, keyed by strictly
increasing index tuples.  All sign conventions in the package derive from
this ordering together with the determinant evaluation convention
(a ^ b)(X, Y) = a(X) b(Y) - a(Y) b(X).

Every production path works on dense arrays; no module of the package
uses this one.  It stays as an independent reference for the tests and for
the ``Form`` methods that ``perfbench/spans.py`` traces.
"""

from __future__ import annotations

import numpy as np

from .errors import InsufficientJetOrderError
from .jets import Jet2, real_from_wirtinger, wirtinger_from_real


def _is_zero_jet(j):
    if j.value != 0:
        return False
    if j.order >= 1 and np.any(j.d1):
        return False
    if j.order >= 2 and np.any(j.d2):
        return False
    # only drop full-order zero jets; lower-order zeros still carry
    # "unknown derivative" information that must not be discarded
    return j.order == 2


def _merge_signed(a, b):
    """Merge two strictly increasing tuples; None if they share an index."""
    out = []
    i = j = 0
    sign = 1
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return 0, None
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            # b[j] hops over the remaining len(a) - i entries of a
            if (len(a) - i) % 2:
                sign = -sign
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return sign, tuple(out)


def _insert_signed(idx, tup):
    """Insert one index in front of a sorted tuple, tracking the sign."""
    if idx in tup:
        return 0, None
    pos = 0
    while pos < len(tup) and tup[pos] < idx:
        pos += 1
    sign = -1 if pos % 2 else 1
    return sign, tup[:pos] + (idx,) + tup[pos:]


class Form:
    """Alternating multilinear value at a point with jet coefficients."""

    __slots__ = ("n", "degree", "coeffs")

    def __init__(self, n, degree, coeffs=None):
        self.n = n
        self.degree = degree
        self.coeffs = dict(coeffs) if coeffs else {}

    @classmethod
    def zero(cls, n, degree=0):
        return cls(n, degree)

    @classmethod
    def monomial(cls, n, indices, coeff):
        """coeff * d(indices[0]) ^ d(indices[1]) ^ ... for increasing indices."""
        indices = tuple(indices)
        if any(indices[i] >= indices[i + 1] for i in range(len(indices) - 1)):
            raise ValueError("monomial indices must be strictly increasing")
        if not isinstance(coeff, Jet2):
            coeff = Jet2.constant(coeff, n)
        return cls(n, len(indices), {indices: coeff})

    @classmethod
    def dz(cls, n, k):
        return cls.monomial(n, (k,), Jet2.constant(1.0, n))

    def copy(self):
        return Form(self.n, self.degree, self.coeffs)

    def _add_term(self, key, jet):
        cur = self.coeffs.get(key)
        val = jet if cur is None else cur + jet
        if _is_zero_jet(val):
            self.coeffs.pop(key, None)
        else:
            self.coeffs[key] = val

    def __add__(self, other):
        if other == 0:
            return self.copy()
        if self.degree != other.degree and self.coeffs and other.coeffs:
            raise ValueError("degree mismatch in form addition")
        out = Form(self.n, self.degree if self.coeffs else other.degree, self.coeffs)
        for key, jet in other.coeffs.items():
            out._add_term(key, jet)
        return out

    __radd__ = __add__

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def __neg__(self):
        return self.scale(-1.0)

    def scale(self, factor):
        """Multiply by a complex constant or a jet scalar."""
        if not isinstance(factor, Jet2):
            if factor == 0:
                return Form(self.n, self.degree)
            factor = Jet2.constant(factor, self.n)
        out = Form(self.n, self.degree)
        for key, jet in self.coeffs.items():
            out._add_term(key, jet * factor)
        return out

    def wedge(self, other):
        deg = self.degree + other.degree
        out = Form(self.n, deg)
        if deg > 2 * self.n:
            return out  # overflow wedges are identically zero
        for ka, ca in self.coeffs.items():
            for kb, cb in other.coeffs.items():
                sign, merged = _merge_signed(ka, kb)
                if merged is None:
                    continue
                term = ca * cb
                if sign < 0:
                    term = -term
                out._add_term(merged, term)
        return out

    def exterior_d(self, part="both"):
        """Exterior derivative; ``part`` selects "del", "delbar" or "both".

        d(f dI) = sum_a (df/dz_a dz_a + df/dzbar_a dzbar_a) ^ dI.
        Requires coefficients of order >= 1; the result drops one order.
        """
        rng = {
            "both": range(2 * self.n),
            "del": range(self.n),
            "delbar": range(self.n, 2 * self.n),
        }[part]
        out = Form(self.n, self.degree + 1)
        for key, jet in self.coeffs.items():
            if jet.order < 1:
                raise InsufficientJetOrderError(
                    "form coefficient has no derivatives left; "
                    "use a finite-difference fallback"
                )
            for a in rng:
                sign, merged = _insert_signed(a, key)
                if merged is None:
                    continue
                term = jet.wirtinger(a)
                if sign < 0:
                    term = -term
                out._add_term(merged, term)
        return out

    def conj(self):
        """Complex conjugate form: conjugated coefficients, dz <-> dzbar."""
        n = self.n
        out = Form(n, self.degree)
        for key, jet in self.coeffs.items():
            mapped = [(k + n) % (2 * n) for k in key]
            order = np.argsort(mapped, kind="stable")
            sign = _permutation_sign(order)
            new_key = tuple(mapped[i] for i in order)
            term = jet.conj()
            if sign < 0:
                term = -term
            out._add_term(new_key, term)
        return out

    def to_coframe(self, C):
        """Re-express in a coframe psi with dz_a = sum_i C[a, i] psi_i.

        The conjugate directions transform by the conjugate matrix:
        dzbar_a = sum_i conj(C[a, i]) psibar_i.  ``C`` holds plain complex
        values; coefficients stay jets.
        """
        n = self.n
        C = np.asarray(C, dtype=complex)
        out = Form(n, self.degree)
        for key, jet in self.coeffs.items():
            expansions = []
            for a in key:
                if a < n:
                    expansions.append([(i, C[a, i]) for i in range(n) if C[a, i] != 0])
                else:
                    expansions.append(
                        [(n + i, np.conj(C[a - n, i])) for i in range(n) if C[a - n, i] != 0]
                    )
            stack = [((), 1.0 + 0j, 0)]
            for exp in expansions:
                stack = [
                    (idx + (i,), w * wi, depth + 1)
                    for (idx, w, depth) in stack
                    for (i, wi) in exp
                ]
            for idx, w, _depth in stack:
                if len(set(idx)) != len(idx):
                    continue
                order = np.argsort(np.array(idx), kind="stable")
                sign = _permutation_sign(order)
                new_key = tuple(sorted(idx))
                out._add_term(new_key, jet * (w * sign))
        return out

    # ------------------------------------------------------------------
    # inspection helpers
    def coeff(self, key):
        jet = self.coeffs.get(tuple(key))
        return jet.value if jet is not None else 0.0 + 0j

    def max_abs(self):
        if not self.coeffs:
            return 0.0
        return max(abs(j.value) for j in self.coeffs.values())


def _permutation_sign(order):
    """Sign of the permutation given as an index array."""
    order = list(order)
    sign = 1
    seen = [False] * len(order)
    for start in range(len(order)):
        if seen[start]:
            continue
        length = 0
        k = start
        while not seen[k]:
            seen[k] = True
            k = order[k]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def mat_wedge(A, B):
    """Product of matrices of forms: (A B)[i][j] = sum_k A[i][k] ^ B[k][j]."""
    rows, inner = len(A), len(B)
    cols = len(B[0])
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = A[i][0].wedge(B[0][j])
            for k in range(1, inner):
                acc = acc + A[i][k].wedge(B[k][j])
            row.append(acc)
        out.append(row)
    return out


def fd_exterior_d(builder, p, n, h=1e-4, part="both"):
    """Finite-difference exterior derivative of a point-dependent form.

    ``builder(q)`` must return the form at the point q with value-level
    coefficients.  Used as the documented fallback when a form's coefficient
    jets are exhausted.
    """
    p = np.asarray(p, dtype=complex)
    base = builder(p)
    keys = set(base.coeffs)
    samples = {}
    steps = h * real_from_wirtinger(n)[:, :n]  # h along x_k, ih along y_k
    for a, step in enumerate(steps):
        plus, minus = builder(p + step), builder(p - step)
        keys |= set(plus.coeffs) | set(minus.coeffs)
        samples[a] = (plus, minus)
    B = wirtinger_from_real(n)
    out = Form(n, base.degree + 1)
    rng = {
        "both": range(2 * n),
        "del": range(n),
        "delbar": range(n, 2 * n),
    }[part]
    for key in keys:
        rd = np.array(
            [
                (samples[a][0].coeff(key) - samples[a][1].coeff(key)) / (2 * h)
                for a in range(2 * n)
            ]
        )
        wd = B @ rd
        for a in rng:
            sign, merged = _insert_signed(a, key)
            if merged is None:
                continue
            out._add_term(merged, Jet2(n, sign * wd[a], None, None, 0))
        # note: coefficients of the result are value-only (order 0)
    return out
