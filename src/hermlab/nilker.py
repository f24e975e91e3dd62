"""Common kernels of anti-commuting square-zero matrix families.

Two algorithms produce a common kernel vector: an inductive block-reduction
on the image of a maximal-rank element, and a constructive chain walk that
applies the family to a preimage basis of that image.  A brute-force
nullspace-intersection oracle (stacked SVD) validates both; a caller that
checks several vectors against one family computes its kernel basis once
and passes it to :func:`oracle_contains`.

A family keeps the validated ``[m, n, n]`` stack of its matrices and their
largest entry modulus.  The maximal-rank search (``_max_rank_element``),
the family relations, the kernel residual and the inductive step's change
of basis each run as one stacked operation on that stack.

The constructive walk needs the family presented through a torsion-type
tensor A_X = (sum_i X_i T^k_{ij}), for which A_X Y = -A_Y X; general
anti-commuting families are handled by the inductive route only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import ChainExhaustedError, InvalidFamilyError

FAMILY_TOL = 1e-10
KERNEL_TOL = 1e-8
RANK_RCOND = 1e-8


@dataclass
class NilpotentFamily:
    """Square-zero, pairwise anti-commuting complex matrices, fixed at construction."""

    matrices: list
    tensor: np.ndarray = field(default=None)  # torsion presentation if any

    def __post_init__(self):
        mats = [np.asarray(A, dtype=complex) for A in self.matrices]
        if not mats:
            raise InvalidFamilyError("family must contain at least one matrix")
        n = mats[0].shape[0]
        if any(A.shape != (n, n) for A in mats):
            raise InvalidFamilyError("family matrices must share a square shape")
        stack = np.stack(mats)
        if not np.isfinite(stack).all():
            raise InvalidFamilyError("family matrices must have finite entries")
        self._stack, self._scale = stack, max(1e-300, np.max(np.abs(stack)))
        scale = max(1.0, self._scale)
        tol = FAMILY_TOL * scale * scale
        # every product A_i A_j at once; resid is symmetric, and the first bad
        # pair j <= i in loop order is looked up only when there is one
        prods = stack[:, None] @ stack[None, :]
        resid = np.abs(prods + prods.swapaxes(0, 1)).max(axis=(-2, -1))
        if resid.max() > tol:
            i, j = np.argwhere(np.tril(resid > tol))[0]
            kind = "square-zero" if i == j else "anti-commutation"
            raise InvalidFamilyError(
                f"{kind} violated by matrices {j}, {i} (residual {resid[i, j]:.3e})"
            )
        self.matrices = list(stack)
        self.m, self.n = stack.shape[:2]

    def kernel_residual(self, w):
        """max_i |A_i w|; each squared norm is ``norm``'s Re.Re + Im.Im of one vector."""
        V = self._stack @ w
        sq = V.real[:, None] @ V.real[..., None] + V.imag[:, None] @ V.imag[..., None]
        return float(np.sqrt(sq.max()))


def operator_from_tensor(T, X):
    """Matrix O with (O Y)_k = sum_{ij} X_i Y_j T^k_{ij}."""
    return np.einsum("i,kij->kj", np.asarray(X, dtype=complex), T)


def torsion_symmetry_residual(T):
    """Residual of the quadratic symmetry required of the torsion tensor."""
    lhs = np.einsum("kri,rjl->kijl", T, T)
    rhs = np.einsum("krj,ril->kijl", T, T)
    return float(np.max(np.abs(lhs - rhs)))


def family_from_torsion(T):
    """Family {A_{e_1}, ..., A_{e_n}} of a torsion coefficient tensor.

    The tensor must be antisymmetric in its lower slots and satisfy the
    quadratic symmetry that makes every A_X square-zero and the family
    anti-commuting; violations raise InvalidFamilyError.
    """
    T = np.asarray(T, dtype=complex)
    n = T.shape[0]
    scale = 1.0 + float(np.max(np.abs(T))) ** 2
    anti = float(np.max(np.abs(T + T.transpose(0, 2, 1))))
    if anti > FAMILY_TOL * scale:
        raise InvalidFamilyError(f"tensor is not antisymmetric (residual {anti:.3e})")
    sym = torsion_symmetry_residual(T)
    if sym > FAMILY_TOL * scale:
        raise InvalidFamilyError(
            f"quadratic symmetry violated (residual {sym:.3e}); "
            "the square-zero construction does not apply"
        )
    mats = [operator_from_tensor(T, np.eye(n)[i]) for i in range(n)]
    return NilpotentFamily(mats, tensor=T)


# ----------------------------------------------------------------------
# brute-force oracle
def kernel_intersection_basis(family):
    """Orthonormal basis of the intersection of all kernels (stacked SVD).

    Uses the same absolute noise floor as the rank decisions, so a family
    of numerically-zero matrices reports the full space.
    """
    U, s, Vh = np.linalg.svd(family._stack.reshape(-1, family.n))
    atol = 1e-9 * _family_scale(family)
    if s.size == 0 or s[0] <= atol:
        return np.eye(family.n, dtype=complex)
    rank = int(np.sum(s > max(RANK_RCOND * s[0], atol)))
    return Vh[rank:].conj().T


def oracle_contains(family, w, basis=None):
    """Whether ``w`` lies in the common kernel (``basis``: the family's, if known)."""
    if basis is None:
        basis = kernel_intersection_basis(family)
    if basis.shape[1] == 0:
        return False
    w = np.asarray(w, dtype=complex)
    w = w / np.linalg.norm(w)
    proj = basis @ (basis.conj().T @ w)
    return float(np.linalg.norm(w - proj)) < KERNEL_TOL


# ----------------------------------------------------------------------
# inductive algorithm
def _numerical_rank(A, atol=0.0):
    """Singular values count against max(RANK_RCOND * s_max, atol).

    The absolute floor matters for matrices that are numerically zero,
    whose own s_max is pure noise.
    """
    s = np.linalg.svd(A, compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.sum(s > max(RANK_RCOND * s[0], atol)))


def _family_scale(family):
    return family._scale


def _max_rank_element(family, rng, atol):
    """A linear combination of maximal numerical rank.

    Random sampling (50 draws) finds the generic (maximal) rank with
    overwhelming probability; the basis elements themselves are swept as a
    deterministic fallback.  All candidates are drawn at once (one
    ``normal`` call gives the stream of two per sample, real then
    imaginary part), combined by one contraction and ranked by one stacked
    SVD; the first candidate of maximal rank is kept.
    """
    m, n = family.m, family.n
    draws = rng.normal(size=(50, 2, m))
    coeffs = np.concatenate([np.eye(m), draws[:, 0] + 1j * draws[:, 1]])
    combos = np.dot(coeffs, family._stack.reshape(m, n * n)).reshape(-1, n, n)
    s = np.linalg.svd(combos, compute_uv=False)
    ranks = np.sum(s > np.maximum(RANK_RCOND * s[:, :1], atol), axis=-1)
    best = int(np.argmax(ranks))
    return combos[best], int(ranks[best])


def common_kernel_inductive(family, seed=0, _depth=0, _zero_tol=None):
    """Common kernel vector via induction on the dimension.

    Conjugates a maximal-rank element into shift-block form; the other
    matrices then preserve its image, and the induced blocks inherit the
    family relations, so a kernel vector of the induced family lifts.

    The noise floor for rank decisions is pinned to the top-level family
    scale; deeper blocks that consist of elimination residue must read as
    zero, not as spurious full-rank noise.
    """
    rng = np.random.default_rng(seed + 97 * _depth)
    n = family.n
    if _zero_tol is None:
        _zero_tol = 1e-9 * max(1.0, _family_scale(family))
    if _depth > n + 2:
        raise InvalidFamilyError("recursion depth exhausted; family is invalid")

    A, k = _max_rank_element(family, rng, atol=_zero_tol)
    if k == 0:  # every matrix is numerically zero
        return np.eye(n, dtype=complex)[0]

    U, s, Vh = np.linalg.svd(A)
    v_basis = U[:, :k]  # image of A
    y_basis = Vh[:k].conj().T / s[:k]  # preimages: A @ y_i = v_i
    ker = Vh[k:].conj().T  # kernel of A, dimension n - k

    # extend the image basis to a basis of ker(A) (image lies inside it)
    x_cols = []
    for cand in ker.T:
        block = np.column_stack([v_basis] + x_cols + [cand])
        if _numerical_rank(block) == block.shape[1]:
            x_cols.append(cand)
        if k + len(x_cols) == n - k:
            break
    Sinv = np.column_stack([v_basis] + x_cols + [y_basis])
    if Sinv.shape[0] != Sinv.shape[1]:
        raise InvalidFamilyError("could not extend the image to a kernel basis; rank search failed")
    S = np.linalg.inv(Sinv)

    Mp = S @ family._stack @ Sinv
    off = np.max(np.abs(Mp[:, k:, :k]))
    if off > 1e-7 * max(1.0, _family_scale(family)):
        raise InvalidFamilyError(
            "image of the maximal-rank element is not preserved "
            f"(residual {off:.3e}); rank search failed"
        )
    sub = NilpotentFamily(list(Mp[:, :k, :k]))
    w_sub = common_kernel_inductive(sub, seed=seed, _depth=_depth + 1, _zero_tol=_zero_tol)
    w = v_basis @ w_sub
    w = w / np.linalg.norm(w)
    if family.kernel_residual(w) > KERNEL_TOL:
        raise InvalidFamilyError("lifted vector failed the kernel check")
    return w


# ----------------------------------------------------------------------
# constructive algorithm (torsion presentation)
def common_kernel_constructive(family, X=None, seed=0):
    """Common kernel vector by the descending product chain.

    Builds an image basis v_i with preimages y_i for A_X, then walks
    candidates A_{y_{s_1}} ... A_{y_{s_{r-1}}} (v_{s_r}) over index subsets
    of decreasing size until a nonzero vector survives; every candidate at
    the first nonvanishing level is annihilated by the whole family.
    """
    if family.tensor is None:
        raise InvalidFamilyError(
            "constructive route needs a torsion-tensor presentation"
        )
    T = family.tensor
    n = family.n
    rng = np.random.default_rng(seed)
    if X is None:
        X = rng.normal(size=n) + 1j * rng.normal(size=n)
    X = np.asarray(X, dtype=complex)

    A_X = operator_from_tensor(T, X)
    k = _numerical_rank(A_X, atol=1e-9 * _family_scale(family) * max(1.0, np.linalg.norm(X)))
    if k == 0:
        return common_kernel_inductive(family, seed=seed)

    U, s, Vh = np.linalg.svd(A_X)
    v = [U[:, i] for i in range(k)]
    y = [Vh[i].conj() / s[i] for i in range(k)]
    ops = [operator_from_tensor(T, yi) for yi in y]

    scale = 1.0 + float(np.max(np.abs(T))) * max(
        1.0, max(np.linalg.norm(yi) for yi in y)
    )
    for level in range(1, k + 1):
        size = k - level + 1  # subset size: size-1 operator factors + 1 seed
        candidates = []
        for subset in itertools.combinations(range(k), size):
            w = v[subset[-1]]
            for idx in reversed(subset[:-1]):
                w = ops[idx] @ w
            candidates.append(w)
        norms = [np.linalg.norm(w) for w in candidates]
        threshold = 1e-9 * scale ** (size - 1)
        if max(norms) <= threshold:
            continue
        w = candidates[int(np.argmax(norms))]
        w = w / np.linalg.norm(w)
        if family.kernel_residual(w) < KERNEL_TOL:
            return w
        raise ChainExhaustedError(
            f"chain produced a nonzero vector at level {level} that is not "
            "in the common kernel; family input is inconsistent"
        )
    raise ChainExhaustedError("all chain candidates vanished; cannot happen "
                              "for a valid torsion family")


# ----------------------------------------------------------------------
# fixture generators (used by tests and the CLI demo suite)
def _creation_operators(m):
    """Exterior-multiplication operators on a 2^m-dimensional space."""
    dim = 1 << m
    ops = []
    for i in range(m):
        A = np.zeros((dim, dim), dtype=complex)
        for subset in range(dim):
            if subset & (1 << i):
                continue
            sign = (-1) ** bin(subset & ((1 << i) - 1)).count("1")
            A[subset | (1 << i), subset] = sign
        ops.append(A)
    return ops


def random_general_family(rng, n=None, m=None):
    """Anti-commuting square-zero family from mixed creation operators.

    Random linear combinations of exterior multiplications, padded to the
    requested dimension and conjugated by a random well-conditioned matrix.
    """
    if n is None:
        n = int(rng.integers(2, 9))
    gen_count = 1
    while (1 << (gen_count + 1)) <= n:
        gen_count += 1
    if m is None:
        m = int(rng.integers(1, 5))
    base = _creation_operators(gen_count)
    dim = 1 << gen_count
    mats = []
    mix = rng.normal(size=(m, gen_count)) + 1j * rng.normal(size=(m, gen_count))
    for row in mix:
        A = sum(c * B for c, B in zip(row, base))
        big = np.zeros((n, n), dtype=complex)
        big[:dim, :dim] = A
        mats.append(big)
    P = np.eye(n) + 0.4 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    Pinv = np.linalg.inv(P)
    return NilpotentFamily([P @ A @ Pinv for A in mats])


def random_torsion_tensor(rng, n=None):
    """Valid torsion tensor: targeted blocks conjugated by a random frame.

    Entries T^k_{ij} live only on k >= s > i, j for a random split s, which
    makes the quadratic symmetry hold with both sides zero; a tensorial
    change of frame then produces dense valid instances.
    """
    if n is None:
        n = int(rng.integers(2, 9))
    s = int(rng.integers(1, n))
    T = np.zeros((n, n, n), dtype=complex)
    for k in range(s, n):
        block = rng.normal(size=(s, s)) + 1j * rng.normal(size=(s, s))
        T[k, :s, :s] = block - block.T
    P = np.eye(n) + 0.35 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    Pinv = np.linalg.inv(P)
    # sum_{a,b,c} P_ia P_jb Pinv_ck T^c_ab, one index at a time
    T = P @ T @ P.T  # [c, i, j]
    return (Pinv.T @ T.reshape(n, n * n)).reshape(n, n, n)


def two_block_chain_tensor():
    """Torsion tensor whose constructive chain must pass the first level.

    Two independent rank-one blocks in dimension 6: with the seed
    X = e_1 + e_4 the image is two dimensional and the level-one product
    A_{y_1} v_2 vanishes, forcing the level-two step.
    """
    T = np.zeros((6, 6, 6), dtype=complex)
    T[2, 0, 1], T[2, 1, 0] = 1.0, -1.0
    T[5, 3, 4], T[5, 4, 3] = 1.0, -1.0
    return T
