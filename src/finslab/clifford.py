"""Symmetric Clifford systems, their quartic polynomials and symmetries.

A symmetric Clifford system {P_0, ..., P_m} on R^{2l} consists of symmetric
matrices with P_i P_j + P_j P_i = 2 delta_ij I.  A system is its matrices:
m, l, the number k of irreducible summands and, for m = 0 mod 4, their
split (k1, k2) into the two inequivalent irreducibles are read off them.
The built-in construction produces integer matrices, so anticommutation
holds exactly.  On the unit sphere the degree-4 polynomial

    f(x) = |x|^4 - 2 sum_i <P_i x, x>^2

takes values in [-1, 1]; its regular levels are the OT-FKM hypersurfaces
with multiplicities (m1, m2) = (m, l - m - 1).

Two families of sphere symmetries preserve f:

* the spin lift: the span of the products P_i P_j / 2 (i < j), a copy of
  so(m+1) acting on R^{2l};
* the centralizer c(Sigma): all skew matrices commuting with every P_i.
  Where P_0 = diag(I, -I) and P_1 is the swap, it is {diag(Y, Y)} for
  the Y in so(l) commuting with the blocks of P_2, ..., P_m: one null
  space on so(l) (Ferus-Karcher-Muenzner, Math. Z. 177, 1981).
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (NotClifford, NotOnFocalSet, RankDeficiency,
                     UnsupportedSplit)

# 2x2 generators: reflection-free building blocks of the representations
_R = np.array([[0.0, 1.0], [-1.0, 0.0]])   # rotation, R^2 = -I, skew
_D = np.array([[1.0, 0.0], [0.0, -1.0]])   # diagonal involution, symmetric
_S = np.array([[0.0, 1.0], [1.0, 0.0]])    # swap involution, symmetric

_NULL_TOL = 1e-8          # centralizer Gram eigenvalues at most this are null
_AMBIGUITY_BAND = 1e-4    # one in (_NULL_TOL, this) raises RankDeficiency
_FOCAL_TOL = 1e-8         # on |f(y) + 1| and |P y - y| at a focal point
_CLOSURE_TRIALS = 6       # random pairs in the audit's closure check


def clifford_delta(m: int) -> int:
    """Dimension delta_m of the irreducible module (so 2l = 2 k delta_m)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    q, r = divmod(m, 8)            # r = 0 means m = 8q with q >= 1
    return 2 ** (4 * q + (-1, 0, 1, 2, 2, 3, 3, 3)[r])


def _kron(A, B) -> np.ndarray:
    # np.kron of the last two axes, broadcast over the leading ones; every
    # entry is the one product np.kron forms, so the result is the same
    (p, q), (r, s) = A.shape[-2:], B.shape[-2:]
    lead = np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
    return (A[..., :, None, :, None] * B[..., None, :, None, :]).reshape(
        lead + (p * r, q * s))


def _skew_family(q: int) -> np.ndarray:
    """(q, delta_{q+1}, delta_{q+1}) stack of q pairwise-anticommuting skew
    complex structures on R^{delta_{q+1}}.

    Built recursively from tensor products of R, D, S, one stacked
    Kronecker product per step; dimension doubles at q in {1, 2, 4, 8}
    and multiplies by 16 every 8 generators.
    """
    if q == 0:
        return np.zeros((0, 1, 1))
    if q == 1:
        return _R[None]
    if q <= 3:
        left, right = [_R, _R, np.eye(2)], [_D, _S, _R]
    elif q <= 7:
        commuting = _kron(np.stack([_D, _S, _R]),
                          np.stack([_R, _R, np.eye(2)]))
        left = [_D] * 3 + [_R] + [_S] * 3
        right = [*_skew_family(3), np.eye(4), *commuting]
    elif q == 8:
        left, right = [_D] * 7 + [_R], [*_skew_family(7), np.eye(8)]
    else:   # periodicity: tensor the 8-generator family with a smaller one
        eight, rest = _skew_family(8), _skew_family(q - 8)
        omega = np.eye(eight.shape[-1])
        for E in eight:
            omega = omega @ E
        left = [*eight] + [omega] * len(rest)
        right = [np.eye(rest.shape[-1])] * 8 + [*rest]
    return _kron(np.stack(left), np.stack(right))[:q]


def _irreducible_system(m: int) -> np.ndarray:
    """The irreducible symmetric Clifford system {P'_0, ..., P'_m}, stacked:
    D x I, S x I and R x E for the E of _skew_family(m - 1)."""
    eye = np.eye(clifford_delta(m))
    return _kron(np.stack([_D, _S] + [_R] * (m - 1)),
                 np.concatenate([[eye, eye], _skew_family(m - 1)]))


class CliffordSystem:
    """A symmetric Clifford system, given by its matrices alone.

    Everything else is read off the matrices once, when the system is
    built: m + 1 matrices on R^{2l}, delta_m, k = l / delta_m and, for
    m = 0 mod 4, the split (k1, k2), k1 >= k2, into inequivalent
    irreducibles.  The volume element P_0 ... P_m is +-I on each
    irreducible summand there, so |tr| = 2 delta_m |k1 - k2|.  Fewer
    than two square matrices of one size raise ValueError, a defect
    beyond roundoff NotClifford.  The anticommutation error of that check
    is kept as ``anticommutation_error``.
    """

    def __init__(self, matrices):
        P = np.asarray(matrices, dtype=float)
        if P.ndim != 3 or len(P) < 2 or P.shape[1] != P.shape[2]:
            raise ValueError("a Clifford system needs at least two square "
                             "matrices of one size")
        self.matrices = P
        self.anticommutation_error = anticommutation_error(self)
        defect = max(self.anticommutation_error,
                     float(np.abs(P - P.transpose(0, 2, 1)).max()))
        if not defect <= 1e-10:                   # beyond roundoff
            raise NotClifford("the matrices are not a symmetric Clifford "
                              f"system (defect {defect:.1e})")
        self.m, self.l = len(P) - 1, P.shape[1] // 2
        self.delta_m = clifford_delta(self.m)
        self.k = self.l // self.delta_m
        self.k1 = self.k2 = None
        if self.m % 4 == 0:
            vol = np.linalg.multi_dot(P)
            d = round(abs(float(np.trace(vol))) / (2 * self.delta_m))
            self.k1, self.k2 = (self.k + d) // 2, (self.k - d) // 2

    @property
    def dim(self) -> int:
        return 2 * self.l

    @property
    def multiplicities(self) -> tuple[int, int]:
        return self.m, self.l - self.m - 1

    def to_json(self) -> str:
        """Integer matrices when every entry is integral, floats otherwise;
        k1 and k2 for m = 0 mod 4."""
        P = self.matrices
        integral = np.array_equal(P, np.round(P))
        payload = {"m": self.m, "l": self.l, "k": self.k,
                   "matrices": (P.astype(int) if integral else P).tolist()}
        if self.k1 is not None:
            payload["k1"] = self.k1
            payload["k2"] = self.k2
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text) -> "CliffordSystem":
        """The system of the matrices; a declared m, l, k, k1 or k2 that
        the matrices do not give raises ValueError."""
        data = json.loads(text) if isinstance(text, str) else text
        sys_ = cls(data["matrices"])
        for name in ("m", "l", "k", "k1", "k2"):
            if name in data and data[name] != getattr(sys_, name):
                raise ValueError(f"'{name}' is {data[name]}, but the "
                                 f"matrices give {getattr(sys_, name)}")
        return sys_


def build_clifford(m: int, k) -> CliffordSystem:
    """Build the system of k copies of the irreducible module.

    For m = 0 mod 4 there are two inequivalent irreducibles (they differ
    by the sign of P_m) and k may be a pair (k1, k2) of copies of each; a
    plain integer k is read as (k, 0).  Emits a warning when
    m2 = l - m - 1 < 1, i.e. when the quartic polynomial is not
    isoparametric.
    """
    if isinstance(k, (tuple, list)):
        if m % 4 != 0:
            raise UnsupportedSplit(
                "(k1, k2) splits exist only when m = 0 mod 4")
        k1, k2 = int(k[0]), int(k[1])
    else:
        k1, k2 = int(k), 0
    if min(k1, k2) < 0 or k1 + k2 < 1:
        raise ValueError("k must be >= 1")
    sign = np.diag([1.0] * k1 + [-1.0] * k2)
    sys_ = CliffordSystem(_kron(_irreducible_system(m),
                                np.stack([np.eye(k1 + k2)] * m + [sign])))
    if sys_.l - m - 1 < 1:
        warnings.warn(f"m2 = {sys_.l - m - 1} < 1: quartic is not "
                      f"isoparametric for (m={m}, k={sys_.k})", stacklevel=2)
    return sys_


def anticommutation_error(sys_: CliffordSystem) -> float:
    """max |P_i P_j + P_j P_i - 2 delta_ij I|; 0 exactly for built systems.

    One stacked product per P_i, against P_i, ..., P_m.  A single product
    of all (m+1)^2 pairs is slower at 2l = 64: its temporaries outgrow the
    cache, while these stay below (m+1) n^2 entries."""
    P = np.asarray(sys_.matrices)
    eye2 = 2.0 * np.eye(P.shape[-1])
    worst = 0.0
    for i, Pi in enumerate(P):
        acm = Pi @ P[i:] + P[i:] @ Pi
        acm[0] -= eye2
        worst = max(worst, float(np.abs(acm).max()))
    return worst


def _stacked_products(sys_: CliffordSystem, x: np.ndarray) -> tuple:
    # (P_i x, <P_i x, x>) over the leading axes of x, stacked on axes -2
    # and -1, from one product of x with the stacked rows of the P_i
    P = np.asarray(sys_.matrices)
    Px = (x @ P.reshape(-1, P.shape[-1]).T).reshape(x.shape[:-1] + P.shape[:2])
    return Px, (Px @ x[..., :, None])[..., 0]


def otfkm_value(sys_: CliffordSystem, x) -> float:
    """f(x) = |x|^4 - 2 sum <P_i x, x>^2 on the unit sphere (x renormalized),
    over the rows of x."""
    x = np.asarray(x, dtype=float)
    x = x / np.linalg.norm(x, axis=-1, keepdims=True)
    _, xPx = _stacked_products(sys_, x)
    return 1.0 - 2.0 * np.sum(xPx * xPx, axis=-1)


def otfkm_gradient(sys_: CliffordSystem, x) -> np.ndarray:
    """Ambient gradient 4 |x|^2 x - 8 sum <P_i x, x> P_i x, over the rows
    of x."""
    x = np.asarray(x, dtype=float)
    Px, xPx = _stacked_products(sys_, x)
    xx = (x[..., None, :] @ x[..., :, None])[..., 0]
    return 4.0 * xx * x - 8.0 * np.sum(xPx[..., None] * Px, axis=-2)


def otfkm_hessian(sys_: CliffordSystem, x) -> np.ndarray:
    """Ambient Hessian 4 |x|^2 I + 8 x x^T - 8 sum (2 P_i x (P_i x)^T
    + <P_i x, x> P_i), over the rows of x."""
    x = np.asarray(x, dtype=float)
    Px, xPx = _stacked_products(sys_, x)
    xx = (x[..., None, :] @ x[..., :, None])[..., 0]
    return (4.0 * xx[..., None] * np.eye(x.shape[-1])
            + 8.0 * x[..., :, None] * x[..., None, :]
            - 16.0 * Px.swapaxes(-1, -2) @ Px
            - 8.0 * np.tensordot(xPx, np.asarray(sys_.matrices), axes=1))


@dataclass
class SkewBasis:
    """Frobenius-orthogonal basis of a space of skew matrices."""

    elements: list = field(default_factory=list)

    @property
    def dim(self) -> int:
        return len(self.elements)


def _null_coefficients(C, a, b):
    # (blocks, V, null) per block size: the pairs of the blocks of the
    # Gram of Y -> ([Y, C_i])_i, their eigh eigenvectors and the mask
    # mu <= _NULL_TOL of the null columns.  Each C_i is skew and
    # orthogonal (P_i^2 = I), so the Gram is Y -> 2 sum_i (Y - C_i Y
    # C_i^T), 2(m - 1) I less twice the pair matrix of sum_i Ad C_i; the
    # Ad C_i are commuting involutions, so its eigenvalues are multiples
    # of 4.  Off 2(m - 1) I, its entry at p = (a, b), q = (c, d) is
    # 2 sum_i (C_i[a, d] C_i[b, c] - C_i[a, c] C_i[b, d]), nonzero only
    # when c and d lie in the support of rows a and b of the C_i.  So row
    # p is read off the antisymmetric part of R_p = C[:, a, S]^T C[:, b, S],
    # with S that support in ascending order, padded to a common width by
    # the index l of an appended zero column (all l columns on a dense
    # system), and only the nonzero entries and the blocks they connect
    # are built.  With no C_i (m = 1) there is no Gram: each pair is a
    # block whose one vector is null
    L, l = len(a), C.shape[-1]
    if not len(C):
        yield (np.arange(L)[:, None], np.ones((L, 1, 1)),
               np.ones((L, 1), bool))
        return
    support = np.any(C != 0.0, axis=0)
    support = support[a] | support[b]
    width = np.count_nonzero(support, axis=1)
    rows, cols = np.nonzero(support)
    S = np.full((L, width.max()), l, dtype=np.int32)
    S[rows, np.arange(len(rows)) - (np.cumsum(width) - width)[rows]] = cols
    Cz = np.concatenate([C, np.zeros(C.shape[:-1] + (1,))], axis=-1)
    Cz = Cz.transpose(1, 2, 0)             # [row, column, i]
    R = Cz[a[:, None], S] @ Cz[b[:, None], S].transpose(0, 2, 1)
    u, v = np.triu_indices(S.shape[1], 1)
    half = R[:, v, u]                      # entry (p, (S[p, u], S[p, v])) / 2
    half -= R[:, u, v]
    del R
    nonzero = half != 0.0
    pair = np.zeros((l + 1, l + 1), dtype=np.int32)
    pair[a, b] = np.arange(L)
    q = pair[S[:, u], S[:, v]][nonzero]
    p = np.repeat(np.arange(L, dtype=np.int32), np.count_nonzero(nonzero, 1))
    entry = 2.0 * half[nonzero]
    del half, nonzero
    # rows p and q are summed apart, so labels flow both ways along (p, q)
    label, old = np.arange(L), None        # ends as a block's least pair
    while not np.array_equal(label, old):
        old = label.copy()
        np.minimum.at(label, p, label[q])
        np.minimum.at(label, q, label[p])
    size = np.bincount(label)[label]
    order = np.lexsort((label, size))      # stable: pairs ascend in a block
    rank = np.empty_like(order)
    rank[order] = np.arange(L)
    # the blocks' Grams, one after another: row p of its block starts at
    # start[p], and pair q is column rank[q] - rank[label[q]] of its block
    start = np.empty_like(order)
    start[order] = np.cumsum(size[order]) - size[order]
    within = rank - rank[label]
    grams = np.zeros(size.sum())
    grams[start[p] + within[q]] = entry
    del p, q, entry
    grams[start + within] += 2.0 * len(C)
    for s in np.flatnonzero(np.bincount(size)):
        blocks = order[size[order] == s].reshape(-1, s)
        first = start[blocks[0, 0]]
        mu, V = np.linalg.eigh(
            grams[first:first + blocks.size * s].reshape(-1, s, s))
        if np.any((mu > _NULL_TOL) & (mu < _AMBIGUITY_BAND)):
            raise RankDeficiency(
                "null-space eigenvalues fall inside the ambiguity band")
        yield blocks, V, mu <= _NULL_TOL


def _eigenframe(sys_: CliffordSystem) -> tuple:
    # (eigenvalues of P_0, Q+, Q-, C, K) from one eigh: Q+ the +1
    # eigenvectors of P_0 as eigh returns them, Q- = P_1 Q+, C the blocks
    # Q+^T P_i Q- (i >= 2), and K the groups (blocks, V, null) of
    # _null_coefficients.  The rows of K are their null columns V[j, :, c]
    # on the pairs blocks[j], group after group in the order of
    # np.nonzero(null): the orthonormal coefficients on the pair basis of
    # so(l) of the Y of c(Sigma), in the order of centralizer's elements
    mats = sys_.matrices
    evals, Q = np.linalg.eigh(mats[0])
    Qp = Q[:, evals > 0.0]
    Qm = mats[1] @ Qp
    a, b = np.triu_indices(Qp.shape[1], 1)
    C = Qp.T @ mats[2:] @ Qm
    return evals, Qp, Qm, C, list(_null_coefficients(C, a, b))


def _pair_skew(w, l: int) -> np.ndarray:
    # sum_p w_p (E_ab - E_ba) / 2 over the pairs p = (a, b), a < b, of
    # so(l) in lexicographic order, over the leading axes of w
    a, b = np.triu_indices(l, 1)
    Y = np.zeros(w.shape[:-1] + (l, l))
    Y[..., a, b] = 0.5 * w
    Y[..., b, a] = -0.5 * w
    return Y


def centralizer(sys_: CliffordSystem) -> SkewBasis:
    """Frobenius-orthonormal basis of c(Sigma): skew X with [X, P] = 0 for
    every P in Sigma.

    With Q+ the +1 eigenvectors of P_0 (as eigh returns them) and
    Q- = P_1 Q+, each P_i (i >= 2) is [[0, C_i], [-C_i, 0]] in the basis
    [Q+, Q-], with C_i skew and orthogonal, so c(Sigma) = {diag(Y, Y) :
    Y in so(l), [Y, C_i] = 0}.  The Y are the null space (eigenvalues
    <= _NULL_TOL) of the Gram matrix of Y -> ([Y, C_i])_i on the pair
    basis of so(l), read off the Clifford relations as
    2 sum_i (I - Ad C_i), whose eigenvalues are multiples of 4; an
    eigenvalue inside (_NULL_TOL, _AMBIGUITY_BAND) raises RankDeficiency.
    Its entries come from the support of the C_i: the entry at the pairs
    (a, b) and (c, d) can be nonzero only when c and d lie in the support
    of row a or row b of some C_i, and only those entries are formed, so
    the cost scales with the Gram's nonzeros, not with L^2 for
    L = l(l - 1)/2.  The Gram splits exactly (no threshold) into the
    connected blocks of its nonzero pattern, whose spectra make up its
    own: small blocks when the C_i are signed permutations, as on built
    systems, one block on a dense (e.g. rotated) system.  An element is
    a null column of its block's eigh, on that block's pairs alone, and
    they are ordered by block size, least pair and column; for m = 1
    there is no C_i and no Gram, and element p is pair p of (0, 1), ...,
    (l - 2, l - 1), in lexicographic order.
    """
    return SkewBasis(list(_centralizer_rows(sys_, slice(None))[1]))


def _centralizer_rows(sys_: CliffordSystem, select: slice) -> tuple:
    # (dim c(Sigma), the elements select of centralizer, from their rows)
    _, Qp, Qm, _, K = _eigenframe(sys_)
    found = [np.nonzero(null) for _, _, null in K]
    starts = np.cumsum([0] + [len(j) for j, _ in found])   # dim last
    keep = range(starts[-1])[select]
    a, b = np.triu_indices(Qp.shape[1], 1)
    Y = np.zeros((len(keep), Qp.shape[1], Qp.shape[1]))
    for (blocks, V, _), (j, col), start in zip(K, found, starts):
        rows = start - keep.start + np.arange(len(j))   # rows in keep
        t = (rows >= 0) & (rows < len(keep))
        pairs, coeffs = blocks[j[t]], V[j[t], :, col[t]]
        Y[rows[t, None], a[pairs], b[pairs]] = 0.5 * coeffs
        Y[rows[t, None], b[pairs], a[pairs]] = -0.5 * coeffs
    X = Qp @ Y @ Qp.T + Qm @ Y @ Qm.T
    return starts[-1], 0.5 * (X - X.transpose(0, 2, 1))


def predicted_centralizer_dim(sys_: CliffordSystem) -> int:
    """Centralizer dimension predicted by the representation type:

    so(k) for m = 1, 7 (mod 8); u(k) for m = 2, 6; sp(k) for m = 3, 5;
    sp(k1) + sp(k2) for m = 4 (mod 8); so(k1) + so(k2) for m = 0 (mod 8).
    """
    r, k, k1, k2 = sys_.m % 8, sys_.k, sys_.k1, sys_.k2
    if r in (1, 7):
        return k * (k - 1) // 2
    if r in (2, 6):
        return k * k
    if r in (3, 5):
        return k * (2 * k + 1)
    if r == 4:
        return k1 * (2 * k1 + 1) + k2 * (2 * k2 + 1)
    return k1 * (k1 - 1) // 2 + k2 * (k2 - 1) // 2


def _spin_products(P: np.ndarray) -> np.ndarray:
    # the stack of P_i P_j / 2 over the pairs i < j, in row-major order
    i, j = np.triu_indices(len(P), 1)
    return 0.5 * (P[i] @ P[j])


def _frame_spin(C: np.ndarray) -> np.ndarray:
    # _spin_products in the eigenframe of P_0, in the same pair order,
    # read off the blocks C_i in the four forms that audit states
    m, l = len(C) + 1, C.shape[-1]
    i, j = np.triu_indices(m - 1, 1)
    spin = np.zeros((m * (m + 1) // 2, 2 * l, 2 * l))
    spin[0, :l, l:] = 0.5 * np.eye(l)
    spin[0, l:, :l] = -0.5 * np.eye(l)
    spin[1:m, :l, l:] = spin[1:m, l:, :l] = 0.5 * C
    spin[m:2 * m - 1, :l, :l] = -0.5 * C
    spin[m:2 * m - 1, l:, l:] = 0.5 * C
    spin[2 * m - 1:, :l, :l] = spin[2 * m - 1:, l:, l:] = -0.5 * (C[i] @ C[j])
    return spin


def spin_lift(sys_: CliffordSystem) -> SkewBasis:
    """The m(m+1)/2 products P_i P_j / 2 (i < j): a copy of so(m+1).

    Each element is skew and its one-parameter flow rotates Sigma, so it
    preserves the quartic polynomial of the system.
    """
    return SkewBasis(list(_spin_products(sys_.matrices)))


def find_clifford_point(sys_: CliffordSystem, y) -> np.ndarray:
    """The unique P in Sigma with P y = y, for y on the focal set f = -1.

    P = sum a_i P_i with a_i = <P_i y, y>; the coefficients satisfy
    sum a_i^2 = 1 exactly on the focal set.
    """
    y = np.asarray(y, dtype=float)
    y = y / np.linalg.norm(y)
    if abs(otfkm_value(sys_, y) + 1.0) >= _FOCAL_TOL:
        raise NotOnFocalSet("otfkm value differs from -1 at the given point")
    coeff = np.array([float(y @ P @ y) for P in sys_.matrices])
    P = sum(a * Pi for a, Pi in zip(coeff, sys_.matrices))
    if np.linalg.norm(P @ y - y) >= _FOCAL_TOL:
        raise NotOnFocalSet("recovered element does not fix the point")
    return P


def symmetry_basis(sys_: CliffordSystem) -> SkewBasis:
    """Spin lift and centralizer stacked into one basis."""
    return SkewBasis(spin_lift(sys_).elements + centralizer(sys_).elements)


def _row_products(K, L: int) -> tuple:
    # (w -> w K, v -> v K^T, the squared row norms) for the groups K of
    # _eigenframe, over the leading axes of w and v: per group one stacked
    # product of V or V^T with the vectors on the last axis, so that each
    # block is one small product, on sparse and dense K alike
    ends = np.cumsum([np.count_nonzero(null) for _, _, null in K])

    def times_K(w):
        flat = w.reshape(np.prod(w.shape[:-1], dtype=int), -1).T
        out = np.zeros((L, flat.shape[1]))
        for (blocks, V, null), part in zip(K, np.split(flat, ends[:-1])):
            coeffs = np.zeros(null.shape + part.shape[1:])
            coeffs[null] = part
            out[blocks] = V @ coeffs
        return out.T.reshape(w.shape[:-1] + (L,))

    def times_KT(v):
        flat = v.reshape(np.prod(v.shape[:-1], dtype=int), L).T
        rows = [(V.transpose(0, 2, 1) @ flat[blocks])[null]
                for blocks, V, null in K]
        return np.concatenate(rows).T.reshape(v.shape[:-1] + (-1,))

    return times_K, times_KT, np.concatenate(
        [np.einsum("jrc,jrc->jc", V, V)[null] for _, V, null in K])


def _closure_residual(dense, trials: int, seed: int, K=None) -> float:
    # lie_closure_residual of the span of the (d, n, n) stack dense and,
    # when the groups K of _eigenframe are given, of the diag(Y_r, Y_r)
    # with Y_r the pair skew of row r of K, drawn after the stack; their
    # part of the projection is K on the pair vector of the sum of the two
    # diagonal blocks of [X, Y], and K is applied by the block products of
    # _row_products
    rng = np.random.default_rng(seed)
    d, n = len(dense), dense.shape[-1]
    l = n // 2
    L = l * (l - 1) // 2
    flat = dense.reshape(d, -1)
    norms = ()
    if K is not None:
        times_K, times_KT, norms = _row_products(K, L)
    draw = rng.standard_normal((trials, 2, d + len(norms)))
    XY = (draw[..., :d] @ flat).reshape(trials, 2, n, n)
    if K is not None:
        block = _pair_skew(times_K(draw[..., d:]), l)
        XY[..., :l, :l] += block
        XY[..., l:, l:] += block
    X, Y = XY[:, 0], XY[:, 1]
    C = (X @ Y - Y @ X).reshape(trials, -1)
    resid = C - ((C @ flat.T) / np.einsum("ij,ij->i", flat, flat)) @ flat
    if K is not None:
        C, R = C.reshape(trials, n, n), resid.reshape(trials, n, n)
        a, b = np.triu_indices(l, 1)
        M = C[:, :l, :l] + C[:, l:, l:]
        pair = 0.5 * (M[:, a, b] - M[:, b, a])
        Z = _pair_skew(times_K(times_KT(pair) / norms), l)
        R[:, :l, :l] -= Z
        R[:, l:, l:] -= Z
    # scale by |X||Y|, not |C|: commuting pairs give C at noise level
    denom = np.linalg.norm(XY.reshape(trials, 2, -1), axis=-1).prod(axis=1)
    keep = denom > 0
    return float(np.max(np.linalg.norm(resid[keep], axis=-1) / denom[keep],
                        initial=0.0))


def lie_closure_residual(basis: SkewBasis, trials: int,
                         seed: int = 0) -> float:
    """max relative residual of projecting [X, Y] back onto the span,
    for random X, Y in the span of ``basis``.

    The projection is S D^-1 S^T with S the span matrix and D = diag(S^T S),
    exact when the basis is Frobenius-orthogonal, as ``symmetry_basis`` is.
    For any other basis S D^-1 S^T C still lies in the span, so the residual
    bounds the distance of C to the span from above: a basis that is not
    orthogonal can fail the check, but never pass it wrongly.  The
    coefficients of trial t are row (t, 0) for X and (t, 1) for Y of one
    (trials, 2, dim) draw.
    """
    return _closure_residual(np.asarray(basis.elements), trials, seed)


def audit(sys_: CliffordSystem, seed: int = 0) -> dict:
    """Full structural audit of one system; returns a dict of findings.

    It works in the eigenframe U = [Q+ | Q-] of P_0 that centralizer
    uses, where P_0 = diag(I, -I), P_1 = [[0, I], [I, 0]] and P_i =
    [[0, C_i], [-C_i, 0]] (i >= 2) with the l x l blocks C_i, and
    c(Sigma) is {diag(Y, Y)}.  The closure check takes the spin lift
    P_i P_j / 2 (i < j) from the C_i alone, as [[0, I], [-I, 0]] / 2,
    [[0, C_i], [C_i, 0]] / 2, diag(-C_i, C_i) / 2 and
    -diag(C_i C_j, C_i C_j) / 2, and the centralizer as the null columns
    of its Gram blocks' eigh, applied by one stacked product per block
    size on sparse and dense systems alike, and forms no dense
    centralizer element.  These forms hold to the anticommutation and
    symmetry defect a CliffordSystem bounds.  The +-1 multiplicities come
    from the same eigh.  Conjugation by U keeps brackets, norms and
    orthogonal projections, so the residual is that of symmetry_basis,
    with the same draw, up to roundoff.
    """
    evals, _, _, C, K = _eigenframe(sys_)
    mult_plus = int(np.sum(evals > 0.5))
    mult_minus = int(np.sum(evals < -0.5))
    spin = _frame_spin(C)
    closure = _closure_residual(spin, _CLOSURE_TRIALS, seed, K)
    dim = int(sum(np.count_nonzero(null) for _, _, null in K))
    acm = sys_.anticommutation_error
    predicted = predicted_centralizer_dim(sys_)
    return {
        "m": sys_.m,
        "k": sys_.k,
        "k1": sys_.k1,
        "k2": sys_.k2,
        "l": sys_.l,
        "delta_m": sys_.delta_m,
        "anticommutation_error": acm,
        "eigen_multiplicities": [mult_plus, mult_minus],
        "centralizer_dim": dim,
        "centralizer_dim_predicted": predicted,
        "spin_dim": len(spin),
        "spin_dim_predicted": sys_.m * (sys_.m + 1) // 2,
        "lie_closure_residual": closure,
        "full_symmetry_dim": len(spin) + dim,
        "ok": bool(acm == 0.0
                   and mult_plus == sys_.l and mult_minus == sys_.l
                   and dim == predicted
                   and closure < 1e-10),
    }
