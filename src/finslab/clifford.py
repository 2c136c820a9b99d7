"""Symmetric Clifford systems, their quartic polynomials and symmetries.

A symmetric Clifford system {P_0, ..., P_m} on R^{2l} consists of symmetric
matrices with P_i P_j + P_j P_i = 2 delta_ij I.  The built-in construction
produces integer matrices, so anticommutation holds exactly.  On the unit
sphere the degree-4 polynomial

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


def _skew_family(q: int) -> list[np.ndarray]:
    """q pairwise-anticommuting skew complex structures on R^{delta_{q+1}}.

    Built recursively from tensor products of R, D, S; dimension doubles at
    q in {1, 2, 4, 8} and multiplies by 16 every 8 generators.
    """
    if q == 0:
        return []
    if q == 1:
        return [_R]
    if q <= 3:
        fam = [np.kron(_R, _D), np.kron(_R, _S), np.kron(np.eye(2), _R)]
        return fam[:q]
    if q <= 7:
        base = _skew_family(3)
        eye4 = np.eye(4)
        commuting = [np.kron(_D, _R), np.kron(_S, _R), np.kron(_R, np.eye(2))]
        fam = [np.kron(_D, E) for E in base] + [np.kron(_R, eye4)]
        fam += [np.kron(_S, B) for B in commuting]
        return fam[:q]
    if q == 8:
        base = _skew_family(7)
        return [np.kron(_D, E) for E in base] + [np.kron(_R, np.eye(8))]
    # periodicity: tensor the 8-generator family with a smaller one
    eight = _skew_family(8)
    d8 = eight[0].shape[0]
    rest = _skew_family(q - 8)
    d = rest[0].shape[0] if rest else 1
    omega = np.eye(d8)
    for E in eight:
        omega = omega @ E
    fam = [np.kron(E, np.eye(d)) for E in eight]
    fam += [np.kron(omega, E) for E in rest]
    return fam


def _irreducible_system(m: int) -> list[np.ndarray]:
    """The irreducible symmetric Clifford system {P'_0, ..., P'_m}."""
    delta = clifford_delta(m)
    fam = _skew_family(m - 1)
    eye = np.eye(delta)
    P0 = np.block([[eye, 0.0 * eye], [0.0 * eye, -eye]])
    P1 = np.block([[0.0 * eye, eye], [eye, 0.0 * eye]])
    system = [P0, P1]
    for E in fam:
        system.append(np.block([[0.0 * E, E], [-E, 0.0 * E]]))
    return system


@dataclass
class CliffordSystem:
    """A symmetric Clifford system with its multiplicity bookkeeping,
    checked when built: NotClifford for a defect beyond roundoff."""

    m: int
    l: int
    matrices: list
    k: int
    k1: int | None = None
    k2: int | None = None
    delta_m: int = 0

    def __post_init__(self):
        defect = max([anticommutation_error(self)]
                     + [float(np.abs(P - P.T).max()) for P in self.matrices])
        if not defect <= 1e-10:                   # beyond roundoff
            raise NotClifford("the matrices are not a symmetric Clifford "
                              f"system (defect {defect:.1e})")

    @property
    def dim(self) -> int:
        return 2 * self.l

    @property
    def multiplicities(self) -> tuple[int, int]:
        return self.m, self.l - self.m - 1

    def to_json(self) -> str:
        """Integer matrices when every entry is integral, floats otherwise."""
        integral = all(np.array_equal(P, np.round(P)) for P in self.matrices)
        payload = {"m": self.m, "l": self.l, "k": self.k,
                   "matrices": [(P.astype(int) if integral else P).tolist()
                                for P in self.matrices]}
        if self.k1 is not None:
            payload["k1"] = self.k1
            payload["k2"] = self.k2
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text) -> "CliffordSystem":
        data = json.loads(text) if isinstance(text, str) else text
        mats = [np.asarray(P, dtype=float) for P in data["matrices"]]
        m = data["m"]
        return cls(m=m, l=data["l"], matrices=mats, k=data["k"],
                   k1=data.get("k1"), k2=data.get("k2"),
                   delta_m=clifford_delta(m))


def build_clifford(m: int, k) -> CliffordSystem:
    """Build the system of k copies of the irreducible module.

    For m = 0 mod 4 there are two inequivalent irreducibles (they differ
    by the sign of P_m) and k may be a pair (k1, k2); a plain integer k is
    read as (k, 0).  Emits a warning when m2 = l - m - 1 < 1, i.e. when
    the quartic polynomial is not isoparametric.
    """
    if isinstance(k, (tuple, list)):
        if m % 4 != 0:
            raise UnsupportedSplit(
                "(k1, k2) splits exist only when m = 0 mod 4")
        k1, k2 = int(k[0]), int(k[1])
        if k1 < k2:
            k1, k2 = k2, k1            # congruence normalization k1 >= k2
        ktot = k1 + k2
    else:
        ktot = int(k)
        k1 = k2 = None
        if m % 4 == 0:
            k1, k2 = ktot, 0
    if ktot < 1:
        raise ValueError("k must be >= 1")

    prime = _irreducible_system(m)
    delta = clifford_delta(m)
    eye_k = np.eye(ktot)
    if m % 4 == 0 and k2 is not None:
        sign = np.diag([1.0] * k1 + [-1.0] * k2)
        matrices = [np.kron(P, eye_k) for P in prime[:-1]]
        matrices.append(np.kron(prime[-1], sign))
    else:
        matrices = [np.kron(P, eye_k) for P in prime]

    l = ktot * delta
    sys_ = CliffordSystem(m=m, l=l, matrices=matrices, k=ktot,
                          k1=k1, k2=k2, delta_m=delta)
    if l - m - 1 < 1:
        warnings.warn(f"m2 = {l - m - 1} < 1: quartic is not isoparametric "
                      f"for (m={m}, k={ktot})", stacklevel=2)
    return sys_


def anticommutation_error(sys_: CliffordSystem) -> float:
    """max |P_i P_j + P_j P_i - 2 delta_ij I|; 0 exactly for built systems.

    One stacked product per P_i, against P_i, ..., P_m.  A single product
    of all (m+1)^2 pairs is slower at 2l = 64: its temporaries outgrow the
    cache, while these stay below (m+1) n^2 entries."""
    P = np.asarray(sys_.matrices)
    eye2 = 2.0 * np.eye(sys_.dim)
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


@dataclass
class SkewBasis:
    """Frobenius-orthogonal basis of a space of skew matrices."""

    elements: list = field(default_factory=list)

    @property
    def dim(self) -> int:
        return len(self.elements)

    def span_matrix(self) -> np.ndarray:
        """(dim^2, k) matrix of vectorized basis elements."""
        return np.asarray(self.elements).reshape(self.dim, -1).T


def _identity_wedge(T, a, b):
    # Z -> Z T^T + T Z on the basis (E_ab - E_ba)/sqrt(2) of so(l), entry
    # (ab, cd) is d_ac T_bd + T_ac d_bd - d_ad T_bc - T_ad d_bc, so row ab
    # holds +-T[b, k] at the pair {a, k} and +-T[a, k] at the pair {k, b}
    l, L = len(T), len(a)
    pair = np.zeros((l, l), dtype=int)
    pair[a, b] = pair[b, a] = np.arange(L)
    sign = np.sign(np.subtract.outer(np.arange(l), np.arange(l)))
    others = np.arange(l - 1) + (np.arange(l - 1) >= np.arange(l)[:, None])
    row, ka, kb = np.arange(L)[:, None], others[a], others[b]   # k != a, b
    out = np.zeros((L, L))
    out[row, pair[a[:, None], ka]] = sign[ka, a[:, None]] * T[b[:, None], ka]
    out[row, pair[kb, b[:, None]]] += sign[b[:, None], kb] * T[a[:, None], kb]
    return out


def _null_coefficients(C, a, b):
    # (pairs, coeffs) of the null vectors of the Gram of Y -> ([Y, C_i])_i,
    # Y -> Y T + T Y - 2 sum_i C_i Y C_i^T with T = sum C_i C_i^T, per
    # block size
    R = np.einsum("ipc,ipd->pcd", C[:, a], C[:, b], optimize=True)
    gram = _identity_wedge(np.einsum("ipc,iqc->pq", C, C), a, b)
    gram -= 2.0 * (R[:, a, b] - R[:, b, a])
    rows, cols = np.nonzero((gram != 0.0) | (gram.T != 0.0))
    label, old = np.arange(len(a)), None   # ends as a block's least pair
    while not np.array_equal(label, old):
        old = label.copy()
        np.minimum.at(label, rows, label[cols])
    size = np.bincount(label)[label]
    order = np.lexsort((label, size))      # stable: pairs ascend in a block
    for s in np.flatnonzero(np.bincount(size)):
        blocks = order[size[order] == s].reshape(-1, s)
        mu, V = np.linalg.eigh(gram[blocks[:, :, None], blocks[:, None, :]])
        if np.any((mu > _NULL_TOL) & (mu < _AMBIGUITY_BAND)):
            raise RankDeficiency(
                "null-space eigenvalues fall inside the ambiguity band")
        j, col = np.nonzero(mu <= _NULL_TOL)
        yield blocks[j], V[j, :, col]


def centralizer(sys_: CliffordSystem) -> SkewBasis:
    """Frobenius-orthonormal basis of c(Sigma): skew X with [X, P] = 0 for
    every P in Sigma.

    With Q+ the +1 eigenvectors of P_0 (as eigh returns them) and
    Q- = P_1 Q+, each P_i (i >= 2) is [[0, C_i], [-C_i, 0]] in the basis
    [Q+, Q-], with C_i skew, so c(Sigma) = {diag(Y, Y) : Y in so(l),
    [Y, C_i] = 0}.  The Y are the null space (eigenvalues <= _NULL_TOL)
    of the Gram matrix of Y -> ([Y, C_i])_i on the pair basis of so(l); an
    eigenvalue inside (_NULL_TOL, _AMBIGUITY_BAND) raises RankDeficiency.
    The Gram splits exactly (no threshold) into the connected blocks of
    its nonzero pattern, whose spectra make up its own: small blocks when
    the C_i are signed permutations, as on built systems, one block on a
    dense (e.g. rotated) system.  Elements are ordered by the size of their
    block, then by its least pair index; for m = 1 the Gram is 0 and
    element p is pair p of (0, 1), ..., (l - 2, l - 1), in lexicographic order.
    """
    mats = sys_.matrices
    evals, Q = np.linalg.eigh(mats[0])
    Qp = Q[:, evals > 0.0]
    Qm = mats[1] @ Qp
    l = Qp.shape[1]
    a, b = np.triu_indices(l, 1)
    C = Qp.T @ np.asarray(mats[2:]).reshape(-1, 2 * l, 2 * l) @ Qm
    found = list(_null_coefficients(C, a, b))
    Y = np.zeros((sum(len(pairs) for pairs, _ in found), l, l))
    start = 0
    for pairs, coeffs in found:   # element start + r: coeffs[r] on pairs[r]
        n = start + np.arange(len(pairs))[:, None]
        Y[n, a[pairs], b[pairs]] = 0.5 * coeffs
        Y[n, b[pairs], a[pairs]] = -0.5 * coeffs
        start += len(pairs)
    X = Qp @ Y @ Qp.T + Qm @ Y @ Qm.T
    return SkewBasis(list(0.5 * (X - X.transpose(0, 2, 1))))


def predicted_centralizer_dim(m: int, k: int, k1=None, k2=None) -> int:
    """Centralizer dimension predicted by the representation type:

    so(k) for m = 1, 7 (mod 8); u(k) for m = 2, 6; sp(k) for m = 3, 5;
    sp(k1) + sp(k2) for m = 4 (mod 8); so(k1) + so(k2) for m = 0 (mod 8).
    """
    r = m % 8
    if r in (1, 7):
        return k * (k - 1) // 2
    if r in (2, 6):
        return k * k
    if r in (3, 5):
        return k * (2 * k + 1)
    if k1 is None:
        k1, k2 = k, 0
    if r == 4:
        return k1 * (2 * k1 + 1) + k2 * (2 * k2 + 1)
    return k1 * (k1 - 1) // 2 + k2 * (k2 - 1) // 2


def spin_lift(sys_: CliffordSystem) -> SkewBasis:
    """The m(m+1)/2 products P_i P_j / 2 (i < j): a copy of so(m+1).

    Each element is skew and its one-parameter flow rotates Sigma, so it
    preserves the quartic polynomial of the system.
    """
    out = []
    for i, Pi in enumerate(sys_.matrices):
        for Pj in sys_.matrices[i + 1:]:
            out.append(0.5 * (Pi @ Pj))
    return SkewBasis(out)


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


def full_symmetry_dimension(sys_: CliffordSystem) -> int:
    """dim of the symmetry algebra preserving the quartic polynomial:
    m(m+1)/2 (spin lift) plus the centralizer dimension."""
    return sys_.m * (sys_.m + 1) // 2 + centralizer(sys_).dim


def symmetry_basis(sys_: CliffordSystem) -> SkewBasis:
    """Spin lift and centralizer stacked into one basis."""
    return SkewBasis(spin_lift(sys_).elements + centralizer(sys_).elements)


def lie_closure_residual(basis: SkewBasis, trials: int = 10,
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
    rng = np.random.default_rng(seed)
    S = basis.span_matrix()
    size = basis.elements[0].shape[0]
    XY = (rng.standard_normal((trials, 2, basis.dim)) @ S.T).reshape(
        trials, 2, size, size)
    X, Y = XY[:, 0], XY[:, 1]
    C = (X @ Y - Y @ X).reshape(trials, -1)
    resid = C - ((C @ S) / np.einsum("ij,ij->j", S, S)) @ S.T
    # scale by |X||Y|, not |C|: commuting pairs give C at noise level
    denom = np.linalg.norm(XY.reshape(trials, 2, -1), axis=-1).prod(axis=1)
    keep = denom > 0
    return float(np.max(np.linalg.norm(resid[keep], axis=-1) / denom[keep],
                        initial=0.0))


def audit(sys_: CliffordSystem, seed: int = 0) -> dict:
    """Full structural audit of one system; returns a dict of findings."""
    acm = anticommutation_error(sys_)
    evals = np.linalg.eigvalsh(sys_.matrices[0])
    mult_plus = int(np.sum(evals > 0.5))
    mult_minus = int(np.sum(evals < -0.5))
    cent = centralizer(sys_)
    spin = spin_lift(sys_)
    predicted = predicted_centralizer_dim(sys_.m, sys_.k, sys_.k1, sys_.k2)
    basis = SkewBasis(spin.elements + cent.elements)
    closure = lie_closure_residual(basis, trials=_CLOSURE_TRIALS, seed=seed)
    return {
        "m": sys_.m,
        "k": sys_.k,
        "k1": sys_.k1,
        "k2": sys_.k2,
        "l": sys_.l,
        "delta_m": sys_.delta_m,
        "anticommutation_error": acm,
        "eigen_multiplicities": [mult_plus, mult_minus],
        "centralizer_dim": cent.dim,
        "centralizer_dim_predicted": predicted,
        "spin_dim": spin.dim,
        "spin_dim_predicted": sys_.m * (sys_.m + 1) // 2,
        "lie_closure_residual": closure,
        "full_symmetry_dim": spin.dim + cent.dim,
        "ok": bool(acm == 0.0
                   and mult_plus == sys_.l and mult_minus == sys_.l
                   and cent.dim == predicted
                   and closure < 1e-10),
    }
