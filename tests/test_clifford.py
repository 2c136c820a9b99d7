"""Clifford systems: construction, quartic polynomial, symmetry algebras."""

import json
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import expm

import finslab.clifford as clifford
from conftest import (dense_centralizer, dense_gram_null_coefficients,
                      frame_spin_products, kron_clifford_matrices,
                      qr_closure_residual, span_matrix)
from finslab.clifford import (CliffordSystem, SkewBasis,
                              anticommutation_error, build_clifford,
                              centralizer, clifford_delta,
                              find_clifford_point, lie_closure_residual,
                              otfkm_gradient, otfkm_value,
                              predicted_centralizer_dim, spin_lift,
                              symmetry_basis)
from finslab.errors import (NotClifford, NotOnFocalSet, RankDeficiency,
                            UnsupportedSplit)


def build_quiet(m, k):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_clifford(m, k)


def grid_systems(max_dim):
    """The acceptance-grid systems with 2l <= max_dim, in grid order."""
    for m in range(1, 10):
        for k in range(1, max_dim // (2 * clifford_delta(m)) + 1):
            specs = [(k, 0), (k - k // 2, k // 2)] if m % 4 == 0 and k > 1 \
                else ([(k, 0)] if m % 4 == 0 else [k])
            for spec in specs:
                yield m, spec, build_quiet(m, spec)


def test_delta_table():
    assert {m: clifford_delta(m) for m in range(1, 10)} == {
        1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 6: 8, 7: 8, 8: 8, 9: 16}
    assert clifford_delta(10) == 32
    assert clifford_delta(16) == 128


def test_m1_canonical_matrices():
    sys_ = build_quiet(1, 1)
    assert np.array_equal(sys_.matrices[0], np.diag([1.0, -1.0]))
    assert np.array_equal(sys_.matrices[1], np.array([[0.0, 1.0],
                                                      [1.0, 0.0]]))


def test_anticommutation_exact_for_irreducibles():
    for m in range(1, 10):
        sys_ = build_quiet(m, 1)
        assert sys_.dim == 2 * clifford_delta(m)
        assert anticommutation_error(sys_) == 0.0
        assert all(float(P.trace()) == 0.0 for P in sys_.matrices)


def test_integer_entries():
    sys_ = build_quiet(5, 2)
    for P in sys_.matrices:
        assert np.array_equal(P, np.round(P))
        assert np.abs(P).max() == 1.0


def test_eigenvalue_multiplicities():
    for (m, k) in [(1, 3), (2, 2), (3, 1)]:
        sys_ = build_quiet(m, k)
        for P in sys_.matrices:
            evals = np.linalg.eigvalsh(P)
            assert int(np.sum(evals > 0.5)) == sys_.l
            assert int(np.sum(evals < -0.5)) == sys_.l


def test_sphere_elements_are_involutions():
    sys_ = build_quiet(2, 2)
    rng = np.random.default_rng(0)
    for _ in range(100):
        a = rng.standard_normal(sys_.m + 1)
        a /= np.linalg.norm(a)
        P = sum(c * Pi for c, Pi in zip(a, sys_.matrices))
        assert abs(float(P.trace())) < 1e-12
        assert np.abs(P @ P - np.eye(sys_.dim)).max() < 1e-12


def test_otfkm_values():
    sys_ = build_quiet(1, 3)
    # E_+(P_0) point: f = -1
    y = np.zeros(6)
    y[0] = 1.0
    assert abs(otfkm_value(sys_, y) + 1.0) < 1e-15
    # <P_i x, x> = 0 for all i: f = +1
    x = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0]) / np.sqrt(2.0)
    assert all(abs(float(x @ P @ x)) < 1e-15 for P in sys_.matrices)
    assert abs(otfkm_value(sys_, x) - 1.0) < 1e-15
    # range
    rng = np.random.default_rng(1)
    vals = [otfkm_value(sys_, rng.standard_normal(6)) for _ in range(10_000)]
    assert -1.0 <= min(vals) and max(vals) <= 1.0


def test_otfkm_gradient_matches_fd():
    sys_ = build_quiet(2, 1)
    rng = np.random.default_rng(2)
    x = rng.standard_normal(4)

    def raw(z):
        return float(z @ z) ** 2 - 2.0 * sum(
            float(z @ P @ z) ** 2 for P in sys_.matrices)

    h = 1e-6
    fd = np.array([(raw(x + h * e) - raw(x - h * e)) / (2 * h)
                   for e in np.eye(4)])
    scale = max(1.0, np.abs(fd).max())
    assert np.abs(otfkm_gradient(sys_, x) - fd).max() < 1e-7 * scale


def test_centralizer_dimensions():
    for (m, k), expect in [((1, 3), 3), ((2, 1), 1), ((4, (1, 1)), 6)]:
        sys_ = build_quiet(m, k)
        cent = centralizer(sys_)
        assert cent.dim == expect
        assert cent.dim == predicted_centralizer_dim(sys_)
        for E in cent.elements:
            assert np.abs(E + E.T).max() < 1e-12
            for P in sys_.matrices:
                assert np.abs(E @ P - P @ E).max() < 1e-10


def assert_matches_dense_oracle(sys_, where):
    # same span as the oracle's (by projector) and commuting with every P_i
    cent = centralizer(sys_)
    dense = dense_centralizer(sys_.matrices)
    assert cent.dim == len(dense), where
    if not dense:
        return cent
    S = span_matrix(cent)
    D = np.column_stack([E.ravel() for E in dense])
    assert np.abs(S @ S.T - D @ D.T).max() < 1e-12, where
    X = np.asarray(cent.elements)
    for P in sys_.matrices:
        assert np.abs(X @ P - P @ X).max() < 1e-12, where
    return cent


def test_centralizer_matches_dense_oracle():
    # every acceptance-grid system with 2l <= 32: a block-diagonal Gram
    count = 0
    for m, spec, sys_ in grid_systems(32):
        count += 1
        cent = assert_matches_dense_oracle(sys_, (m, spec))
        assert cent.dim == predicted_centralizer_dim(sys_), (m, spec)
    assert count == 45


@pytest.mark.parametrize("m,k", [(2, 4), (3, 2), (5, 1), (4, (1, 1))])
def test_rotated_centralizer_matches_dense_oracle(m, k):
    # O P_i O^T has a dense Gram, one block: the path of a general system
    sys_ = build_quiet(m, k)
    O, _ = np.linalg.qr(np.random.default_rng(11).standard_normal(
        (sys_.dim, sys_.dim)))
    rotated = CliffordSystem([O @ P @ O.T for P in sys_.matrices])
    cent = assert_matches_dense_oracle(rotated, (m, k))
    assert cent.dim == centralizer(sys_).dim > 0


@pytest.mark.parametrize("eps", [1e-13, 2e-12])
@pytest.mark.parametrize("m,k", [(2, 4), (3, 2), (5, 1), (9, 1), (4, (1, 1)),
                                 (2, 16), (9, 2)])
def test_gram_holds_at_the_accepted_defect(m, k, eps):
    # the Gram 2 sum (Y - C_i Y C_i^T) takes C_i C_i^T = I; a rotated
    # system perturbed up to the defect that CliffordSystem accepts
    # (1e-10) keeps its centralizer dimension, with no ambiguous eigenvalue
    sys_ = build_quiet(m, k)
    rng = np.random.default_rng(7)
    O, _ = np.linalg.qr(rng.standard_normal((sys_.dim, sys_.dim)))
    E = rng.standard_normal(sys_.matrices.shape)
    near = CliffordSystem(O @ sys_.matrices @ O.T
                          + eps * (E + E.transpose(0, 2, 1)))
    P = near.matrices
    defect = max(near.anticommutation_error,
                 np.abs(P - P.transpose(0, 2, 1)).max())
    assert 1e-12 <= defect <= 5e-11, defect
    rep = clifford.audit(near)
    assert rep["centralizer_dim"] == rep["centralizer_dim_predicted"]


@pytest.mark.parametrize("m,k", [(2, 2), (3, 2), (5, 1)])
def test_centralizer_checks_the_band_on_every_block(m, k, monkeypatch):
    # the least nonzero Gram eigenvalue is 4 on each, in blocks of size 2
    # (2, 2), of sizes 2 and 4 (3, 2) and of size 4 (5, 1)
    monkeypatch.setattr(clifford, "_AMBIGUITY_BAND", 5.0)
    with pytest.raises(RankDeficiency):
        centralizer(build_quiet(m, k))


def test_centralizer_index_is_lexicographic_pair_for_m1():
    # for m = 1, element p is pair p of so(l) in the P_0 eigenbasis, taken
    # to the -1 eigenspace by P_1: Q+^T X Q+ = Q-^T X Q- = (E_ab - E_ba)/2
    sys_ = build_quiet(1, 4)
    evals, Q = np.linalg.eigh(sys_.matrices[0])
    Qp = Q[:, evals > 0.0]
    Qm = sys_.matrices[1] @ Qp
    cent = centralizer(sys_)
    pairs = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    assert cent.dim == len(pairs)
    for (a, b), X in zip(pairs, cent.elements):
        Y = np.zeros((4, 4))
        Y[a, b], Y[b, a] = 0.5, -0.5
        assert np.abs(Qp.T @ X @ Qp - Y).max() < 1e-15
        assert np.abs(Qm.T @ X @ Qm - Y).max() < 1e-15
        assert np.abs(Qp.T @ X @ Qm).max() < 1e-15


def test_m1_audit_builds_no_gram():
    # with no C_i every Y commutes: the audit of (1, 64) keeps its 2016
    # centralizer rows as 2016 blocks of one pair, each its own 1 x 1
    # eigenvector, and builds no dense (2016, 2016) coefficient matrix
    # (31 MiB), L x L Gram or (L, l, l) product; with the dense matrix it
    # peaked at 37 MiB
    sys_ = build_quiet(1, 64)
    tracemalloc.start()
    try:
        rep = clifford.audit(sys_)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["centralizer_dim"] == 2016 and rep["ok"]
    assert peak < 12 * 2**20, peak / 2**20


def test_m2_audit_builds_no_dense_gram():
    # at 2l = 128 the Gram of (2, 32) and (9, 4) has a few nonzeros per
    # row: no (L, l, l) product (66 MB) or dense L x L Gram (32 MB) is
    # built beside K; the dense construction peaked at 156 MiB here
    for m, k in [(2, 32), (9, 4)]:
        sys_ = build_quiet(m, k)
        tracemalloc.start()
        try:
            rep = clifford.audit(sys_)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep["ok"], (m, k)
        assert peak < 48 * 2**20, (m, k, peak / 2**20)


def null_rows(groups):
    """The (pairs, coeffs) of the null columns of each group (blocks, V,
    null) of _null_coefficients: row r holds coeffs[r] on pairs[r], in
    the order of np.nonzero(null), as dense_gram_null_coefficients
    gives them."""
    return [(blocks[j], V[j, :, col]) for blocks, V, null in groups
            for j, col in [np.nonzero(null)]]


def coefficient_rows(found, L):
    """The (dim, L) rows of the (pairs, coeffs) groups of null_rows on the
    pair basis, in the order found."""
    K = np.zeros((sum(len(pairs) for pairs, _ in found), L))
    start = 0
    for pairs, coeffs in found:   # row start + r: coeffs[r] on pairs[r]
        K[start + np.arange(len(pairs))[:, None], pairs] = coeffs
        start += len(pairs)
    return K


def frame_blocks(sys_):
    """(C, a, b): the blocks C_i = Q+^T P_i Q- (i >= 2) in the eigenframe
    of P_0 that centralizer uses, and the pairs a < b of so(l)."""
    P = sys_.matrices
    evals, Q = np.linalg.eigh(P[0])
    Qp = Q[:, evals > 0.0]
    a, b = np.triu_indices(Qp.shape[1], 1)
    return Qp.T @ P[2:] @ (P[1] @ Qp), a, b


def assert_matches_dense_gram_oracle(C, a, b, where):
    # the same (pairs, coeffs) per block size, bit for bit; groups with no
    # null vector are dropped, as so(1) of (1, 1) has none
    def nonempty(found):
        return [(pairs, coeffs) for pairs, coeffs in found if len(pairs)]

    found = nonempty(null_rows(clifford._null_coefficients(C, a, b)))
    expected = nonempty(dense_gram_null_coefficients(C, a, b))
    assert len(found) == len(expected), where
    for (pairs, coeffs), (pairs0, coeffs0) in zip(found, expected):
        assert np.array_equal(pairs, pairs0), where
        assert np.array_equal(coeffs, coeffs0), where


def test_null_coefficients_match_the_dense_gram_oracle():
    # the C_i of a built system are integral, so every Gram entry is
    # exact: the same blocks, in the same order, and the same eigh input
    count = 0
    for m, spec, sys_ in grid_systems(64):
        count += 1
        assert_matches_dense_gram_oracle(*frame_blocks(sys_), (m, spec))
    assert count == 92


def test_null_coefficients_join_blocks_along_one_sided_entries():
    # sparse integer C, neither skew nor orthogonal, give a Gram whose
    # pattern is not symmetric: an entry found in row p only must still
    # join p and q into one block, as in the symmetrized dense pattern
    a, b = np.triu_indices(6, 1)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        C = rng.integers(-1, 2, (2, 6, 6)) * (rng.random((2, 6, 6)) < 0.25)
        assert_matches_dense_gram_oracle(C.astype(float), a, b, seed)


def half_rotated_systems():
    # O random on the first l/2 coordinates of R^{2l}, the identity
    # elsewhere: P_0 keeps its eigenspaces and C_i becomes H C_i H^T with
    # H rotating half of them, so the supports of the rows of the C_i
    # differ in size (rotating all l would make every C_i dense)
    for m, k in [(2, 4), (3, 2), (4, (1, 1)), (5, 2)]:
        sys_ = build_quiet(m, k)
        h = sys_.l // 2
        O = np.eye(sys_.dim)
        O[:h, :h] = np.linalg.qr(np.random.default_rng(5).standard_normal(
            (h, h)))[0]
        yield m, k, CliffordSystem(O @ sys_.matrices @ O.T)


def test_null_coefficients_span_the_oracle_null_space_when_rotated():
    # roundoff makes the Grams of rotated systems differ in the last bits:
    # the null spaces agree as projectors on the pair space
    def projector(found, L):
        K = coefficient_rows(found, L)
        return K.T @ K

    padded = 0
    for m, k, sys_ in list(rotated_systems()) + list(half_rotated_systems()):
        C, a, b = frame_blocks(sys_)
        support = np.any(C != 0.0, axis=0)
        width = np.count_nonzero(support[a] | support[b], axis=1)
        padded += width.min() < width.max()
        found = projector(null_rows(clifford._null_coefficients(C, a, b)),
                          len(a))
        expected = projector(dense_gram_null_coefficients(C, a, b), len(a))
        assert np.trace(found) == pytest.approx(
            predicted_centralizer_dim(sys_)), (m, k)
        assert np.abs(found - expected).max() < 1e-12, (m, k)
    assert padded == 4


def test_centralizer_rejects_non_clifford():
    # both systems raise when they are built, before centralizer runs
    D = np.diag([1.0, 1.0, -1.0, -1.0])
    with pytest.raises(NotClifford):   # P_1 = P_0 does not anticommute
        centralizer(CliffordSystem([D, D]))
    # an integer similarity keeps the relations exact but breaks symmetry
    S, S_inv = np.eye(4), np.eye(4)
    S[0, 2], S_inv[0, 2] = 1.0, -1.0
    bent = [S @ P @ S_inv for P in build_quiet(1, 2).matrices]
    # a bare carrier: a CliffordSystem of these matrices cannot be built
    assert anticommutation_error(SimpleNamespace(matrices=bent,
                                                 dim=4)) == 0.0
    with pytest.raises(NotClifford):
        centralizer(CliffordSystem(bent))


def test_spin_lift_basics():
    sys_ = build_quiet(1, 1)
    sp = spin_lift(sys_)
    assert sp.dim == 1
    assert np.abs(sp.elements[0] + sp.elements[0].T).max() == 0.0

    sys2 = build_quiet(2, 1)
    sp2 = spin_lift(sys2)
    assert sp2.dim == 3
    assert lie_closure_residual(sp2, trials=8) < 1e-12


def test_spin_lift_is_the_pairwise_products():
    # the stacked product against one product per pair, in pair order,
    # bit for bit, on every grid system with 2l <= 32 and four rotated ones
    systems = [sys_ for _, _, sys_ in grid_systems(32)]
    systems += [rotated for _, _, rotated in rotated_systems()]
    for sys_ in systems:
        P = sys_.matrices
        loop = [0.5 * (P[i] @ P[j]) for i in range(len(P))
                for j in range(i + 1, len(P))]
        assert np.array_equal(spin_lift(sys_).elements, loop)


def test_spin_flow_preserves_quartic():
    sys_ = build_quiet(2, 2)
    rng = np.random.default_rng(3)
    X = spin_lift(sys_).elements[1]
    for t in (0.1, 0.7):
        flow = expm(t * X)
        for _ in range(10):
            x = rng.standard_normal(sys_.dim)
            x /= np.linalg.norm(x)
            assert abs(otfkm_value(sys_, flow @ x)
                       - otfkm_value(sys_, x)) < 1e-8


def test_find_clifford_point_recovers_coefficients():
    sys_ = build_quiet(1, 3)
    P = 0.6 * sys_.matrices[0] + 0.8 * sys_.matrices[1]
    # unit vector in E_+(P) via the spectral projector (I + P)/2
    rng = np.random.default_rng(4)
    y = (np.eye(6) + P) @ rng.standard_normal(6)
    y /= np.linalg.norm(y)
    found = find_clifford_point(sys_, y)
    assert np.abs(found - P).max() < 1e-10
    a0 = float(y @ sys_.matrices[0] @ y)
    a1 = float(y @ sys_.matrices[1] @ y)
    assert abs(a0 - 0.6) < 1e-10 and abs(a1 - 0.8) < 1e-10


def test_find_clifford_point_rejects_off_focal():
    sys_ = build_quiet(1, 3)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(6)
    x /= np.linalg.norm(x)
    assert abs(otfkm_value(sys_, x) + 1.0) > 1e-6
    with pytest.raises(NotOnFocalSet):
        find_clifford_point(sys_, x)


def test_full_symmetry_dimensions():
    assert symmetry_basis(build_quiet(1, 3)).dim == 4
    assert symmetry_basis(build_quiet(2, 1)).dim == 4
    assert symmetry_basis(build_quiet(4, (1, 1))).dim == 16


def test_symmetry_closure():
    for (m, k) in [(1, 3), (3, 1), (4, (1, 1))]:
        basis = symmetry_basis(build_quiet(m, k))
        assert lie_closure_residual(basis, trials=6) < 1e-10


def test_symmetry_basis_is_frobenius_orthogonal():
    # the precondition under which lie_closure_residual projects exactly
    count = 0
    for m, spec, sys_ in grid_systems(32):
        count += 1
        S = span_matrix(symmetry_basis(sys_))
        gram = S.T @ S
        off = np.abs(gram - np.diag(np.diag(gram))).max()
        assert off <= 1e-12 * np.diag(gram).max(), (m, spec, off)
    assert count == 45


def test_closure_residual_matches_qr_oracle():
    count = 0
    for m, spec, sys_ in grid_systems(32):
        count += 1
        basis = symmetry_basis(sys_)
        fast = lie_closure_residual(basis, trials=4, seed=count)
        oracle = qr_closure_residual(basis.elements, trials=4, seed=count)
        assert fast < 1e-10 and oracle < 1e-10, (m, spec, fast, oracle)
        assert fast >= oracle - 1e-15, (m, spec, fast, oracle)
    assert count == 45
    # the (2, 1) spin lift without P_1 P_2 / 2 is not closed: both fail,
    # and on this orthogonal basis the same seed gives the same residual
    P0, P1, P2 = build_quiet(2, 1).matrices
    open_basis = SkewBasis([0.5 * P0 @ P1, 0.5 * P0 @ P2])
    fast = lie_closure_residual(open_basis, trials=6)
    oracle = qr_closure_residual(open_basis.elements, 6, 0)
    assert fast >= 1e-3 and oracle >= 1e-3
    assert fast == pytest.approx(oracle, rel=1e-12)
    # a skewed basis of a closed algebra fails the fast check, never the
    # reverse: its projection is not exact, and its residual is an upper
    # bound of the distance to the span
    E = spin_lift(build_quiet(2, 1)).elements
    skewed = SkewBasis([E[0], E[0] + E[1], E[2]])
    assert qr_closure_residual(skewed.elements, 6, 0) < 1e-12
    assert lie_closure_residual(skewed, trials=6) >= 1e-3


def test_unsupported_split():
    with pytest.raises(UnsupportedSplit):
        build_clifford(3, (1, 1))


def test_split_congruence_normalization():
    # (1, 2) and (2, 1) differ by the sign of P_m: the same system up to
    # congruence, whose split is read off as k1 >= k2
    for spec in ((1, 2), (2, 1), (0, 3)):
        sys_ = build_quiet(4, spec)
        assert (sys_.k1, sys_.k2) == (max(spec), min(spec))


def asked_for(m, spec):
    # (m, l, k, k1, k2, delta_m) of the system build_clifford(m, spec)
    # was asked for; the grid's splits have k1 >= k2
    k1, k2 = spec if isinstance(spec, tuple) else (None, None)
    k = spec if k1 is None else k1 + k2
    return m, k * clifford_delta(m), k, k1, k2, clifford_delta(m)


def derived(sys_):
    return sys_.m, sys_.l, sys_.k, sys_.k1, sys_.k2, sys_.delta_m


def test_derived_fields_match_the_request_on_the_grid():
    # every criterion-3 system with 2l <= 64, and a rotated copy O P O^T
    # of each m = 0 mod 4 one, whose volume-element trace is not an
    # integer sum but still gives the split
    rng = np.random.default_rng(17)
    count = rotated = 0
    for m, spec, sys_ in grid_systems(64):
        count += 1
        assert derived(sys_) == asked_for(m, spec), (m, spec)
        if m % 4 == 0:
            O, _ = np.linalg.qr(rng.standard_normal((sys_.dim, sys_.dim)))
            copy = CliffordSystem([O @ P @ O.T for P in sys_.matrices])
            assert derived(copy) == asked_for(m, spec), (m, spec)
            rotated += 1
    assert (count, rotated) == (92, 22)


def test_fewer_than_two_matrices_is_no_system():
    P0 = build_quiet(1, 1).matrices[0]
    for matrices in ([P0], [], [np.ones((2, 3))] * 2, [np.eye(2)[0]] * 2):
        with pytest.raises(ValueError, match="at least two square"):
            CliffordSystem(matrices)


def test_declared_fields_must_agree_with_the_matrices():
    data = json.loads(build_quiet(4, (1, 1)).to_json())
    assert (data["k1"], data["k2"]) == (1, 1)
    for name, wrong in (("m", 3), ("l", 16), ("k", 99), ("k1", 2),
                        ("k2", 0)):
        with pytest.raises(ValueError, match=f"'{name}' is {wrong}"):
            CliffordSystem.from_json(data | {name: wrong})
    # k1 and k2 may be left out, and are derived
    bare = {key: data[key] for key in ("m", "l", "k", "matrices")}
    assert derived(CliffordSystem.from_json(bare)) == (4, 8, 2, 1, 1, 4)
    # a split declared where m != 0 mod 4 has no system to agree with
    odd = json.loads(build_quiet(3, 2).to_json())
    with pytest.raises(ValueError, match="'k1' is 2"):
        CliffordSystem.from_json(odd | {"k1": 2, "k2": 0})


def test_build_matches_the_kron_construction_bit_for_bit():
    # the stacked build against one np.kron / np.block per matrix, signed
    # zeros included, for m = 1..12, every k and every split (k1, k2) up
    # to 2l = 128, and the irreducible stack of m = 13..16 (2l = 256)
    def assert_same(built, expected, where):
        assert np.array_equal(built, expected), where
        assert np.array_equal(np.signbit(built), np.signbit(expected)), where

    count = 0
    for m in range(1, 13):
        delta = clifford_delta(m)
        for k in range(1, 64 // delta + 1):
            specs = [(k, (k, 0))]
            if m % 4 == 0:
                specs += [((k1, k - k1), (k1, k - k1)) for k1 in range(k + 1)]
            for spec, (k1, k2) in specs:
                expected = kron_clifford_matrices(m, k1, k2, delta)
                assert_same(build_quiet(m, spec).matrices, expected,
                            (m, spec))
                count += 1
    for m in range(13, 17):
        assert_same(clifford._irreducible_system(m),
                    kron_clifford_matrices(m, 1, 0, 128), m)
    assert count == 366


def test_split_copies_inequivalent():
    # volume element P_0 ... P_m has opposite trace on the two irreducibles
    def vol_trace(sys_):
        prod = np.eye(sys_.dim)
        for P in sys_.matrices:
            prod = prod @ P
        return float(prod.trace())

    plain = vol_trace(build_quiet(4, (1, 0)))
    mixed = vol_trace(build_quiet(4, (1, 1)))
    assert abs(plain) > 0.0
    assert abs(mixed) < 1e-12


def test_low_multiplicity_warning():
    with pytest.warns(UserWarning):
        build_clifford(1, 2)     # m2 = 0


def test_serialization_round_trip():
    sys_ = build_quiet(3, 1)
    clone = CliffordSystem.from_json(sys_.to_json())
    assert clone.m == sys_.m and clone.l == sys_.l and clone.k == sys_.k
    for P, Q in zip(sys_.matrices, clone.matrices):
        assert np.array_equal(P, Q)
    data = json.loads(sys_.to_json())
    assert set(data) == {"m", "l", "k", "matrices"}


def test_serialization_round_trip_of_a_rotated_system():
    # an orthogonal conjugate is still a symmetric Clifford system, with
    # non-integer entries that JSON must carry exactly
    sys_ = build_quiet(1, 3)
    Q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((6, 6)))
    rotated = CliffordSystem([Q @ P @ Q.T for P in sys_.matrices])
    clone = CliffordSystem.from_json(rotated.to_json())
    for P, C in zip(rotated.matrices, clone.matrices):
        assert np.array_equal(P, C)
    assert centralizer(clone).dim == centralizer(sys_).dim == 3
    # built systems keep their integer JSON
    assert '.' not in json.dumps(json.loads(sys_.to_json())["matrices"])


def rotated_systems():
    # the four systems of test_rotated_centralizer_matches_dense_oracle
    for m, k in [(2, 4), (3, 2), (5, 1), (4, (1, 1))]:
        sys_ = build_quiet(m, k)
        O, _ = np.linalg.qr(np.random.default_rng(11).standard_normal(
            (sys_.dim, sys_.dim)))
        yield m, k, CliffordSystem([O @ P @ O.T for P in sys_.matrices])


def test_audit_closure_matches_the_dense_basis():
    # the audit's eigenframe residual is that of symmetry_basis with the
    # same draw, up to roundoff, and the QR oracle stays a lower bound;
    # the spin lift read off the C_i is U^T (P_i P_j / 2) U up to the
    # roundoff of the rotated systems' defect
    systems = [(m, spec, sys_) for m, spec, sys_ in grid_systems(32)]
    systems += list(rotated_systems())
    assert len(systems) == 49
    for seed, (m, spec, sys_) in enumerate(systems):
        spin = clifford._frame_spin(frame_blocks(sys_)[0])
        expected = frame_spin_products(sys_.matrices)
        assert np.abs(spin - expected).max() <= 1e-14, (m, spec)
        basis = symmetry_basis(sys_)
        framed = clifford.audit(sys_, seed=seed)["lie_closure_residual"]
        dense = lie_closure_residual(basis, 6, seed)
        oracle = qr_closure_residual(basis.elements, 6, seed)
        assert abs(framed - dense) <= 1e-15, (m, spec, framed, dense)
        assert framed >= oracle - 1e-15, (m, spec, framed, oracle)


@pytest.mark.parametrize("m,k", [(2, 2), (4, (1, 1)), (5, 1)])
def test_audit_closure_fails_off_the_null_space(m, k, monkeypatch):
    # row 0 of K turned by 45 degrees towards a pair direction orthogonal
    # to every row: the dimension still matches, the closure must not.
    # The rows are yielded as the null columns of one block of all L pairs
    original = clifford._null_coefficients

    def tilted(C, a, b):
        K = coefficient_rows(null_rows(original(C, a, b)), len(a))
        off = np.eye(len(a)) - K.T @ K        # projector off the null space
        q = int(np.argmax(np.diag(off)))
        K[0] = (K[0] + off[q] / np.linalg.norm(off[q])) / np.sqrt(2.0)
        V = np.zeros((1, len(a), len(a)))
        V[0, :, :len(K)] = K.T
        yield np.arange(len(a))[None], V, np.arange(len(a))[None] < len(K)

    sys_ = build_quiet(m, k)
    assert clifford.audit(sys_)["ok"]
    monkeypatch.setattr(clifford, "_null_coefficients", tilted)
    rep = clifford.audit(sys_)
    assert rep["centralizer_dim"] == rep["centralizer_dim_predicted"]
    assert rep["lie_closure_residual"] >= 1e-3
    assert not rep["ok"]


def test_audit_builds_no_dense_symmetry_basis(monkeypatch):
    # the 2l = 64 row passes with the dense paths patched to raise
    def forbidden(*args, **kwargs):
        raise AssertionError("the audit formed a dense basis")

    monkeypatch.setattr(clifford, "centralizer", forbidden)
    monkeypatch.setattr(clifford, "spin_lift", forbidden)
    monkeypatch.setattr(clifford, "_spin_products", forbidden)
    count = 0
    for m, spec, sys_ in grid_systems(64):
        if sys_.dim == 64:
            count += 1
            assert clifford.audit(sys_, seed=count)["ok"], (m, spec)
    assert count == 11


def test_centralizer_rows_apply_alike_by_block_products():
    # the block products give w K, v K^T and the squared row norms of the
    # dense rows on sparse (built), partly and wholly filled (rotated)
    # groups alike, and on the empty c(Sigma) of (9, 1); the rotated
    # audits close through them
    rng = np.random.default_rng(3)
    rotated = [s for _, _, s in rotated_systems()]
    rotated += [s for _, _, s in half_rotated_systems()]
    dims = []
    for sys_ in [build_quiet(1, 8), build_quiet(2, 16), build_quiet(5, 4),
                 *rotated, build_quiet(9, 1)]:
        _, Qp, _, _, K = clifford._eigenframe(sys_)
        L = len(np.triu_indices(Qp.shape[1], 1)[0])
        dense = coefficient_rows(null_rows(K), L)
        dim = len(dense)
        dims.append(dim)
        w, v = rng.standard_normal((6, 2, dim)), rng.standard_normal((6, L))
        times_K, times_KT, norms = clifford._row_products(K, L)
        assert norms.shape == (dim,)
        assert np.abs(norms - (dense * dense).sum(axis=1)).max(
            initial=0.0) < 1e-14
        got = times_K(w)
        assert got.shape == (6, 2, L)
        assert np.abs(got - w @ dense).max() < 1e-13
        got = times_KT(v)
        assert got.shape == (6, dim)
        assert np.abs(got - v @ dense.T).max(initial=0.0) < 1e-13
    assert dims[-1] == 0 and min(dims[:-1]) > 0
    for sys_ in rotated:   # not "ok": a rotated system's defect is not 0
        assert clifford.audit(sys_)["lie_closure_residual"] < 1e-10
