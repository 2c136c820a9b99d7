"""Clifford systems: construction, quartic polynomial, symmetry algebras."""

import json
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import expm

import finslab.clifford as clifford
from conftest import dense_centralizer, qr_closure_residual
from finslab.clifford import (CliffordSystem, SkewBasis,
                              anticommutation_error, build_clifford,
                              centralizer, clifford_delta,
                              find_clifford_point, full_symmetry_dimension,
                              lie_closure_residual, otfkm_gradient,
                              otfkm_value, predicted_centralizer_dim,
                              spin_lift, symmetry_basis)
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
        assert cent.dim == predicted_centralizer_dim(sys_.m, sys_.k,
                                                     sys_.k1, sys_.k2)
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
    S = cent.span_matrix()
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
        assert cent.dim == predicted_centralizer_dim(
            sys_.m, sys_.k, sys_.k1, sys_.k2), (m, spec)
    assert count == 45


@pytest.mark.parametrize("m,k", [(2, 4), (3, 2), (5, 1), (4, (1, 1))])
def test_rotated_centralizer_matches_dense_oracle(m, k):
    # O P_i O^T has a dense Gram, one block: the path of a general system
    sys_ = build_quiet(m, k)
    O, _ = np.linalg.qr(np.random.default_rng(11).standard_normal(
        (sys_.dim, sys_.dim)))
    rotated = CliffordSystem(m=m, l=sys_.l, k=sys_.k, k1=sys_.k1,
                             k2=sys_.k2, delta_m=sys_.delta_m,
                             matrices=[O @ P @ O.T for P in sys_.matrices])
    cent = assert_matches_dense_oracle(rotated, (m, k))
    assert cent.dim == centralizer(sys_).dim > 0


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


def test_centralizer_rejects_non_clifford():
    # both systems raise when they are built, before centralizer runs
    D = np.diag([1.0, 1.0, -1.0, -1.0])
    with pytest.raises(NotClifford):   # P_1 = P_0 does not anticommute
        centralizer(CliffordSystem(m=1, l=2, matrices=[D, D], k=2))
    # an integer similarity keeps the relations exact but breaks symmetry
    S, S_inv = np.eye(4), np.eye(4)
    S[0, 2], S_inv[0, 2] = 1.0, -1.0
    bent = [S @ P @ S_inv for P in build_quiet(1, 2).matrices]
    # a bare carrier: a CliffordSystem of these matrices cannot be built
    assert anticommutation_error(SimpleNamespace(matrices=bent,
                                                 dim=4)) == 0.0
    with pytest.raises(NotClifford):
        centralizer(CliffordSystem(m=1, l=2, matrices=bent, k=2))


def test_spin_lift_basics():
    sys_ = build_quiet(1, 1)
    sp = spin_lift(sys_)
    assert sp.dim == 1
    assert np.abs(sp.elements[0] + sp.elements[0].T).max() == 0.0

    sys2 = build_quiet(2, 1)
    sp2 = spin_lift(sys2)
    assert sp2.dim == 3
    assert lie_closure_residual(sp2, trials=8) < 1e-12


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
    assert full_symmetry_dimension(build_quiet(1, 3)) == 4
    assert full_symmetry_dimension(build_quiet(2, 1)) == 4
    assert full_symmetry_dimension(build_quiet(4, (1, 1))) == 16


def test_symmetry_closure():
    for (m, k) in [(1, 3), (3, 1), (4, (1, 1))]:
        basis = symmetry_basis(build_quiet(m, k))
        assert lie_closure_residual(basis, trials=6) < 1e-10


def test_symmetry_basis_is_frobenius_orthogonal():
    # the precondition under which lie_closure_residual projects exactly
    count = 0
    for m, spec, sys_ in grid_systems(32):
        count += 1
        S = symmetry_basis(sys_).span_matrix()
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
    sys_ = build_quiet(4, (1, 2))
    assert (sys_.k1, sys_.k2) == (2, 1)


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
    rotated = CliffordSystem(m=1, l=3, matrices=[Q @ P @ Q.T
                                                 for P in sys_.matrices],
                             k=3, delta_m=sys_.delta_m)
    clone = CliffordSystem.from_json(rotated.to_json())
    for P, C in zip(rotated.matrices, clone.matrices):
        assert np.array_equal(P, C)
    assert centralizer(clone).dim == centralizer(sys_).dim == 3
    # built systems keep their integer JSON
    assert '.' not in json.dumps(json.loads(sys_.to_json())["matrices"])
