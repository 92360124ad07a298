import itertools
import operator

import numpy as np
import pytest
import scipy.linalg

from risthp import alloc, gram as G, phase_opt as P
from risthp.channel import ChannelRealization
from risthp.phase_opt import NotApplicableError, PhaseConfig

from conftest import random_realization, random_unit_theta


def zero_eig_fixture(rng, k=2, n_ris=3):
    """Square system (N_B = K): C always has an exactly zero eigenvalue."""
    return random_realization(rng, k=k, n_bs=k, n_ris=n_ris)


def phase_factor(dec, p_bar, direction=None):
    """The phase factor G: ``dec.factor(p_bar)``, or the row u^H D along u."""
    if direction is None:
        return dec.factor(p_bar)
    return (direction.conj() @ dec.d_mat)[None, :]


class TestZeroEigDirection:
    def test_identity_direct_channel(self):
        b = np.array([1.0, 0.0], dtype=complex)
        real = ChannelRealization(h_direct=np.eye(2, dtype=complex),
                                  h_cascaded=np.zeros((2, 3), dtype=complex),
                                  b_vec=b, a_vec=np.ones(3, dtype=complex))
        u = P.zero_eig_direction(G.decompose(real, [0, 1]))
        np.testing.assert_allclose(np.abs(u), [1.0, 0.0], atol=1e-12)

    def test_annihilates_c(self, rng):
        dec = G.decompose(zero_eig_fixture(rng, k=3), range(3))
        u = P.zero_eig_direction(dec)
        assert np.linalg.norm(dec.c_mat @ u) < 1e-9

    def test_not_applicable(self, rng):
        real = random_realization(rng, k=2, n_bs=5)
        with pytest.raises(NotApplicableError, match="0 eigenvalues"):
            P.zero_eig_direction(G.decompose(real, range(2)))

    def test_near_colinear_rows_give_null_vector(self, rng):
        # K < N_B with direct row 1 almost a multiple of row 0: C has one
        # eigenvalue far below RANK_TOL, and u must be its eigenvector, not
        # H_d^{+,H} b
        for _ in range(20):
            real = random_realization(rng, k=3, n_bs=4)
            noise = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            real.h_direct[1] = (0.6 - 0.3j) * real.h_direct[0] + 1e-6 * noise
            dec = G.decompose(real, range(3))
            lam = np.linalg.eigvalsh(dec.c_mat)
            u = P.zero_eig_direction(dec)
            assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(dec.c_mat @ u) <= lam[0] + 1e-12 * lam[-1]

    def test_blocked_user_basis_vector(self, rng):
        # K < N_B: the blocked row alone makes C singular
        real = random_realization(rng, k=3, n_bs=5, blocked=(1,))
        u = P.zero_eig_direction(G.decompose(real, range(3)))
        np.testing.assert_allclose(np.abs(u), [0.0, 1.0, 0.0], atol=1e-6)

    def test_blocked_user_square_system(self, rng):
        # K = N_B: C is singular anyway, and its null direction H_d^{-H} b is
        # dominated by the blocked row, so one zero eigenvalue remains
        real = random_realization(rng, k=4, n_bs=4, blocked=(2,))
        u = P.zero_eig_direction(G.decompose(real, range(4)))
        np.testing.assert_allclose(np.abs(u), [0.0, 0.0, 1.0, 0.0], atol=1e-6)

    def test_two_zero_eigenvalues_take_heuristic(self, rng):
        # K = N_B makes one eigenvalue zero; a second blocked row adds another
        real = random_realization(rng, k=4, n_bs=4, blocked=(0, 2))
        dec = G.decompose(real, range(4))
        assert G.count_zero_eigenvalues(np.linalg.eigvalsh(dec.c_mat)) == 2
        with pytest.raises(NotApplicableError, match="2 eigenvalues"):
            P.zero_eig_direction(dec)
        p_bar = 3.0
        g_mat = dec.factor(p_bar)
        heuristic = P.refine_elementwise(g_mat, P.heuristic_phases(g_mat))
        np.testing.assert_array_equal(
            alloc.optimize_phases(real, np.array([[0, 1, 2, 3]]), p_bar,
                                  "continuous")[0].theta, heuristic.theta)


class TestStackedBranches:
    """The branch functions on a stack equal their single-subset calls, bit for bit."""

    @pytest.mark.parametrize("c", [1, 2, 5])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_stack_matches_single_calls(self, rng, c, k):
        real = random_realization(rng, k=8, n_bs=6, n_ris=12)
        stack = np.array([rng.permutation(8)[:k] for _ in range(c)])
        dec = G.decompose(real, stack)
        g_mat = dec.factor(3.0)
        heur = P.heuristic_phases(g_mat).theta
        assert heur.shape == (c, 12)
        for i, users in enumerate(stack):
            alone = G.decompose(real, list(users))
            g_alone = alone.factor(3.0)
            np.testing.assert_array_equal(g_mat[i], g_alone)
            np.testing.assert_array_equal(heur[i], P.heuristic_phases(g_alone).theta)

    @pytest.mark.parametrize("c", [1, 2, 5])
    def test_aligned_stack_matches_single_calls(self, rng, c):
        # K = N_B: every C has one zero eigenvalue
        real = zero_eig_fixture(rng, k=4, n_ris=5)
        stack = np.array([rng.permutation(4) for _ in range(c)])
        dec = G.decompose(real, stack)
        u = P.zero_eig_direction(dec)
        aligned = P.align_phases(dec, u).theta
        assert u.shape == (c, 4) and aligned.shape == (c, 5)
        for i, users in enumerate(stack):
            alone = G.decompose(real, list(users))
            u_alone = P.zero_eig_direction(alone)
            np.testing.assert_array_equal(u[i], u_alone)
            np.testing.assert_array_equal(aligned[i], P.align_phases(alone, u_alone).theta)

    def test_mixed_stack_marks_applicable(self, rng):
        real = random_realization(rng, k=4, n_bs=4, n_ris=5)
        real.h_direct[3] = 0.0  # C of a subset holding user 3 has one zero eigenvalue
        dec = G.decompose(real, np.array([[0, 1], [0, 3], [3, 2]]))
        with pytest.raises(NotApplicableError, match="in 1 of 3 subsets") as info:
            P.zero_eig_direction(dec)
        np.testing.assert_array_equal(info.value.applicable, [False, True, True])
        u = P.zero_eig_direction(dec.take(info.value.applicable))
        np.testing.assert_array_equal(u[1], P.zero_eig_direction(G.decompose(real, [3, 2])))

    def test_single_not_applicable_marks_nothing(self, rng):
        real = random_realization(rng, k=2, n_bs=5)
        with pytest.raises(NotApplicableError) as info:
            P.zero_eig_direction(G.decompose(real, range(2)))
        assert info.value.applicable.shape == () and not info.value.applicable


class TestAlignPhases:
    def test_blocked_user_gain_maximization(self, rng):
        real = random_realization(rng, k=3, n_bs=3, blocked=(1,))
        real.h_direct[1] = 0.0
        dec = G.decompose(real, range(3))
        theta = P.align_phases(dec, P.zero_eig_direction(dec)).theta
        # stored rows are the conjugate-transposed channels, so the channel
        # gain of user 1 is |row @ theta|
        h_c1 = real.h_cascaded[1]
        assert abs(h_c1 @ theta) == pytest.approx(
            np.sum(np.abs(h_c1)), rel=1e-12)

    def test_already_aligned(self, rng):
        real = zero_eig_fixture(rng, k=2, n_ris=4)
        u = P.zero_eig_direction(G.decompose(real, range(2)))
        # rebuild channels so every term is real positive along u: H_c^H u
        # by construction, b^H H_d^H u by rotating H_d by the angle of that
        # term (which leaves C and so u unchanged)
        real.h_cascaded = np.outer(u, np.abs(rng.standard_normal(4)) + 0.5)
        ref = real.b_vec.conj() @ (real.h_direct.conj().T @ u)
        real.h_direct = real.h_direct * np.exp(1j * np.angle(ref))
        dec = G.decompose(real, range(2))
        theta = P.align_phases(dec, P.zero_eig_direction(dec)).theta
        np.testing.assert_allclose(theta, np.ones(4), atol=1e-9)

    def test_triangle_equality_certificate(self, rng):
        for _ in range(10):
            real = zero_eig_fixture(rng, k=2, n_ris=5)
            dec = G.decompose(real, range(2))
            u = P.zero_eig_direction(dec)
            theta = P.align_phases(dec, u).theta
            tb = G.extend_theta(theta)
            achieved = abs(u.conj() @ dec.d_mat @ tb)
            bound = np.sum(np.abs(dec.d_mat.conj().T @ u))
            assert achieved == pytest.approx(bound, rel=1e-12)
            # no unit-modulus vector can exceed the triangle-inequality bound
            for _ in range(20):
                rand_tb = G.extend_theta(random_unit_theta(rng, 5))
                assert abs(u.conj() @ dec.d_mat @ rand_tb) <= bound + 1e-12

    def test_grid_search_oracle(self, rng):
        # coarse exhaustive grid never beats the closed form
        real = zero_eig_fixture(rng, k=2, n_ris=3)
        dec = G.decompose(real, range(2))
        u = P.zero_eig_direction(dec)
        theta = P.align_phases(dec, u).theta
        best = abs(u.conj() @ dec.d_mat @ G.extend_theta(theta)) ** 2
        grid = np.exp(2j * np.pi * np.arange(16) / 16)
        gmax = 0.0
        for combo in itertools.product(grid, repeat=3):
            val = abs(u.conj() @ dec.d_mat
                      @ G.extend_theta(np.array(combo))) ** 2
            gmax = max(gmax, val)
        assert gmax <= best + 1e-12
        assert best - gmax <= best * 2 * (2 * np.pi / 16)


class TestHeuristicPhases:
    def test_matches_direct_eigensolve(self, rng):
        for _ in range(10):
            real = random_realization(rng, k=3, n_bs=5, n_ris=7)
            dec = G.decompose(real, range(3))
            p_bar = float(rng.uniform(0.5, 20.0))
            theta = P.heuristic_phases(dec.factor(p_bar)).theta
            got = G.rayleigh_objective(dec, G.extend_theta(theta), p_bar)

            a_mat = np.eye(3) / p_bar + dec.c_mat
            m = dec.d_mat.conj().T @ np.linalg.solve(a_mat, dec.d_mat)
            _, vecs = np.linalg.eigh(0.5 * (m + m.conj().T))
            w = vecs[:, -1]
            ref_theta = np.exp(1j * (np.angle(w[:-1]) - np.angle(w[-1])))
            ref = G.rayleigh_objective(dec, G.extend_theta(ref_theta), p_bar)
            assert got == pytest.approx(ref, rel=1e-9)

    def test_optimal_on_zero_eig_case(self, rng):
        real = zero_eig_fixture(rng, k=2, n_ris=6)
        dec = G.decompose(real, range(2))
        aligned = P.align_phases(dec, P.zero_eig_direction(dec)).theta
        p_bar = 1e7  # alignment is the high-power optimum
        obj_h = G.rayleigh_objective(dec, G.extend_theta(
            P.heuristic_phases(dec.factor(p_bar)).theta), p_bar)
        obj_a = G.rayleigh_objective(dec, G.extend_theta(aligned), p_bar)
        assert obj_h == pytest.approx(obj_a, rel=1e-8)

    def test_beats_random_thetas(self, rng):
        real = zero_eig_fixture(rng, k=3, n_ris=5)
        dec = G.decompose(real, range(3))
        p_bar = 1e6
        obj = G.rayleigh_objective(dec, G.extend_theta(
            P.heuristic_phases(dec.factor(p_bar)).theta), p_bar)
        for _ in range(100):
            rand = G.rayleigh_objective(
                dec, G.extend_theta(random_unit_theta(rng, 5)), p_bar)
            assert rand <= obj * (1 + 1e-9)

    def test_single_nonzero_column(self, rng):
        real = random_realization(rng, k=2, n_bs=4, n_ris=3)
        real.h_direct = np.zeros_like(real.h_direct)  # D = [H_c, 0]
        real.h_cascaded[:, 1:] = 0.0
        dec = G.decompose(real, range(2))
        theta = P.heuristic_phases(dec.factor(5.0)).theta
        # only element 0 matters; its phase is well defined up to the global
        # reference, which is angle(w_last) = angle(0) = 0 here
        assert abs(abs(theta[0]) - 1.0) < 1e-12


class TestRayleighObjective:
    def test_last_column_only(self, rng):
        real = random_realization(rng, k=2, n_bs=4, n_ris=3)
        real.h_cascaded = np.zeros_like(real.h_cascaded)
        dec = G.decompose(real, range(2))
        d = dec.d_mat[:, -1]
        p_bar = 3.0
        a_mat = np.eye(2) / p_bar + dec.c_mat
        expected = np.real(d.conj() @ np.linalg.solve(a_mat, d))
        got = G.rayleigh_objective(dec, G.extend_theta(np.ones(3)), p_bar)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_global_phase_invariance(self, rng):
        real = random_realization(rng)
        dec = G.decompose(real, range(3))
        tb = G.extend_theta(random_unit_theta(rng, real.n_ris))
        v1 = G.rayleigh_objective(dec, tb, 2.0)
        v2 = G.rayleigh_objective(dec, tb * np.exp(0.7j), 2.0)
        assert v1 == pytest.approx(v2, rel=1e-12)

    def test_consistent_with_dpc_sum_se(self, rng):
        real = random_realization(rng)
        dec = G.decompose(real, range(3))
        tb = G.extend_theta(random_unit_theta(rng, real.n_ris))
        p_bar = 4.0
        obj = G.rayleigh_objective(dec, tb, p_bar)
        logdet = float(np.log2(np.linalg.det(
            np.eye(3) + p_bar * dec.c_mat).real))
        assert np.log2(1 + obj) == pytest.approx(
            G.dpc_sum_se(dec, tb, p_bar) - logdet, rel=1e-9)


def _dense_refine(gram, theta_init, p_bar, max_sweeps=P.DEFAULT_MAX_SWEEPS,
                  direction=None):
    """Coordinate ascent on the dense (N_R+1)^2 matrix M, one numpy row per
    element: the kernel the K-row factor G = L^-1 D replaced, for both
    alphabets.  Returns the phases and M."""
    d = gram.d_mat
    if direction is not None:
        c = d.conj().T @ direction
        m = np.outer(c, c.conj())
    else:
        a_mat = np.eye(gram.c_mat.shape[0]) / p_bar + gram.c_mat
        m = d.conj().T @ scipy.linalg.solve(a_mat, d, assume_a="pos")
        m = 0.5 * (m + m.conj().T)
    theta_bar = G.extend_theta(theta_init.theta)
    binary = theta_init.alphabet == "binary"
    obj = float(np.real(theta_bar.conj() @ m @ theta_bar))
    for _ in range(max_sweeps):
        changed = False
        for n in range(gram.d_mat.shape[1] - 1):
            c_n = m[n] @ theta_bar - m[n, n] * theta_bar[n]
            if binary:
                new = 1.0 if np.real(c_n) > 0 else (-1.0 if np.real(c_n) < 0
                                                    else theta_bar[n])
            else:
                new = c_n / abs(c_n) if c_n != 0 else theta_bar[n]
            if new != theta_bar[n]:
                theta_bar[n] = new
                changed = True
        new_obj = float(np.real(theta_bar.conj() @ m @ theta_bar))
        if not changed or new_obj - obj <= P.SWEEP_REL_TOL * max(abs(obj), 1.0):
            break
        obj = new_obj
    theta = theta_bar[:-1]
    if binary:
        theta = np.real(theta).round().astype(complex)
    else:
        theta = theta / np.abs(theta)
    return theta, m


def _list_binary_ascent(g_mat, theta_bar, max_sweeps):
    """The +-1 coordinate ascent one element at a time on Python lists of G's
    columns, as before the first-improvement scan."""
    cols = g_mat.T.tolist()
    cols_conj = g_mat.T.conj().tolist()
    col_norms = np.sum(np.abs(g_mat) ** 2, axis=0).tolist()
    th = theta_bar.tolist()
    y = g_mat @ theta_bar
    obj = float(np.real(np.vdot(y, y)))
    for _ in range(max_sweeps):
        changed = False
        yl = y.tolist()
        for n in range(len(th) - 1):
            old = th[n]
            c_n = sum(map(operator.mul, cols_conj[n], yl)) - col_norms[n] * old
            new = 1.0 if c_n.real > 0 else (-1.0 if c_n.real < 0 else old)
            if new != old:
                yl = [y_k + g_k * (new - old) for y_k, g_k in zip(yl, cols[n])]
                th[n] = new
                changed = True
        y = g_mat @ np.array(th, dtype=complex)
        new_obj = float(np.real(np.vdot(y, y)))
        if not changed or new_obj - obj <= P.SWEEP_REL_TOL * max(abs(obj), 1.0):
            break
        obj = new_obj
    return np.real(np.array(th[:-1], dtype=complex)).round().astype(complex)


class TestRefineElementwise:
    @pytest.mark.parametrize("k", [1, 3, 6])
    @pytest.mark.parametrize("n_ris", [1, 2, 16, 64, 512])
    def test_matches_dense_reference(self, k, n_ris):
        # binary: the same coordinate ascent, so the same phases.  continuous:
        # the MM fixed point is another ascent on the same objective, so at
        # the default cap it must reach the reference's objective (to 1e-9
        # relative), and one pass must not fall below the start's objective;
        # one MM pass is not compared with one coordinate-ascent sweep
        # the kernel takes the direction u as given, so any unit vector will do
        rng = np.random.default_rng(1000 * k + n_ris)
        dec = G.decompose(random_realization(rng, k=k, n_bs=k + 2,
                                             n_ris=n_ris), range(k))
        u = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        start = PhaseConfig(random_unit_theta(rng, n_ris))
        n_moved = 0
        for direction in (None, u / np.linalg.norm(u)):
            p_bar = float(rng.uniform(0.5, 50.0))
            for init in (start, P.discretize_binary(start)):
                for sweeps in (1, P.DEFAULT_MAX_SWEEPS):
                    out = P.refine_elementwise(phase_factor(dec, p_bar, direction),
                                               init, sweeps)
                    ref, m = _dense_refine(dec, init, p_bar, sweeps, direction)
                    assert out.alphabet == init.alphabet

                    def objective(theta):
                        tb = G.extend_theta(theta)
                        return float(np.real(tb.conj() @ m @ tb))

                    obj = objective(out.theta)
                    if init.alphabet == "binary":
                        np.testing.assert_array_equal(out.theta, ref)
                        assert obj == pytest.approx(objective(ref), rel=1e-12)
                    elif sweeps == P.DEFAULT_MAX_SWEEPS:
                        assert obj >= (1 - 1e-9) * objective(ref)
                    else:
                        assert obj >= objective(init.theta)
                    n_moved += not np.array_equal(out.theta, init.theta)
        assert n_moved > 0

    def test_binary_exhaustive_two_elements(self, rng):
        for _ in range(20):
            real = random_realization(rng, k=2, n_bs=4, n_ris=2)
            dec = G.decompose(real, range(2))
            p_bar = 5.0
            init = PhaseConfig(np.ones(2, dtype=complex), alphabet="binary")
            out = P.refine_elementwise(dec.factor(p_bar), init)
            got = G.rayleigh_objective(dec, G.extend_theta(out.theta), p_bar)
            best = max(G.rayleigh_objective(
                dec, G.extend_theta(np.array(c, dtype=complex)), p_bar)
                for c in itertools.product([-1.0, 1.0], repeat=2))
            # coordinate ascent from all-ones may stop in a local optimum,
            # but single-flip optimality must hold
            assert got <= best + 1e-12
            for n in range(2):
                flipped = out.theta.copy()
                flipped[n] = -flipped[n]
                assert G.rayleigh_objective(
                    dec, G.extend_theta(flipped), p_bar) <= got + 1e-12

    def test_continuous_fixed_point(self, rng):
        real = zero_eig_fixture(rng, k=2, n_ris=4)
        dec = G.decompose(real, range(2))
        u = P.zero_eig_direction(dec)
        aligned = P.align_phases(dec, u)
        refined = P.refine_elementwise(phase_factor(dec, 1.0, u), aligned)
        obj0 = abs(u.conj() @ dec.d_mat @ G.extend_theta(aligned.theta)) ** 2
        obj1 = abs(u.conj() @ dec.d_mat @ G.extend_theta(refined.theta)) ** 2
        assert obj1 == pytest.approx(obj0, rel=1e-9)

    def test_monotone_objective(self, rng):
        real = random_realization(rng, k=3, n_bs=5, n_ris=10)
        dec = G.decompose(real, range(3))
        p_bar = 2.0
        theta = PhaseConfig(random_unit_theta(rng, 10))
        prev = G.rayleigh_objective(dec, G.extend_theta(theta.theta), p_bar)
        for sweeps in range(1, 6):
            out = P.refine_elementwise(dec.factor(p_bar), theta, max_sweeps=sweeps)
            obj = G.rayleigh_objective(dec, G.extend_theta(out.theta), p_bar)
            assert obj >= prev - 1e-10
            prev = obj

    def test_zero_column_keeps_its_element(self, rng):
        # an all-zero column of H_c makes a zero column of D, so
        # (G^H y)_n = 0 and element n does not enter the objective
        real = random_realization(rng, k=3, n_bs=5, n_ris=10)
        real.h_cascaded[:, 4] = 0.0
        dec = G.decompose(real, range(3))
        u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        start = PhaseConfig(random_unit_theta(rng, 10))
        p_bar = 2.0
        for direction in (None, u / np.linalg.norm(u)):
            out = P.refine_elementwise(phase_factor(dec, p_bar, direction), start)
            assert out.theta[4] == start.theta[4]
            assert np.all(np.isfinite(out.theta))
            assert np.max(np.abs(np.abs(out.theta) - 1.0)) <= 1e-12
            assert not np.array_equal(out.theta, start.theta)
            if direction is None:
                def objective(theta):
                    return G.rayleigh_objective(dec, G.extend_theta(theta), p_bar)
            else:
                def objective(theta):
                    return abs(direction.conj() @ dec.d_mat @ G.extend_theta(theta)) ** 2
            assert objective(out.theta) >= objective(start.theta)

    def test_zero_d_returns_start(self, rng):
        # H_c = 0 and b orthogonal to every direct row make D = 0: every
        # theta is optimal and the start comes back unchanged
        real = random_realization(rng, k=2, n_bs=4, n_ris=6)
        real.h_cascaded[:] = 0.0
        real.h_direct[:, -1] = 0.0
        real.b_vec = np.array([0.0, 0.0, 0.0, 1.0], dtype=complex)
        dec = G.decompose(real, range(2))
        assert not np.any(dec.d_mat)
        start = PhaseConfig(random_unit_theta(rng, 6))
        for direction in (None, np.array([0.6, 0.8j])):
            out = P.refine_elementwise(phase_factor(dec, 2.0, direction), start)
            np.testing.assert_array_equal(out.theta, start.theta)

    def test_binary_init_comparison_recorded(self, rng):
        # sign-rounded continuous init vs all-ones init: record the fraction
        # where the former does at least as well (reported, not asserted)
        wins = 0
        trials = 50
        for _ in range(trials):
            real = random_realization(rng, k=3, n_bs=5, n_ris=6)
            dec = G.decompose(real, range(3))
            p_bar = 5.0
            g_mat = dec.factor(p_bar)
            cont = P.refine_elementwise(g_mat, P.heuristic_phases(g_mat))
            from_cont = P.refine_elementwise(g_mat, P.discretize_binary(cont))
            from_ones = P.refine_elementwise(
                g_mat, PhaseConfig(np.ones(6, dtype=complex), alphabet="binary"))
            o1 = G.rayleigh_objective(dec, G.extend_theta(from_cont.theta), p_bar)
            o2 = G.rayleigh_objective(dec, G.extend_theta(from_ones.theta), p_bar)
            wins += o1 >= o2 - 1e-12
        print(f"\nbinary init from continuous >= all-ones: {wins}/{trials}")

    def test_invalid_sweeps(self, rng):
        real = random_realization(rng)
        dec = G.decompose(real, range(3))
        with pytest.raises(ValueError):
            P.refine_elementwise(dec.factor(1.0), PhaseConfig(np.ones(8, dtype=complex)),
                                 max_sweeps=0)

    @pytest.mark.parametrize("sweeps", [2.5, float("nan"), True])
    def test_sweeps_must_be_integer(self, rng, sweeps):
        dec = G.decompose(random_realization(rng), range(3))
        with pytest.raises(ValueError, match="max_sweeps"):
            P.refine_elementwise(dec.factor(1.0), PhaseConfig(np.ones(8, dtype=complex)),
                                 max_sweeps=sweeps)

    @pytest.mark.parametrize("alphabet", ["continuous", "binary"])
    def test_theta_length_checked(self, rng, alphabet):
        dec = G.decompose(random_realization(rng, n_ris=8), range(3))
        with pytest.raises(ValueError, match="7 entries.*8 RIS columns"):
            P.refine_elementwise(dec.factor(1.0),
                                 PhaseConfig(np.ones(7, dtype=complex), alphabet=alphabet))

    @pytest.mark.parametrize("k", [1, 3, 6])
    @pytest.mark.parametrize("n_ris", [1, 2, 16, 64, 512])
    def test_binary_matches_list_loop(self, k, n_ris):
        # same phases as the element-by-element loop, from random +-1 starts;
        # on odd draws the middle column of G is zero and its element stays
        rng = np.random.default_rng(7000 + 100 * k + n_ris)
        n_moved = 0
        for draw in range(6):
            g_mat = (rng.standard_normal((k, n_ris + 1))
                     + 1j * rng.standard_normal((k, n_ris + 1)))
            if draw % 2:
                g_mat[:, n_ris // 2] = 0.0
            start = PhaseConfig(rng.choice([-1.0, 1.0], size=n_ris).astype(complex),
                                alphabet="binary")
            for sweeps in (1, P.DEFAULT_MAX_SWEEPS):
                out = P.refine_elementwise(g_mat, start, sweeps)
                want = _list_binary_ascent(g_mat, G.extend_theta(start.theta), sweeps)
                np.testing.assert_array_equal(out.theta, want)
                if draw % 2:
                    assert out.theta[n_ris // 2] == start.theta[n_ris // 2]
                n_moved += not np.array_equal(out.theta, start.theta)
        assert n_moved > 0

    def test_binary_exact_tie_keeps_value(self):
        # objective |theta_0 + theta_1 - theta_2|^2 + const, integer entries so
        # every c_n is exact: from (-1, 1, 1), c_0 = theta_1 - theta_2 = 0 keeps
        # theta_0, then c_1 = -2 flips theta_1, and theta_2 agrees with c_2 = 2
        g_mat = np.array([[1, 1, -1, 0], [0, 0, 0, 2]], dtype=complex)
        start = PhaseConfig(np.array([-1, 1, 1], dtype=complex), alphabet="binary")
        out = P.refine_elementwise(g_mat, start)
        np.testing.assert_array_equal(out.theta, [-1, -1, 1])
        np.testing.assert_array_equal(
            out.theta, _list_binary_ascent(g_mat, G.extend_theta(start.theta),
                                           P.DEFAULT_MAX_SWEEPS))


class TestPhaseConfig:
    def test_continuous_unit_modulus_enforced(self):
        with pytest.raises(ValueError):
            PhaseConfig(np.array([0.5 + 0j]))

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="unit modulus"):
            PhaseConfig(np.array([np.nan, 1.0]))

    def test_binary_exact_signs_enforced(self):
        with pytest.raises(ValueError):
            PhaseConfig(np.array([1j]), alphabet="binary")

    @pytest.mark.parametrize("bad", [1 + 1e-300j, np.nan, -1 + 5e-324j, 1 - 1e-16])
    def test_binary_rejects_near_signs_and_nan(self, bad):
        with pytest.raises(ValueError, match="exactly"):
            PhaseConfig(np.array([1.0, bad]), alphabet="binary")

    def test_binary_accepts_negative_zero_imaginary(self):
        theta = PhaseConfig(np.array([-1 - 0j, complex(1.0, -0.0), -1.0]),
                            alphabet="binary")
        np.testing.assert_array_equal(theta.theta, [-1, 1, -1])

    def test_random_phases_unit_modulus(self, rng):
        pc = P.random_phases(32, rng)
        assert np.max(np.abs(np.abs(pc.theta) - 1.0)) < 1e-12
