"""Losses, gradient oracles, datasets, and the finite-difference verifier."""
import math

import numpy as np
import pytest

from dpopt.core import (Dataset, DatasetCursor, StreamExhausted, ZeroLoss,
                        convexity_spot_check, erm_grad, fd_check,
                        glm_loss, huber_1d_loss, huber_mean_loss,
                        lipschitz_audit, rational_link, smoothness_audit,
                        square_link, synthetic_nonconvex_loss, tanh_link,
                        RATIONAL_L0, RATIONAL_L1)
from dpopt.core import data as data_module
from dpopt.core.data import Runs, row_norms
from dpopt.core.loss import VarWork
from dpopt.harness import gen_synthetic, synthetic


def state(rng):
    """A generator's bit generator state, comparable with == (Philox's
    holds arrays)."""
    return repr(rng.bit_generator.state)


def e(i, d):
    v = np.zeros(d)
    v[i] = 1.0
    return v


class TestHuberMeanLoss:
    def test_minimum_at_sample(self):
        loss = huber_mean_loss(1.0, 1.0, dim=3)
        w = np.zeros(3)
        x = np.zeros(3)
        assert loss.eval(w, x) == 0.0
        assert np.all(loss.grad(w, x) == 0.0)

    def test_linear_branch_gradient(self):
        # L0 = L1 = 1, x = 0, w = 2 e1 lies outside B = 1: grad = e1
        loss = huber_mean_loss(1.0, 1.0, dim=4)
        g = loss.grad(2.0 * e(0, 4), np.zeros(4))
        assert np.allclose(g, e(0, 4), atol=1e-15)
        assert np.linalg.norm(g) == pytest.approx(loss.L0, rel=1e-15)

    def test_quadratic_branch_gradient(self):
        # L0 = 1, L1 = 2: B = 0.5; w = 0.25 e1 inside: grad = L1 (w - x) = 0.5 e1
        loss = huber_mean_loss(1.0, 2.0, dim=4)
        g = loss.grad(0.25 * e(0, 4), np.zeros(4))
        assert np.allclose(g, 0.5 * e(0, 4), atol=1e-15)

    def test_seam_continuity(self):
        loss = huber_mean_loss(1.3, 0.8, dim=2)
        x = np.array([0.1, -0.2])
        u = np.array([0.6, 0.8])
        for s in (-1e-9, 0.0, 1e-9):
            inner = loss.eval(x + (loss.B + s) * u, x)
            assert inner == pytest.approx(loss.L0 ** 2 / (2 * loss.L1), rel=1e-6)

    def test_erm_grad_zero_at_mean(self):
        S = gen_synthetic("huber_cluster", 100, 10, seed=1, B=1.0)
        loss = huber_mean_loss(1.0, 1.0, dim=10)
        mean = S.X.mean(axis=0)
        assert np.linalg.norm(erm_grad(loss, mean, S)) <= 1e-10

    def test_erm_grad_linear_in_quadratic_region(self):
        # all samples inside B/4 and ||w - mean|| = B/2: every sample is in the
        # quadratic branch, so the ERM gradient is exactly L1 (w - mean)
        S = gen_synthetic("huber_cluster", 50, 6, seed=2, B=1.0)
        loss = huber_mean_loss(1.0, 1.0, dim=6)
        mean = S.X.mean(axis=0)
        rng = np.random.default_rng(3)
        for _ in range(20):
            u = rng.standard_normal(6)
            w = mean + (loss.B / 2) * u / np.linalg.norm(u)
            g = erm_grad(loss, w, S)
            assert np.max(np.abs(g - loss.L1 * (w - mean))) <= 1e-12

    def test_batch_matches_single(self):
        loss = huber_mean_loss(0.9, 1.7, dim=3)
        rng = np.random.default_rng(4)
        X = rng.standard_normal((11, 3)) * 2.0
        w = rng.standard_normal(3)
        single = np.mean([loss.grad(w, X[i]) for i in range(11)], axis=0)
        assert np.allclose(loss.grad_mean(w, X), single, atol=1e-14)

    def test_rejects_nonpositive_constants(self):
        with pytest.raises(ValueError):
            huber_mean_loss(0.0, 1.0)
        with pytest.raises(ValueError):
            huber_mean_loss(1.0, -1.0)


class TestHuber1D:
    def test_population_stationary_point(self):
        loss = huber_1d_loss(1.0, 1.0, 0.4, -1)
        w_star = -loss.L0 * loss.v * loss.p / (2.0 * loss.L1)
        assert abs(loss.population_grad(np.array([w_star]))[0]) <= 1e-15

    def test_population_grad_p_zero(self):
        loss = huber_1d_loss(1.0, 1.0, 0.0, 1)
        for w in (-0.5, -0.2, 0.0, 0.3, 0.5):
            assert loss.population_grad(np.array([w]))[0] == pytest.approx(w, abs=1e-15)

    def test_sampler_concentration(self):
        loss = huber_1d_loss(1.0, 1.0, 0.0, 1)
        S = loss.sample(10 ** 5, np.random.default_rng(5))
        assert set(np.unique(S.X)) <= {-1.0, 1.0}
        assert abs(float(S.X.mean())) <= 3.0 / math.sqrt(10 ** 5)

    def test_sampler_bias(self):
        loss = huber_1d_loss(1.0, 1.0, 0.5, 1)
        S = loss.sample(10 ** 5, np.random.default_rng(6))
        assert float(S.X.mean()) == pytest.approx(0.5, abs=4.0 / math.sqrt(10 ** 5))

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            huber_1d_loss(1.0, 1.0, 1.2, 1)
        with pytest.raises(ValueError):
            huber_1d_loss(1.0, 1.0, 0.5, 2)


class TestGLM:
    def test_zero_feature(self):
        loss = glm_loss(square_link(), 1.0, 1.0, 1.0, 3)
        for w in (np.zeros(3), np.array([1.0, -2.0, 0.5])):
            assert np.all(loss.grad(w, np.zeros(3)) == 0.0)

    def test_square_link_hand_value(self):
        # phi(z) = z^2/2 on S = {e1}: grad(w) = <w, x> x; w = 2 e1 gives 2 e1
        loss = glm_loss(square_link(), 4.0, 1.0, 1.0, 5)
        S = Dataset(e(0, 5)[None, :])
        g = erm_grad(loss, 2.0 * e(0, 5), S)
        assert np.allclose(g, 2.0 * e(0, 5), atol=1e-15)

    def test_tanh_zero_at_origin(self):
        loss = glm_loss(tanh_link(), 1.0, 1.0, 1.0, 4)
        assert np.all(loss.grad(np.zeros(4), 0.3 * e(1, 4)) == 0.0)

    def test_tanh_hand_value(self):
        loss = glm_loss(tanh_link(), 1.0, 1.0, 1.0, 4)
        g = loss.grad(e(0, 4), e(0, 4))
        assert np.allclose(g, math.tanh(1.0) * e(0, 4), atol=1e-15)
        assert g[0] == pytest.approx(0.7616, abs=1e-4)

    def test_declared_constants(self):
        loss = glm_loss(tanh_link(), 1.0, 1.0, 0.5, 4)
        assert loss.L0 == pytest.approx(0.5)
        assert loss.L1 == pytest.approx(0.25)

    def test_bind_time_norm_rejection(self):
        loss = glm_loss(tanh_link(), 1.0, 1.0, 1.0, 3)
        S = Dataset(np.array([[1.5, 0.0, 0.0]]))
        with pytest.raises(ValueError, match="feature norm"):
            loss.validate_dataset(S)

    def test_single_sample_average(self):
        loss = glm_loss(tanh_link(), 1.0, 1.0, 2.0, 3)
        x = np.array([0.3, -1.1, 0.7])
        S = Dataset(x[None, :])
        w = np.array([0.2, 0.1, -0.4])
        assert np.array_equal(erm_grad(loss, w, S), loss.grad(w, x))

    def test_labels_shift_link(self):
        loss = glm_loss(square_link(), 4.0, 1.0, 1.0, 2)
        x = np.array([1.0, 0.0])
        w = np.array([0.5, 0.0])
        assert loss.grad(w, x, y=0.5)[0] == pytest.approx(0.0, abs=1e-15)
        assert loss.grad(w, x, y=0.2)[0] == pytest.approx(0.3, rel=1e-12)


class TestGradVar:
    """grad_var on a run axis: row r is grad_mean(W[r]) - grad_mean(W_prev[r])
    on batch r."""

    @pytest.mark.parametrize("R", [1, 3])
    @pytest.mark.parametrize("labelled", [True, False])
    @pytest.mark.parametrize("make", [synthetic_nonconvex_loss,
                                      lambda d: glm_loss(tanh_link(), 1.0, 1.0, 1.0, d)],
                             ids=["rational", "tanh"])
    def test_fused_glm_matches_two_grad_means(self, R, labelled, make):
        rng = np.random.default_rng(R + 10 * labelled)
        loss = make(5)
        X = rng.standard_normal((R, 17, 5)) / 3.0
        Y = rng.standard_normal((R, 17)) if labelled else None
        W, W_prev = rng.standard_normal((R, 5)), rng.standard_normal((R, 5))
        got = loss.grad_var(W, W_prev, X, Y)
        assert got.shape == (R, 5)
        for r in range(R):
            y = None if Y is None else Y[r]
            want = loss.grad_mean(W[r], X[r], y) - loss.grad_mean(W_prev[r], X[r], y)
            assert np.max(np.abs(got[r] - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_work_carved_from_one_buffer_for_two_shapes(self):
        # tree Spider's right children: sub-groups of other shapes take their
        # buffers from the front of one flat array, one call at a time
        rng = np.random.default_rng(5)
        loss = synthetic_nonconvex_loss(4)
        buf = np.empty(VarWork.entries(3, 9, 4))
        for R, b in ((3, 9), (2, 5), (3, 9)):
            X = rng.standard_normal((R, b, 4)) / 3.0
            Y = rng.standard_normal((R, b))
            W, W_prev = rng.standard_normal((R, 4)), rng.standard_normal((R, 4))
            work = VarWork(R, b, 4, buf)
            got = loss.grad_var(W, W_prev, X, Y, work)
            assert got is work.out and np.shares_memory(got, buf)
            assert got.tobytes() == loss.grad_var(W, W_prev, X, Y).tobytes()
        with pytest.raises(ValueError, match="flat float64 buffer of 237 entries"):
            VarWork(3, 9, 4, buf[:-1])

    def test_default_is_the_two_grad_means(self):
        rng = np.random.default_rng(4)
        loss = huber_mean_loss(1.0, 1.0, dim=3)
        X = rng.standard_normal((2, 9, 3))
        W, W_prev = rng.standard_normal((2, 3)), rng.standard_normal((2, 3))
        got = loss.grad_var(W, W_prev, X)
        for r in range(2):
            assert np.array_equal(got[r], loss.grad_mean(W[r], X[r])
                                  - loss.grad_mean(W_prev[r], X[r]))


class TestGradCounts:
    """grad_counts on a run axis: row r is the mean over a batch that holds
    support row j C[r, j] times, of the gradient at W[r] or of its variation
    from W_prev[r]."""

    @staticmethod
    def counted(rng, R=3, m=7, size=40):
        X = rng.standard_normal((m, 5)) / 3.0
        C = rng.multinomial(size, np.full(m, 1.0 / m), size=R)
        return X, C, size

    @pytest.mark.parametrize("link", ["tanh", "square", "rational"])
    @pytest.mark.parametrize("labelled", [True, False])
    @pytest.mark.parametrize("var", [False, True], ids=["grad", "variation"])
    def test_glm_matches_the_per_sample_sum_with_a_lone_runs_bits(self, link, labelled, var):
        rng = np.random.default_rng(len(link) + 10 * labelled + 100 * var)
        loss = glm_loss(FORMULAS[link][0](), 1.0, 1.0, 1.0, 5)
        X, C, size = self.counted(rng)
        Y = rng.standard_normal(len(X)) if labelled else None
        W = rng.standard_normal((3, 5))
        W_prev = rng.standard_normal((3, 5)) if var else None
        got = loss.grad_counts(W, X, Y, C, size, W_prev)
        assert got.shape == (3, 5)
        for r in range(3):
            want = sum(C[r, j] * (loss.grad(W[r], X[j], None if Y is None else Y[j])
                                  - (0.0 if W_prev is None else
                                     loss.grad(W_prev[r], X[j], None if Y is None else Y[j])))
                       for j in range(len(X))) / size
            assert np.max(np.abs(got[r] - want)) <= 1e-13 * np.max(np.abs(want))
            alone = loss.grad_counts(W[r:r + 1], X, Y, C[r:r + 1], size,
                                     None if W_prev is None else W_prev[r:r + 1])
            assert alone.tobytes() == got[r:r + 1].tobytes()

    @pytest.mark.parametrize("var", [False, True], ids=["grad", "variation"])
    def test_default_expands_the_counts_to_rows_in_support_order(self, var):
        # a loss without a counted kernel (the Huber mean loss) takes its
        # batch means on the rows the counts stand for
        rng = np.random.default_rng(6 + var)
        loss = huber_mean_loss(1.0, 1.0, dim=5)
        X, C, size = self.counted(rng)
        W, W_prev = rng.standard_normal((3, 5)), rng.standard_normal((3, 5))
        got = loss.grad_counts(W, X, None, C, size, W_prev if var else None)
        for r in range(3):
            rows = X[np.repeat(np.arange(len(X)), C[r])]
            want = loss.grad_mean(W[r], rows)
            if var:
                want = want - loss.grad_mean(W_prev[r], rows)
            assert got[r].tobytes() == want.tobytes()


class TestRunAxisGrad:
    """GLMLoss.grad on a run axis: row r is grad(W[r], X[r], Y[r]), and a
    row's bits do not depend on the rows beside it."""

    @pytest.mark.parametrize("link", ["tanh", "square", "rational"])
    @pytest.mark.parametrize("labelled", [True, False])
    def test_rows_match_single_sample_grad(self, link, labelled):
        rng = np.random.default_rng(len(link) + 10 * labelled)
        loss = glm_loss(FORMULAS[link][0](), 1.0, 1.0, 1.0, 16)
        W = rng.standard_normal((5, 16))
        X = rng.standard_normal((5, 16)) / 5.0
        Y = rng.standard_normal(5) if labelled else None
        got = loss.grad(W, X, Y)
        assert got.shape == (5, 16)
        for r in range(5):
            want = loss.grad(W[r], X[r], None if Y is None else Y[r])
            assert np.max(np.abs(got[r] - want)) <= 1e-15 * np.max(np.abs(want))
            alone = loss.grad(W[r:r + 1], X[r:r + 1], None if Y is None else Y[r:r + 1])
            assert alone.tobytes() == got[r:r + 1].tobytes()


def rational_slope(r):
    d = 1.0 + r * r
    return 2.0 * r / (d * d)


# each link's slope as an allocating formula on r = z - y; the in-place
# kernels must give these bits
FORMULAS = {"rational": (rational_link, rational_slope),
            "tanh": (tanh_link, np.tanh),
            "square": (square_link, lambda r: r)}


def labels_for(z, rng):
    """Labels as the kernels pass them: (n,) with z of shape (n,), and a
    trailing axis of 1 for the (R, b, 2) and (n, block) products."""
    if np.ndim(z) == 0:
        return np.float64(rng.standard_normal())
    y = rng.standard_normal(z.shape[:-1] + (1,) if z.ndim > 1 else z.shape)
    y.flat[:7] = 0.0
    return y


class TestOwnedSlopes:
    """Slopes are computed in a residual buffer the link owns, with the
    allocating formula's bits and without touching the caller's z."""

    @pytest.mark.parametrize("link", list(FORMULAS))
    @pytest.mark.parametrize("shape", [(5, 9, 2), (37,), (37, 4), ()],
                             ids=["runs", "n", "n_block", "scalar"])
    @pytest.mark.parametrize("labelled", [True, False])
    def test_same_bits_as_the_allocating_formula(self, link, shape, labelled):
        make, formula = FORMULAS[link]
        rng = np.random.default_rng(len(shape) + 10 * labelled)
        if shape:
            z = rng.standard_normal(shape) * 3.0
            z.flat[:7] = [0.0, -0.0, 1e200, 1e308, 1e-310, math.nan, -math.inf]
        else:
            z = np.float64(rng.standard_normal() * 3.0)
        y = labels_for(z, rng) if labelled else None
        before = np.array(z, copy=True)
        with np.errstate(all="ignore"):
            want = formula(z if y is None else z - y)
            got = make().slope(z, y)
            owned = make().slope_into(np.array(z, copy=True) if shape else z, y)
        assert np.array(z).tobytes() == before.tobytes()  # z untouched
        for out in (got, owned):
            assert np.shape(out) == np.shape(want)
            assert np.asarray(out).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("link", list(FORMULAS))
    @pytest.mark.parametrize("shape", [(5, 9, 2), (37,), ()], ids=["runs", "n", "scalar"])
    @pytest.mark.parametrize("labelled", [True, False])
    def test_den_buffer_gives_the_allocating_bits(self, link, shape, labelled):
        # a caller-owned denominator buffer of z's shape changes no bit
        make, formula = FORMULAS[link]
        rng = np.random.default_rng(7 + len(shape) + 10 * labelled)
        if shape:
            z = rng.standard_normal(shape) * 3.0
            z.flat[:7] = [0.0, -0.0, 1e200, 1e308, 1e-310, math.nan, -math.inf]
        else:
            z = np.float64(rng.standard_normal() * 3.0)
        y = labels_for(z, rng) if labelled else None
        with np.errstate(all="ignore"):
            want = formula(z if y is None else z - y)
            got = make().slope_into(np.array(z, copy=True) if shape else z, y,
                                    np.full(shape, np.nan))
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_den_buffer_makes_no_temporary(self):
        import tracemalloc
        slope_into = rational_link().slope_into
        z, den = np.linspace(-3.0, 3.0, 2 ** 15), np.empty(2 ** 15)
        slope_into(z.copy(), None, den)  # warm
        tracemalloc.start()
        try:
            slope_into(z, None, den)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < z.nbytes / 2

    @pytest.mark.parametrize("link", list(FORMULAS))
    def test_slope_without_labels_leaves_z_alone(self, link):
        z = np.linspace(-3.0, 3.0, 41)
        before = z.copy()
        s = FORMULAS[link][0]().slope(z, None)
        assert np.array_equal(z, before)
        assert not np.shares_memory(s, z)

    @pytest.mark.parametrize("labelled", [True, False])
    def test_batch_kernels_same_bits_as_allocating_formulas(self, labelled):
        rng = np.random.default_rng(labelled)
        loss = synthetic_nonconvex_loss(5)
        X = rng.standard_normal((3, 11, 5)) / 3.0
        Y = rng.standard_normal((3, 11)) if labelled else None
        W, W_prev = rng.standard_normal((3, 5)), rng.standard_normal((3, 5))
        WW = np.stack([W, W_prev], axis=2)
        r = X @ WW if Y is None else X @ WW - Y[:, :, None]
        s = rational_slope(r)
        want = ((s[:, :, 0] - s[:, :, 1])[:, None, :] @ X)[:, 0, :] / 11
        assert loss.grad_var(W, W_prev, X, Y).tobytes() == want.tobytes()
        r = (X @ W[:, :, None])[:, :, 0]
        s = rational_slope(r if Y is None else r - Y)
        want = (s[:, None, :] @ X)[:, 0, :] / 11
        assert loss.grad_mean_rows(W, X, Y).tobytes() == want.tobytes()
        y = None if Y is None else Y[0]
        s = rational_slope(X[0] @ W[0] if y is None else X[0] @ W[0] - y)
        want = (X[0].T @ s) / 11
        assert loss.grad_mean(W[0], X[0], y).tobytes() == want.tobytes()


class TestSyntheticNonconvex:
    def test_declared_constants_match_numeric_maximization(self):
        # the hard-coded sup |phi'| and sup |phi''| are re-derived numerically
        link = rational_link()
        z = np.linspace(-30.0, 30.0, 1_200_001)
        slopes = link.slope(z, None)
        num_l0 = float(np.max(np.abs(slopes)))
        num_l1 = float(np.max(np.abs(np.diff(slopes) / np.diff(z))))
        assert num_l0 == pytest.approx(RATIONAL_L0, abs=1e-9)
        assert RATIONAL_L0 >= num_l0 - 1e-12
        assert num_l1 <= RATIONAL_L1 + 1e-6
        assert num_l1 == pytest.approx(RATIONAL_L1, abs=1e-4)
        # analytic critical point of phi': r = 1/sqrt(3)
        assert abs(link.slope(np.float64(1 / math.sqrt(3)), None)) == pytest.approx(
            RATIONAL_L0, rel=1e-15)

    def test_origin_stationary_without_labels(self):
        loss = synthetic_nonconvex_loss(5)
        rng = np.random.default_rng(7)
        for _ in range(10):
            x = rng.standard_normal(5)
            x /= 2 * np.linalg.norm(x)
            assert np.all(loss.grad(np.zeros(5), x) == 0.0)

    def test_gap_hint_is_valid(self):
        # 0 <= phi < 1 pointwise, so any empirical gap is below the hint
        loss = synthetic_nonconvex_loss(4)
        S = gen_synthetic("glm_fullrank", 64, 4, seed=8, label_scale=0.7)
        for x, y in zip(S.X, S.y):
            assert 0.0 <= loss.eval(np.zeros(4), x, y) < loss.F0_hint

    def test_nonconvex_flag_and_spot_check(self):
        loss = synthetic_nonconvex_loss(3)
        assert not loss.convex
        with pytest.raises(ValueError, match="convexity"):
            convexity_spot_check(loss, probes=200, seed=0)


class TestFdCheck:
    @pytest.mark.parametrize("make", [
        lambda: huber_mean_loss(1.0, 1.0, dim=4),
        lambda: huber_mean_loss(2.0, 0.5, dim=3),
        lambda: huber_1d_loss(1.0, 1.0, 0.3, 1),
        lambda: glm_loss(tanh_link(), 1.0, 1.0, 1.0, 5),
        lambda: glm_loss(square_link(), 4.0, 1.0, 1.0, 4),
        lambda: synthetic_nonconvex_loss(6),
    ])
    def test_all_losses_pass(self, make):
        rep = fd_check(make(), probes=100, h=1e-5, seed=0)
        assert rep.max_rel_err <= 1e-5
        assert rep.probe_count == 100

    def test_detects_corrupted_gradient(self):
        loss = huber_mean_loss(1.0, 1.0, dim=3)

        class Corrupted(type(loss)):
            def grad(self, w, x, y=None):
                return super().grad(w, x, y) + 0.1

        bad = Corrupted(1.0, 1.0, dim=3)
        assert fd_check(bad, probes=20, seed=0).max_rel_err > 1e-2

    def test_rejects_bad_h(self):
        with pytest.raises(ValueError):
            fd_check(huber_mean_loss(1.0, 1.0, dim=2), probes=5, h=0.0)


class TestRegularityAudits:
    @pytest.mark.parametrize("make", [
        lambda: huber_mean_loss(1.0, 1.0, dim=4),
        lambda: huber_1d_loss(1.5, 0.7, 0.2, -1),
        lambda: glm_loss(tanh_link(), 1.0, 1.0, 1.0, 5),
        lambda: synthetic_nonconvex_loss(5),
    ])
    def test_audits_respect_declared_constants(self, make):
        loss = make()
        assert lipschitz_audit(loss, pairs=1000, seed=1) <= loss.L0 * (1 + 1e-8)
        assert smoothness_audit(loss, pairs=1000, seed=2) <= loss.L1 * (1 + 1e-8)


class TestErmGrad:
    def test_dimension_mismatch_rejected(self):
        loss = huber_mean_loss(1.0, 1.0, dim=3)
        S = Dataset(np.zeros((4, 3)))
        with pytest.raises(ValueError):
            erm_grad(loss, np.zeros(2), S)

    def test_zero_loss(self):
        S = Dataset(np.ones((5, 2)))
        assert np.all(erm_grad(ZeroLoss(2), np.ones(2), S) == 0.0)

    @pytest.mark.parametrize("n,P,d", [(4096, 19, 6), (100, 3, 6), (2 ** 16, 2, 6),
                                       (8192, 200, 95)],
                             ids=["4096-19", "100-3", "65536-2", "8192-200-95"])
    def test_glm_blocks_match_erm_grad(self, n, P, d):
        # row chunks of 1724 (two full, one partial), 10922 (n below one
        # chunk), 16384 (four full) and 163 (a trace at the JL base's width)
        loss = synthetic_nonconvex_loss(d)
        S = gen_synthetic("glm_fullrank", n, d, seed=n, label_scale=0.5)
        W = np.random.default_rng(P).standard_normal((P, d))
        got = loss.erm_grads(W, S)
        for w, g in zip(W, got):
            want = erm_grad(loss, w, S)
            assert np.max(np.abs(g - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("link", ["rational", "tanh"])
    @pytest.mark.parametrize("labelled", [True, False])
    @pytest.mark.parametrize("n,P", [(4096, 19), (100, 3), (2 ** 15 + 3, 2), (1000, 300)])
    def test_glm_blocks_same_bits_as_blockwise_formula(self, link, labelled, n, P):
        # point blocks of at most 256, each summing X_c^T @ slope(X_c @ W^T)
        # from zero over row chunks of 2**15 // p: chunks of 1724 (the last
        # partial), 10922 (n below one chunk), 16384 (a 3-row last chunk),
        # and P = 300 as blocks of 256 and 44 with chunks of 128 and 744
        make, formula = FORMULAS[link]
        loss = glm_loss(make(), 1.0, 1.0, 1.0, 16)
        S = gen_synthetic("glm_fullrank", n, 16, seed=n,
                          **({"label_scale": 0.5} if labelled else {}))
        assert (S.y is not None) == labelled
        W = np.random.default_rng(P).standard_normal((P, 16))
        want = np.empty_like(W)
        for i in range(0, P, 256):
            Wb = W[i:i + 256]
            rows = 2 ** 15 // len(Wb)
            total = np.zeros((16, len(Wb)))
            for c in range(0, n, rows):
                Xc = S.X[c:c + rows]
                r = Xc @ Wb.T
                total += Xc.T @ formula(r if S.y is None else r - S.y[c:c + rows, None])
            want[i:i + 256] = (total / n).T
        assert loss.erm_grads(W, S).tobytes() == want.tobytes()

    def test_glm_blocks_python_peak_memory(self):
        # a 512 KB workspace (product and slope denominator) and (d, P)
        # sums; an n x P product would be 52 MB
        import tracemalloc
        loss = glm_loss(rational_link(), 1.0, 1.0, 1.0, 16)
        S = gen_synthetic("glm_fullrank", 2 ** 15 + 3, 16, seed=3, label_scale=0.5)
        W = np.random.default_rng(0).standard_normal((200, 16))
        tracemalloc.start()
        try:
            loss.erm_grads(W, S)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_empty_dataset_rejected(self):
        loss = synthetic_nonconvex_loss(3)
        S = Dataset(np.zeros((0, 3)), np.zeros(0))
        with pytest.raises(ValueError, match="no rows"):
            erm_grad(loss, np.zeros(3), S)
        with pytest.raises(ValueError, match="no rows"):
            loss.erm_grads(np.zeros((2, 3)), S)

    def test_glm_blocks_check_shapes_and_domain(self):
        loss = synthetic_nonconvex_loss(3)
        S = gen_synthetic("glm_fullrank", 10, 3, seed=0)
        with pytest.raises(ValueError, match="shape"):
            loss.erm_grads(np.zeros(3), S)
        with pytest.raises(ValueError, match="exceeds"):
            loss.erm_grads(np.zeros((2, 3)), Dataset(np.full((4, 3), 5.0)))


class TestDataset:
    def test_slicing_deterministic_and_disjoint(self):
        X = np.arange(24, dtype=float).reshape(8, 3)
        ds = Dataset(X, np.arange(8, dtype=float))
        a = ds.slice(0, 3)
        b = ds.slice(3, 8)
        assert np.array_equal(a.X, X[:3]) and np.array_equal(b.X, X[3:])
        assert np.array_equal(ds.slice(0, 3).X, a.X)
        assert a.n + b.n == ds.n

    def test_cursor_yields_each_sample_once(self):
        ds = Dataset(np.arange(10, dtype=float)[:, None])
        cur = DatasetCursor(ds)
        seen = []
        for k in (3, 3, 4):
            seen.extend(cur.take(k).X[:, 0].tolist())
        assert seen == list(range(10))
        assert cur.remaining == 0
        with pytest.raises(StreamExhausted, match="requested 1 samples, 0 remain"):
            cur.take(1)
        with pytest.raises(ValueError, match="k must be non-negative"):
            cur.take(-1)
        # a refused take consumes nothing
        cur = DatasetCursor(ds, start=4)
        with pytest.raises(StreamExhausted, match="requested 7 samples, 6 remain"):
            cur.take(7)
        with pytest.raises(ValueError):
            cur.take(-1)
        assert cur.consumed == 4 and cur.take(6).X[:, 0].tolist() == list(range(4, 10))

    def test_immutable(self):
        ds = Dataset(np.ones((2, 2)))
        with pytest.raises(ValueError):
            ds.X[0, 0] = 5.0

    def test_view_of_writeable_buffer_is_copied(self):
        # a later write to the caller's buffer reaches neither X and y nor
        # the cached norm bound that validated them
        buf, labels = np.full((20, 2), 0.25), np.zeros(20)
        ds = Dataset(buf[:10], labels[:10])
        loss = glm_loss(tanh_link(), 1.0, 1.0, 1.0, 2)
        loss.validate_dataset(ds)
        buf[:10] *= 100.0
        labels[:10] = 5.0
        assert np.all(ds.X == 0.25) and np.all(ds.y == 0.0)
        assert ds.max_feature_norm() == float(np.max(np.linalg.norm(ds.X, axis=1)))
        loss.validate_dataset(ds)
        frozen_view = buf[10:]
        frozen_view.setflags(write=False)  # the view is read-only, its base is not
        assert not np.shares_memory(Dataset(frozen_view).X, buf)
        raw = bytearray(np.ones(4).tobytes())
        assert not np.shares_memory(Dataset(np.frombuffer(raw).reshape(2, 2)).X,
                                    np.frombuffer(raw))

    def test_owners_and_views_of_frozen_memory_are_not_copied(self):
        X, y = np.ones((6, 2)), np.zeros(6)
        ds = Dataset(X, y)
        assert ds.X is X and ds.y is y  # frozen in place
        assert not X.flags.writeable and not y.flags.writeable
        for view in (ds.slice(1, 4), Dataset(X[2:5], y[2:5])):
            assert np.shares_memory(view.X, X) and np.shares_memory(view.y, y)
        S = gen_synthetic("glm_fullrank", 8, 3, seed=0, label_scale=0.5)
        assert S.X.base is None and S.y.base is None

    def test_replace_sample(self):
        ds = Dataset(np.zeros((3, 2)), np.zeros(3))
        swapped = ds.replace_sample(1, np.array([1.0, 2.0]), y=7.0)
        assert np.array_equal(swapped.X[1], [1.0, 2.0])
        assert swapped.y[1] == 7.0
        assert np.all(ds.X[1] == 0.0)

    def test_max_feature_norm_cached_per_instance(self):
        rng = np.random.default_rng(11)
        ds = Dataset(rng.standard_normal((9, 4)) / 4.0, rng.standard_normal(9))
        copies = [ds, ds.slice(2, 7), ds.subset(np.array([0, 3, 3, 8])),
                  ds.replace_sample(4, np.full(4, 0.9))]
        for c in copies:
            fresh = float(np.max(np.linalg.norm(c.X, axis=1)))
            assert c.max_feature_norm() == fresh
            assert c.max_feature_norm() == fresh  # second call: the cached value
        # the parent's cached bound must not carry over to a neighbor whose
        # swapped-in row breaks the declared norm
        loss = glm_loss(tanh_link(), 1.0, 1.0, 1.0, 4)
        loss.validate_dataset(ds)
        with pytest.raises(ValueError, match="feature norm"):
            loss.validate_dataset(ds.replace_sample(0, np.full(4, 1.0)))

    def test_row_norms_in_blocks_match_linalg_norm(self, monkeypatch):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((37, 5))
        want = np.linalg.norm(X, axis=1)
        assert np.array_equal(row_norms(X), want)
        monkeypatch.setattr(data_module, "_NORM_BLOCK_ENTRIES", 12)  # 2 rows a block
        assert np.array_equal(row_norms(X), want)
        assert Dataset(X).max_feature_norm() == float(np.max(want))

    def test_indexed_rows_labels_and_norm_equal_subset(self):
        rng = np.random.default_rng(13)
        support = Dataset(rng.standard_normal((11, 4)) / 4.0, rng.standard_normal(11))
        idx = rng.integers(0, 11, 40)
        ds, ref = Dataset.indexed(support, idx), support.subset(idx)
        assert ds.n == len(ds) == 40 and ds.dim == 4
        assert ds.labelled and ds.slice(0, 5).labelled
        assert ds._y is None  # `labelled` gathers no labels
        assert not Dataset.indexed(Dataset(support.X), idx).labelled
        assert np.array_equal(ds.X, ref.X) and np.array_equal(ds.y, ref.y)
        assert ds.max_feature_norm() == ref.max_feature_norm()
        assert not ds.X.flags.writeable and not ds.y.flags.writeable
        unlabelled = Dataset.indexed(Dataset(support.X), idx)
        assert unlabelled.y is None and np.array_equal(unlabelled.X, ref.X)
        with pytest.raises(ValueError, match="out of range"):
            Dataset.indexed(support, np.array([0, 11]))

    def test_indexed_slices_and_subsets_compose(self):
        rng = np.random.default_rng(14)
        support = Dataset(rng.standard_normal((9, 3)), rng.standard_normal(9))
        idx = rng.integers(0, 9, 30)
        ds, ref = Dataset.indexed(support, idx), support.subset(idx)
        views = [(ds.slice(5, 25).slice(3, 12), ref.slice(5, 25).slice(3, 12)),
                 (ds.slice(2, 20).subset(np.array([4, 0, 4])),
                  ref.slice(2, 20).subset(np.array([4, 0, 4]))),
                 (DatasetCursor(ds, 7).take(6), DatasetCursor(ref, 7).take(6)),
                 (ds.slice(4, 4), ref.slice(4, 4))]
        for got, want in views:
            assert np.array_equal(got.X, want.X) and np.array_equal(got.y, want.y)
            assert got.max_feature_norm() == want.max_feature_norm()
        neighbor = ds.replace_sample(0, np.full(3, 9.0), y=1.5)
        assert neighbor.X[0, 0] == 9.0 and neighbor.y[0] == 1.5
        assert np.array_equal(neighbor.X[1:], ref.X[1:])

    def test_indexed_slices_and_takes_view_the_checked_index(self):
        rng = np.random.default_rng(15)
        support = Dataset(rng.standard_normal((7, 3)), rng.standard_normal(7))
        idx = rng.integers(0, 7, 50)
        ds = Dataset.indexed(support, idx)
        cursor = DatasetCursor(ds.slice(10, 50))
        views = [(ds.slice(4, 44).slice(6, 30).slice(2, 20), idx[12:30]),
                 (cursor.take(1), idx[10:11]), (cursor.take(9), idx[11:20]),
                 (DatasetCursor(ds.slice(3, 9).slice(1, 6)).take(5), idx[4:9])]
        for got, rows in views:
            want = support.subset(rows)
            assert np.array_equal(got.X, want.X) and np.array_equal(got.y, want.y)
            assert not got.X.flags.writeable and not got.y.flags.writeable
            assert np.shares_memory(got.indices(), ds.indices())  # a view, not a copy
        for bad in ([7], [0, -1]):
            with pytest.raises(ValueError, match="out of range"):
                Dataset.indexed(support, np.array(bad))
        with pytest.raises(IndexError):
            ds.subset(np.array([50]))
        with pytest.raises(IndexError):
            ds.slice(4, 44).subset(np.array([3, 40]))
        idx[12] = 7  # a write to the caller's array misses the checked copy
        assert ds.indices()[12] != 7

    @pytest.mark.parametrize("bitgen", [np.random.Philox, np.random.PCG64])
    @pytest.mark.parametrize("m, dtype", [(7, np.uint8), (255, np.uint8), (256, np.uint8),
                                          (1000, np.uint16), (65537, np.uint32)])
    def test_compact_sample_equals_one_shot_draw(self, monkeypatch, bitgen, m, dtype):
        # blocks of 1000 draws, and k = 2500 leaves a short last block
        monkeypatch.setattr(synthetic, "INDEX_DRAW_BLOCK", 1000)
        one_shot, blocked = (np.random.Generator(bitgen(21)) for _ in range(2))
        want = one_shot.integers(0, m, 2500)
        got = synthetic.uniform_indices(m, 2500, blocked)
        assert got.dtype == dtype and np.array_equal(got, want)
        assert one_shot.integers(0, 2 ** 40) == blocked.integers(0, 2 ** 40)  # same state

    def test_compact_sample_keeps_its_dtype(self):
        rng = np.random.default_rng(16)
        support = Dataset(rng.standard_normal((256, 3)) / 4.0, rng.standard_normal(256))
        ds = synthetic.FiniteSupportDistribution(support).sample(300, rng)
        ref = support.subset(ds.indices().astype(np.int64))
        views = [ds, ds.slice(10, 200), ds.slice(10, 200).subset(np.array([5, 0, 5])),
                 DatasetCursor(ds, 7).take(40), Dataset.indexed(ds, np.arange(20, 60))]
        for got in views:
            assert got.indices().dtype == np.uint8 and not got.indices().flags.writeable
        for got, want in zip(views[1:3], [ref.slice(10, 200),
                                          ref.slice(10, 200).subset(np.array([5, 0, 5]))]):
            assert np.array_equal(got.X, want.X) and np.array_equal(got.y, want.y)
            assert got.max_feature_norm() == want.max_feature_norm()
        assert Dataset.indexed(support, [1, 2]).n == 2  # a list still becomes an index

    def test_indexed_norm_bound_makes_no_sample_length_temporary(self):
        import tracemalloc
        rng = np.random.default_rng(17)
        support = Dataset(rng.standard_normal((256, 16)))
        ds = synthetic.FiniteSupportDistribution(support).sample(2 ** 20, rng)
        want = float(np.max(np.linalg.norm(support.X, axis=1)[np.unique(ds.indices())]))
        tracemalloc.start()
        try:
            got = ds.max_feature_norm()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # blocks of 2^16 indices: an intp block of 512 KB, not 8 MB of norms
        assert got == want and peak < 2 ** 20

    def test_indexed_row_above_bound_fails_validation(self):
        X = np.full((4, 2), 0.5)
        X[2] = [1.0, 1.0]  # norm sqrt(2) > normX = 1
        support = Dataset(X)
        loss = glm_loss(tanh_link(), 1.0, 1.0, 1.0, 2)
        loss.validate_dataset(Dataset.indexed(support, np.array([0, 1, 3, 3])))
        bad = Dataset.indexed(support, np.array([0, 3, 2, 1]))
        with pytest.raises(ValueError, match="feature norm"):
            loss.validate_dataset(bad)
        with pytest.raises(ValueError, match="feature norm"):
            loss.validate_dataset(bad.slice(1, 3))
        loss.validate_dataset(bad.slice(3, 4))

    def test_validation_within_the_support_bound_reads_no_index(self):
        rng = np.random.default_rng(18)
        support = Dataset(rng.standard_normal((64, 3)) / 4.0, rng.standard_normal(64))
        loss = glm_loss(tanh_link(), 1.0, 1.0, 1.0, 3)
        ds = synthetic.FiniteSupportDistribution(support).sample(5000, rng)
        views = [ds, ds.slice(100, 900), DatasetCursor(ds, 40).take(300)]
        for S in views:
            assert S.feature_norm_bound() == support.max_feature_norm()
            loss.validate_dataset(S)
            assert S._max_feature_norm is None  # the sample's own norm: never taken
            assert S.max_feature_norm() <= S.feature_norm_bound()
        assert support.feature_norm_bound() == support.max_feature_norm()

    def test_slice_of_a_sample_is_judged_by_its_own_rows(self):
        X = np.full((5, 2), 0.5)
        X[1], X[3] = [2.0, 0.0], [0.0, 3.0]  # norms 2 and 3 > normX = 1
        support = Dataset(X)
        loss = glm_loss(tanh_link(), 1.0, 1.0, 1.0, 2)
        ds = Dataset.indexed(support, np.array([0, 4, 2, 1, 0, 2, 4]))
        assert ds.feature_norm_bound() == 3.0
        for clean in (ds.slice(0, 3), ds.slice(4, 7), DatasetCursor(ds, 4).take(3)):
            loss.validate_dataset(clean)
        for bad in (ds, ds.slice(2, 5), DatasetCursor(ds, 3).take(1)):
            # the held row's norm 2.0, not the support's 3.0
            with pytest.raises(ValueError, match=r"^feature norm 2\.0 exceeds declared bound 1\.0$"):
                loss.validate_dataset(bad)

    # each reader of a sample, and how far into its index vector it reads
    READERS = [
        (lambda S, other: S.slice(1500, 2300), 2300),
        (lambda S, other: S.slice(200, 900).slice(30, 600), 900),
        (lambda S, other: DatasetCursor(S, 700).take(1650), 2350),
        (lambda S, other: S.indices(10, 1234), 1234),
        (lambda S, other: Runs([S, other]).indices([5, 2001], 777)[1], 782),
        (lambda S, other: S.subset(np.array([3, 2499, 17])), 2500),
        (lambda S, other: S.slice(0, 3000).subset(np.array([1998, 4])), 3000),
        (lambda S, other: Dataset.indexed(S, np.arange(1001, 1999)), 1999),
        (lambda S, other: S.subset(np.array([5, -1])), 4500),
        (lambda S, other: S.X, 4500),
        (lambda S, other: S.y, 4500),
        (lambda S, other: S.max_feature_norm(), 4500),
        (lambda S, other: Runs([other, S]).stack(axis=1)[0], 4500),
        (lambda S, other: S.slice(0, 0), 0),
    ]

    @staticmethod
    def same_read(got, want):
        if isinstance(got, Dataset):
            assert got.n == want.n and got.indices().dtype == want.indices().dtype
            assert np.array_equal(got.indices(), want.indices())
            assert np.array_equal(got.X, want.X) and np.array_equal(got.y, want.y)
        else:
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("bitgen", [np.random.Philox, np.random.PCG64])
    @pytest.mark.parametrize("m, dtype", [(256, np.uint8), (1000, np.uint16),
                                          (65537, np.uint32)])
    @pytest.mark.parametrize("reader", range(len(READERS)))
    def test_sample_drawn_on_read_equals_eager_sample(self, monkeypatch, bitgen, m, dtype,
                                                      reader):
        # blocks of 1000 draws: every read but the last stops inside a block
        monkeypatch.setattr(synthetic, "INDEX_DRAW_BLOCK", 1000)
        rng = np.random.default_rng(19)  # rows of norm below 1 / sqrt(2)
        support = Dataset(rng.uniform(-0.5, 0.5, (m, 2)), rng.standard_normal(m))
        dist, k = synthetic.FiniteSupportDistribution(support), 4500
        read, stop = self.READERS[reader]
        eager_rng, ref = np.random.Generator(bitgen(22)), np.random.Generator(bitgen(22))
        eager = dist.sample(k, eager_rng)
        assert np.array_equal(eager.indices(), ref.integers(0, m, k))
        assert eager.indices().dtype == dtype
        assert state(eager_rng) == state(ref)
        other = dist.sample(k, np.random.Generator(bitgen(23)))

        drawn_rng, ref = np.random.Generator(bitgen(22)), np.random.Generator(bitgen(22))
        S = dist.sample_on_read(k, drawn_rng)
        assert S.n == k and S.dim == 2 and S.labelled
        loss = glm_loss(tanh_link(), 1.0, 1.0, 1.0, 2)
        loss.validate_dataset(S)  # within the support's bound: draws nothing
        assert state(drawn_rng) == state(ref)
        got = read(S, other)
        # the generator stands where an eager draw of the prefix leaves it,
        # and only that prefix is held: no unset memory behind a view
        ref.integers(0, m, stop)
        assert state(drawn_rng) == state(ref)
        assert S._idx.shape == (stop,) and S._idx.base is None
        self.same_read(got, read(eager, other))
        assert np.array_equal(S.indices(), eager.indices())  # drawn on to the end
        assert state(drawn_rng) == state(eager_rng)
        self.same_read(got, read(eager, other))  # what was read before stays valid
        self.same_read(read(S, other), read(eager, other))

    def test_indices_of_a_sample_and_of_a_plain_dataset(self):
        support = Dataset(np.eye(3))
        S = synthetic.FiniteSupportDistribution(support).sample_on_read(
            10, np.random.default_rng(3))
        for start, stop in ((-1, 4), (5, 4), (0, 11)):
            with pytest.raises(ValueError, match="bad index range"):
                S.indices(start, stop)
        assert not S.indices(2, 6).flags.writeable and S.indices(2, 6).shape == (4,)
        with pytest.raises(ValueError, match="no index vector"):
            support.indices()
        empty = synthetic.FiniteSupportDistribution(support).sample_on_read(
            0, np.random.default_rng(3))
        assert empty.n == 0 and empty.indices().dtype == np.uint8
        assert empty.X.shape == (0, 3)

    def test_a_drawn_piece_out_of_range_fails(self):
        S = Dataset.drawn(Dataset(np.eye(3)), 10, lambda k: np.full(k, 3, dtype=np.uint8))
        with pytest.raises(ValueError, match="out of range"):
            S.slice(0, 4)

    def test_label_count_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.zeros(2))


class TestRuns:
    def datasets(self, R=3, n=5, d=2, labelled=True):
        rng = np.random.default_rng(21)
        return [Dataset(rng.standard_normal((n, d)),
                        rng.standard_normal(n) if labelled else None) for _ in range(R)]

    @pytest.mark.parametrize("labelled", [True, False])
    def test_pack_copies_runs_into_one_frozen_block(self, labelled):
        # the packed group's stack on axis 0 is its block: no copy is made
        data = self.datasets(labelled=labelled)
        runs = Runs.pack(3, (S for S in data))  # generated lazily
        X, Y = runs.stack(axis=0)
        assert runs.stack(axis=0)[0] is X and X.shape == (3, 5, 2)
        assert not X.flags.writeable
        assert (Y is None) == (not labelled)
        for r, (S, ref) in enumerate(zip(runs, data)):
            assert np.array_equal(S.X, ref.X) and np.shares_memory(S.X, X)
            assert np.array_equal(S.X, X[r])
            if labelled:
                assert Y.shape == (3, 5)
                assert np.array_equal(S.y, ref.y) and np.shares_memory(S.y, Y)
                assert not Y.flags.writeable
        assert np.array_equal(runs.stack(axis=1)[0], X.transpose(1, 0, 2))
        assert runs.slice(1, 3).stack(axis=0)[0].shape == (3, 2, 2)
        assert data_module.lockstep(runs, [np.random.default_rng(r) for r in range(3)])[0] is runs

    @pytest.mark.parametrize("R", [1, 3], ids=["lone", "group"])
    def test_stack_of_an_unpacked_group_is_fresh(self, R):
        data = self.datasets(R=R)
        X, Y = Runs(data).stack(axis=0)
        assert X.shape == (R, 5, 2) and Y.shape == (R, 5) and X.flags.writeable
        for r, S in enumerate(data):
            assert np.array_equal(X[r], S.X) and not np.shares_memory(X, S.X)
            assert np.array_equal(Y[r], S.y) and not np.shares_memory(Y, S.y)

    def test_pack_rejects_mismatched_runs(self):
        data = self.datasets()
        for bad in (data[:2], data + data[:1],
                    data[:2] + [Dataset(np.zeros((4, 2)), np.zeros(4))],
                    data[:2] + [Dataset(np.zeros((5, 3)), np.zeros(5))],
                    data[:2] + [Dataset(np.zeros((5, 2)))]):
            with pytest.raises(ValueError, match="pack needs"):
                Runs.pack(3, bad)
