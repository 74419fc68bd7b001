"""Recursive regularization, its sub-routines, and the selector algebra."""
import dataclasses
import math

import numpy as np
import pytest

import dpopt.recursive_reg as rr
from dpopt.core import (Dataset, ZeroLoss, erm_grad, fd_check, glm_loss,
                        square_link, tanh_link)
from dpopt.harness import gen_support
from dpopt.privacy import PrivacyBudget
from dpopt.recursive_reg import (derive_rr_params,
                                 make_selector, noisy_gd, output_perturbed_sgd,
                                 phased_sgd, project_ball, regularize,
                                 run_recursive_regularization,
                                 selector_weighted_avg)
from dpopt.util import PreconditionError


def e(i, d):
    v = np.zeros(d)
    v[i] = 1.0
    return v


class TestRegularize:
    def test_empty_lists_identity(self):
        base = glm_loss(tanh_link(), 1.0, 1.0, 1.0, 3)
        assert regularize(base, [], []) is base

    def test_zero_base_gradient(self):
        reg = regularize(ZeroLoss(2), [np.zeros(2)], [2.0])
        assert np.allclose(reg.grad(e(0, 2), np.zeros(2)), 2.0 * e(0, 2), atol=1e-15)

    def test_fd_check_on_regularized_tanh(self):
        base = glm_loss(tanh_link(), 1.0, 1.0, 1.0, 4)
        rng = np.random.default_rng(0)
        reg = regularize(base, [rng.standard_normal(4), rng.standard_normal(4)],
                         [0.5, 1.5])
        assert fd_check(reg, probes=100).max_rel_err <= 1e-5

    def test_gradient_identity(self):
        base = glm_loss(tanh_link(), 1.0, 1.0, 1.0, 5)
        rng = np.random.default_rng(1)
        centers = [rng.standard_normal(5) for _ in range(3)]
        lambdas = [0.25, 0.5, 1.0]
        reg = regularize(base, centers, lambdas)
        X = rng.standard_normal((20, 5)) * 0.4
        for _ in range(50):
            w = rng.standard_normal(5)
            expect = base.grad_mean(w, X) + sum(
                l * (w - c) for l, c in zip(lambdas, centers))
            assert np.max(np.abs(reg.grad_mean(w, X) - expect)) <= 1e-12

    def test_effective_constants(self):
        base = glm_loss(tanh_link(), 1.0, 1.0, 1.0, 3)
        reg = regularize(base, [np.zeros(3), np.ones(3)], [1.0, 2.0])
        assert reg.L1 == pytest.approx(base.L1 + 3.0)
        assert reg.strong_convexity == pytest.approx(3.0)
        assert reg.L0 == base.L0  # regularizer is data-independent

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            regularize(ZeroLoss(2), [np.zeros(2)], [1.0, 2.0])

    def test_per_run_centers_refuse_single_run_calls(self):
        # a 1-D w would broadcast against every run's offset (grad) or fail
        # inside the regularizer's matmul (eval); the solvers go through
        # _affine_terms, which still takes the per-run offsets
        base = glm_loss(tanh_link(), 1, 1, 1, 3)
        reg = regularize(base, [np.zeros((5, 3)), np.ones((5, 3))], [0.5, 1.0])
        w, x, X, Y = np.full(3, 0.1), np.full(3, 0.2), np.full((4, 3), 0.2), np.zeros(4)
        for call in (lambda: reg.eval(w, x, 0.5), lambda: reg.grad(w, x, 0.5),
                     lambda: reg.grad_mean(w, X, Y)):
            with pytest.raises(ValueError, match="_affine_terms"):
                call()
        _, a, c = rr._affine_terms(reg, 0.1)
        assert a == 1.0 - 0.1 * 1.5 and np.array_equal(c, 0.1 * np.ones((5, 3)))
        one = regularize(base, [np.zeros(3), np.ones(3)], [0.5, 1.0])
        assert np.array_equal(one.grad(w, x, 0.5), base.grad(w, x, 0.5) + (1.5 * w - 1.0))
        assert np.array_equal(one.grad_mean(w, X, Y),
                              base.grad_mean(w, X, Y) + (1.5 * w - 1.0))
        assert one.eval(w, x, 0.5) == pytest.approx(
            base.eval(w, x, 0.5) + 0.75 * (w @ w) - w.sum() + 1.5, rel=1e-15)


class TestSelector:
    def test_hand_computed_K2(self):
        w1, w2 = e(0, 2), e(1, 2)
        got = selector_weighted_avg([w1, w2], 1.0, 0.5)  # weights 2, 4
        assert np.max(np.abs(got - (w1 + 2 * w2) / 3)) <= 1e-12

    def test_hand_computed_K3(self):
        ws = [e(0, 3), e(1, 3), e(2, 3)]
        got = selector_weighted_avg(ws, 1.0, 0.5)  # weights 2, 4, 8
        assert np.max(np.abs(got - (ws[0] + 2 * ws[1] + 4 * ws[2]) / 7)) <= 1e-12

    def test_vanishing_lambda_gives_plain_average(self):
        rng = np.random.default_rng(2)
        ws = [rng.standard_normal(4) for _ in range(9)]
        got = selector_weighted_avg(ws, 1.0, 1e-12)
        assert np.max(np.abs(got - np.mean(ws, axis=0))) <= 1e-9

    def test_constant_iterates_fixed_point(self):
        w = np.array([0.3, -0.7])
        got = selector_weighted_avg([w] * 5, 0.1, 0.9)
        assert np.max(np.abs(got - w)) <= 1e-15

    def test_block_matches_loop_reference(self):
        # the weights-times-block product against the per-iterate loop
        rng = np.random.default_rng(3)
        block = rng.standard_normal((57, 4, 3))
        eta, lam = 0.05, 0.9
        got = selector_weighted_avg(block, eta, lam)
        for r in range(4):
            acc, total = np.zeros(3), 0.0
            for k in range(1, 58):
                g = (1 - eta * lam) ** (57 - k)
                acc, total = acc + g * block[k - 1, r], total + g
            assert np.max(np.abs(got[r] - acc / total)) <= 1e-12

    def test_rejects_eta_lambda_at_least_one(self):
        with pytest.raises(ValueError):
            selector_weighted_avg([np.zeros(2)], 1.0, 1.0)

    # `r < 0 or r >= 1` let a NaN step through, and the averages were NaN
    @pytest.mark.parametrize("eta,lam", [(math.nan, 0.5), (1.0, math.nan)])
    def test_rejects_nan_step(self, eta, lam):
        with pytest.raises(ValueError, match=r"^need 0 <= eta\*lam < 1, got nan$"):
            selector_weighted_avg([e(0, 2), e(1, 2)], eta, lam)

    @pytest.mark.parametrize("with_prior", [False, True], ids=["no_prior", "prior"])
    @pytest.mark.parametrize("runs", [1, 3])
    def test_a_run_gets_its_own_slabs_bits_in_every_layout(self, runs, with_prior):
        # an iterate-major block, its run-major transposed view and a list of
        # (R, d) points all give run r the bits of run r's own contiguous
        # (K, d) slab; at d = 3, a product on the strided slabs of an
        # iterate-major block gave a run other last bits in a group than alone
        rng = np.random.default_rng(5)
        K, d, eta, lam = 57, 3, 0.05, 0.9
        block = rng.standard_normal((K, runs, d))
        run_major = np.ascontiguousarray(block.transpose(1, 0, 2))
        prior = (rng.standard_normal((runs, d)), 37) if with_prior else None
        want = [selector_weighted_avg(run_major[r], eta, lam,
                                      None if prior is None else (prior[0][r], prior[1]))
                for r in range(runs)]
        for layout in (block, run_major.transpose(1, 0, 2), list(block)):
            got = selector_weighted_avg(layout, eta, lam, prior)
            assert got.shape == (runs, d)
            for r in range(runs):
                assert np.array_equal(got[r], want[r]), (type(layout), r)


class TestProjectBall:
    def test_inside_unchanged(self):
        w = np.array([0.3, 0.4])
        assert np.array_equal(project_ball(w, 1.0), w)

    def test_radial_scaling(self):
        assert np.allclose(project_ball(3.0 * e(0, 3), 1.0), e(0, 3), atol=1e-15)

    def test_nonexpansive(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            a, b = rng.standard_normal(3) * 2, rng.standard_normal(3) * 2
            pa, pb = project_ball(a, 1.0), project_ball(b, 1.0)
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12

    R = 0.7

    def edge_rows(self):
        """Rows exactly at R, one ulp inside and one ulp outside."""
        at = e(1, 3) * self.R
        inside = e(1, 3) * np.nextafter(self.R, 0.0)
        outside = e(1, 3) * np.nextafter(self.R, np.inf)
        return at, inside, outside

    def test_rows_at_and_one_ulp_from_the_radius(self):
        at, inside, outside = self.edge_rows()
        for w in (at, inside):
            assert project_ball(w[None], self.R).tobytes() == w[None].tobytes()
        got = project_ball(outside[None], self.R)
        assert not np.array_equal(got[0], outside)
        assert got[0] @ got[0] <= self.R ** 2

    def test_vector_is_its_row_in_a_block(self):
        # a 1-D vector is projected as the one row of a block
        rng = np.random.default_rng(4)
        for w in (*self.edge_rows(), rng.standard_normal(3) * 0.1,
                  rng.standard_normal(3) * 5.0):
            got = project_ball(w, self.R)
            assert got.shape == (3,)
            assert got.tobytes() == project_ball(w[None], self.R)[0].tobytes()

    def test_zero_radius(self):
        W = np.array([[0.3, -0.4], [0.0, 0.0], [2.0, 1.0]])
        assert np.array_equal(project_ball(W, 0.0), np.zeros((3, 2)))
        assert np.array_equal(project_ball(W[0], 0.0), np.zeros(2))
        with pytest.raises(ValueError, match="non-negative"):
            project_ball(W, -1.0)

    def test_nan_radius_is_rejected(self):
        # `R < 0` let it through, and the point came back unprojected
        with pytest.raises(ValueError, match="^R must be non-negative$"):
            project_ball(np.array([[3.0, 4.0]]), math.nan)

    @pytest.mark.parametrize("nan_row", [0, 2])
    @pytest.mark.parametrize("others", ["inside", "one_projected"])
    def test_nan_row_comes_back_as_it_is(self, nan_row, others):
        W = np.array([[0.3, 0.4], [0.1, -0.2], [0.5, 0.0]])
        if others == "one_projected":
            W[1] = [3.0, 4.0]
        W[nan_row] = [np.nan, 0.1]
        got = project_ball(W, 1.0)
        assert got[nan_row].tobytes() == W[nan_row].tobytes()
        for r in {0, 1, 2} - {nan_row}:
            assert got[r].tobytes() == project_ball(W[r], 1.0).tobytes()
        if others == "one_projected":
            assert np.allclose(got[1], [0.6, 0.8], rtol=1e-15)

    def test_block_rows_get_their_single_row_bits(self):
        # one row projected, others within an ulp of R: each row's decision
        # and scale come from its own squared norm
        rng = np.random.default_rng(5)
        W = np.array([*self.edge_rows(), rng.standard_normal(3) * 3.0,
                      rng.standard_normal(3) * 0.1])
        got = project_ball(W, self.R)
        assert not np.array_equal(got, W)
        for r in range(len(W)):
            assert got[r].tobytes() == project_ball(W[r:r + 1], self.R)[0].tobytes()


class TestNoisyGD:
    def quadratic(self, c, lam=1.0):
        return regularize(ZeroLoss(c.shape[0]), [c], [lam])

    def test_geometric_contraction_noiseless(self):
        c = np.array([0.5, -0.25, 0.125])
        lam, eta, T = 1.0, 0.2, 40
        loss = self.quadratic(c, lam)
        S = Dataset(np.zeros((4, 3)))
        last = noisy_gd(S, loss, 2.0, T, eta, lambda ws, _eta: ws[-1], 0.0,
                        np.random.default_rng(4))
        expect = (1 - eta * lam) ** (T - 1) * np.linalg.norm(c)
        assert np.linalg.norm(last - c) == pytest.approx(expect, rel=1e-10)

    def test_T1_returns_origin(self):
        loss = self.quadratic(np.ones(2))
        out = noisy_gd(Dataset(np.zeros((2, 2))), loss, 1.0, 1, 0.1,
                       make_selector(1.0), 0.0, np.random.default_rng(5))
        assert np.all(out == 0.0)

    def test_deterministic(self):
        loss = self.quadratic(np.ones(2), 0.5)
        S = Dataset(np.zeros((3, 2)))
        outs = [noisy_gd(S, loss, 2.0, 25, 0.1, make_selector(0.5), 0.3,
                         np.random.default_rng(6)) for _ in range(2)]
        assert np.array_equal(outs[0], outs[1])

    def test_iterates_stay_in_ball(self):
        seen = []

        def spy(ws, eta):
            seen.extend(ws)
            return ws[-1]

        loss = self.quadratic(np.array([5.0, 5.0]), 1.0)
        noisy_gd(Dataset(np.zeros((3, 2))), loss, 1.5, 30, 0.4, spy, 2.0,
                 np.random.default_rng(7))
        assert max(np.linalg.norm(w) for w in seen) <= 1.5 + 1e-12

    def test_requires_strong_convexity(self):
        base = glm_loss(tanh_link(), 1.0, 1.0, 1.0, 2)
        with pytest.raises(ValueError, match="strongly convex"):
            noisy_gd(Dataset(np.zeros((2, 2))), base, 1.0, 5, 0.1,
                     make_selector(0.1), 0.0, np.random.default_rng(8))

    def test_noiseless_contracts_distance_to_minimizer(self):
        c = np.array([0.4, 0.3])
        loss = self.quadratic(c, 1.0)
        dists = []

        def spy(ws, eta):
            dists.extend(np.linalg.norm(w - c) for w in ws)
            return ws[-1]

        noisy_gd(Dataset(np.zeros((2, 2))), loss, 2.0, 25, 0.3, spy, 0.0,
                 np.random.default_rng(9))
        assert all(b <= a + 1e-15 for a, b in zip(dists, dists[1:]))


class TestOutputPerturbedSGD:
    def convex_instance(self, n=8, d=2, seed=10):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, d))
        X = 0.5 * X / np.linalg.norm(X, axis=1, keepdims=True)
        y = 0.2 * X[:, 0]
        base = glm_loss(tanh_link(), 1.0, 1.0, 0.5, d)
        return regularize(base, [np.zeros(d)], [1.0]), Dataset(X, y)

    def test_single_sample_returns_start(self):
        loss, S = self.convex_instance()
        one = Dataset(S.X[:1], S.y[:1])
        w1 = np.array([0.1, -0.2])
        out = output_perturbed_sgd(w1, one, loss, 1.0, 0.3, 0.0,
                                   make_selector(1.0), np.random.default_rng(11))
        assert np.array_equal(out, w1)

    def test_zero_step_frozen(self):
        loss, S = self.convex_instance()
        w1 = np.array([0.05, 0.05])
        out = output_perturbed_sgd(w1, S, loss, 1.0, 0.0, 0.0,
                                   make_selector(1.0), np.random.default_rng(12))
        assert np.max(np.abs(out - w1)) <= 1e-15

    def test_iterates_stay_in_ball(self):
        loss, S = self.convex_instance()
        seen = []

        def spy(ws, eta):
            seen.extend(ws)
            return ws[-1]

        output_perturbed_sgd(np.array([0.9, 0.0]), S, loss, 0.5, 0.8, 0.0,
                             spy, np.random.default_rng(40))
        assert max(np.linalg.norm(w) for w in seen[1:]) <= 0.5 + 1e-12

    def test_noiseless_contracts_distance_to_minimizer(self):
        # pure proximal objective: every per-sample gradient points at the
        # center, so the single-pass iterates contract monotonically
        c = np.array([0.3, -0.2])
        loss = regularize(ZeroLoss(2), [c], [1.0])
        S = Dataset(np.zeros((16, 2)))
        dists = []

        def spy(ws, eta):
            dists.extend(np.linalg.norm(w - c) for w in ws)
            return ws[-1]

        output_perturbed_sgd(np.zeros(2), S, loss, 1.0, 0.4, 0.0, spy,
                             np.random.default_rng(41))
        assert all(b <= a + 1e-15 for a, b in zip(dists, dists[1:]))

    def test_matches_per_sample_loop_reference(self):
        # the run-axis pass against the single-sample loop it replaced
        loss, S = self.convex_instance(n=40, d=3, seed=12)
        lam, eta, R, sigma = 1.0, 0.3, 0.3, 0.2  # the start lies outside the ball
        got = output_perturbed_sgd(np.full(3, 0.5), S, loss, R, eta, sigma,
                                   make_selector(lam), np.random.default_rng(42))
        w, ws = np.full(3, 0.5), [np.full(3, 0.5)]
        projected = 0
        for t in range(S.n - 1):
            w = w - eta * loss.grad(w, S.X[t], S.y[t])
            nw = math.sqrt(w @ w)
            w, projected = (w, projected) if nw <= R else (w * (R / nw), projected + 1)
            ws.append(w)
        weights = [(1 - eta * lam) ** (S.n - k) for k in range(1, S.n + 1)]
        want = (sum(g * v for g, v in zip(weights, ws)) / sum(weights)
                + np.random.default_rng(42).standard_normal(3) * sigma)
        assert projected > 0
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("kind,centers", [("tanh", 3), ("zero", 3), ("tanh", 0)],
                             ids=["three_centers", "zero_base", "unregularized"])
    def test_folded_step_matches_plain_update(self, kind, centers):
        # R = 5 runs with per-run centers: the affine step a W + c - eta G
        # against a per-run loop of w - eta grad(w; x) and the projection
        runs, n, d = 5, 40, 3
        eta, R, sigma, lam = 0.2, 0.3, 0.2, 1.0
        rng = np.random.default_rng(18)
        base = ZeroLoss(d) if kind == "zero" else glm_loss(tanh_link(), 1.0, 1.0, 0.5, d)
        cs = [rng.standard_normal((runs, d)) * 0.6 for _ in range(centers)]
        lambdas = [0.5, 1.0, 2.0][:centers]
        samples = []
        for _ in range(runs):
            X = rng.standard_normal((n, d))
            X = 0.5 * X / np.linalg.norm(X, axis=1, keepdims=True)
            samples.append(Dataset(X, 0.2 * X[:, 0] + 0.1))
        w1 = rng.standard_normal((runs, d)) * 0.4
        start = w1.copy()
        got = output_perturbed_sgd(w1, samples, regularize(base, cs, lambdas), R, eta,
                                   sigma, make_selector(lam),
                                   [np.random.default_rng(60 + r) for r in range(runs)])
        assert np.array_equal(w1, start)
        weights = [(1 - eta * lam) ** (n - k) for k in range(1, n + 1)]
        projected = 0
        for r, S in enumerate(samples):
            loss = regularize(base, [c[r] for c in cs], lambdas)
            w, ws = start[r], [start[r]]
            for t in range(n - 1):
                w = w - eta * loss.grad(w, S.X[t], S.y[t])
                nw = math.sqrt(w @ w)
                w, projected = (w, projected) if nw <= R else (w * (R / nw), projected + 1)
                ws.append(w)
            want = (sum(g * v for g, v in zip(weights, ws)) / sum(weights)
                    + np.random.default_rng(60 + r).standard_normal(d) * sigma)
            assert np.max(np.abs(got[r] - want)) <= 1e-12
        assert projected > 0

    def test_peak_memory_is_the_store_and_one_slab(self):
        # the (K, R, d) iterate store is written in place and never copied
        # whole: the call's peak is the stacked samples (the other
        # store-sized block), the store, the selector's one (K, d) slab and
        # a small constant, whose 128 KiB is far below the store's 2.6 MB
        import tracemalloc
        runs, K, d = 5, 4096, 16
        rng = np.random.default_rng(21)
        base = glm_loss(tanh_link(), 1.0, 1.0, 0.5, d)
        loss = regularize(base, [rng.standard_normal((runs, d)) * 0.1], [1.0])
        samples = []
        for _ in range(runs):
            X = rng.standard_normal((K, d))
            samples.append(Dataset(0.5 * X / np.linalg.norm(X, axis=1, keepdims=True)))
        rngs = [np.random.default_rng(90 + r) for r in range(runs)]
        store, slab = K * runs * d * 8, K * d * 8
        tracemalloc.start()
        try:
            out = output_perturbed_sgd(np.zeros((runs, d)), samples, loss, 1.0, 0.01, 0.1,
                                       make_selector(1.0), rngs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (runs, d) and np.isfinite(out).all()
        assert peak < 2 * store + slab + 128 * 1024, (peak, store, slab)

    def test_neighbor_stability_bound(self):
        # Lemma-style bound: ||out(S) - out(S')|| <= 2 L0 log(n) / (lam n)
        loss, S = self.convex_instance(n=8)
        n, lam, L0 = S.n, 1.0, loss.L0
        eta = math.log(n) / (lam * n)
        sel = make_selector(lam)

        def run(ds):
            return output_perturbed_sgd(np.zeros(2), ds, loss, 1.0, eta, 0.0,
                                        sel, np.random.default_rng(13))

        ref = run(S)
        bound = 2 * L0 * math.log(n) / (lam * n)
        rng = np.random.default_rng(14)
        for i in range(n):
            x = rng.standard_normal(2)
            x = 0.5 * x / np.linalg.norm(x)
            out = run(S.replace_sample(i, x, y=0.1))
            assert np.linalg.norm(ref - out) <= bound + 1e-9


class TestPhasedSGD:
    def test_slice_schedule(self, monkeypatch):
        calls = []
        real = rr.output_perturbed_sgd

        def spy(w1, S, loss, R, eta, sigma, selector, rng, ledger=None, site=""):
            calls.append((S.n, eta, sigma, w1.copy()))
            return real(w1, S, loss, R, eta, sigma, selector, rng, ledger, site)

        monkeypatch.setattr(rr, "output_perturbed_sgd", spy)
        loss = regularize(ZeroLoss(2), [np.zeros(2)], [1.0])
        S = Dataset(np.zeros((4, 2)))
        phased_sgd(S, loss, 1.0, 0.8, 0.5, make_selector(1.0),
                   np.random.default_rng(15))
        assert [c[0] for c in calls] == [2, 1]
        assert [c[1] for c in calls] == pytest.approx([0.8 / 4, 0.8 / 16])
        assert [c[2] for c in calls] == pytest.approx([0.5 * 0.8 / 4, 0.5 * 0.8 / 16])
        assert np.all(calls[0][3] == 0.0)  # starts at the origin

    def test_frozen_when_eta_zero(self):
        loss = regularize(ZeroLoss(2), [np.ones(2)], [1.0])
        out = phased_sgd(Dataset(np.zeros((8, 2))), loss, 1.0, 0.0, 0.0,
                         make_selector(1.0), np.random.default_rng(16))
        assert np.all(out == 0.0)

    def test_step_sizes_are_4_to_minus_k(self):
        loss = regularize(ZeroLoss(1), [np.zeros(1)], [1.0])
        calls = []

        def sel(ws, eta):
            calls.append(eta)
            return ws[-1]

        phased_sgd(Dataset(np.zeros((16, 1))), loss, 1.0, 1.0, 0.0, sel,
                   np.random.default_rng(17))
        assert calls == pytest.approx([4.0 ** (-k) for k in range(1, len(calls) + 1)])

    def test_requires_two_samples(self):
        loss = regularize(ZeroLoss(1), [np.zeros(1)], [1.0])
        with pytest.raises(ValueError):
            phased_sgd(Dataset(np.zeros((1, 1))), loss, 1.0, 1.0, 0.0,
                       make_selector(1.0), np.random.default_rng(18))


class TestDeriveRRParams:
    def test_matches_independent_reevaluation(self):
        n, d, L0, L1, R_bar = 2048, 8, 1.0, 1.0, 1.0
        eps, delta = 1.0, 1e-6
        params = derive_rr_params("optimal", n, d, L0, L1, R_bar,
                                  PrivacyBudget(eps, delta))
        log1d = math.log(1 / delta)
        lam = L0 ** 2 / (L1 * R_bar) * min(1 / n, d / (n * eps) ** 2)
        T = math.floor(math.log2(L1 / lam) + 1e-9)
        assert params.lam == pytest.approx(lam, rel=1e-12)
        assert params.T == T
        m = n // T
        for t in range(1, T):
            lam_t = 2.0 ** t * lam
            assert params.lambdas[t] == pytest.approx(lam_t, rel=1e-12)
            assert params.radii[t] == pytest.approx(math.sqrt(2.0) ** t * R_bar, rel=1e-12)
            ratio = (L1 + lam_t) / lam_t
            K = max(ratio * math.log(ratio),
                    (n * eps) ** 2 * (L0 ** 2 * lam + L1 ** 1.5)
                    / (T ** 2 * lam * d * L0 ** 2 * log1d))
            K = min(int(math.ceil(K)), rr.KT_CAP)
            assert params.K[t] == K
            assert params.eta[t] == pytest.approx(math.log(K) / (lam_t * K), rel=1e-12)
            assert params.sigma[t] == pytest.approx(
                8 * L0 * K * math.sqrt(log1d) / (m * eps), rel=1e-12)

    def test_schedules(self):
        params = derive_rr_params("linear_time", 1024, 4, 1.0, 1.0, 1.0,
                                  PrivacyBudget(1.0, 1e-5))
        for t in range(1, params.T):
            assert params.lambdas[t] / params.lambdas[t - 1] == pytest.approx(2.0)
            assert params.radii[t] / params.radii[t - 1] == pytest.approx(math.sqrt(2.0))
            assert params.K[t] == 1024 // params.T

    def test_rejects_lambda_at_least_L1(self):
        with pytest.raises(PreconditionError, match="T would be 0"):
            derive_rr_params("optimal", 8, 2, 10.0, 0.1, 1.0,
                             PrivacyBudget(1.0, 1e-5))

    # `min(L0, L1, R_bar) <= 0` let a NaN through in any position
    @pytest.mark.parametrize("nan_at", [0, 1, 2])
    def test_rejects_nan_constant(self, nan_at):
        consts = [1.0, 1.0, 1.0]
        consts[nan_at] = math.nan
        with pytest.raises(ValueError, match="^L0, L1, R_bar must be positive$"):
            derive_rr_params("linear_time", 1024, 4, *consts, PrivacyBudget(1.0, 1e-5))

    # both failed as `float division by zero`: the slice size n // T was 0
    def test_T_above_n(self):
        with pytest.raises(ValueError, match=r"^overrides T must be <= n = 1024, got 2000$"):
            derive_rr_params("linear_time", 1024, 4, 1.0, 1.0, 1.0, PrivacyBudget(1.0, 1e-5),
                             {"T": 2000})
        with pytest.raises(PreconditionError, match=r"^derived T must be <= n = 4, got 21$"):
            derive_rr_params("optimal", 4, 1000, 0.001, 1.0, 1.0, PrivacyBudget(1.0, 1e-6))

    def test_kt_cap_flagged(self):
        params = derive_rr_params("optimal", 4096, 8, 1.0, 1.0, 1.0,
                                  PrivacyBudget(1.0, 1e-6))
        assert any(params.kt_capped)
        assert max(params.K) == rr.KT_CAP


class TestRunRecursiveRegularization:
    def quadratic_glm(self, d=4):
        return glm_loss(square_link(), 4.0, 1.0, 1.0, d, F0_hint=1.0)

    def population(self, d=4, seed=20):
        return gen_support("glm_fullrank", 64, d, seed=seed, label_scale=0.8)

    def test_T1_edge_returns_origin(self):
        loss = self.quadratic_glm(2)
        S = self.population(2).sample(64, np.random.default_rng(21))
        params = derive_rr_params("linear_time", 64, 2, loss.L0, loss.L1, 1.0,
                                  PrivacyBudget(1.0, 1e-5), {"lam": 0.3, "T": 1})
        rep = run_recursive_regularization(S, loss, params, "noisy_gd",
                                           np.random.default_rng(22))
        assert rep.t1_edge
        assert np.all(rep.w_out == 0.0)

    def test_noiseless_converges_to_brute_force_minimizer(self):
        d = 4
        loss = self.quadratic_glm(d)
        pop = self.population(d)
        S = pop.sample(512, np.random.default_rng(23))
        params = derive_rr_params("linear_time", 512, d, loss.L0, loss.L1, 2.0,
                                  PrivacyBudget(1.0, 1e-6),
                                  {"lam": loss.L1 / 2 ** 14, "K_t": 12000,
                                   "sigma_t": 0.0})
        rep = run_recursive_regularization(S, loss, params, "noisy_gd",
                                           np.random.default_rng(24))
        # brute-force oracle: long exact GD; labels are realizable, so the ERM
        # minimizer zeroes every per-sample gradient and anchors all rounds
        w = np.zeros(d)
        for _ in range(20000):
            w = w - 0.5 * erm_grad(loss, w, S)
        assert np.linalg.norm(erm_grad(loss, w, S)) <= 1e-10
        assert np.linalg.norm(rep.w_out - w) <= 1e-3
        assert np.linalg.norm(pop.population_grad(loss, rep.w_out)) <= 1e-2

    def test_rounds_use_disjoint_slices(self, monkeypatch):
        d = 2
        loss = self.quadratic_glm(d)
        S = self.population(d).sample(128, np.random.default_rng(25))
        params = derive_rr_params("linear_time", 128, d, loss.L0, loss.L1, 1.0,
                                  PrivacyBudget(1.0, 1e-5),
                                  {"lam": loss.L1 / 2 ** 4, "sigma_t": 0.0})
        seen = []
        real = rr.noisy_gd

        def spy(parts, *args, **kw):
            (Spart,) = parts  # one slice per run, and this is one run
            seen.append(Spart.X)
            return real(parts, *args, **kw)

        monkeypatch.setattr(rr, "noisy_gd", spy)
        run_recursive_regularization(S, loss, params, "noisy_gd",
                                     np.random.default_rng(26))
        m = params.slice_size
        assert len(seen) == params.T - 1
        total = 0
        for t, X in enumerate(seen):
            assert np.array_equal(X, S.X[t * m:(t + 1) * m])
            total += X.shape[0]
        assert total <= S.n

    def test_report_rounds_table(self):
        d = 2
        loss = self.quadratic_glm(d)
        S = self.population(d).sample(64, np.random.default_rng(27))
        params = derive_rr_params("linear_time", 64, d, loss.L0, loss.L1, 1.0,
                                  PrivacyBudget(1.0, 1e-5),
                                  {"lam": loss.L1 / 2 ** 3})
        rep = run_recursive_regularization(S, loss, params, "phased_sgd",
                                           np.random.default_rng(28))
        assert len(rep.rounds) == params.T - 1
        for t, row in enumerate(rep.rounds, start=1):
            assert row["lambda_t"] == params.lambdas[t]
            assert row["R_t"] == params.radii[t]
            assert row["K_t"] == params.K[t]
            assert row["sigma_t"] == params.sigma[t]
            assert "center_norm" in row

    def test_rejects_params_that_validate_rejects(self):
        # a hand-built schedule with an unknown mode and a constant lambda_t
        # ran and returned a point
        loss = self.quadratic_glm(2)
        S = self.population(2).sample(64, np.random.default_rng(31))
        params = derive_rr_params("linear_time", 64, 2, loss.L0, loss.L1, 1.0,
                                  PrivacyBudget(1.0, 1e-5), {"lam": loss.L1 / 2 ** 3})
        bad = dataclasses.replace(params, mode="fast", lambdas=(params.lam,) * params.T)
        for subroutine in rr.SUBROUTINES:
            with pytest.raises(ValueError, match="^unknown mode 'fast'$"):
                run_recursive_regularization(S, loss, bad, subroutine,
                                             np.random.default_rng(32))
        bad = dataclasses.replace(params, lambdas=(params.lam,) * params.T)
        with pytest.raises(ValueError, match="^lambda_t must double$"):
            run_recursive_regularization(S, loss, bad, "phased_sgd", np.random.default_rng(32))

    def test_rejects_nonconvex_loss(self):
        from dpopt.core import synthetic_nonconvex_loss
        loss = synthetic_nonconvex_loss(2)
        S = self.population(2).sample(64, np.random.default_rng(29))
        params = derive_rr_params("linear_time", 64, 2, 1.0, 2.0, 1.0,
                                  PrivacyBudget(1.0, 1e-5), {"lam": 0.25})
        with pytest.raises(ValueError, match="convex"):
            run_recursive_regularization(S, loss, params, "noisy_gd",
                                         np.random.default_rng(30))


def assert_same_rr_run(a, b):
    assert np.array_equal(a.w_out, b.w_out)
    assert a.rounds == b.rounds
    assert a.noise_ledger.rows() == b.noise_ledger.rows()
    assert (a.t1_edge, a.kt_capped) == (b.t1_edge, b.kt_capped)


class TestLockstep:
    """R runs in lockstep give each run's R = 1 output, bit for bit."""

    def case(self, link, labelled, n=256, d=3):
        loss = glm_loss(link, 2.0, 1.0, 1.0, d, F0_hint=1.0)
        pop = gen_support("glm_fullrank", 48, d, seed=31,
                          label_scale=0.6 if labelled else 0.0)
        samples = [pop.sample(n, np.random.default_rng(70 + r)) for r in range(5)]
        assert (samples[0].y is not None) == labelled
        return loss, samples

    def check(self, loss, samples, params, subroutine):
        rngs = [np.random.default_rng(80 + r) for r in range(len(samples))]
        group = run_recursive_regularization(samples, loss, params, subroutine, rngs)
        assert len(group) == len(samples)
        for r, rep in enumerate(group):
            alone = run_recursive_regularization(samples[r], loss, params, subroutine,
                                                 np.random.default_rng(80 + r))
            assert_same_rr_run(rep, alone)
        return group

    @pytest.mark.parametrize("subroutine", ["noisy_gd", "phased_sgd"])
    @pytest.mark.parametrize("link,labelled", [(tanh_link, True), (tanh_link, False),
                                               (square_link, True)],
                             ids=["tanh_labelled", "tanh_unlabelled", "square_labelled"])
    def test_lockstep_equals_single_runs(self, subroutine, link, labelled):
        loss, samples = self.case(link(), labelled)
        params = derive_rr_params("linear_time", 256, 3, loss.L0, loss.L1, 1.0,
                                  PrivacyBudget(1.0, 1e-5),
                                  {"lam": loss.L1 / 2 ** 4, "K_t": 30})
        group = self.check(loss, samples, params, subroutine)
        assert len(group[0].rounds) == params.T - 1
        assert group[0].noise_ledger.total_draws() > 0
        assert not np.array_equal(group[0].w_out, group[1].w_out)

    @pytest.mark.parametrize("subroutine", ["noisy_gd", "phased_sgd"])
    def test_t1_edge(self, subroutine):
        loss, samples = self.case(tanh_link(), True, n=64)
        params = derive_rr_params("linear_time", 64, 3, loss.L0, loss.L1, 1.0,
                                  PrivacyBudget(1.0, 1e-5), {"lam": 0.3, "T": 1})
        for rep in self.check(loss, samples, params, subroutine):
            assert rep.t1_edge and np.all(rep.w_out == 0.0) and not rep.rounds

    @pytest.mark.parametrize("subroutine", ["noisy_gd", "phased_sgd"])
    def test_zero_loss_base(self, subroutine):
        # the LossSpec default grad_rows and grad_mean_rows
        _, samples = self.case(tanh_link(), False, n=128)
        params = derive_rr_params("linear_time", 128, 3, 1.0, 1.0, 1.0,
                                  PrivacyBudget(1.0, 1e-5),
                                  {"lam": 1.0 / 2 ** 3, "K_t": 20})
        self.check(ZeroLoss(3), samples, params, subroutine)

    def test_shared_dataset_and_materialized_samples(self):
        loss, samples = self.case(tanh_link(), True, n=128)
        S = Dataset(samples[0].X, samples[0].y)
        params = derive_rr_params("linear_time", 128, 3, loss.L0, loss.L1, 1.0,
                                  PrivacyBudget(1.0, 1e-5), {"lam": loss.L1 / 2 ** 3})
        group = run_recursive_regularization(S, loss, params, "phased_sgd",
                                             [np.random.default_rng(r) for r in range(3)])
        for r, rep in enumerate(group):
            assert_same_rr_run(rep, run_recursive_regularization(
                samples[0], loss, params, "phased_sgd", np.random.default_rng(r)))

    def test_rejects_mismatched_datasets(self):
        loss, samples = self.case(tanh_link(), True, n=64)
        params = derive_rr_params("linear_time", 64, 3, loss.L0, loss.L1, 1.0,
                                  PrivacyBudget(1.0, 1e-5), {"lam": 0.3})
        rngs = [np.random.default_rng(r) for r in range(2)]
        with pytest.raises(ValueError, match="share n"):
            run_recursive_regularization([samples[0], samples[1].slice(0, 32)], loss,
                                         params, "phased_sgd", rngs)
        with pytest.raises(ValueError, match="one dataset per generator"):
            run_recursive_regularization(samples[:3], loss, params, "phased_sgd", rngs)

    @pytest.mark.parametrize("other", ["d", "labelling"])
    def test_rejects_a_group_of_other_d_or_labelling(self, other):
        loss, samples = self.case(tanh_link(), True, n=64)
        params = derive_rr_params("linear_time", 64, 3, loss.L0, loss.L1, 1.0,
                                  PrivacyBudget(1.0, 1e-5), {"lam": 0.3})
        S = samples[1]
        b = (Dataset(np.hstack([S.X, 0 * S.X[:, :1]]), S.y) if other == "d"
             else Dataset(S.X))
        rngs = [np.random.default_rng(r) for r in range(2)]
        with pytest.raises(ValueError, match="must share n, d and labelling"):
            run_recursive_regularization([samples[0], b], loss, params, "phased_sgd", rngs)


class TestBlockedNoisyGD:
    def test_prior_folds_to_the_full_average(self):
        rng = np.random.default_rng(50)
        ws = rng.standard_normal((23, 2, 3))
        for eta, lam in ((0.1, 0.7), (0.3, 0.0)):
            full = selector_weighted_avg(ws, eta, lam)
            avg, done = None, 0
            for lo in range(0, 23, 5):
                blk = ws[lo:lo + 5]
                avg = selector_weighted_avg(blk, eta, lam, None if avg is None else (avg, done))
                done += len(blk)
            assert np.max(np.abs(avg - full)) <= 1e-12

    @pytest.mark.parametrize("runs", [1, 3])
    def test_small_blocks_give_the_unblocked_average(self, monkeypatch, runs):
        c = np.array([0.4, -0.3, 0.2])
        loss = regularize(glm_loss(tanh_link(), 1.0, 1.0, 1.0, 3),
                          [np.zeros(3), c], [0.2, 0.4])
        pop = gen_support("glm_fullrank", 32, 3, seed=9, label_scale=0.5)
        data = [pop.sample(16, np.random.default_rng(r)) for r in range(runs)]

        def run():
            sizes = []

            def sel(block, eta, prior=None):
                sizes.append(len(block))
                return selector_weighted_avg(block, eta, 0.6, prior)

            out = noisy_gd(data, loss, 1.0, 40, 0.2, sel, 0.3,
                           [np.random.default_rng(60 + r) for r in range(runs)])
            return out, sizes

        whole, sizes = run()
        assert sizes == [40]
        monkeypatch.setattr(rr, "ITERATE_BLOCK", 7)
        blocked, sizes = run()
        assert sizes == [7] * 5 + [5]
        assert np.max(np.abs(blocked - whole)) <= 1e-12


class TestIndexedSampleMemory:
    def test_group_allocates_far_less_than_materialized_samples(self):
        import tracemalloc
        n, d, runs = 16384, 16, 5
        loss = glm_loss(tanh_link(), 1.0, 1.0, 1.0, d, F0_hint=1.0)
        pop = gen_support("glm_fullrank", 256, d, seed=3, label_scale=0.7)
        params = derive_rr_params("linear_time", n, d, loss.L0, loss.L1, 1.0,
                                  PrivacyBudget(1.0, 1e-6))
        materialized = runs * n * d * 8  # 10.5 MB
        tracemalloc.start()
        try:
            samples = [pop.sample(n, np.random.default_rng(r)) for r in range(runs)]
            reps = run_recursive_regularization(samples, loss, params, "phased_sgd",
                                                [np.random.default_rng(r) for r in range(runs)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(reps) == runs
        # about 2.4 MB: one phase's iterate block and rows, and the index vectors
        assert peak < materialized / 3
