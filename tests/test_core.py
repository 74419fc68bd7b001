"""Losses, gradient oracles, datasets, and the finite-difference verifier."""
import math

import numpy as np
import pytest

from dpopt.core import (Dataset, DatasetCursor, StreamExhausted, ZeroLoss,
                        convexity_spot_check, erm_grad, erm_value, fd_check,
                        glm_loss, huber_1d_loss, huber_mean_loss,
                        lipschitz_audit, load_csv, rational_link, save_csv,
                        smoothness_audit, square_link, synthetic_nonconvex_loss,
                        tanh_link, RATIONAL_L0, RATIONAL_L1)
from dpopt.core import data as data_module
from dpopt.core.data import row_norms
from dpopt.harness import gen_synthetic


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
        vals = np.mean([loss.eval(w, X[i]) for i in range(11)])
        assert loss.eval_mean(w, X) == pytest.approx(vals, rel=1e-14)

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

    def test_default_is_the_two_grad_means(self):
        rng = np.random.default_rng(4)
        loss = huber_mean_loss(1.0, 1.0, dim=3)
        X = rng.standard_normal((2, 9, 3))
        W, W_prev = rng.standard_normal((2, 3)), rng.standard_normal((2, 3))
        got = loss.grad_var(W, W_prev, X)
        for r in range(2):
            assert np.array_equal(got[r], loss.grad_mean(W[r], X[r])
                                  - loss.grad_mean(W_prev[r], X[r]))


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
        assert 0.0 <= erm_value(loss, np.zeros(4), S) < loss.F0_hint

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

    @pytest.mark.parametrize("n,P", [(4096, 19), (100, 3), (2 ** 16, 2)])
    def test_glm_blocks_match_erm_grad(self, n, P):
        # blocks of 2**15 // n points: 8 (two full, one partial), 327 (one), 1
        loss = synthetic_nonconvex_loss(6)
        S = gen_synthetic("glm_fullrank", n, 6, seed=n, label_scale=0.5)
        W = np.random.default_rng(P).standard_normal((P, 6))
        got = loss.erm_grads(W, S)
        for w, g in zip(W, got):
            want = erm_grad(loss, w, S)
            assert np.max(np.abs(g - want)) <= 1e-12 * np.max(np.abs(want))

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
        with pytest.raises(StreamExhausted):
            cur.take(1)

    def test_immutable(self):
        ds = Dataset(np.ones((2, 2)))
        with pytest.raises(ValueError):
            ds.X[0, 0] = 5.0

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

    def test_csv_round_trip_unlabeled(self, tmp_path):
        ds = Dataset(np.random.default_rng(9).standard_normal((7, 3)))
        path = tmp_path / "d.csv"
        save_csv(ds, path)
        back = load_csv(path)
        assert np.array_equal(back.X, ds.X)

    def test_csv_round_trip_labeled_with_header(self, tmp_path):
        rng = np.random.default_rng(10)
        ds = Dataset(rng.standard_normal((5, 2)) / 3.0, rng.standard_normal(5))
        path = tmp_path / "d.csv"
        save_csv(ds, path, header=True)
        back = load_csv(path, labels=True)
        assert np.array_equal(back.X, ds.X)
        assert np.array_equal(back.y, ds.y)

    def test_label_count_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.zeros(2))
