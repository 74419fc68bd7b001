"""Tree-based private Spider: structure, traversal semantics, sensitivity."""
import math

import numpy as np
import pytest

from dpopt.core import Dataset, DatasetCursor, LossSpec, synthetic_nonconvex_loss
from dpopt.core.loss import huber_mean_loss
from dpopt.harness import FiniteSupportDistribution, gen_support
from dpopt.privacy import NoiseLedger, PrivacyBudget
from dpopt.tree_spider import (NodeAddress, TreeParams, _pinned_leaf, _tree_path,
                               derive_tree_params, dfs_order, largest_depth,
                               leaf_label, run_tree_spider,
                               validate_tree_estimation_error)
from dpopt.util import PreconditionError


class ConstantGradLoss(LossSpec):
    """grad(w; x) = g for every sample; variations vanish identically."""

    name = "constant_grad"

    def __init__(self, g):
        g = np.asarray(g, dtype=np.float64)
        super().__init__(g.shape[0], float(np.linalg.norm(g)), 1.0, F0_hint=1.0)
        self.g = g

    def eval(self, w, x, y=None):
        return float(self.g @ w)

    def grad(self, w, x, y=None):
        return self.g.copy()

    def eval_mean(self, w, X, Y=None, weights=None):
        return float(self.g @ w)

    def grad_mean(self, w, X, Y=None, weights=None):
        return self.g.copy()


def manual_params(b, D, T, alpha=1e-9, beta=None, sigma_root=0.0,
                  sigma_delta=0.0, C_tilde=1.0, p=0.1):
    """Small hand-built TreeParams; default threshold is tiny (never stops)."""
    if beta is None:
        beta = 2 ** (D / 2.0) * C_tilde * alpha
    return TreeParams(b=b, D=D, T=T, alpha=alpha, alpha_tilde=C_tilde * alpha,
                      beta_par=beta, C_tilde=C_tilde, sigma_root=sigma_root,
                      sigma_delta=sigma_delta, p=p)


class TestDfsOrder:
    def test_depth_two_matches_worked_example(self):
        assert dfs_order(2) == ["0", "00", "01", "1", "10", "11"]

    def test_depth_one(self):
        assert dfs_order(1) == ["0", "1"]

    def test_depth_zero_empty(self):
        assert dfs_order(0) == []

    @pytest.mark.parametrize("D", range(1, 7))
    def test_count_and_leaf_order(self, D):
        order = dfs_order(D)
        assert len(order) == 2 ** (D + 1) - 2
        assert len(set(order)) == len(order)
        leaves = [s for s in order if len(s) == D]
        assert leaves == [leaf_label(k, D) for k in range(2 ** D)]
        # brute-force preorder reconstruction
        def build(s):
            if len(s) == D:
                return [s]
            return [s] + build(s + "0") + build(s + "1")
        assert order == build("0") + build("1")


class TestDeriveTreeParams:
    def test_depth_from_batch(self):
        assert largest_depth(8) == 1   # 1*4 <= 8 < 2*8
        assert largest_depth(16) == 2
        assert largest_depth(3) == 0

    def test_matches_independent_reevaluation(self):
        n, d, L0, L1, F0, eps, delta, p = 4096, 4, 1.0, 1.0, 1.0, 1.0, 1e-6, 0.1
        params = derive_tree_params(n, d, L0, L1, F0, PrivacyBudget(eps, delta), p)
        b = math.floor(max(n ** (2 / 3), math.sqrt(n) * d ** 0.25 / math.sqrt(eps)) + 1e-6)
        assert params.b == b == 256
        D = max(DD for DD in range(20) if DD * 2 ** (DD + 1) <= b)
        assert params.D == D == 4
        T = math.floor(n / (b * (D / 2 + 1)))
        assert params.T == T == 5
        alpha = math.sqrt(2) * L0 * max(n ** (-1 / 3), math.sqrt(math.sqrt(d) / (n * eps)))
        assert params.alpha == pytest.approx(alpha, rel=1e-12)
        beta = alpha * min(1.0, math.sqrt(b) * eps / math.sqrt(d))
        assert params.beta_par == pytest.approx(beta, rel=1e-12)
        C = (256 * math.log(1.25 / delta) * math.log(2 * T * 2 ** (D + 1) / p)
             + 8 * L1 * F0 * math.sqrt(2 * D) * (D / 2 + 1) / (2 * L0 ** 2))
        assert params.C_tilde == pytest.approx(C, rel=1e-12)
        assert params.alpha_tilde == pytest.approx(C * alpha, rel=1e-12)
        assert params.sigma_root ** 2 == pytest.approx(
            8 * L0 ** 2 * math.log(1.25 / delta) / (b ** 2 * eps ** 2), rel=1e-12)
        assert params.sigma_delta ** 2 == pytest.approx(
            8 * 2 ** D * beta ** 2 * math.log(1.25 / delta) / (b ** 2 * eps ** 2),
            rel=1e-12)

    def test_beta_clamp_when_dimension_large(self):
        # sqrt(b) eps / sqrt(d) < 1 forces beta < alpha strictly
        params = derive_tree_params(4096, 1024, 1.0, 1.0, 1.0,
                                    PrivacyBudget(1.0, 1e-2), 0.1)
        assert math.sqrt(params.b) / math.sqrt(1024) < 1.0
        assert params.beta_par < params.alpha

    def test_hypothesis_violation(self):
        with pytest.raises(PreconditionError, match="sample-size hypothesis"):
            derive_tree_params(8, 4096, 1.0, 1.0, 1.0, PrivacyBudget(0.5, 1e-6), 0.1)

    def test_override_C_tilde_recomputes_threshold(self):
        base = derive_tree_params(1024, 4, 1.0, 1.0, 1.0,
                                  PrivacyBudget(1.0, 1e-6), 0.1)
        over = derive_tree_params(1024, 4, 1.0, 1.0, 1.0,
                                  PrivacyBudget(1.0, 1e-6), 0.1, {"C_tilde": 2.0})
        assert over.C_tilde == 2.0
        assert over.alpha_tilde == pytest.approx(2.0 * over.alpha, rel=1e-15)
        assert over.alpha == base.alpha and over.b == base.b

    def test_params_validation(self):
        with pytest.raises(ValueError, match="D 2"):
            manual_params(b=4, D=3, T=1).validate()
        with pytest.raises(ValueError, match="beta"):
            TreeParams(b=64, D=1, T=1, alpha=1.0, alpha_tilde=1.0, beta_par=10.0,
                       C_tilde=1.0, sigma_root=0.0, sigma_delta=0.0, p=0.1).validate()


class TestRunTreeSpider:
    def stream_of(self, n, d, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, d))
        X /= np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1.0)
        return DatasetCursor(Dataset(X))

    def test_constant_gradient_degeneration(self):
        g = np.array([3.0, 4.0])  # ||g|| = 5
        loss = ConstantGradLoss(g)
        params = manual_params(b=16, D=2, T=3)
        rep = run_tree_spider(loss, self.stream_of(400, 2), params,
                              np.random.default_rng(0), record_nodes=True)
        step_len = params.beta_par / (2 ** (params.D / 2.0) * loss.L1)
        for rec in rep.nodes:
            assert np.array_equal(rec.grad_est, g)
        # every leaf step has exact length beta/(2^(D/2) L1)
        leaves = [r for r in rep.nodes if len(r.address.s) == params.D]
        assert len(leaves) == params.T * 2 ** params.D
        for a, b in zip(leaves, leaves[1:]):
            d = np.linalg.norm(b.w - a.w)
            assert d == pytest.approx(step_len, rel=1e-12)

    def test_sample_accounting_exact(self):
        for D in range(1, 7):
            b = D * 2 ** (D + 1)  # divisible by 2^D, meets the depth bound
            T = 2
            params = manual_params(b=b, D=D, T=T)
            n = T * int(b * (D / 2 + 1)) + 5
            loss = ConstantGradLoss(np.ones(2))
            rep = run_tree_spider(loss, self.stream_of(n, 2), params,
                                  np.random.default_rng(1))
            per_round = int(b * (D / 2 + 1))
            assert rep.round_consumption == [per_round] * T
            assert rep.samples_consumed == T * per_round
            assert rep.oracle_calls == rep.samples_consumed
            assert rep.leaf_count_visited == T * 2 ** D
            assert rep.leaves_per_round == 2 ** D

    def test_left_children_copy_parent(self):
        loss = synthetic_nonconvex_loss(3)
        params = manual_params(b=16, D=2, T=2, sigma_root=0.05, sigma_delta=0.02)
        rep = run_tree_spider(loss, self.stream_of(200, 3), params,
                              np.random.default_rng(2), record_nodes=True)
        nodes = {(r.address.t, r.address.s): r for r in rep.nodes}
        for (t, s), rec in nodes.items():
            if s and s[-1] == "0":
                parent = nodes[(t, s[:-1])]
                assert np.array_equal(rec.w, parent.w)
                assert np.array_equal(rec.grad_est, parent.grad_est)
                assert rec.batch_range is None

    def test_estimator_is_root_plus_at_most_D_deltas(self):
        loss = synthetic_nonconvex_loss(3)
        params = manual_params(b=16, D=2, T=2, sigma_root=0.05, sigma_delta=0.02)
        rep = run_tree_spider(loss, self.stream_of(200, 3), params,
                              np.random.default_rng(3), record_nodes=True)
        nodes = {(r.address.t, r.address.s): r for r in rep.nodes}
        for (t, s), rec in nodes.items():
            deltas = [nodes[(t, s[:k + 1])].delta for k in range(len(s))
                      if s[k] == "1"]
            assert len(deltas) <= params.D
            expect = nodes[(t, "")].grad_est.copy()
            for dl in deltas:
                expect = expect + dl
            assert np.allclose(rec.grad_est, expect, atol=1e-12)

    def test_batches_disjoint(self):
        loss = synthetic_nonconvex_loss(3)
        params = manual_params(b=16, D=2, T=3, sigma_root=0.05, sigma_delta=0.02)
        rep = run_tree_spider(loss, self.stream_of(300, 3), params,
                              np.random.default_rng(4), record_nodes=True)
        ranges = sorted(r.batch_range for r in rep.nodes if r.batch_range)
        for (a1, b1), (a2, b2) in zip(ranges, ranges[1:]):
            assert b1 <= a2  # no overlap

    def test_immediate_early_stop(self):
        loss = synthetic_nonconvex_loss(4)
        # huge threshold: stop at the first leaf of round 1, which copies the root
        params = manual_params(b=16, D=2, T=3, alpha=1e9, C_tilde=1.0,
                               beta=1.0, sigma_root=0.01, sigma_delta=0.01)
        rep = run_tree_spider(loss, self.stream_of(200, 4), params,
                              np.random.default_rng(5))
        assert rep.stopped_early
        assert rep.stop_address == NodeAddress(1, "00")
        assert np.all(rep.w_out == 0.0)  # root parameter of round 1
        assert rep.samples_consumed == params.b  # only the root batch
        assert rep.leaf_count_visited == 1

    def test_round_root_carries_last_stepped_iterate(self):
        g = np.array([1.0, 0.0])
        loss = ConstantGradLoss(g)
        params = manual_params(b=16, D=1, T=2)
        rep = run_tree_spider(loss, self.stream_of(200, 2), params,
                              np.random.default_rng(6), record_nodes=True)
        nodes = {(r.address.t, r.address.s): r for r in rep.nodes}
        step_len = params.beta_par / (2 ** 0.5 * loss.L1)
        last_leaf_r1 = nodes[(1, "1")]
        stepped = last_leaf_r1.w - step_len * g / np.linalg.norm(g)
        assert np.allclose(nodes[(2, "")].w, stepped, atol=1e-15)

    def test_stream_too_short_rejected(self):
        loss = ConstantGradLoss(np.ones(2))
        params = manual_params(b=16, D=1, T=4)
        with pytest.raises(ValueError, match="stream holds"):
            run_tree_spider(loss, self.stream_of(30, 2), params,
                            np.random.default_rng(7))

    def test_deterministic(self):
        loss = synthetic_nonconvex_loss(3)
        params = manual_params(b=16, D=2, T=2, sigma_root=0.03, sigma_delta=0.01)
        reps = [run_tree_spider(loss, self.stream_of(200, 3), params,
                                np.random.default_rng(8)) for _ in range(2)]
        assert np.array_equal(reps[0].w_out, reps[1].w_out)
        assert reps[0].noise_ledger.rows() == reps[1].noise_ledger.rows()

    def test_uniform_leaf_selection_range(self):
        loss = synthetic_nonconvex_loss(2)
        params = manual_params(b=8, D=1, T=3, sigma_root=0.02, sigma_delta=0.01)
        rep = run_tree_spider(loss, self.stream_of(100, 2), params,
                              np.random.default_rng(9))
        assert not rep.stopped_early
        assert 0 <= rep.selected_leaf < rep.leaf_count_visited


class TestTreeSensitivityRealization:
    def test_delta_differences_bounded_under_sample_swap(self):
        # huber loss far from its data: gradients have unit norm, no early stop
        d, n = 2, 40
        loss = huber_mean_loss(1.0, 1.0, dim=d)
        # threshold 2 alpha_tilde = 0.1 stays far below the unit-norm gradient
        # estimates (data sits outside the Huber radius), so no early stop
        params = manual_params(b=8, D=1, T=3, alpha=0.05, C_tilde=1.0,
                               sigma_root=0.0, sigma_delta=0.0)
        rng0 = np.random.default_rng(11)
        base_points = rng0.standard_normal((n, d)) + np.array([5.0, 5.0])
        S = Dataset(base_points)

        def deltas_of(stream_ds, seed=21):
            rep = run_tree_spider(loss, DatasetCursor(stream_ds), params,
                                  np.random.default_rng(seed), record_nodes=True)
            return {(r.address.t, r.address.s): r.delta for r in rep.nodes
                    if r.delta is not None}

        bound = 2 * params.beta_par * 2 ** (params.D / 2) / params.b
        ref = deltas_of(S)
        worst = 0.0
        for i in range(n):
            swapped = S.replace_sample(i, np.array([4.0, 6.5]))
            other = deltas_of(swapped)
            for key in ref:
                diff = float(np.linalg.norm(ref[key] - other[key]))
                worst = max(worst, diff)
                assert diff <= bound + 1e-12
        assert worst > 0.0  # the swap was actually visible somewhere


class TestSharedTraversal:
    @pytest.mark.parametrize("alpha, T, stops", [(0.35, 4, True), (0.15, 2, False)])
    def test_pinned_replay_reproduces_the_run(self, alpha, T, stops):
        # the validator's trials walk the optimizer's path: replaying a noisy
        # run on the same stream and generator state, with the validator's
        # pinned leaf hook, gives every leaf estimate and the ledger bit for bit
        rng = np.random.default_rng(0)
        S = Dataset(0.2 * rng.standard_normal((400, 3)) + np.array([1.5, 1.0, 0.0]))
        loss = huber_mean_loss(1.0, 1.0, dim=3)
        params = TreeParams(b=16, D=2, T=T, alpha=alpha, alpha_tilde=alpha,
                            beta_par=0.3, C_tilde=1.0, sigma_root=0.05,
                            sigma_delta=0.02, p=0.1)
        ref = run_tree_spider(loss, DatasetCursor(S), params,
                              np.random.default_rng(1), record_nodes=True)
        assert ref.stopped_early == stops
        seen = []
        ledger = NoiseLedger()
        _tree_path(loss, params, DatasetCursor(S).take, np.random.default_rng(1),
                   ledger, _pinned_leaf(ref, lambda *leaf: seen.append(leaf)))
        leaves = [r for r in ref.nodes if len(r.address.s) == params.D]
        assert len(seen) == len(leaves) == ref.leaf_count_visited
        for (t, s, w, nabla), rec in zip(seen, leaves):
            assert NodeAddress(t, s) == rec.address
            assert np.array_equal(w, rec.w)
            assert np.array_equal(nabla, rec.grad_est)
        assert ledger.rows() == ref.noise_ledger.rows()


class TestEstimationErrorValidator:
    def test_exact_population_batches_never_violate(self):
        # single-point support: every batch mean is the population mean exactly
        loss = synthetic_nonconvex_loss(2)
        x0 = np.array([[0.6, 0.3]])
        dist = FiniteSupportDistribution(Dataset(x0, np.array([0.4])))
        params = manual_params(b=8, D=1, T=2, alpha=1e-6, C_tilde=1.0,
                               sigma_root=0.0, sigma_delta=0.0)
        chk = validate_tree_estimation_error(loss, dist, params, trials=100,
                                             rng=np.random.default_rng(12))
        assert chk.violation_rate == 0.0
        assert chk.worst_sq_err <= 1e-24

    def test_violation_rate_within_target(self):
        loss = synthetic_nonconvex_loss(3)
        dist = gen_support("glm_fullrank", 64, 3, seed=13, label_scale=0.5)
        params = derive_tree_params(1024, 3, loss.L0, loss.L1, 1.0,
                                    PrivacyBudget(1.0, 1e-4), 0.1,
                                    {"b": 64, "T": 3})
        chk = validate_tree_estimation_error(loss, dist, params, trials=500,
                                             rng=np.random.default_rng(14))
        assert chk.violation_rate <= params.p + 5 * math.sqrt(params.p / 500)

    def test_threshold_monotonicity(self):
        loss = synthetic_nonconvex_loss(3)
        dist = gen_support("glm_fullrank", 64, 3, seed=15, label_scale=0.5)
        params = manual_params(b=16, D=1, T=2, alpha=0.05, C_tilde=1.0,
                               sigma_root=0.05, sigma_delta=0.05)
        loose = manual_params(b=16, D=1, T=2, alpha=0.05, C_tilde=10.0,
                              beta=params.beta_par,
                              sigma_root=0.05, sigma_delta=0.05)
        tight_rate = validate_tree_estimation_error(
            loss, dist, params, trials=200, rng=np.random.default_rng(16)).violation_rate
        loose_rate = validate_tree_estimation_error(
            loss, dist, loose, trials=200, rng=np.random.default_rng(16)).violation_rate
        assert loose_rate <= tight_rate
