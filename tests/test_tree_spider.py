"""Tree-based private Spider: structure, traversal semantics, sensitivity."""
import math

import numpy as np
import pytest

from dpopt.core import Dataset, DatasetCursor, LossSpec, synthetic_nonconvex_loss
from dpopt.core.data import Runs
from dpopt.core.loss import GLMLoss, glm_loss, huber_mean_loss, square_link, tanh_link
from dpopt.harness import FiniteSupportDistribution, gen_support
from dpopt.privacy import NoiseLedger, PrivacyBudget, draw_gaussian
from dpopt import tree_spider
from dpopt.tree_spider import (NodeAddress, TreeParams, TreeRuns, _pinned_leaf,
                               _tree_path, derive_tree_params, dfs_order,
                               largest_depth, leaf_label, run_tree_spider,
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

    def grad_mean(self, w, X, Y=None):
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

    # `min(L0, L1, F0) <= 0` let a NaN through in any position
    @pytest.mark.parametrize("nan_at", [0, 1, 2])
    def test_rejects_nan_constant(self, nan_at):
        consts = [1.0, 1.0, 1.0]
        consts[nan_at] = math.nan
        with pytest.raises(ValueError, match="^L0, L1, F0 must be positive$"):
            derive_tree_params(1024, 4, *consts, PrivacyBudget(1.0, 1e-6), 0.1)

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
        # each check fails a NaN, which `x <= 0`-style checks let through
        nan = float("nan")
        for field, message in (("alpha", "alpha_tilde"), ("alpha_tilde", "alpha_tilde"),
                               ("C_tilde", "alpha_tilde"), ("beta_par", "beta"),
                               ("sigma_root", "noise"), ("sigma_delta", "noise"),
                               ("p", "p must")):
            fields = {**vars(manual_params(b=16, D=1, T=1)), field: nan}
            with pytest.raises(ValueError, match=message):
                TreeParams(**fields).validate()


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

    def test_indexed_stream_matches_plain_stream(self):
        # a population sample held as support indices runs as its gathered rows
        loss = synthetic_nonconvex_loss(3)
        dist = gen_support("glm_fullrank", 32, 3, seed=17, label_scale=0.5)
        sample = dist.sample(200, np.random.default_rng(18))
        params = manual_params(b=16, D=2, T=3, sigma_root=0.03, sigma_delta=0.01)
        reps = [run_tree_spider(loss, DatasetCursor(S), params,
                                np.random.default_rng(19), record_nodes=True)
                for S in (sample, Dataset(sample.X.copy(), sample.y.copy()))]
        indexed, plain = reps
        assert np.array_equal(indexed.w_out, plain.w_out)
        assert indexed.noise_ledger.rows() == plain.noise_ledger.rows()
        for field in ("stopped_early", "stop_address", "samples_consumed",
                      "leaf_count_visited", "rounds_completed", "round_consumption",
                      "selected_leaf"):
            assert getattr(indexed, field) == getattr(plain, field), field
        assert len(indexed.nodes) == len(plain.nodes) == 3 * 7
        for a, b in zip(indexed.nodes, plain.nodes):
            assert (a.address, a.batch_range) == (b.address, b.batch_range)
            assert np.array_equal(a.w, b.w) and np.array_equal(a.grad_est, b.grad_est)
            assert (a.delta is None) == (b.delta is None)
            assert a.delta is None or np.array_equal(a.delta, b.delta)

    def test_indexed_stream_at_the_support_size_matches_plain_stream(self):
        # on an 8-row support the roots (16 samples) and depth-1 right
        # children (8) sum counted support rows, not rows in sample order:
        # the noise, stops and samples are the plain stream's, the iterates
        # agree to rounding
        loss = synthetic_nonconvex_loss(3)
        dist = gen_support("glm_fullrank", 8, 3, seed=17, label_scale=0.5)
        sample = dist.sample(200, np.random.default_rng(18))
        params = manual_params(b=16, D=2, T=3, sigma_root=0.03, sigma_delta=0.01)
        indexed, plain = [run_tree_spider(loss, DatasetCursor(S), params,
                                          np.random.default_rng(19), record_nodes=True)
                          for S in (sample, Dataset(sample.X.copy(), sample.y.copy()))]
        assert indexed.noise_ledger.rows() == plain.noise_ledger.rows()
        for field in ("stopped_early", "stop_address", "samples_consumed",
                      "leaf_count_visited", "rounds_completed", "round_consumption",
                      "selected_leaf"):
            assert getattr(indexed, field) == getattr(plain, field), field
        assert [a.batch_range for a in indexed.nodes] == [b.batch_range for b in plain.nodes]
        assert np.max(np.abs(indexed.w_out - plain.w_out)) <= 1e-13 * np.max(np.abs(plain.w_out))

    def test_uniform_leaf_selection_range(self):
        loss = synthetic_nonconvex_loss(2)
        params = manual_params(b=8, D=1, T=3, sigma_root=0.02, sigma_delta=0.01)
        rep = run_tree_spider(loss, self.stream_of(100, 2), params,
                              np.random.default_rng(9))
        assert not rep.stopped_early
        assert 0 <= rep.selected_leaf < rep.leaf_count_visited


def assert_same_tree_run(a, b):
    assert np.array_equal(a.w_out, b.w_out)
    for name in ("stopped_early", "stop_address", "samples_consumed",
                 "leaf_count_visited", "rounds_completed", "leaves_per_round",
                 "round_consumption", "selected_leaf"):
        assert getattr(a, name) == getattr(b, name), name
    assert a.noise_ledger == b.noise_ledger
    assert len(a.nodes) == len(b.nodes)
    for x, y in zip(a.nodes, b.nodes):
        assert (x.address, x.batch_range) == (y.address, y.batch_range)
        assert np.array_equal(x.w, y.w) and np.array_equal(x.grad_est, y.grad_est)
        assert (x.delta is None) == (y.delta is None)
        assert x.delta is None or np.array_equal(x.delta, y.delta)


class TestLockstep:
    """R = 5 runs in lockstep give each run's R = 1 report, bit for bit."""

    @staticmethod
    def group_equals_alone(loss, datasets, params, record_nodes=False):
        def rngs():
            return [np.random.default_rng(50 + r) for r in range(len(datasets))]
        group = run_tree_spider(loss, [DatasetCursor(S) for S in datasets], params,
                                rngs(), record_nodes=record_nodes)
        assert isinstance(group, TreeRuns) and len(group) == len(datasets)
        for S, rng, rep in zip(datasets, rngs(), group):
            assert_same_tree_run(rep, run_tree_spider(loss, DatasetCursor(S), params, rng,
                                                      record_nodes=record_nodes))
        # the totals perfbench's tree_spider.run span reads off the group
        assert group.leaf_count_visited == sum(rep.leaf_count_visited for rep in group)
        assert group.samples_consumed == sum(rep.samples_consumed for rep in group)
        return [None if rep.stop_address is None else (rep.stop_address.t, rep.stop_address.s)
                for rep in group]

    @pytest.mark.parametrize("gather", [None, 48], ids=["one_gather", "sub_groups"])
    @pytest.mark.parametrize("support, label_scale, alpha, stops", [
        (64, 0.5, 0.06, [(3, "01"), (3, "11"), (3, "00"), (1, "01"), None]),
        (64, 0.0, 0.015, [(3, "11"), None, (1, "11"), (2, "10"), (2, "10")]),
        (8, 0.5, 0.05, [None, (3, "10"), (4, "01"), None, (4, "10")]),
        (8, 0.0, 0.015, [(3, "11"), None, (1, "11"), (2, "10"), None]),
    ], ids=["labelled", "unlabelled", "labelled_counted", "unlabelled_counted"])
    def test_population_samples(self, monkeypatch, gather, support, label_scale, alpha,
                                stops):
        # runs stop at other leaves and in other rounds, and one never stops
        # and draws its returned leaf; with 48 entries (16 rows x 3) a root
        # gathers one run at a time and a depth-1 node two at a time. On the
        # 8-row support, roots (16 samples) and depth-1 right children (8)
        # take counts instead, and depth-2 ones (4) gather.
        if gather is not None:
            monkeypatch.setattr(tree_spider, "GATHER_ENTRIES", gather)
        counted = []

        def grad_counts(self, W, X, Y, C, size, W_prev=None, _orig=GLMLoss.grad_counts):
            counted.append((len(C), size))
            return _orig(self, W, X, Y, C, size, W_prev)
        monkeypatch.setattr(GLMLoss, "grad_counts", grad_counts)
        loss = synthetic_nonconvex_loss(3)
        dist = gen_support("glm_fullrank", support, 3, seed=13, label_scale=label_scale)
        samples = [dist.sample(200, np.random.default_rng(30 + r)) for r in range(5)]
        params = TreeParams(b=16, D=2, T=4, alpha=alpha, alpha_tilde=alpha,
                            beta_par=2 * alpha, C_tilde=1.0, sigma_root=0.05,
                            sigma_delta=0.02, p=0.1)
        assert self.group_equals_alone(loss, samples, params) == stops
        assert {size for _, size in counted} == ({16, 8} if support == 8 else set())
        # counts over the whole group, over one run alone, and over a group
        # that stopped runs have left
        assert support == 64 or {1, 5} < {A for A, _ in counted}

    def test_plain_streams_and_a_loss_that_is_not_a_glm(self):
        rngs = [np.random.default_rng(80 + r) for r in range(5)]
        data = [Dataset(0.2 * rng.standard_normal((300, 3)) + np.array([1.5, 1.0, 0.0]))
                for rng in rngs]
        params = TreeParams(b=16, D=2, T=4, alpha=0.35, alpha_tilde=0.35, beta_par=0.3,
                            C_tilde=1.0, sigma_root=0.05, sigma_delta=0.02, p=0.1)
        stops = self.group_equals_alone(huber_mean_loss(1.0, 1.0, dim=3), data, params,
                                        record_nodes=True)
        assert len(set(stops)) > 1 and None not in stops

    def test_a_loss_that_is_not_a_glm_on_counted_batches(self):
        # the Huber mean loss has no counted kernel: on an 8-row support,
        # roots and depth-1 right children expand their counts back to rows
        dist = gen_support("huber_cluster", 8, 3, seed=13)
        samples = [dist.sample(200, np.random.default_rng(30 + r)) for r in range(5)]
        params = TreeParams(b=16, D=2, T=4, alpha=0.02, alpha_tilde=0.02, beta_par=0.04,
                            C_tilde=1.0, sigma_root=0.05, sigma_delta=0.02, p=0.1)
        stops = self.group_equals_alone(huber_mean_loss(1.0, 1.0, dim=3), samples, params,
                                        record_nodes=True)
        assert stops == [(3, "11"), (1, "01"), (1, "10"), (2, "11"), (2, "11")]

    def test_rejects_mismatched_groups(self):
        loss = synthetic_nonconvex_loss(3)
        dist = gen_support("glm_fullrank", 64, 3, seed=13, label_scale=0.5)
        params = manual_params(b=16, D=2, T=2)
        rng = np.random.default_rng(0)
        base = dist.sample(200, rng)
        others = [dist.sample(201, rng),
                  gen_support("glm_fullrank", 64, 4, seed=13, label_scale=0.5).sample(200, rng),
                  gen_support("glm_fullrank", 64, 3, seed=13).sample(200, rng)]
        for other in others:  # n, d, labelling
            with pytest.raises(ValueError, match="share n, d and labelling"):
                run_tree_spider(loss, [DatasetCursor(base), DatasetCursor(other)], params,
                                [np.random.default_rng(1), np.random.default_rng(2)])
        with pytest.raises(ValueError, match="one dataset per generator"):
            run_tree_spider(loss, [DatasetCursor(base)] * 2, params,
                            [np.random.default_rng(1)])
        with pytest.raises(ValueError, match="its own cursor"):
            run_tree_spider(loss, [DatasetCursor(base)] * 2, params,
                            [np.random.default_rng(1), np.random.default_rng(2)])
        short = DatasetCursor(base, start=150)
        with pytest.raises(ValueError, match="stream holds 50 samples"):
            run_tree_spider(loss, [DatasetCursor(base), short], params,
                            [np.random.default_rng(1), np.random.default_rng(2)])


class TestSamplesDrawnOnRead:
    """Runs on samples that draw their indices as they are read give the
    reports of runs on samples drawn in full, alone and in a group, and
    draw no index past the furthest position their group read."""

    @pytest.mark.parametrize("support, alpha, stops", [
        (64, 0.06, [(3, "01"), (3, "11"), (3, "00"), (1, "01"), None]),
        (8, 0.05, [None, (3, "10"), (4, "01"), None, (4, "10")]),
    ], ids=["gathered", "counted"])
    def test_reports_and_draws_match_eager_samples(self, monkeypatch, support, alpha, stops):
        read = {}  # id of a sample -> the furthest position read from it

        def indices(self, starts, length, _orig=Runs.indices):
            for S, p in zip(self, starts):
                read[id(S)] = max(read.get(id(S), 0), p + length)
            return _orig(self, starts, length)
        monkeypatch.setattr(Runs, "indices", indices)
        loss = synthetic_nonconvex_loss(3)
        dist = gen_support("glm_fullrank", support, 3, seed=13, label_scale=0.5)
        params = TreeParams(b=16, D=2, T=4, alpha=alpha, alpha_tilde=alpha,
                            beta_par=2 * alpha, C_tilde=1.0, sigma_root=0.05,
                            sigma_delta=0.02, p=0.1)
        per_round = params.samples_per_round()

        def run(ids, sample):
            rngs = [np.random.default_rng(30 + r) for r in ids]
            data = [sample(200, rng) for rng in rngs]
            return data, rngs, run_tree_spider(loss, list(map(DatasetCursor, data)), params,
                                               [np.random.default_rng(50 + r) for r in ids])

        ids = range(5)
        *_, want = run(ids, dist.sample)
        group = run(ids, dist.sample_on_read)
        assert [None if rep.stop_address is None else (rep.stop_address.t, rep.stop_address.s)
                for rep in group[2]] == stops
        for r, stop in zip(ids, stops):
            alone = run([r], dist.sample_on_read)
            for data, rngs, reps, i in (group + (r,), alone + (0,)):
                assert_same_tree_run(reps[i], want[r])
                assert reps[i].w_out.tobytes() == want[r].w_out.tobytes()
                # drawn to the end of the round the run stopped in, and no further
                end = (params.T if stop is None else stop[0]) * per_round
                assert read[id(data[i])] == end
                ref = np.random.default_rng(30 + r)
                ref.integers(0, support, end)
                assert rngs[i].bit_generator.state == ref.bit_generator.state


class TestCursors:
    """`run_tree_spider` reads each run's batches in place and moves every
    cursor once, at the end, past the samples its run consumed."""

    STARTS = [0, 7, 13, 40, 72]  # the last run ends on the stream's last sample
    PARAMS = TreeParams(b=16, D=2, T=4, alpha=0.056, alpha_tilde=0.056, beta_par=0.112,
                        C_tilde=1.0, sigma_root=0.05, sigma_delta=0.02, p=0.1)

    @pytest.mark.parametrize("plain", [False, True], ids=["indexed", "plain"])
    def test_each_cursor_ends_at_its_start_plus_what_its_run_consumed(self, plain):
        loss = synthetic_nonconvex_loss(3)
        dist = gen_support("glm_fullrank", 64, 3, seed=13, label_scale=0.5)
        samples = [dist.sample(200, np.random.default_rng(30 + r)) for r in range(5)]
        if plain:  # the same rows, held as arrays
            samples = [Dataset(S.X, S.y) for S in samples]
        cursors = [DatasetCursor(S, start=p) for S, p in zip(samples, self.STARTS)]
        group = run_tree_spider(loss, cursors, self.PARAMS,
                                [np.random.default_rng(50 + r) for r in range(5)],
                                record_nodes=True)
        # one run never stops; the others stop mid-round or at a round's end
        assert [rep.stop_address for rep in group] == [
            None, NodeAddress(3, "11"), NodeAddress(3, "01"), NodeAddress(4, "01"),
            NodeAddress(3, "11")]
        for r, (S, start, cursor, rep) in enumerate(zip(samples, self.STARTS, cursors, group)):
            assert cursor.consumed == start + rep.samples_consumed
            assert rep.samples_consumed == sum(rep.round_consumption)
            spans = [rec.batch_range for rec in rep.nodes if rec.batch_range is not None]
            assert spans[0][0] == start and spans[-1][1] == cursor.consumed
            assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
            # alone (R = 1), and on a cursor over the same rows from 0
            alone = DatasetCursor(S, start=start)
            assert_same_tree_run(rep, run_tree_spider(loss, alone, self.PARAMS,
                                                      np.random.default_rng(50 + r),
                                                      record_nodes=True))
            assert alone.consumed == cursor.consumed
            rest = DatasetCursor(S.slice(start, S.n))
            moved = run_tree_spider(loss, rest, self.PARAMS, np.random.default_rng(50 + r))
            assert moved.w_out.tobytes() == rep.w_out.tobytes()
            assert moved.noise_ledger == rep.noise_ledger
            assert rest.consumed == moved.samples_consumed == rep.samples_consumed


class TestNoiseBlocks:
    """Each run draws its noise for a block of nodes in one call, and leaves
    its generator where one draw per node would have left it."""

    PARAMS = TreeParams(b=16, D=2, T=4, alpha=0.06, alpha_tilde=0.06, beta_par=0.12,
                        C_tilde=1.0, sigma_root=0.05, sigma_delta=0.02, p=0.1)

    @pytest.mark.parametrize("R", [1, 5])
    @pytest.mark.parametrize("nodes", [2, 4, 8], ids=["below_2D", "at_2D", "above_2D"])
    def test_generators_end_as_after_per_node_draws(self, monkeypatch, nodes, R):
        loss = synthetic_nonconvex_loss(3)
        dist = gen_support("glm_fullrank", 64, 3, seed=13, label_scale=0.5)
        samples = [dist.sample(200, np.random.default_rng(30 + r)) for r in range(5)]

        def run(noise_nodes):
            """Each run's report and generator, in groups of R runs."""
            monkeypatch.setattr(tree_spider, "NOISE_NODES", noise_nodes)
            out = []
            for ids in ([[0, 1, 2, 3, 4]] if R == 5 else [[r] for r in range(5)]):
                rngs = [np.random.default_rng(50 + r) for r in ids]
                reps = run_tree_spider(loss, [DatasetCursor(samples[r]) for r in ids],
                                       self.PARAMS, rngs, record_nodes=True)
                out += zip(reps, rngs)
            return out

        got = run(nodes)
        # 2^D = 4 leaves a round: with C = 2 blocks end at leaves 01 and 11,
        # with C = 4 at 11; the runs stop mid-block (00, and 01 for C = 4), at
        # a block's last row (11, and 01 for C = 2), or never
        assert [rep.stop_address for rep, _ in got] == [
            NodeAddress(3, "01"), NodeAddress(3, "11"), NodeAddress(3, "00"),
            NodeAddress(1, "01"), None]
        for r, ((rep, rng), (per_node, _)) in enumerate(zip(got, run(1))):
            assert_same_tree_run(rep, per_node)  # C = 1 is one draw per node
            replay = np.random.default_rng(50 + r)
            replay.standard_normal(3 * rep.leaf_count_visited)
            if not rep.stopped_early:
                replay.integers(rep.leaf_count_visited)
            assert rng.bit_generator.state == replay.bit_generator.state


def right_children(rep):
    """(record, its parent's record) for each right child of a recorded run."""
    at = {(rec.address.t, rec.address.s): rec for rec in rep.nodes}
    return [(rec, at[rec.address.t, rec.address.s[:-1]]) for rec in rep.nodes
            if rec.address.s.endswith("1")]


class TestRightChildDelta:
    """A right child's Delta is (2^k/b) sum_i (grad(w_s; x_i) - grad(w_par; x_i))
    over its batch, from `loss.grad_var`; sigma_delta = 0, so Delta is that sum."""

    @staticmethod
    def group(loss, datasets, params):
        return run_tree_spider(loss, [DatasetCursor(S) for S in datasets], params,
                               [np.random.default_rng(60 + r) for r in range(len(datasets))],
                               record_nodes=True)

    @pytest.mark.parametrize("gather", [None, 48], ids=["one_gather", "sub_groups"])
    @pytest.mark.parametrize("support", [64, 8], ids=["gathered", "counted"])
    @pytest.mark.parametrize("label_scale", [0.5, 0.0], ids=["labelled", "unlabelled"])
    @pytest.mark.parametrize("make", [synthetic_nonconvex_loss,
                                      lambda d: glm_loss(tanh_link(), 1.0, 1.0, 1.0, d),
                                      lambda d: glm_loss(square_link(), 1.0, 1.0, 1.0, d)],
                             ids=["rational", "tanh", "square"])
    def test_matches_the_per_sample_sum(self, monkeypatch, gather, support, label_scale,
                                        make):
        # with 48 entries a depth-1 node gathers two runs at a time: its
        # sub-groups of 2, 2 and 1 runs take their buffers from one array.
        # On the 8-row support, roots (16 samples) and depth-1 right children
        # (8) take their means over counted support rows instead.
        if gather is not None:
            monkeypatch.setattr(tree_spider, "GATHER_ENTRIES", gather)
        loss = make(3)
        dist = gen_support("glm_fullrank", support, 3, seed=13, label_scale=label_scale)
        data = [dist.sample(200, np.random.default_rng(30 + r)) for r in range(5)]
        params = TreeParams(b=16, D=2, T=4, alpha=1e-3, alpha_tilde=0.02, beta_par=0.04,
                            C_tilde=20.0, sigma_root=0.1, sigma_delta=0.0, p=0.1)

        def grad_sum(S, w, span, w_par=None):
            return sum(loss.grad(w, S.X[i], None if S.y is None else S.y[i])
                       - (0.0 if w_par is None else
                          loss.grad(w_par, S.X[i], None if S.y is None else S.y[i]))
                       for i in range(*span))

        checked = roots = 0
        for r, (S, rep) in enumerate(zip(data, self.group(loss, data, params))):
            # a run draws d normals per noisy node, four a round, the root's first
            root_noise = params.sigma_root * np.random.default_rng(60 + r).standard_normal(
                (params.T, 4, 3))[:, 0]
            for rec in rep.nodes:
                if not rec.address.s:
                    want = grad_sum(S, rec.w, rec.batch_range) / params.b
                    got = rec.grad_est - root_noise[rec.address.t - 1]
                    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
                    roots += 1
            for rec, par in right_children(rep):
                lo, hi = rec.batch_range
                k = len(rec.address.s)
                want = 2 ** k / params.b * grad_sum(S, rec.w, (lo, hi), par.w)
                assert hi - lo == params.batch_size(k)
                assert np.max(np.abs(rec.delta - want)) <= 1e-13 * np.max(np.abs(want))
                checked += 1
        assert checked >= 48  # of 60: three right children a round, some runs stop early
        assert roots >= 17  # of 20

    @pytest.mark.parametrize("support", [None, 8], ids=["plain", "counted"])
    def test_a_loss_without_a_batched_kernel_keeps_its_two_grad_means(self, support):
        # LossSpec.grad_var's default: Delta is, row for row and bit for bit,
        # scale * (size * (grad_mean(w_s) - grad_mean(w_par))). On an 8-row
        # support, LossSpec.grad_counts' default gives a depth-1 right child
        # (8 samples) the same on its batch sorted by support row, and a
        # depth-2 one (4 samples) keeps its rows in sample order.
        loss = huber_mean_loss(1.0, 1.0, dim=3)
        if support is None:
            rngs = [np.random.default_rng(80 + r) for r in range(5)]
            data = [Dataset(0.2 * rng.standard_normal((300, 3)) + np.array([1.5, 1.0, 0.0]))
                    for rng in rngs]
            alpha, beta = 0.35, 0.3
        else:
            dist = gen_support("huber_cluster", support, 3, seed=13)
            data = [dist.sample(200, np.random.default_rng(30 + r)) for r in range(5)]
            alpha, beta = 0.005, 0.01
        params = TreeParams(b=16, D=2, T=4, alpha=alpha, alpha_tilde=alpha, beta_par=beta,
                            C_tilde=1.0, sigma_root=0.0, sigma_delta=0.0, p=0.1)
        checked = []
        for S, rep in zip(data, self.group(loss, data, params)):
            for rec, par in right_children(rep):
                lo, hi = rec.batch_range
                size, scale = hi - lo, 2 ** len(rec.address.s) / params.b
                X = (S.X[lo:hi] if support is None or size < support else
                     dist.support.X[np.sort(S.indices(lo, hi))])
                want = scale * (size * (loss.grad_mean(rec.w, X) - loss.grad_mean(par.w, X)))
                assert rec.delta.tobytes() == want.tobytes()
                checked.append(size)
        assert len(checked) > 10 and set(checked) == {8, 4}


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
        batch = tree_spider._StreamBatches([DatasetCursor(S)], params.samples_per_round(), 3)
        rng = np.random.default_rng(1)

        def noise(runs, sigma, site):  # one draw per node, as the validator's
            return draw_gaussian(3, sigma, rng, ledger, site)[None]

        _tree_path(loss, params, 1, batch, noise,
                   _pinned_leaf(ref, lambda *leaf: seen.append(leaf)))
        leaves = [r for r in ref.nodes if len(r.address.s) == params.D]
        assert len(seen) == len(leaves) == ref.leaf_count_visited
        for (t, s, w, nabla), rec in zip(seen, leaves):
            assert NodeAddress(t, s) == rec.address
            assert np.array_equal(w, rec.w)
            assert np.array_equal(nabla, rec.grad_est)
        assert ledger.rows() == ref.noise_ledger.rows()


class TestGroupHooks:
    """`_tree_path` calls its hooks once per node with every active run's
    row; a run that a group leaf hook stops leaves the group, and the others
    keep the rows, batches and draws they get alone."""

    # (t, s) of the leaf where each run stops; run 1 never stops
    STOPS = {0: (2, "01"), 2: (3, "10"), 3: (1, "11")}
    PARAMS = TreeParams(b=16, D=2, T=4, alpha=0.1, alpha_tilde=0.1, beta_par=0.2,
                        C_tilde=1.0, sigma_root=0.05, sigma_delta=0.02, p=0.1)

    def walk(self, ids):
        """One `_tree_path` call over the runs `ids`: each run's leaf and node
        rows, the stream spans it took, its ledger rows, and the group's
        (t, s, runs) of every node-hook call."""
        loss = synthetic_nonconvex_loss(3)
        dist = gen_support("glm_fullrank", 64, 3, seed=13, label_scale=0.5)
        leaves = {r: [] for r in ids}
        nodes = {r: [] for r in ids}
        spans = {r: [] for r in ids}
        calls = []
        gather = tree_spider._StreamBatches(
            [DatasetCursor(dist.sample(200, np.random.default_rng(30 + r))) for r in ids],
            self.PARAMS.samples_per_round(), 3)

        def batch(runs, size):
            for pos in runs:
                spans[ids[pos]].append((gather.starts[pos] + gather.used, size))
            return gather(runs, size)

        def leaf(runs, t, s, W, nabla):
            assert W.shape == nabla.shape == (len(runs), 3)
            for i, pos in enumerate(runs):
                leaves[ids[pos]].append((t, s, W[i].tobytes(), nabla[i].tobytes()))
            keep = [i for i, pos in enumerate(runs) if self.STOPS.get(ids[pos]) != (t, s)]
            return keep, W[keep] - 0.5 * nabla[keep]

        def node(runs, t, s, W, nabla, delta):
            calls.append((t, s, [ids[pos] for pos in runs]))
            for i, pos in enumerate(runs):
                nodes[ids[pos]].append((t, s, W[i].tobytes(), nabla[i].tobytes(),
                                        None if delta is None else delta[i].tobytes()))

        ledgers = [NoiseLedger() for _ in ids]
        noise = tree_spider._BlockNoise([np.random.default_rng(50 + r) for r in ids],
                                        ledgers, 3, self.PARAMS.D)
        _tree_path(loss, self.PARAMS, len(ids), batch, noise, leaf, node)
        return leaves, nodes, spans, {r: l.rows() for r, l in zip(ids, ledgers)}, calls

    def test_stopped_runs_leave_the_others_as_they_are_alone(self):
        ids = [0, 1, 2, 3]
        group = self.walk(ids)
        for r in ids:
            alone = self.walk([r])
            for got, want in zip(group[:4], alone[:4]):
                assert got[r] == want[r]
            last = group[0][r][-1][:2]
            assert last == self.STOPS.get(r, (self.PARAMS.T, "11"))
        # 16 leaves per run when it never stops; stop leaves count
        assert [len(group[0][r]) for r in ids] == [6, 16, 11, 4]

    def test_node_hook_sees_each_node_once_in_run_order(self):
        ids = [0, 1, 2, 3]
        *_, calls = self.walk(ids)
        order = [""] + dfs_order(self.PARAMS.D)
        assert [(t, s) for t, s, _ in calls] == [(t, s) for t in range(1, 5) for s in order]
        # a run is active up to and including its stop leaf
        end = {r: (5, 0) if r not in self.STOPS else
               (self.STOPS[r][0], order.index(self.STOPS[r][1])) for r in ids}
        for t, s, runs in calls:
            assert runs == [r for r in ids if (t, order.index(s)) <= end[r]]

    @pytest.mark.parametrize("d", [1, 3, 16, 95])
    def test_row_norms_are_a_lone_rows_norm(self, d):
        rng = np.random.default_rng(d)
        rows = [rng.standard_normal(d) * scale for scale in (1.0, 1e-160, 1e-300, 1e150, 1e200)]
        rows += [rng.integers(-3, 4, d) * 5e-324,                      # subnormal
                 rng.standard_normal(d) * np.exp(rng.uniform(-300, 300, d)),
                 np.zeros(d), np.full(d, 2.2250738585072014e-308)]     # smallest normal
        # plain rows, on which a pairwise row sum misses the dot's bits
        V = np.concatenate([rows, rng.standard_normal((64, d))])
        with np.errstate(over="ignore"):
            got = tree_spider._row_norms(V)
            for v, norm in zip(V, got):
                assert np.float64(math.sqrt(v @ v)).tobytes() == norm.tobytes()
                assert np.linalg.norm(v).tobytes() == norm.tobytes()


class TestBoundaryCounts:
    def test_group_calls_are_the_sum_of_lone_runs(self, monkeypatch):
        # perfbench counts core.data, privacy.draw and privacy.ledger at these
        # four boundaries: runs stopping at other leaves must not move them
        counts = dict.fromkeys(("take", "slice", "draw", "record"), 0)
        for owner, attr, key in ((DatasetCursor, "take", "take"), (Dataset, "slice", "slice"),
                                 (tree_spider, "draw_gaussian", "draw"),
                                 (NoiseLedger, "record", "record")):
            def counted(*args, _orig=getattr(owner, attr), _key=key, **kwargs):
                counts[_key] += 1
                return _orig(*args, **kwargs)
            monkeypatch.setattr(owner, attr, counted)

        loss = synthetic_nonconvex_loss(3)
        dist = gen_support("glm_fullrank", 64, 3, seed=13, label_scale=0.5)
        params = TreeParams(b=16, D=2, T=4, alpha=0.06, alpha_tilde=0.06, beta_par=0.12,
                            C_tilde=1.0, sigma_root=0.05, sigma_delta=0.02, p=0.1)
        seeds = [0, 1, 3]

        def run(rs):
            for key in counts:
                counts[key] = 0
            reps = run_tree_spider(loss, [DatasetCursor(dist.sample(
                200, np.random.default_rng(30 + r))) for r in rs], params,
                [np.random.default_rng(50 + r) for r in rs])
            return dict(counts), reps

        group, reps = run(seeds)
        assert len({rep.leaf_count_visited for rep in reps}) == 3
        alone = [run([r])[0] for r in seeds]
        assert group == {key: sum(c[key] for c in alone) for key in counts}
        # a run uses one noise row and one ledger record per leaf visited, and
        # draws its rows one block of min(NOISE_NODES, 2^D) = 4 at a time;
        # each cursor moves once, by one take and its slice
        blocks = sum(-(-rep.leaf_count_visited // 4) for rep in reps)
        assert blocks < reps.leaf_count_visited
        assert group == {"take": len(seeds), "slice": len(seeds),
                         "draw": blocks, "record": reps.leaf_count_visited}


class TestEstimationErrorValidator:
    def test_results_are_pinned(self):
        # (violation_rate, leaf_checks, worst_sq_err) of the three tests
        # below, bit for bit; right children take their variation from
        # grad_var, so on the single-point support sum (s - s_par) x / b
        # leaves a rounding residue of 3.85e-33
        loss = synthetic_nonconvex_loss(2)
        single = FiniteSupportDistribution(Dataset(np.array([[0.6, 0.3]]), np.array([0.4])))
        loss3 = synthetic_nonconvex_loss(3)
        tight = manual_params(b=16, D=1, T=2, alpha=0.05, C_tilde=1.0,
                              sigma_root=0.05, sigma_delta=0.05)
        calls = [
            (loss, single, manual_params(b=8, D=1, T=2, alpha=1e-6, C_tilde=1.0,
                                         sigma_root=0.0, sigma_delta=0.0), 100, 12),
            (loss3, gen_support("glm_fullrank", 64, 3, seed=13, label_scale=0.5),
             derive_tree_params(1024, 3, loss3.L0, loss3.L1, 1.0,
                                PrivacyBudget(1.0, 1e-4), 0.1, {"b": 64, "T": 3}), 500, 14),
            (loss3, gen_support("glm_fullrank", 64, 3, seed=15, label_scale=0.5),
             tight, 200, 16),
            (loss3, gen_support("glm_fullrank", 64, 3, seed=15, label_scale=0.5),
             manual_params(b=16, D=1, T=2, alpha=0.05, C_tilde=10.0, beta=tight.beta_par,
                           sigma_root=0.05, sigma_delta=0.05), 200, 16)]
        got = []
        for loss_, dist, params, trials, seed in calls:
            chk = validate_tree_estimation_error(loss_, dist, params, trials=trials,
                                                 rng=np.random.default_rng(seed))
            got.append((chk.violation_rate, chk.leaf_checks, chk.worst_sq_err))
        assert got == [(0.0, 400, 3.851859888774472e-33), (0.0, 500, 0.13485345178389155),
                       (0.93875, 800, 0.13658052323188377),
                       (0.19, 200, 0.1021883286197732)]

    def test_exact_population_batches_never_violate(self):
        # single-point support: every batch mean is the population mean, and
        # every estimate is the population gradient up to rounding
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
