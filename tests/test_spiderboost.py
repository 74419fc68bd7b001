"""Private SpiderBoost: derivation closed forms, run semantics, error bound."""
import math

import numpy as np
import pytest

from dpopt.core import (erm_grad, glm_loss, huber_mean_loss,
                        synthetic_nonconvex_loss, tanh_link)
from dpopt.harness import gen_synthetic
from dpopt.privacy import PrivacyBudget
from dpopt.spiderboost import (SpiderParams, derive_spider_params,
                               run_spiderboost, spider_oracle_count,
                               validate_spider_error_bound, SITE_GRAD, SITE_GV)
from dpopt.util import PreconditionError


def reference_gd(loss, S, eta, steps):
    w = np.zeros(S.dim)
    out = []
    for _ in range(steps):
        w = w - eta * erm_grad(loss, w, S)
        out.append(w)
    return out


class TestDeriveSpiderParams:
    def test_matches_independent_reevaluation(self):
        n, d, L0, L1, F0 = 4096, 16, 1.0, 1.0, 1.0
        eps, delta = 1.0, 1e-6
        params = derive_spider_params(n, d, L0, L1, F0, PrivacyBudget(eps, delta))
        # re-typed closed forms
        log1d = math.log(1 / delta)
        b2 = math.floor(max((L0 * n * eps / math.sqrt(F0 * L1 * d * log1d)) ** (2 / 3),
                            (L0 * n * d * log1d) ** (1 / 3)
                            / ((L1 * F0) ** (1 / 6) * eps ** (2 / 3))) + 1e-9)
        T = math.floor(max(((F0 * L1) ** 0.25 * n * eps
                            / math.sqrt(L0 * d * log1d)) ** (4 / 3),
                           n * eps / math.sqrt(d * log1d)) + 1e-9)
        q = math.floor(n ** 2 * eps ** 2 / (T * d * log1d) + 1e-9)
        sigma1 = L0 * math.sqrt(log1d) / eps * max(1 / n, math.sqrt(T / q) / n)
        sigma2 = L1 * math.sqrt(log1d) / eps * max(1 / b2, math.sqrt(T) / n)
        sigma2_hat = 2 * L0 * math.sqrt(log1d) / eps * max(1 / b2, math.sqrt(T) / n)
        assert params.eta == pytest.approx(1 / (2 * L1), rel=1e-15)
        assert params.b1 == n
        assert params.b2 == b2
        assert params.T == T
        assert params.q == q
        assert params.sigma1 == pytest.approx(sigma1, rel=1e-12)
        assert params.sigma2 == pytest.approx(sigma2, rel=1e-12)
        assert params.sigma2_hat == pytest.approx(sigma2_hat, rel=1e-12)

    def test_q_at_least_one_and_at_most_T(self):
        for n in (64, 256, 1024, 4096):
            for d in (2, 8, 32):
                params = derive_spider_params(n, d, 1.0, 1.0, 1.0,
                                              PrivacyBudget(0.5, 1e-4))
                assert 1 <= params.q <= params.T
                assert 1 <= params.b2 <= n

    def test_q_floor_clamp_boundary(self):
        # at the smallest admissible n the raw q formula dips below 1 and clamps
        d, eps, delta = 64, 0.25, 0.5
        n = 33  # just above sqrt(d)/eps = 32
        params = derive_spider_params(n, d, 1.0, 1.0, 1.0, PrivacyBudget(eps, delta))
        assert params.q == 1
        assert 1.0 / (params.T * d * math.log(1 / delta) / (n * eps) ** 2) < 2.0

    def test_doubling_n_increases_T(self):
        budget = PrivacyBudget(1.0, 1e-6)
        prev = 0
        for n in (1024, 2048, 4096, 8192):
            T = derive_spider_params(n, 16, 1.0, 1.0, 1.0, budget).T
            assert T > prev
            prev = T

    def test_hypothesis_violation_diagnostic(self):
        with pytest.raises(PreconditionError, match="sample-size hypothesis"):
            derive_spider_params(4, 64, 1.0, 1.0, 1.0, PrivacyBudget(0.5, 1e-6))

    def test_overrides(self):
        params = derive_spider_params(256, 4, 1.0, 1.0, 1.0,
                                      PrivacyBudget(1.0, 1e-5),
                                      {"T": 10, "q": 2, "sigma1": 0.0})
        assert (params.T, params.q, params.sigma1) == (10, 2, 0.0)
        with pytest.raises(ValueError, match="unknown"):
            derive_spider_params(256, 4, 1.0, 1.0, 1.0, PrivacyBudget(1.0, 1e-5),
                                 {"bogus": 1})


class TestRunSpiderboost:
    def noiseless_params(self, n, T, q=1):
        return SpiderParams(eta=0.5, q=q, b1=n, b2=n, T=T,
                            sigma1=0.0, sigma2=0.0, sigma2_hat=0.0)

    def test_noiseless_degenerates_to_gd(self):
        loss = huber_mean_loss(1.0, 1.0, dim=3)
        S = gen_synthetic("huber_cluster", 40, 3, seed=0)
        params = self.noiseless_params(40, 100)
        rep = run_spiderboost(loss, S, params, np.random.default_rng(1),
                              record_iterates=True)
        ref = reference_gd(loss, S, params.eta, 100)
        for a, b in zip(rep.iterates, ref):
            assert np.max(np.abs(a - b)) <= 1e-12

    def test_quadratic_gradient_halves_per_step(self):
        # quadratic region of the Huber loss with eta = 1/(2 L1)
        loss = huber_mean_loss(1.0, 1.0, dim=4)
        S = gen_synthetic("huber_cluster", 30, 4, seed=3)
        params = self.noiseless_params(30, 20)
        rep = run_spiderboost(loss, S, params, np.random.default_rng(2),
                              record_iterates=True)
        norms = [np.linalg.norm(erm_grad(loss, w, S)) for w in rep.iterates]
        for a, b in zip(norms, norms[1:]):
            assert b == pytest.approx(0.5 * a, rel=1e-10)

    def test_deterministic_given_seed(self):
        loss = synthetic_nonconvex_loss(4)
        S = gen_synthetic("glm_fullrank", 64, 4, seed=5, label_scale=0.5)
        params = derive_spider_params(64, 4, loss.L0, loss.L1, 1.0,
                                      PrivacyBudget(1.0, 1e-4))
        a = run_spiderboost(loss, S, params, np.random.default_rng(7))
        b = run_spiderboost(loss, S, params, np.random.default_rng(7))
        assert np.array_equal(a.w_out, b.w_out)
        assert a.selected_index == b.selected_index
        assert a.noise_ledger.rows() == b.noise_ledger.rows()
        assert a.grad_norm_trace == b.grad_norm_trace

    def test_oracle_accounting_exact(self):
        loss = synthetic_nonconvex_loss(3)
        S = gen_synthetic("glm_fullrank", 32, 3, seed=6, label_scale=0.5)
        for T, q, b1, b2 in ((12, 5, 32, 8), (7, 7, 16, 3), (9, 2, 32, 32)):
            params = SpiderParams(eta=0.1, q=q, b1=b1, b2=b2, T=T,
                                  sigma1=0.1, sigma2=0.1, sigma2_hat=0.2)
            rep = run_spiderboost(loss, S, params, np.random.default_rng(8))
            fresh = math.ceil(T / q)
            assert rep.oracle_calls == b1 * fresh + 2 * b2 * (T - fresh)
            assert rep.oracle_calls == spider_oracle_count(params)

    def test_phase_structure_and_selected_index(self):
        loss = synthetic_nonconvex_loss(3)
        S = gen_synthetic("glm_fullrank", 32, 3, seed=6, label_scale=0.5)
        params = SpiderParams(eta=0.1, q=4, b1=32, b2=8, T=10,
                              sigma1=0.05, sigma2=0.05, sigma2_hat=0.1)
        rep = run_spiderboost(loss, S, params, np.random.default_rng(9))
        grad_draws = sum(e.count for e in rep.noise_ledger.entries if e.site == SITE_GRAD)
        gv_draws = sum(e.count for e in rep.noise_ledger.entries if e.site == SITE_GV)
        assert grad_draws == math.ceil(10 / 4)
        assert gv_draws == 10 - math.ceil(10 / 4)
        # fresh gradients happen exactly at t = 0 mod q
        gv_steps = [t for t, _, _ in rep.gv_records]
        assert gv_steps == [t for t in range(10) if t % 4 != 0]
        assert 1 <= rep.selected_index <= 10

    def test_noise_clamp(self):
        loss = synthetic_nonconvex_loss(3)
        S = gen_synthetic("glm_fullrank", 32, 3, seed=6, label_scale=0.5)
        params = SpiderParams(eta=0.5, q=3, b1=32, b2=4, T=30,
                              sigma1=0.2, sigma2=50.0, sigma2_hat=0.01)
        rep = run_spiderboost(loss, S, params, np.random.default_rng(10))
        assert rep.gv_records  # non-empty
        for _, sigma_used, step in rep.gv_records:
            assert sigma_used <= params.sigma2_hat + 0.0
            assert sigma_used == pytest.approx(
                min(params.sigma2 * step, params.sigma2_hat), rel=1e-15)

    def test_validates_params(self):
        loss = synthetic_nonconvex_loss(3)
        S = gen_synthetic("glm_fullrank", 8, 3, seed=1, label_scale=0.5)
        with pytest.raises(ValueError):
            run_spiderboost(loss, S, SpiderParams(0.1, 1, 9, 4, 5, 0, 0, 0),
                            np.random.default_rng(0))


def assert_same_run(a, b):
    """Two reports of one run, bit for bit."""
    assert np.array_equal(a.w_out, b.w_out)
    assert a.selected_index == b.selected_index
    assert a.noise_ledger.rows() == b.noise_ledger.rows()
    assert a.grad_norm_trace == b.grad_norm_trace
    assert a.trace_steps == b.trace_steps
    assert a.oracle_calls == b.oracle_calls
    for field in ("t", "sigma", "step"):
        assert np.array_equal(getattr(a.gv_records, field), getattr(b.gv_records, field))
    assert (a.iterates is None) == (b.iterates is None)
    for wa, wb in zip(a.iterates or [], b.iterates or []):
        assert np.array_equal(wa, wb)


class TestLockstep:
    """R runs in lockstep give each run's R = 1 output, bit for bit."""

    def datasets(self, n, d, R=5):
        return [gen_synthetic("glm_fullrank", n, d, seed=40 + r, label_scale=0.6)
                for r in range(R)]

    @pytest.mark.parametrize("T,q,b1,b2,replace", [
        (40, 7, 64, 9, True),      # several phases, the last one short
        (25, 1, 64, 9, True),      # q = 1: every step fresh, no variation steps
        (25, 40, 64, 9, True),     # q >= T: one phase
        (40, 7, 20, 9, True),      # b1 < n draws fresh batches too
        (40, 7, 20, 9, False),     # without replacement: a choice per step
        (30, 6, 64, 64, True),     # b2 = n: the full dataset, no index draws
    ], ids=["phases", "q1", "q_ge_T", "b1_lt_n", "no_replace", "b2_eq_n"])
    def test_lockstep_equals_single_runs(self, T, q, b1, b2, replace):
        loss = synthetic_nonconvex_loss(4)
        data = self.datasets(64, 4)
        params = SpiderParams(eta=0.3, q=q, b1=b1, b2=b2, T=T,
                              sigma1=0.05, sigma2=0.4, sigma2_hat=0.08)
        kw = dict(replace_within_batch=replace, trace_points=12, record_iterates=True)
        group = run_spiderboost(loss, data, params,
                                [np.random.default_rng(60 + r) for r in range(5)], **kw)
        assert len(group) == 5
        for r, rep in enumerate(group):
            alone = run_spiderboost(loss, data[r], params, np.random.default_rng(60 + r), **kw)
            assert_same_run(rep, alone)
            fresh = math.ceil(T / q)
            assert sum(e.count for e in rep.noise_ledger.entries
                       if e.site == SITE_GRAD) == fresh
            assert rep.noise_ledger.total_draws() == T
            assert [t for t, _, _ in rep.gv_records] == [t for t in range(T) if t % q]
            assert rep.oracle_calls == spider_oracle_count(params)
        assert not np.array_equal(group[0].w_out, group[1].w_out)

    def test_shared_dataset_equals_single_runs(self):
        loss = synthetic_nonconvex_loss(3)
        S = self.datasets(48, 3, R=1)[0]
        params = SpiderParams(eta=0.3, q=5, b1=48, b2=7, T=23,
                              sigma1=0.05, sigma2=0.4, sigma2_hat=0.08)
        group = run_spiderboost(loss, S, params, [np.random.default_rng(r) for r in range(3)])
        for r, rep in enumerate(group):
            assert_same_run(rep, run_spiderboost(loss, S, params, np.random.default_rng(r)))

    def test_unlabelled_and_generic_loss(self):
        # the LossSpec default grad_var (Huber) and a GLM without labels
        params = SpiderParams(eta=0.3, q=4, b1=32, b2=5, T=14,
                              sigma1=0.05, sigma2=0.4, sigma2_hat=0.08)
        for loss, kind in ((huber_mean_loss(1.0, 1.0, dim=3), "huber_cluster"),
                           (glm_loss(tanh_link(), 1.0, 1.0, 1.0, 3), "glm_fullrank")):
            data = [gen_synthetic(kind, 32, 3, seed=r) for r in range(3)]
            assert data[0].y is None
            group = run_spiderboost(loss, data, params,
                                    [np.random.default_rng(r) for r in range(3)])
            for r, rep in enumerate(group):
                assert_same_run(rep, run_spiderboost(loss, data[r], params,
                                                     np.random.default_rng(r)))

    def test_rejects_mismatched_datasets(self):
        loss = synthetic_nonconvex_loss(3)
        params = SpiderParams(eta=0.3, q=4, b1=16, b2=5, T=10,
                              sigma1=0.0, sigma2=0.0, sigma2_hat=0.0)
        a = gen_synthetic("glm_fullrank", 32, 3, seed=0, label_scale=0.5)
        b = gen_synthetic("glm_fullrank", 40, 3, seed=1, label_scale=0.5)
        rngs = [np.random.default_rng(0), np.random.default_rng(1)]
        with pytest.raises(ValueError, match="share n"):
            run_spiderboost(loss, [a, b], params, rngs)
        with pytest.raises(ValueError, match="one dataset per generator"):
            run_spiderboost(loss, [a], params, rngs)

    @pytest.mark.parametrize("d, label_scale", [(4, 0.5), (3, 0.0)])
    def test_rejects_a_group_of_other_d_or_labelling(self, d, label_scale):
        loss = synthetic_nonconvex_loss(3)
        params = SpiderParams(eta=0.3, q=4, b1=16, b2=5, T=10,
                              sigma1=0.0, sigma2=0.0, sigma2_hat=0.0)
        a = gen_synthetic("glm_fullrank", 32, 3, seed=0, label_scale=0.5)
        b = gen_synthetic("glm_fullrank", 32, d, seed=1, label_scale=label_scale)
        rngs = [np.random.default_rng(0), np.random.default_rng(1)]
        with pytest.raises(ValueError, match="must share n, d and labelling"):
            run_spiderboost(loss, [a, b], params, rngs)


class TestTrace:
    """The trace is the exact ERM gradient norm at w_t, t = 0, stride, ..."""

    @pytest.mark.parametrize("loss,kind,n", [
        (synthetic_nonconvex_loss(4), "glm_fullrank", 4096),   # GLM: blocks of 8
        (huber_mean_loss(1.0, 1.0, dim=4), "huber_cluster", 300),  # erm_grad per point
    ], ids=["glm_blocked", "huber_fallback"])
    def test_trace_matches_erm_grad(self, loss, kind, n):
        S = gen_synthetic(kind, n, 4, seed=8, label_scale=0.5)
        params = SpiderParams(eta=0.3, q=6, b1=n, b2=11, T=30,
                              sigma1=0.05, sigma2=0.4, sigma2_hat=0.08)
        rep = run_spiderboost(loss, S, params, np.random.default_rng(3),
                              record_iterates=True)
        assert rep.trace_steps == list(range(30))
        for t, got in zip(rep.trace_steps, rep.grad_norm_trace):
            w = np.zeros(4) if t == 0 else rep.iterates[t - 1]
            want = float(np.linalg.norm(erm_grad(loss, w, S)))
            assert got == pytest.approx(want, rel=1e-12, abs=1e-300)


class TestErrorBoundValidator:
    def _setup(self):
        loss = synthetic_nonconvex_loss(5)
        S = gen_synthetic("glm_fullrank", 200, 5, seed=12, label_scale=0.6)
        params = SpiderParams(eta=1.0 / (2 * loss.L1), q=4, b1=200, b2=16, T=8,
                              sigma1=0.01, sigma2=0.3, sigma2_hat=0.2)
        return loss, S, params

    def test_full_batch_phase_start_noiseless(self):
        loss, S, _ = self._setup()
        params = SpiderParams(eta=0.25, q=4, b1=200, b2=16, T=8,
                              sigma1=0.0, sigma2=0.1, sigma2_hat=0.08)
        chk = validate_spider_error_bound(loss, S, params, trials=120,
                                          rng=np.random.default_rng(13))
        assert chk.lhs[0] <= 1e-24  # exact full-batch gradient at t = 0

    def test_exact_variations_stay_exact(self):
        loss, S, _ = self._setup()
        params = SpiderParams(eta=0.25, q=4, b1=200, b2=200, T=6,
                              sigma1=0.0, sigma2=0.0, sigma2_hat=0.0)
        chk = validate_spider_error_bound(loss, S, params, trials=120,
                                          rng=np.random.default_rng(14))
        assert max(chk.lhs) <= 1e-22
        assert max(chk.ratio) <= 1e-12

    def test_bound_holds_with_mc_slack(self):
        loss, S, params = self._setup()
        chk = validate_spider_error_bound(loss, S, params, trials=500,
                                          rng=np.random.default_rng(15))
        for lhs, rhs, se in zip(chk.lhs, chk.rhs, chk.stderr):
            assert lhs <= rhs * (1.0 + 5.0 * se / rhs)

    def test_estimator_unbiased(self):
        loss, S, params = self._setup()
        chk = validate_spider_error_bound(loss, S, params, trials=10_000,
                                          rng=np.random.default_rng(16),
                                          path_len=5)
        assert max(chk.unbiased_ratio) <= 4.0

    def test_rejects_too_few_trials(self):
        loss, S, params = self._setup()
        with pytest.raises(ValueError):
            validate_spider_error_bound(loss, S, params, trials=10,
                                        rng=np.random.default_rng(0))
