"""Private SpiderBoost: derivation closed forms, run semantics, error bound."""
import math

import numpy as np
import pytest

from dpopt import spiderboost
from dpopt.core import (Dataset, erm_grad, glm_loss, huber_mean_loss,
                        square_link, synthetic_nonconvex_loss, tanh_link)
from dpopt.core.data import Runs
from dpopt.harness import gen_synthetic
from dpopt.privacy import NoiseLedger, PrivacyBudget, draw_gaussian, record_draws
from dpopt.spiderboost import (SpiderParams, _spider_path, derive_spider_params,
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

    # `min(L0, L1, F0) <= 0` let a NaN through in any position
    @pytest.mark.parametrize("nan_at", [0, 1, 2])
    def test_rejects_nan_constant(self, nan_at):
        consts = [1.0, 1.0, 1.0]
        consts[nan_at] = math.nan
        with pytest.raises(ValueError, match="^L0, L1, F0 must be positive$"):
            derive_spider_params(256, 4, *consts, PrivacyBudget(1.0, 1e-5))

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
        nan = float("nan")
        for bad, message in (((nan, 0, 0, 0), "eta"), ((0.1, nan, 0, 0), "noise"),
                             ((0.1, 0, nan, 0), "noise"), ((0.1, 0, 0, nan), "noise")):
            eta, s1, s2, s2_hat = bad
            with pytest.raises(ValueError, match=message):
                SpiderParams(eta, 1, 4, 4, 5, s1, s2, s2_hat).validate(8)


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

    @pytest.mark.parametrize("b1", [129, 40], ids=["b1_eq_n", "b1_lt_n"])
    def test_packed_group_equals_single_runs(self, b1):
        # slots of 129 x 3 x 8 = 3096 B, not a multiple of 64: the runs' views
        # start at unaligned offsets, and their fresh and traced gradients
        # still give a run's bits alone on its own array
        loss = synthetic_nonconvex_loss(3)
        data = self.datasets(129, 3)
        runs = Runs.pack(5, iter(data))
        X, Y = runs.stack(axis=0)
        assert not X.flags.writeable and not Y.flags.writeable
        for r, S in enumerate(runs):
            assert S.X.ctypes.data == X.ctypes.data + r * 3096
            assert S.y.ctypes.data == Y.ctypes.data + r * 129 * 8
            assert np.array_equal(S.X, data[r].X) and np.array_equal(S.y, data[r].y)
        assert len({S.X.ctypes.data % 64 for S in runs}) > 1
        params = SpiderParams(eta=0.3, q=7, b1=b1, b2=9, T=40,
                              sigma1=0.05, sigma2=0.4, sigma2_hat=0.08)
        kw = dict(trace_points=12, record_iterates=True)
        group = run_spiderboost(loss, runs, params,
                                [np.random.default_rng(70 + r) for r in range(5)], **kw)
        for r, rep in enumerate(group):
            assert_same_run(rep, run_spiderboost(loss, data[r], params,
                                                 np.random.default_rng(70 + r), **kw))

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


def per_draw_ledger(rep, params, d):
    """The ledger that one record per draw, in step order, gives a run."""
    want = NoiseLedger()
    gv = iter(rep.gv_records)
    for t in range(params.T):
        if t % params.q == 0:
            want.record(SITE_GRAD, params.sigma1, d)
        else:
            t_gv, sigma, _ = next(gv)
            assert t_gv == t
            want.record(SITE_GV, sigma, d)
    return want


class TestLedger:
    """Variation draws are recorded after each block of a phase; the ledger
    equals one recorded draw by draw, alone and in a group."""

    def group_and_alone(self, loss, params):
        data = [gen_synthetic("glm_fullrank", 64, 4, seed=80 + r, label_scale=0.6)
                for r in range(5)]
        rngs = [np.random.default_rng(90 + r) for r in range(5)]
        with np.errstate(all="ignore"):
            group = run_spiderboost(loss, data, params, rngs)
            alone = [run_spiderboost(loss, data[r], params, np.random.default_rng(90 + r))
                     for r in range(5)]
        for r in range(5):
            assert group[r].noise_ledger == alone[r].noise_ledger
            assert group[r].noise_ledger == per_draw_ledger(group[r], params, 4)
        return group

    @pytest.mark.parametrize("block", [None, 3], ids=["one_block", "blocks_of_3"])
    def test_zero_sigma2_coalesces_within_each_phase(self, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(spiderboost, "BLOCK_ENTRIES", block * (9 + 4))
        params = SpiderParams(eta=0.3, q=7, b1=64, b2=9, T=40,
                              sigma1=0.05, sigma2=0.0, sigma2_hat=0.08)
        group = self.group_and_alone(synthetic_nonconvex_loss(4), params)
        # phases of 7 steps, the last of 5: one fresh entry, then one
        # entry for the phase's variation draws at sigma 0
        want = []
        for t0 in range(0, 40, 7):
            want += [(SITE_GRAD, 0.05, 4, 1), (SITE_GV, 0.0, 4, min(7, 40 - t0) - 1)]
        for rep in group:
            assert rep.noise_ledger.rows() == want

    def test_nan_sigma_of_a_diverging_run_never_coalesces(self):
        # the square link's slope grows with w, so eta = 1e6 overflows the
        # iterates to inf within a few phases; their differences are NaN
        params = SpiderParams(eta=1e6, q=7, b1=64, b2=9, T=120,
                              sigma1=0.05, sigma2=0.4, sigma2_hat=0.08)
        loss = glm_loss(square_link(), 4.0, 1.0, 1.0, 4)
        group = self.group_and_alone(loss, params)
        for rep in group:
            nan = np.isnan(rep.gv_records.sigma)
            assert nan[-6:].all() and not nan[0]
            rows = rep.noise_ledger.rows()
            gv = [row for row in rows if row[0] == SITE_GV]
            # each NaN draw, six in a row in the last full phase, is its own entry
            assert [row[3] for row in gv if math.isnan(row[1])] == [1] * int(nan.sum())


def allocating_grad_var(loss, W, W_prev, X, Y):
    """The GLM variation kernel with a fresh array for every result."""
    s = loss.link.slope_into(X @ np.stack([W, W_prev], axis=2),
                             None if Y is None else Y[:, :, None])
    return ((s[:, :, 0] - s[:, :, 1])[:, None, :] @ X)[:, 0, :] / X.shape[1]


def reference_spider_path(loss, params, steps, data, rngs, ledgers, replace, advance):
    """`_spider_path` written with fresh arrays at every step: each block's
    draws stacked run by run with the offsets added after, a gather of rows
    and labels per step, the allocating kernel, and the estimate extended
    as nabla + grad_var + z[j] * sigma."""
    R, n, d = len(rngs), data[0].n, data[0].dim
    labelled = data[0].y is not None
    shared = all(S is data[0] for S in data)
    if shared:
        X, Y, offset = data[0].X, data[0].y, 0
        X_full = np.broadcast_to(X, (R, n, d))
        Y_full = np.broadcast_to(Y, (R, n)) if labelled else None
    else:
        X_full, Y_full = (data if isinstance(data, Runs) else Runs(data)).stack(axis=0)
        offset = n * np.arange(R)[:, None]
        X, Y = X_full.reshape(R * n, d), Y_full.reshape(R * n) if labelled else None
    b2, q = params.b2, params.q
    block = max(1, spiderboost.BLOCK_ENTRIES // (b2 + d))
    sigmas, norms = [], []
    W = np.zeros((R, d))
    for t0 in range(0, steps, q):
        nabla = np.empty((R, d))
        for r, (S, rng) in enumerate(zip(data, rngs)):
            Xb, Yb = spiderboost._batch(S, params.b1, rng, replace)
            noise = draw_gaussian(d, params.sigma1, rng,
                                  None if ledgers is None else ledgers[r], SITE_GRAD)
            nabla[r] = loss.grad_mean(W[r], Xb, Yb) + noise
        W_prev, W = W, advance(t0, W, nabla)
        phase_end = min(t0 + q, steps)
        for t1 in range(t0 + 1, phase_end, block):
            m = min(block, phase_end - t1)
            if replace and b2 < n:
                idx = np.stack([rng.integers(0, n, (m, b2)) for rng in rngs], axis=1)
                idx += offset
            z = np.stack([rng.standard_normal((m, d)) for rng in rngs], axis=1)
            g0 = len(sigmas)
            for j in range(m):
                if b2 == n:
                    Xb, Yb = X_full, Y_full
                else:
                    rows = idx[j] if replace else offset + np.stack(
                        [rng.choice(n, b2, replace=False) for rng in rngs])
                    Xb, Yb = X.take(rows, axis=0), Y.take(rows) if labelled else None
                dW = W - W_prev
                step = np.sqrt(np.add.reduce(dW * dW, axis=1))
                sigma = np.minimum(step * params.sigma2, params.sigma2_hat)
                norms.append(step)
                sigmas.append(sigma)
                nabla = (nabla + allocating_grad_var(loss, W, W_prev, Xb, Yb)
                         + z[j] * sigma[:, None])
                W_prev, W = W, advance(t1 + j, W, nabla)
            record_draws(ledgers, np.array(sigmas[g0:]).reshape(-1, R), d, SITE_GV)
    return (np.array(sigmas).reshape(-1, R).T.copy(),
            np.array(norms).reshape(-1, R).T.copy())


class TestStepBits:
    """The step loop, written into buffers allocated once per call, gives
    the bits of the reference that allocates at every step."""

    def reports(self, monkeypatch, path, data, R, params, replace):
        monkeypatch.setattr(spiderboost, "_spider_path", path)
        rngs = [np.random.default_rng(50 + r) for r in range(R)]
        with np.errstate(all="ignore"):
            reps = run_spiderboost(synthetic_nonconvex_loss(3), data, params,
                                   rngs[0] if R == 1 else rngs,
                                   replace_within_batch=replace, trace_points=9)
        return [reps] if R == 1 else reps

    @pytest.mark.parametrize("group", ["single", "packed", "shared"])
    @pytest.mark.parametrize("replace", [True, False], ids=["replace", "choice"])
    @pytest.mark.parametrize("b2", [7, 40], ids=["b2_lt_n", "b2_eq_n"])
    @pytest.mark.parametrize("labelled", [True, False])
    @pytest.mark.parametrize("block", [None, 4], ids=["one_block", "blocks_of_4"])
    def test_same_bits_as_allocating_reference(self, group, replace, b2, labelled,
                                               block, monkeypatch):
        if block is not None:
            # 12 variation steps a phase: three blocks of four
            monkeypatch.setattr(spiderboost, "BLOCK_ENTRIES", block * (b2 + 3))
        data = [gen_synthetic("glm_fullrank", 40, 3, seed=20 + r,
                              label_scale=0.6 if labelled else 0.0) for r in range(5)]
        assert data[0].labelled == labelled
        R, data = {"single": (1, data[0]), "packed": (5, Runs.pack(5, iter(data))),
                   "shared": (5, data[0])}[group]
        params = SpiderParams(eta=0.3, q=13, b1=40, b2=b2, T=30,
                              sigma1=0.05, sigma2=0.4, sigma2_hat=0.08)
        got = self.reports(monkeypatch, _spider_path, data, R, params, replace)
        want = self.reports(monkeypatch, reference_spider_path, data, R, params, replace)
        for a, b in zip(got, want, strict=True):
            assert a.w_out.tobytes() == b.w_out.tobytes()
            for field in ("t", "sigma", "step"):
                assert (getattr(a.gv_records, field).tobytes()
                        == getattr(b.gv_records, field).tobytes())
            assert (np.array(a.grad_norm_trace).tobytes()
                    == np.array(b.grad_norm_trace).tobytes())
            assert a.noise_ledger == b.noise_ledger

    def test_validator_gives_the_reference_numbers(self, monkeypatch):
        loss = synthetic_nonconvex_loss(3)
        S = gen_synthetic("glm_fullrank", 40, 3, seed=5, label_scale=0.6)
        params = SpiderParams(eta=0.3, q=4, b1=40, b2=6, T=10,
                              sigma1=0.05, sigma2=0.4, sigma2_hat=0.08)
        got = validate_spider_error_bound(loss, S, params, 200, np.random.default_rng(3))
        monkeypatch.setattr(spiderboost, "_spider_path", reference_spider_path)
        want = validate_spider_error_bound(loss, S, params, 200, np.random.default_rng(3))
        assert got == want


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

    def test_shared_full_batch_gradient_once_per_phase(self, monkeypatch):
        # b1 = n on one shared dataset: runs at one iterate share a fresh
        # gradient, which equals what each run computes on its own copy
        loss, S, params = self._setup()
        phases = -(-8 // params.q)
        ws = [np.zeros((1, 5))] + [np.full((1, 5), 0.01 * t) for t in range(1, 9)]
        calls = []
        grad_mean = type(loss).grad_mean
        monkeypatch.setattr(type(loss), "grad_mean",
                            lambda *a, **k: calls.append(1) or grad_mean(*a, **k))

        def estimates(data):
            seen = []

            def pinned(t, W, nabla):
                seen.append(nabla.copy())
                return np.broadcast_to(ws[t + 1], W.shape)
            _spider_path(loss, params, 8, data, np.random.default_rng(3).spawn(4),
                         None, True, pinned)
            return seen

        shared = estimates([S] * 4)
        assert len(calls) == phases
        copies = estimates([Dataset(S.X.copy(), S.y.copy()) for _ in range(4)])
        assert len(calls) == phases + 4 * phases
        assert all(np.array_equal(a, b) for a, b in zip(shared, copies))
        calls.clear()
        validate_spider_error_bound(loss, S, params, trials=200,
                                    rng=np.random.default_rng(4))
        assert len(calls) == 2 * phases  # the frozen path, then all trials

    def test_rejects_too_few_trials(self):
        loss, S, params = self._setup()
        with pytest.raises(ValueError):
            validate_spider_error_bound(loss, S, params, trials=10,
                                        rng=np.random.default_rng(0))
