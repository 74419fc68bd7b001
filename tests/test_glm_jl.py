"""JL projection: matrix law, embedding checks, dimension choice, the wrap."""
import math

import numpy as np
import pytest

from dpopt.core import Dataset, erm_grad, synthetic_nonconvex_loss
from dpopt.glm_jl import (JLMatrix, JLParams, check_subspace_embedding, choose_k,
                          jl_matrix, numeric_rank, rebound_constants, run_jl)
from dpopt.harness import gen_synthetic
from dpopt.privacy import PrivacyBudget
from dpopt.spiderboost import derive_spider_params, run_spiderboost


class TestJLMatrix:
    def test_entry_variance(self):
        k, d = 100, 10_000
        phi = jl_matrix(k, d, seed=0)
        assert float(np.var(phi.entries)) == pytest.approx(1.0 / k, rel=0.02)

    def test_reproducible_from_seed(self):
        a = jl_matrix(16, 32, seed=77)
        b = jl_matrix(16, 32, seed=77)
        assert np.array_equal(a.entries, b.entries)
        assert a.seed == 77

    def test_norm_preserved_in_expectation(self):
        # E ||Phi u||^2 = ||u||^2 over fresh matrices
        k, d = 16, 8
        u = np.zeros(d)
        u[0] = 1.0
        vals = np.empty(10_000)
        for s in range(vals.shape[0]):
            pu = jl_matrix(k, d, seed=s).entries @ u
            vals[s] = pu @ pu
        se = float(np.std(vals) / math.sqrt(vals.shape[0]))
        assert float(np.mean(vals)) == pytest.approx(1.0, abs=4 * se)

    def test_scalar_case_standard_normal(self):
        vals = np.array([jl_matrix(1, 1, seed=s).entries[0, 0] for s in range(4000)])
        assert abs(float(np.mean(vals))) <= 4.0 / math.sqrt(4000)
        assert float(np.var(vals)) == pytest.approx(1.0, rel=0.1)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            jl_matrix(0, 4, seed=1)

    @pytest.mark.parametrize("seed", [7.0, np.random.default_rng(7)])
    def test_seed_must_be_an_integer(self, seed):
        # the seed is always recorded, so a Generator has no place here
        with pytest.raises(TypeError):
            jl_matrix(4, 8, seed)
        assert jl_matrix(4, 8, np.int64(7)).seed == 7


class TestNumericRank:
    @pytest.mark.parametrize("rank", [1, 2, 4, 7])
    def test_planted_rank_detected(self, rank):
        S = gen_synthetic("glm_lowrank", 200, 16, rank=rank, seed=rank)
        assert numeric_rank(S.X) == rank

    def test_zero_matrix(self):
        assert numeric_rank(np.zeros((4, 5))) == 0


class TestChooseK:
    def test_rank_branch_clamp(self):
        # small rank on a big d: the rank cap binds
        n, rank, d = 100, 1, 4096
        budget = PrivacyBudget(1.0, 1e-2)
        k = choose_k("spiderboost", n, rank, d, 1.0, 1.0, 1.0, budget)
        assert k == math.ceil(rank * math.log(2 * n / budget.delta))

    def test_matches_exhaustive_scan(self):
        n, rank, d = 4096, 4, 256
        L0, L1, normX = 0.6495, 2.0, 1.0
        budget = PrivacyBudget(1.0, 1e-6)
        # independent scan, re-typed
        L0h = 2 * L0 * normX
        best_j, best = 1, float("inf")
        for j in range(1, d + 1):
            a = math.sqrt(j * math.log(2.0 / budget.delta)) / (n * budget.eps)
            val = L0h * a ** (2 / 3) + L0h * a + L0 * normX * math.log(n) / math.sqrt(j)
            if val < best:
                best_j, best = j, val
        expect = min(max(1, min(math.ceil(min(best_j,
                     rank * math.log(2 * n / budget.delta))), d)), d)
        assert choose_k("spiderboost", n, rank, d, L0, L1, normX, budget) == expect

    def test_capped_at_d(self):
        assert choose_k("spiderboost", 50, 30, 1, 1.0, 1.0, 1.0,
                        PrivacyBudget(1.0, 1e-3)) == 1

    def test_rr_branch_differs(self):
        budget = PrivacyBudget(1.0, 1e-6)
        a = choose_k("spiderboost", 2048, 64, 512, 1.0, 1.0, 1.0, budget)
        b = choose_k("recursive_reg", 2048, 64, 512, 1.0, 1.0, 1.0, budget)
        assert a >= 1 and b >= 1

    def test_unknown_base(self):
        with pytest.raises(ValueError):
            choose_k("bogus", 10, 1, 4, 1.0, 1.0, 1.0, PrivacyBudget(1.0, 1e-3))


class TestSubspaceEmbedding:
    def test_identity_matrix_zero_distortion(self):
        d = 6
        phi = JLMatrix(entries=np.eye(d), seed=0)
        basis = np.eye(d)[:3]
        ok, worst = check_subspace_embedding(phi, basis, tau=0.5,
                                             rng=np.random.default_rng(0))
        assert ok and worst <= 1e-12

    def test_degenerate_basis_rejected(self):
        phi = jl_matrix(8, 4, seed=0)
        with pytest.raises(ValueError, match="degenerate"):
            check_subspace_embedding(phi, np.zeros((2, 4)), 0.5)
        with pytest.raises(ValueError, match="degenerate"):
            check_subspace_embedding(phi, np.array([[1.0, 0, 0, 0],
                                                    [2.0, 0, 0, 0]]), 0.5)

    def test_matches_one_probe_at_a_time(self):
        # the batched check draws the same probes as a draw per probe
        def per_probe(phi, basis, probes, rng):
            Q, _ = np.linalg.qr(basis.T)
            worst = 0.0
            for _ in range(probes):
                z = rng.standard_normal(basis.shape[0])
                z /= max(np.linalg.norm(z), 1e-300)
                pv = phi.entries @ (Q @ z)
                worst = max(worst, abs(float(pv @ pv) - 1.0))
            return worst

        rng = np.random.default_rng(2)
        for r, k, d in ((1, 12, 9), (3, 40, 20), (4, 5, 6)):
            basis = rng.standard_normal((r, d))
            phi = jl_matrix(k, d, seed=r)
            ok, worst = check_subspace_embedding(phi, basis, 0.5, probes=200,
                                                 rng=np.random.default_rng(k))
            want = per_probe(phi, basis, 200, np.random.default_rng(k))
            assert abs(worst - want) <= 1e-12 and ok == (want <= 0.5)

    def test_ose_pass_rate(self):
        # k = O(r log(2/beta)/tau^2) gives pass rate >= 1 - beta at tau = 1/2
        r, beta, tau, d = 2, 0.05, 0.5, 64
        k = math.ceil(8 * r * math.log(2 / beta) / tau ** 2)
        rng = np.random.default_rng(1)
        basis = rng.standard_normal((r, d))
        passes = 0
        for s in range(60):
            phi = jl_matrix(k, d, seed=1000 + s)
            ok, _ = check_subspace_embedding(phi, basis, tau, probes=300,
                                             rng=np.random.default_rng(s))
            passes += ok
        assert passes / 60 >= 1 - beta


class FakeBaseReport:
    def __init__(self, w):
        self.w_out = w
        self.oracle_calls = 0
        self.noise_ledger = None


class TestRunJL:
    def setup_data(self, n=200, d=32, rank=2, seed=3):
        loss = synthetic_nonconvex_loss(d)
        S = gen_synthetic("glm_lowrank", n, d, rank=rank, seed=seed,
                          label_scale=0.6)
        return loss, S

    def test_identity_projection_reproduces_raw_run(self, monkeypatch):
        from dpopt import glm_jl
        from dpopt.core import GLMLoss
        loss, S = self.setup_data()
        sp = derive_spider_params(S.n, S.dim, *rebound_constants(loss.L0_phi, loss.L1_phi, 1.0),
                                  1.0, PrivacyBudget(1.0, 1e-5).halve_delta())

        def base(S_proj, loss_proj, rng):
            return run_spiderboost(loss_proj, S_proj, sp, rng)

        monkeypatch.setattr(glm_jl, "jl_matrix",
                            lambda k, d, seed: JLMatrix(entries=np.eye(d), seed=seed))
        params = JLParams(k=S.dim, rank=2, normX=1.0)
        rep = run_jl(base, loss, S, params, PrivacyBudget(1.0, 1e-5),
                     np.random.default_rng(4))

        # reference: the same base run on the raw (identity-projected) data,
        # its generator past run_jl's one draw of the matrix seed
        bound = float(np.max(np.linalg.norm(S.X, axis=1))) * (1 + 1e-12)
        loss_ref = GLMLoss(loss.link, loss.L0_phi, loss.L1_phi, bound, S.dim,
                           F0_hint=loss.F0_hint)
        rng = np.random.default_rng(4)
        assert rep.matrix_seed == rng.integers(2 ** 63)
        ref = base(Dataset(S.X.copy(), S.y.copy()), loss_ref, rng)
        assert np.array_equal(rep.w_out, ref.w_out)

    def test_budget_split(self):
        loss, S = self.setup_data()
        captured = {}

        def base(S_proj, loss_proj, rng):
            captured["k"] = S_proj.dim
            return FakeBaseReport(np.zeros(S_proj.dim))

        budget = PrivacyBudget(0.8, 1e-4)
        params = JLParams(k=6, rank=2, normX=1.0)
        rep = run_jl(base, loss, S, params, budget, np.random.default_rng(5))
        assert rep.base_eps == 0.8 and rep.base_delta == 5e-5
        assert captured["k"] == 6

    def test_rebound_constants(self):
        # Lipschitz rebinding is exactly (2 L0 ||X||, 2 L1 ||X||^2)
        assert rebound_constants(0.5, 3.0, 2.0) == (2.0, 24.0)

    def test_output_in_row_space(self):
        loss, S = self.setup_data()

        def base(S_proj, loss_proj, rng):
            return FakeBaseReport(rng.standard_normal(S_proj.dim))

        params = JLParams(k=5, rank=2, normX=1.0)
        rep = run_jl(base, loss, S, params, PrivacyBudget(1.0, 1e-4),
                     np.random.default_rng(6))
        phi = jl_matrix(5, S.dim, seed=rep.matrix_seed)
        coef, *_ = np.linalg.lstsq(phi.entries.T, rep.w_out, rcond=None)
        assert np.linalg.norm(phi.entries.T @ coef - rep.w_out) <= 1e-10

    def test_clamp_applied_and_reported(self):
        loss, S = self.setup_data()

        def base(S_proj, loss_proj, rng):
            return FakeBaseReport(np.full(S_proj.dim, 1e150))

        params = JLParams(k=4, rank=2, normX=1.0)
        rep = run_jl(base, loss, S, params, PrivacyBudget(1.0, 1e-4),
                     np.random.default_rng(7))
        assert rep.clamped

    def test_projected_norm_tail_bound(self):
        # ||Phi x|| <= (1 + gamma) ||x|| for all samples w.p. >= 1 - delta/2
        # at k >= 8 log(2n/delta)/gamma^2
        n, d, gamma, delta = 200, 40, 0.5, 0.2
        S = gen_synthetic("glm_fullrank", n, d, seed=8)
        k = math.ceil(8 * math.log(2 * n / delta) / gamma ** 2)
        good = 0
        trials = 50
        for s in range(trials):
            phi = jl_matrix(k, d, seed=s)
            ratios = (np.linalg.norm(S.X @ phi.entries.T, axis=1)
                      / np.linalg.norm(S.X, axis=1))
            good += bool(np.all(ratios <= 1 + gamma))
        assert good / trials >= 0.9  # target 1 - delta/2 = 0.9

    def test_gradient_norm_transfer_rank1(self):
        # on rank-1 data with k >= 32 log(2n/delta): the lifted gradient norm
        # is at most twice the projected one
        n, d, delta = 100, 64, 0.1
        loss = synthetic_nonconvex_loss(d)
        S = gen_synthetic("glm_lowrank", n, d, rank=1, seed=9, label_scale=0.5)
        k = math.ceil(32 * math.log(2 * n / delta))
        rng = np.random.default_rng(10)
        for s in range(50):
            phi = jl_matrix(k, d, seed=200 + s)
            Xp = S.X @ phi.entries.T
            loss_p = synthetic_nonconvex_loss(k, normX=float(
                np.max(np.linalg.norm(Xp, axis=1))) * (1 + 1e-12))
            w_tilde = rng.standard_normal(k) * 0.3
            g_orig = np.linalg.norm(erm_grad(loss, phi.entries.T @ w_tilde, S))
            g_proj = np.linalg.norm(erm_grad(loss_p, w_tilde, Dataset(Xp, S.y)))
            assert g_orig <= 2.0 * g_proj + 1e-9

    def test_params_validation(self):
        with pytest.raises(ValueError):
            JLParams(k=10, rank=2, normX=1.0).validate(4)
