"""Noise calibration formulas, sensitivity bounds, and the Gaussian sampler."""
import math
import pickle

import numpy as np
import pytest

from dpopt.privacy import (NoiseLedger, NoiseLedgerEntry, PrivacyBudget,
                           accountant_sigma, draw_gaussian, gaussian_sigma,
                           record_draws, spider_gv_sensitivity,
                           tree_gv_sensitivity)


class TestGaussianSigma:
    def test_zero_sensitivity(self):
        assert gaussian_sigma(0.0, 1.0, 1e-5) == 0.0

    def test_closed_form_value(self):
        # sensitivity 2 L0 / b with L0 = 1, b = 10 at eps = 1, delta = 1e-5
        got = gaussian_sigma(2.0 * 1.0 / 10, 1.0, 1e-5)
        expect = 0.2 * math.sqrt(2.0 * math.log(1.25e5))
        assert got == pytest.approx(expect, rel=1e-15)
        assert got == pytest.approx(0.9690, abs=5e-4)

    def test_linear_in_sensitivity(self):
        a = gaussian_sigma(0.7, 0.5, 1e-6)
        b = gaussian_sigma(1.4, 0.5, 1e-6)
        assert b == pytest.approx(2.0 * a, rel=1e-15)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            gaussian_sigma(-1.0, 1.0, 1e-5)
        with pytest.raises(ValueError):
            gaussian_sigma(1.0, 0.0, 1e-5)
        with pytest.raises(ValueError):
            gaussian_sigma(1.0, 1.0, 1.5)
        # `x < 0`-style checks let a NaN through, and sigma came back NaN
        with pytest.raises(ValueError, match="^sensitivity must be non-negative$"):
            gaussian_sigma(math.nan, 1.0, 1e-5)
        with pytest.raises(ValueError, match="^eps must be positive$"):
            gaussian_sigma(1.0, math.nan, 1e-5)


class TestAccountantSigma:
    def test_full_batch_single_query(self):
        # lam = 1 (per-element bound), b = n, T = 1, eps = 1, delta = e^-1, c = 1
        n = 50
        budget = PrivacyBudget(1.0, math.exp(-1.0), 1.0)
        assert accountant_sigma(1.0 / n, n, 1, n, budget) == pytest.approx(1.0 / n, rel=1e-15)

    def test_sqrt_T_proportionality(self):
        # in the sqrt(T)/n regime, scaling T by 4 doubles sigma
        n, b = 100, 4
        budget = PrivacyBudget(0.7, 1e-6)
        t0 = 10_000  # sqrt(T)/n = 1 >= 1/b
        assert (accountant_sigma(0.3 / n, b, 4 * t0, n, budget)
                == pytest.approx(2.0 * accountant_sigma(0.3 / n, b, t0, n, budget), rel=1e-15))

    def test_zero_sensitivity(self):
        assert accountant_sigma(0.0, 3, 7, 10, PrivacyBudget(1.0, 1e-5)) == 0.0

    def test_rejects_b_greater_than_n(self):
        with pytest.raises(ValueError):
            accountant_sigma(1.0, 11, 1, 10, PrivacyBudget(1.0, 1e-5))

    def test_rejects_nan_sensitivity(self):
        with pytest.raises(ValueError, match="^sensitivity must be non-negative$"):
            accountant_sigma(math.nan, 3, 7, 10, PrivacyBudget(1.0, 1e-5))

    def test_matches_independent_reimplementation(self):
        # invariant: 1000 random draws against a re-typed closed form
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            n = int(rng.integers(2, 100000))
            b = int(rng.integers(1, n + 1))
            T = int(rng.integers(1, 10000))
            eps = float(rng.uniform(0.05, 3.0))
            delta = float(rng.uniform(1e-9, 0.5))
            c = float(rng.uniform(0.1, 4.0))
            lam = float(rng.uniform(0.0, 10.0))
            got = accountant_sigma(lam / n, b, T, n, PrivacyBudget(eps, delta, c))
            expect = (c * lam * math.sqrt(math.log(1.0 / delta)) / eps
                      * max(1.0 / b, math.sqrt(T) / n))
            assert got == pytest.approx(expect, rel=1e-12, abs=1e-300)

    def test_pure(self):
        budget = PrivacyBudget(0.3, 1e-7, 1.3)
        vals = {accountant_sigma(0.11, 5, 17, 50, budget) for _ in range(10)}
        assert len(vals) == 1


class TestSensitivities:
    def test_spider_gv_zero_step(self):
        assert spider_gv_sensitivity(3.0, 0.0, 5) == 0.0

    def test_spider_gv_value(self):
        assert spider_gv_sensitivity(2.0, 0.5, 4) == pytest.approx(0.5, rel=1e-15)

    def test_spider_gv_halving_b2(self):
        assert (spider_gv_sensitivity(1.0, 1.0, 2)
                == pytest.approx(2.0 * spider_gv_sensitivity(1.0, 1.0, 4), rel=1e-15))

    def test_tree_gv_zero(self):
        assert tree_gv_sensitivity(0.0, 3, 8) == 0.0

    def test_tree_gv_value(self):
        assert tree_gv_sensitivity(1.0, 2, 8) == pytest.approx(0.5, rel=1e-15)

    def test_tree_gv_depth_doubling(self):
        assert (tree_gv_sensitivity(1.0, 4, 16)
                == pytest.approx(2.0 * tree_gv_sensitivity(1.0, 2, 16), rel=1e-15))


class TestDrawGaussian:
    def test_zero_sigma_gives_zero_vector(self):
        g = draw_gaussian(8, 0.0, np.random.default_rng(0))
        assert np.all(g == 0.0)

    def test_mean_concentration(self):
        g = draw_gaussian(10 ** 5, 1.0, np.random.default_rng(1))
        assert abs(float(np.mean(g))) <= 4.0 / math.sqrt(10 ** 5)

    def test_variance_concentration(self):
        g = draw_gaussian(10 ** 5, 2.0, np.random.default_rng(2))
        assert float(np.var(g)) == pytest.approx(4.0, rel=0.05)

    def test_deterministic_given_state(self):
        a = draw_gaussian(16, 0.7, np.random.default_rng(33))
        b = draw_gaussian(16, 0.7, np.random.default_rng(33))
        assert np.array_equal(a, b)

    def test_out_row_gets_the_allocating_draw_and_ledger_entry(self):
        # tree Spider draws each run's noise into a row of one block
        want_ledger, got_ledger = NoiseLedger(), NoiseLedger()
        want = draw_gaussian(6, 0.7, np.random.default_rng(9), want_ledger, "s")
        block = np.full((3, 6), np.nan)
        got = draw_gaussian(6, 0.7, np.random.default_rng(9), got_ledger, "s", out=block[1])
        assert np.shares_memory(got, block[1])
        assert block[1].tobytes() == want.tobytes()
        assert np.isnan(block[[0, 2]]).all()
        assert got_ledger == want_ledger
        with pytest.raises(ValueError, match=r"out has shape \(6,\), expected \(5,\)"):
            draw_gaussian(5, 0.7, np.random.default_rng(9), out=block[1])

    def test_ledger_records_and_coalesces(self):
        ledger = NoiseLedger()
        rng = np.random.default_rng(0)
        for _ in range(3):
            draw_gaussian(4, 0.5, rng, ledger, "site-a")
        draw_gaussian(4, 0.25, rng, ledger, "site-a")
        draw_gaussian(2, 0.5, rng, ledger, "site-b")
        rows = ledger.rows()
        assert rows == [("site-a", 0.5, 4, 3), ("site-a", 0.25, 4, 1),
                        ("site-b", 0.5, 2, 1)]
        assert ledger.total_draws() == 5


class TestNoiseLedgerColumns:
    """The ledger is held as columns; its entries are a read-only view."""

    def test_coalesces_only_same_site_dim_and_equal_sigma(self):
        ledger = NoiseLedger()
        for site, sigma, dim in [("a", 0.5, 4), ("a", 0.5, 4), ("b", 0.5, 4),
                                 ("b", 0.5, 2), ("b", 0.5, 2), ("b", math.nan, 2),
                                 ("b", math.nan, 2), ("b", -0.0, 2), ("b", 0.0, 2)]:
            ledger.record(site, sigma, dim)
        rows = ledger.rows()
        assert [(s, d, c) for s, _, d, c in rows] == [
            ("a", 4, 2), ("b", 4, 1), ("b", 2, 2), ("b", 2, 1), ("b", 2, 1), ("b", 2, 2)]
        assert math.isnan(rows[3][1]) and math.isnan(rows[4][1])  # NaN != NaN
        assert math.copysign(1.0, rows[5][1]) == -1.0  # 0.0 == -0.0: the first stays
        assert all(type(s) is str and type(sig) is float and type(d) is int
                   and type(c) is int for s, sig, d, c in rows)
        assert ledger.total_draws() == 9

    def test_empty(self):
        ledger = NoiseLedger()
        assert ledger.rows() == [] and ledger.total_draws() == 0
        assert len(ledger.entries) == 0 and list(ledger.entries) == []
        with pytest.raises(IndexError):
            ledger.entries[-1]
        assert ledger == NoiseLedger()

    def test_entries_view(self):
        ledger = NoiseLedger()
        ledger.record("a", 0.5, 4)
        view = ledger.entries
        ledger.record("a", 0.5, 4)
        ledger.record("b", 0.25, 4)
        assert len(view) == 2  # a view, not a copy
        assert view[-1] == NoiseLedgerEntry("b", 0.25, 4, 1)
        assert view[0].count == 2 and view[-2] == view[0]
        assert list(view) == [NoiseLedgerEntry("a", 0.5, 4, 2),
                              NoiseLedgerEntry("b", 0.25, 4, 1)]
        assert [(e.site, e.sigma, e.dim, e.count) for e in view] == ledger.rows()
        view[0].count = 99  # a fresh entry: the ledger does not change
        assert ledger.rows()[0][3] == 2

    def test_equality_and_pickle_round_trip(self):
        def build(*draws):
            ledger = NoiseLedger()
            for d in draws:
                ledger.record(*d)
            return ledger
        draws = [("a", 0.5, 4), ("a", 0.5, 4), ("b", math.nan, 4), ("b", 1e-300, 16)]
        ledger = build(*draws)
        assert ledger == build(*draws)  # NaN sigmas compare bit for bit
        assert ledger != build(*draws[:3])
        assert ledger != build(*draws[:3], ("b", 2e-300, 16))
        assert build(("a", 0.0, 4)) != build(("a", -0.0, 4))
        assert build(("a", 0.5, 4)) != build(("a", 0.5, 4), ("a", 0.5, 4))
        assert ledger != ledger.rows()
        back = pickle.loads(pickle.dumps(ledger))
        assert back == ledger and back.total_draws() == 4
        assert back._sigma.typecode == "d" and back._count.typecode == "q"


class TestRecordDraws:
    def test_records_each_run_in_row_order(self):
        # one row per draw, one column per run
        sigmas = np.array([[0.5, 0.0, 2.0]])
        ledgers = [NoiseLedger() for _ in range(3)]
        record_draws(ledgers, sigmas, 4, "site-a")
        for r in range(3):
            assert ledgers[r].rows() == [("site-a", float(sigmas[0, r]), 4, 1)]
            assert type(ledgers[r].rows()[0][1]) is float
        record_draws(ledgers, sigmas, 4, "site-a")
        assert [l.total_draws() for l in ledgers] == [2, 2, 2]
        assert len(ledgers[0].entries) == 1  # repeats coalesce as in draw_gaussian
        # a block of rows goes into each run's ledger in row order, one
        # record per draw
        block = np.array([[0.25, 1.0], [0.25, math.nan], [0.75, math.nan]])
        got = [NoiseLedger() for _ in range(2)]
        record_draws(got, block, 3, "site-b")
        for r in range(2):
            want = NoiseLedger()
            for sigma in block[:, r].tolist():
                want.record("site-b", sigma, 3)
            assert got[r] == want
        assert got[0].rows() == [("site-b", 0.25, 3, 2), ("site-b", 0.75, 3, 1)]
        assert len(got[1].entries) == 3  # a NaN sigma never coalesces

    def test_matches_draw_gaussian_stream(self):
        # a row of normals drawn ahead and scaled, then recorded, is
        # draw_gaussian's draw and ledger entry
        ledger = NoiseLedger()
        a = draw_gaussian(6, 0.7, np.random.default_rng(9), ledger, "s")
        z = np.random.default_rng(9).standard_normal((1, 6))
        sigmas = np.array([[0.7]])
        assert np.array_equal((z * sigmas[0][:, None])[0], a)
        got = [NoiseLedger()]
        record_draws(got, sigmas, 6, "s")
        assert got[0] == ledger

    def test_keeps_draw_gaussian_checks(self):
        ledger = NoiseLedger()
        with pytest.raises(ValueError, match="sigma"):
            record_draws([ledger, ledger], np.array([[0.1, -0.1]]), 3)
        with pytest.raises(ValueError, match="dim"):
            record_draws([ledger, ledger], np.array([[0.1, 0.1]]), 0)
        assert ledger.total_draws() == 0  # a failed check records nothing
        # without ledgers the block is still checked, and nothing is recorded
        record_draws(None, np.array([[0.1, math.nan]]), 3)
        with pytest.raises(ValueError, match="sigma"):
            record_draws(None, np.array([[0.1], [-0.1]]), 3)


class TestPrivacyBudget:
    def test_rejects_bad_params(self):
        nan = float("nan")
        for eps, delta, c in ((0.0, 1e-5, 1.0), (1.0, 0.0, 1.0),
                              (1.0, 1.0, 1.0), (1.0, 1e-5, 0.0),
                              (nan, 1e-5, 1.0), (1.0, nan, 1.0), (1.0, 1e-5, nan)):
            with pytest.raises(ValueError):
                PrivacyBudget(eps, delta, c)

    def test_halve_delta(self):
        b = PrivacyBudget(2.0, 1e-4, 1.5).halve_delta()
        assert (b.eps, b.delta, b.c) == (2.0, 5e-5, 1.5)
