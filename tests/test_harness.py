"""Harness: synthetic data, RNG streams, scaling fits, sweeps, and the CLI."""
import json

import numpy as np
import pytest

from dpopt.harness import (ExperimentConfig, gen_support, gen_synthetic,
                           median, median_by_x, read_csv_rows, run_experiment,
                           scaling_fit, stream, stream_seed)
from dpopt.harness.cli import main as cli_main
from dpopt.harness.experiment import report_json, run_single
from dpopt.core import load_csv, synthetic_nonconvex_loss
from dpopt.glm_jl import numeric_rank


class TestGenSynthetic:
    def test_deterministic_from_seed(self):
        a = gen_synthetic("glm_lowrank", 50, 8, rank=3, seed=5, label_scale=0.4)
        b = gen_synthetic("glm_lowrank", 50, 8, rank=3, seed=5, label_scale=0.4)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
        c = gen_synthetic("glm_lowrank", 50, 8, rank=3, seed=6, label_scale=0.4)
        assert not np.array_equal(a.X, c.X)

    def test_huber_cluster_in_ball(self):
        B = 0.8
        ds = gen_synthetic("huber_cluster", 200, 5, seed=1, B=B)
        assert np.all(np.linalg.norm(ds.X, axis=1) <= B / 4 + 1e-12)

    def test_planted_rank(self):
        ds = gen_synthetic("glm_lowrank", 100, 12, rank=4, seed=2)
        assert numeric_rank(ds.X) == 4

    def test_feature_norm_bound(self):
        ds = gen_synthetic("glm_fullrank", 100, 6, seed=3, label_scale=0.5)
        assert np.all(np.linalg.norm(ds.X, axis=1) <= 1.0 + 1e-12)

    def test_labels_realizable(self):
        ds = gen_synthetic("glm_fullrank", 64, 4, seed=4, label_scale=0.7)
        # y = 0.7 <q1, x>: some w with |w| = 0.7 interpolates exactly
        w, *_ = np.linalg.lstsq(ds.X, ds.y, rcond=None)
        assert np.max(np.abs(ds.X @ w - ds.y)) <= 1e-10
        assert np.linalg.norm(w) == pytest.approx(0.7, rel=1e-9)

    def test_rank_required_and_bounded(self):
        with pytest.raises(ValueError):
            gen_synthetic("glm_lowrank", 10, 4, rank=None, seed=0)
        with pytest.raises(ValueError):
            gen_synthetic("glm_lowrank", 10, 4, rank=5, seed=0)
        with pytest.raises(ValueError):
            gen_synthetic("nope", 10, 4, seed=0)


class TestFiniteSupport:
    def test_population_grad_is_support_mean(self):
        dist = gen_support("glm_fullrank", 32, 3, seed=7, label_scale=0.5)
        loss = synthetic_nonconvex_loss(3)
        w = np.array([0.1, -0.2, 0.3])
        expect = loss.grad_mean(w, dist.support.X, dist.support.y)
        assert np.array_equal(dist.population_grad(loss, w), expect)

    def test_samples_come_from_support(self):
        dist = gen_support("glm_fullrank", 16, 3, seed=8)
        S = dist.sample(100, np.random.default_rng(0))
        support_rows = {tuple(r) for r in dist.support.X}
        assert all(tuple(r) in support_rows for r in S.X)


class TestStreams:
    def test_keyed_reproducibility(self):
        a = stream(3, "run", 1, 2).standard_normal(4)
        b = stream(3, "run", 1, 2).standard_normal(4)
        assert np.array_equal(a, b)

    def test_distinct_keys_decorrelated(self):
        a = stream(3, "run", 1, 2).standard_normal(4)
        c = stream(3, "run", 1, 3).standard_normal(4)
        d = stream(4, "run", 1, 2).standard_normal(4)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    def test_adding_grid_points_keeps_streams(self):
        # stream for (grid 0, seed 0) is independent of any other keys used
        before = stream(9, "data", 0, 0).standard_normal(3)
        _ = stream(9, "data", 17, 5).standard_normal(3)
        after = stream(9, "data", 0, 0).standard_normal(3)
        assert np.array_equal(before, after)

    def test_seed_helper_range(self):
        s = stream_seed(1, "x")
        assert 0 <= s < 2 ** 63


class TestScalingFit:
    def test_exact_power_law(self):
        pts = [(x, x ** 2) for x in (1.0, 2.0, 3.0, 10.0)]
        fit = scaling_fit(pts)
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_noisy_minus_two_thirds(self):
        rng = np.random.default_rng(11)
        pts = []
        for i in range(8):
            x = 2.0 ** (6 + i)
            y = 3.0 * x ** (-2.0 / 3.0) * float(np.exp(rng.normal(0, 0.01)))
            pts.append((x, y))
        fit = scaling_fit(pts)
        assert abs(fit.slope - (-2.0 / 3.0)) <= 0.1

    def test_rejects_two_points(self):
        with pytest.raises(ValueError):
            scaling_fit([(1.0, 1.0), (2.0, 2.0)])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            scaling_fit([(1.0, 1.0), (2.0, -2.0), (3.0, 1.0)])

    def test_median_helpers(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([4.0, 1.0, 2.0, 3.0]) == 2.5
        assert median_by_x([(1, 5.0), (1, 7.0), (2, 1.0)]) == [(1, 6.0), (2, 1.0)]


class TestExperimentConfig:
    def base_raw(self, out):
        return {"algorithm": "spiderboost", "grid": {"n": [64], "d": [4],
                "eps": [1.0]}, "delta": 1e-4, "seeds": [0, 1], "out": str(out),
                "loss": {"kind": "synthetic_nonconvex"},
                "data": {"kind": "glm_fullrank", "label_scale": 0.5}}

    def test_validation_errors(self, tmp_path):
        raw = self.base_raw(tmp_path)
        raw["seeds"] = [1, 1]
        with pytest.raises(ValueError, match="distinct"):
            ExperimentConfig.from_dict(raw)
        raw = self.base_raw(tmp_path)
        raw["grid"]["n"] = []
        with pytest.raises(ValueError, match="grid"):
            ExperimentConfig.from_dict(raw)

    def test_grid_enumeration(self, tmp_path):
        raw = self.base_raw(tmp_path)
        raw["grid"] = {"n": [64, 128], "d": [2, 4], "eps": [0.5]}
        cfg = ExperimentConfig.from_dict(raw)
        pts = cfg.grid_points()
        assert len(pts) == 4
        assert pts[0] == (0, 64, 2, 0.5)
        assert pts[-1] == (3, 128, 4, 0.5)


class TestRunExperiment:
    def test_row_count_and_determinism(self, tmp_path):
        raw = {"algorithm": "spiderboost",
               "grid": {"n": [64, 128], "eps": [1.0, 2.0], "d": [4]},
               "delta": 1e-4, "seeds": [0, 1, 2], "out": str(tmp_path / "a"),
               "master_seed": 5,
               "data": {"kind": "glm_fullrank", "label_scale": 0.5},
               "overrides": {"T": 40}}
        cfg = ExperimentConfig.from_dict(raw)
        path = run_experiment(cfg)
        rows = read_csv_rows(path)
        assert len(rows) == 2 * 2 * 3  # 2x2 grid x 3 seeds
        assert list(rows[0]) == ["algorithm", "n", "d", "eps", "delta", "seed",
                                 "grad_norm", "oracle_calls", "wall_ms",
                                 "param_hash", "status"]
        assert all(r["status"] == "ok" for r in rows)
        assert all(r["param_hash"] for r in rows)
        first = path.read_bytes()
        run_experiment(cfg)
        assert path.read_bytes() == first  # byte-identical rerun

    def test_precondition_rows_isolated(self, tmp_path):
        raw = {"algorithm": "spiderboost",
               "grid": {"n": [2, 256], "eps": [1.0], "d": [16]},
               "delta": 1e-4, "seeds": [0], "out": str(tmp_path / "b"),
               "data": {"kind": "glm_fullrank", "label_scale": 0.5}}
        cfg = ExperimentConfig.from_dict(raw)
        rows = read_csv_rows(run_experiment(cfg))
        assert rows[0]["status"].startswith("precondition")
        assert rows[1]["status"] == "ok"

    def test_precondition_tags_every_seed_of_a_group(self, tmp_path):
        raw = {"algorithm": "spiderboost",
               "grid": {"n": [2, 256], "eps": [1.0], "d": [16]},
               "delta": 1e-4, "seeds": [0, 1, 2], "out": str(tmp_path / "b"),
               "data": {"kind": "glm_fullrank", "label_scale": 0.5}}
        rows = read_csv_rows(run_experiment(ExperimentConfig.from_dict(raw)))
        status = [r["status"] for r in rows]
        assert status[0].startswith("precondition: sample-size hypothesis violated: n >= ")
        assert status[:3] == [status[0]] * 3
        assert status[3:] == ["ok"] * 3
        assert not any((tmp_path / "b" / "reports").glob("run_g0_*"))

    @pytest.mark.parametrize("algorithm,kind", [("spiderboost", "spiderboost"),
                                                ("tree_spider", "tree")])
    def test_other_value_errors_are_error_rows(self, tmp_path, algorithm, kind):
        # a bad override is a config error, not a sample-size hypothesis
        raw = {"algorithm": algorithm,
               "grid": {"n": [1024], "eps": [1.0], "d": [4]},
               "delta": 1e-4, "seeds": [0, 1], "out": str(tmp_path / "e"),
               "data": {"kind": "glm_fullrank", "label_scale": 0.5,
                        "support_size": 64},
               "overrides": {"bogus": 1}}
        rows = read_csv_rows(run_experiment(ExperimentConfig.from_dict(raw)))
        assert [r["status"] for r in rows] == [
            f"error: ValueError: unknown {kind} overrides: ['bogus']"] * 2

    def test_group_rows_equal_single_seed_rows(self, tmp_path):
        # a seed's row and report do not depend on the seeds it runs with
        cfg = ExperimentConfig.from_dict({
            "algorithm": "spiderboost", "grid": {"n": [128], "eps": [1.0], "d": [4]},
            "delta": 1e-4, "seeds": [5, 6, 7], "out": str(tmp_path / "s"),
            "master_seed": 3, "data": {"kind": "glm_fullrank", "label_scale": 0.5},
            "overrides": {"T": 50}})
        group = run_single(cfg, 0, 128, 4, 1.0, [(0, 5), (1, 6), (2, 7)])
        assert [row["seed"] for row, _ in group] == [5, 6, 7]
        for seed_index, seed in ((1, 6), (2, 7)):
            (alone,) = run_single(cfg, 0, 128, 4, 1.0, [(seed_index, seed)])
            assert group[seed_index][0] == alone[0]
            assert report_json(group[seed_index][1]) == report_json(alone[1])
        assert group[0][0]["grad_norm"] != group[1][0]["grad_norm"]

    def test_timing_splits_group_wall_time(self, tmp_path):
        raw = {"algorithm": "spiderboost",
               "grid": {"n": [64], "eps": [1.0], "d": [4]},
               "delta": 1e-4, "seeds": [0, 1, 2], "out": str(tmp_path / "t"),
               "data": {"kind": "glm_fullrank", "label_scale": 0.5},
               "overrides": {"T": 20}, "timing": True}
        rows = read_csv_rows(run_experiment(ExperimentConfig.from_dict(raw)))
        walls = {float(r["wall_ms"]) for r in rows}
        assert len(walls) == 1 and walls.pop() > 0.0

    def rr_config(self, tmp_path, **extra):
        return ExperimentConfig.from_dict({
            "algorithm": "recursive_reg", "grid": {"n": [512], "eps": [1.0], "d": [3]},
            "delta": 1e-5, "seeds": [5, 6, 7], "out": str(tmp_path / "rr"),
            "master_seed": 4, "loss": {"kind": "glm_tanh"},
            "data": {"kind": "glm_fullrank", "label_scale": 0.5, "support_size": 64},
            **extra})

    @pytest.mark.parametrize("subroutine", ["phased_sgd", "noisy_gd"])
    def test_rr_group_rows_equal_single_seed_rows(self, tmp_path, subroutine):
        cfg = self.rr_config(tmp_path, rr={"subroutine": subroutine},
                             overrides={"K_t": 40})
        group = run_single(cfg, 0, 512, 3, 1.0, [(0, 5), (1, 6), (2, 7)])
        assert [row["seed"] for row, _ in group] == [5, 6, 7]
        assert all(row["status"] == "ok" for row, _ in group)
        for seed_index, seed in enumerate((5, 6, 7)):
            (alone,) = run_single(cfg, 0, 512, 3, 1.0, [(seed_index, seed)])
            assert group[seed_index][0] == alone[0]
            assert report_json(group[seed_index][1]) == report_json(alone[1])
        assert group[0][0]["grad_norm"] != group[1][0]["grad_norm"]

    def test_rr_precondition_tags_every_seed_of_a_group(self, tmp_path):
        cfg = self.rr_config(tmp_path, overrides={"lam": 2.0})
        rows = read_csv_rows(run_experiment(cfg))
        assert [r["status"] for r in rows] == [
            "precondition: lam = 2 >= L1 = 1: T would be 0; increase n or R_bar"] * 3
        assert not any((tmp_path / "rr" / "reports").glob("*"))

    def test_rr_bad_sample_fails_only_its_seed(self, tmp_path, monkeypatch):
        # a support row above the norm bound that only seed 6's sample draws
        from dpopt.core import Dataset
        from dpopt.harness import experiment
        from dpopt.harness.rng import stream
        from dpopt.harness.synthetic import FiniteSupportDistribution
        cfg = self.rr_config(tmp_path)
        support = experiment._gen_population(cfg, 3).support
        drawn = [(FiniteSupportDistribution(support)
                  .sample(64, stream(cfg.master_seed, "sample", 0, i)).X[:, None]
                  == support.X[None]).all(axis=2).any(axis=0) for i in range(3)]
        j = int(np.flatnonzero(drawn[1] & ~drawn[0] & ~drawn[2])[0])
        X = support.X.copy()
        X[j] *= 2.0 / np.linalg.norm(X[j])
        monkeypatch.setattr(experiment, "_gen_population",
                            lambda config, d: FiniteSupportDistribution(Dataset(X, support.y)))
        group = run_single(cfg, 0, 64, 3, 1.0, [(0, 5), (1, 6), (2, 7)])
        assert [row["status"] for row, _ in group] == [
            "ok", "error: ValueError: feature norm 2.0 exceeds declared bound 1.0", "ok"]
        assert group[1][1] is None and group[1][0]["param_hash"]
        for seed_index, seed in enumerate((5, 6, 7)):
            (alone,) = run_single(cfg, 0, 64, 3, 1.0, [(seed_index, seed)])
            assert repr(group[seed_index][0]) == repr(alone[0])  # nan grad_norm on seed 6
            assert group[seed_index][1] == alone[1]

    def test_rr_timing_is_group_time_over_seeds(self, tmp_path, monkeypatch):
        from types import SimpleNamespace
        from dpopt.harness import experiment
        clock = iter([10.0, 13.0])  # the group starts at 10 s and ends at 13 s
        monkeypatch.setattr(experiment, "time",
                            SimpleNamespace(perf_counter=lambda: next(clock)))
        rows = [row for row, _ in run_single(self.rr_config(tmp_path, timing=True),
                                             0, 512, 3, 1.0, [(0, 5), (1, 6), (2, 7)])]
        assert [row["wall_ms"] for row in rows] == [1000.0] * 3

    def test_reports_carry_ledger(self, tmp_path):
        raw = {"algorithm": "tree_spider",
               "grid": {"n": [1024], "eps": [1.0], "d": [4]},
               "delta": 1e-4, "seeds": [0], "out": str(tmp_path / "c"),
               "data": {"kind": "glm_fullrank", "label_scale": 0.5,
                        "support_size": 64}}
        cfg = ExperimentConfig.from_dict(raw)
        run_experiment(cfg)
        reports = sorted((tmp_path / "c" / "reports").glob("*.json"))
        assert reports
        doc = json.loads(reports[0].read_text())
        assert doc["noise_ledger"]
        assert {"site", "sigma", "dim", "count"} <= set(doc["noise_ledger"][0])

    def test_grad_norm_round_trips(self, tmp_path):
        raw = {"algorithm": "spiderboost",
               "grid": {"n": [64], "eps": [1.0], "d": [4]},
               "delta": 1e-4, "seeds": [0], "out": str(tmp_path / "d"),
               "data": {"kind": "glm_fullrank", "label_scale": 0.5},
               "overrides": {"T": 20}}
        rows = read_csv_rows(run_experiment(ExperimentConfig.from_dict(raw)))
        doc = json.loads(next((tmp_path / "d" / "reports").glob("*.json"))
                         .read_text())
        assert float(rows[0]["grad_norm"]) == doc["grad_norm"]

    def test_wall_ms_zero_without_timing(self, tmp_path):
        raw = {"algorithm": "spiderboost",
               "grid": {"n": [64], "eps": [1.0], "d": [4]},
               "delta": 1e-4, "seeds": [0], "out": str(tmp_path / "e"),
               "data": {"kind": "glm_fullrank", "label_scale": 0.5},
               "overrides": {"T": 20}}
        rows = read_csv_rows(run_experiment(ExperimentConfig.from_dict(raw)))
        assert float(rows[0]["wall_ms"]) == 0.0

    def test_param_hash_tracks_derivation(self, tmp_path):
        from dpopt.harness import param_hash
        from dpopt.privacy import PrivacyBudget
        from dpopt.spiderboost import derive_spider_params
        budget = PrivacyBudget(1.0, 1e-5)
        a = param_hash(derive_spider_params(256, 4, 1.0, 1.0, 1.0, budget))
        b = param_hash(derive_spider_params(256, 4, 1.0, 1.0, 1.0, budget))
        c = param_hash(derive_spider_params(256, 4, 1.0, 1.0, 1.0, budget,
                                            {"T": 5}))
        assert a == b
        assert a != c

    def test_unwritable_output_aborts(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        raw = {"algorithm": "spiderboost",
               "grid": {"n": [64], "eps": [1.0], "d": [4]},
               "delta": 1e-4, "seeds": [0],
               "out": str(blocker / "sub"),
               "data": {"kind": "glm_fullrank", "label_scale": 0.5}}
        with pytest.raises(RuntimeError, match="not writable"):
            run_experiment(ExperimentConfig.from_dict(raw))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_status(self, tmp_path):
        # eta = 1e300 on the unclipped square link overflows the iterates to
        # inf/nan within three steps
        raw = {"algorithm": "spiderboost",
               "grid": {"n": [64], "eps": [1.0], "d": [4]},
               "delta": 1e-4, "seeds": [0, 1], "out": str(tmp_path / "h"),
               "loss": {"kind": "glm_square"},
               "data": {"kind": "glm_fullrank", "label_scale": 0.5},
               "overrides": {"T": 20, "eta": 1e300}}
        rows = read_csv_rows(run_experiment(ExperimentConfig.from_dict(raw)))
        assert [r["status"] for r in rows] == ["diverged", "diverged"]
        assert not any(np.isfinite(float(r["grad_norm"])) for r in rows)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_when_only_the_trace_overflows(self, tmp_path):
        # eta = 1e6: the exact gradient-norm trace reaches inf, while the
        # uniformly selected iterate and its gradient norm stay finite
        raw = {"algorithm": "spiderboost",
               "grid": {"n": [64], "eps": [1.0], "d": [4]},
               "delta": 1e-4, "seeds": [0], "out": str(tmp_path / "h"),
               "loss": {"kind": "glm_square"},
               "data": {"kind": "glm_fullrank", "label_scale": 0.5},
               "overrides": {"T": 40, "eta": 1e6}}
        csv = run_experiment(ExperimentConfig.from_dict(raw))
        (row,) = read_csv_rows(csv)
        report = json.loads((csv.parent / "reports" / "run_g0_s0.json").read_text())
        assert np.isfinite(float(row["grad_norm"]))
        assert not np.isfinite(report["grad_norm_trace"]).all()
        assert row["status"] == "diverged"

    def test_workers_match_serial(self, tmp_path):
        raw = {"algorithm": "spiderboost",
               "grid": {"n": [64, 128], "eps": [1.0], "d": [4]},
               "delta": 1e-4, "seeds": [0, 1], "out": str(tmp_path / "f"),
               "data": {"kind": "glm_fullrank", "label_scale": 0.5},
               "overrides": {"T": 30}}
        serial = run_experiment(ExperimentConfig.from_dict(raw)).read_bytes()
        raw["out"] = str(tmp_path / "g")
        raw["workers"] = 2
        parallel = run_experiment(ExperimentConfig.from_dict(raw)).read_bytes()
        assert serial == parallel


class TestReportJson:
    """The report writer gives exactly the bytes of json.dumps(doc, indent=1)."""

    def run_report(self, tmp_path, raw) -> tuple[str, dict]:
        raw = {"grid": {"n": [1024], "eps": [1.0], "d": [4]}, "delta": 1e-4,
               "seeds": [0], "out": str(tmp_path),
               "data": {"kind": "glm_fullrank", "label_scale": 0.5,
                        "support_size": 64}, **raw}
        run_experiment(ExperimentConfig.from_dict(raw))
        text = (tmp_path / "reports" / "run_g0_s0.json").read_text()
        return text, json.loads(text)

    @pytest.mark.parametrize("raw", [
        {"algorithm": "spiderboost", "overrides": {"T": 60}},
        {"algorithm": "tree_spider"},
    ], ids=["spiderboost", "tree_spider"])
    def test_real_reports(self, tmp_path, raw):
        text, doc = self.run_report(tmp_path, raw)
        assert doc["noise_ledger"]
        assert text == json.dumps(doc, indent=1)
        assert report_json(doc) == text

    @pytest.mark.parametrize("ledger", [
        [],
        [{"site": "spider-grad", "sigma": float("nan"), "dim": 4, "count": 1},
         {"site": "spider-gv", "sigma": float("inf"), "dim": 4, "count": 2},
         {"site": "spider-gv", "sigma": 0, "dim": 4, "count": 1}],
        [{"site": 'quote " back\\ tab\t uni \u00e9 nl\n', "sigma": 1e-300,
          "dim": 16, "count": 3}],
    ], ids=["empty", "nonfinite", "escaped-site"])
    def test_edge_docs(self, ledger):
        doc = {"algorithm": "spiderboost", "n": 64, "grad_norm": float("nan"),
               "trace_steps": [0, 1], "stop_address": None, "clamped": False,
               "noise_ledger": ledger}
        assert report_json(doc) == json.dumps(doc, indent=1)

    def test_ledger_must_be_last(self):
        with pytest.raises(ValueError):
            report_json({"noise_ledger": [], "n": 1})


class TestCLI:
    def test_gen_and_load(self, tmp_path):
        out = tmp_path / "data.csv"
        rc = cli_main(["gen", "--kind", "glm_lowrank", "--n", "30", "--d", "6",
                       "--rank", "2", "--seed", "3", "--label-scale", "0.5",
                       "--out", str(out)])
        assert rc == 0
        ds = load_csv(out, labels=True)
        assert ds.n == 30 and ds.dim == 6
        assert numeric_rank(ds.X) == 2

    def test_run_and_fit(self, tmp_path, capsys):
        cfg = {"algorithm": "spiderboost",
               "grid": {"n": [64, 128, 256], "eps": [1.0], "d": [4]},
               "delta": 1e-4, "seeds": [0, 1], "out": str(tmp_path / "runs"),
               "data": {"kind": "glm_fullrank", "label_scale": 0.5},
               "overrides": {"T": 30}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = cli_main(["run", "--config", str(cfg_path)])
        assert rc == 0
        rc = cli_main(["fit", "--csv", str(tmp_path / "runs" / "runs.csv"),
                       "--x", "n", "--y", "grad_norm", "--median"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "slope=" in out

    def test_flag_overrides_config(self, tmp_path):
        cfg = {"algorithm": "spiderboost",
               "grid": {"n": [64], "eps": [1.0], "d": [4]},
               "delta": 1e-4, "seeds": [0], "out": str(tmp_path / "x"),
               "data": {"kind": "glm_fullrank", "label_scale": 0.5}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = cli_main(["run", "--config", str(cfg_path), "--n", "128",
                       "--out", str(tmp_path / "y"), "--override", "T=25"])
        assert rc == 0
        rows = read_csv_rows(tmp_path / "y" / "runs.csv")
        assert rows[0]["n"] == "128"

    def test_check_command(self, capsys):
        assert cli_main(["check"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_bad_config_nonzero_exit(self, tmp_path, capsys):
        rc = cli_main(["run", "--algorithm", "spiderboost", "--n", "64",
                       "--d", "4", "--eps", "1.0", "--delta", "1e-4",
                       "--seed", "0,0", "--out", str(tmp_path / "z")])
        assert rc != 0

    def test_missing_field_nonzero_exit(self, tmp_path, capsys):
        rc = cli_main(["run", "--algorithm", "spiderboost", "--n", "64",
                       "--d", "4", "--eps", "1.0",
                       "--out", str(tmp_path / "w")])  # no delta anywhere
        assert rc == 2
        assert "missing config field" in capsys.readouterr().err
