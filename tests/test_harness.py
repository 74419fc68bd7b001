"""Harness: synthetic data, RNG streams, scaling fits, sweeps, and the CLI."""
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from dpopt.harness import (ExperimentConfig, build_loss, gen_support, gen_synthetic,
                           median_by_x, read_csv_rows, run_experiment,
                           scaling_fit, stream, stream_seed)
from dpopt.harness.cli import main as cli_main
from dpopt.harness.experiment import ALGORITHMS, report_json, run_single
from dpopt.core import synthetic_nonconvex_loss
from dpopt.glm_jl import choose_k, numeric_rank
from dpopt.privacy import NoiseLedger, PrivacyBudget

# overrides that keep an algorithm's tiny sweep short; an algorithm not named
# here runs at its derived parameters
TINY_OVERRIDES = {"spiderboost": {"T": 20}, "jl_spiderboost": {"k": 4, "T": 20}}


def tiny_raw(algorithm: str, out) -> dict:
    """A sweep of any entry of ALGORITHMS that runs in well under a second."""
    return {"algorithm": algorithm, "grid": {"n": [256, 512], "eps": [1.0, 2.0], "d": [4]},
            "delta": 1e-4, "seeds": [0, 1, 2], "out": str(out), "master_seed": 5,
            "loss": {"kind": "glm_tanh"},
            "data": {"kind": "glm_lowrank", "rank": 2, "label_scale": 0.5,
                     "support_size": 64},
            "overrides": TINY_OVERRIDES.get(algorithm, {})}


# every key that a config may leave out, at the value that it then takes
SPELLED_OUT = {"master_seed": 0, "overrides": {}, "accountant_c": 1.0, "workers": 1,
               "timing": False, "write_reports": True,
               "data": {"kind": "glm_fullrank", "rank": None, "B": 1.0, "label_scale": 0.0,
                        "spectrum_decay": 1.0, "support_size": 256},
               "rr": {"mode": "linear_time", "subroutine": "phased_sgd", "R_bar": 1.0}}

# each loss kind's block with every key that it reads spelled out
SPELLED_OUT_LOSS = {"synthetic_nonconvex": {"normX": 1.0},
                    "glm_tanh": {"normX": 1.0, "F0": 1.0},
                    "glm_square": {"normX": 1.0, "F0": 1.0, "zmax": 4.0},
                    "huber_mean": {"L0": 1.0, "L1": 1.0, "F0": None}}

# a misspelled value of each key that config load checks against its table
UNKNOWN_VALUES = [("loss", "kind", "glm_tanhh"), ("data", "kind", "glm_fulrank"),
                  ("rr", "mode", "linear-time"), ("rr", "subroutine", "phased")]


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

    def test_median_by_x(self):
        assert median_by_x([(2, 3.0), (1, 5.0), (2, 1.0), (1, 7.0), (2, 2.0)]) == [
            (1, 6.0), (2, 2.0)]


# each loss-block number, under a kind that reads it, and rr.R_bar, rejected
# at load: a NaN L0 ran a tree job to `alpha_tilde must equal C_tilde * alpha`,
# and a NaN R_bar ran recursive_reg to `cannot convert float NaN to integer`
LOSS_NUMBER_CASES = [
    (block, {**kind, key: value}, f"{block} {key} must be finite and positive, got {value!r}")
    for block, kind, key in (("loss", {"kind": "huber_mean"}, "L0"),
                             ("loss", {"kind": "huber_mean"}, "L1"),
                             ("loss", {"kind": "glm_tanh"}, "F0"),
                             ("loss", {"kind": "synthetic_nonconvex"}, "normX"),
                             ("loss", {"kind": "glm_square"}, "zmax"), ("rr", {}, "R_bar"))
    for value in (math.nan, math.inf, -math.inf, 0.0, -1.0)]

# loss keys that the kind does not read: glm_tanh gave L0 = 1.0 here, and
# huber_mean ignored normX
LOSS_KEY_CASES = [("loss", {"kind": "glm_tanh", "L0": 5.0, "zmax": 9.0},
                   "unknown loss keys: ['L0', 'zmax']"),
                  ("loss", {"kind": "huber_mean", "normX": 2.0}, "unknown loss keys: ['normX']")]

# each bad data-block value, rejected at load: a support_size of 0 ran with
# 256 rows, -5 ran to `negative dimensions are not allowed`, and a NaN
# label_scale or spectrum_decay made every row `diverged`
DATA_CASES = [
    ("data", {"kind": "glm_fullrank", key: value}, f"data {key} must be {rule}, got {value!r}")
    for key, rule, values in (
        ("support_size", ">= 1", (0, -5)),
        ("rank", "null or an integer >= 1", (0, -1, 2.0)),
        ("label_scale", "finite", (math.nan, math.inf)),
        ("spectrum_decay", "finite", (math.nan, -math.inf)),
        ("B", "finite and positive", (math.nan, math.inf, 0.0, -1.0)))
    for value in values]

# wrong-typed values, rejected at load with their key named: each of these
# raised a TypeError or AttributeError that printed a traceback and exited 1
TYPE_CASES = [
    ("data", {"kind": "glm_fullrank", "B": None}, "data B must be a number, got None"),
    ("workers", None, "workers must be a number, got None"),
    ("accountant_c", None, "accountant_c must be a number, got None"),
    ("loss", {"kind": "glm_tanh", "F0": None}, "loss F0 must be a number, got None"),
    ("loss", {"kind": "huber_mean", "F0": [1.0]}, "loss F0 must be a number, got [1.0]"),
    ("seeds", 5, "seeds must be a list, got 5"),
    ("seeds", [0, None], "seeds must be a number, got None"),
    ("grid", {"n": 64, "d": [4], "eps": [1.0]}, "grid n must be a list, got 64"),
    ("loss", [], "loss must be an object, got []"),
    ("loss", {"kind": ["glm_tanh"]},
     f"unknown loss kind ['glm_tanh']; expected one of {list(SPELLED_OUT_LOSS)}"),
    ("overrides", 5, "overrides must be an object, got 5"),
    ("out", None, "out must be a path, got None"),
    ("algorithm", ["spiderboost"], "unknown algorithm ['spiderboost']")]

# JSON booleans, which int() and float() take as 1: each of these ran at 1
BOOL_CASES = [
    ("workers", True, "workers must be a number, got True"),
    ("accountant_c", True, "accountant_c must be a number, got True"),
    ("data", {"kind": "glm_fullrank", "B": True}, "data B must be a number, got True"),
    ("seeds", [True, 2], "seeds must be a number, got True"),
    ("grid", {"n": [True], "d": [4], "eps": [1.0]}, "grid n must be a number, got True"),
    ("overrides", {"T": True}, "overrides T must be a finite number, got True")]

# values that reached the run and failed each of its rows: a rank above d
# failed data generation, and an override that is no number its derivation
RUN_FAILURE_CASES = [
    ("data", {"kind": "glm_lowrank", "rank": 9}, "data rank must be <= every grid d, got 9 > 4"),
    ("overrides", {"T": "20"}, "overrides T must be a finite number, got '20'"),
    ("overrides", {"eta": float("nan")}, "overrides eta must be a finite number, got nan")]

# configs that an entry's derive rejects, each of which failed every row at
# run time: huber_mean has no F0 by default, jl_spiderboost and
# recursive_reg need a GLM and a convex loss, JL's k must lie in [1, d]
# (k = 0 failed with a ZeroDivisionError, k = 10 each seed in run_jl),
# tree_spider's b and an overridden T must be >= 1, and each entry rejects
# an override that it does not read (at n = 1024, where tree_spider's
# sample-size hypothesis holds); glm_tanh is a loss that every algorithm
# takes
NO_F0 = "F0 is required (set the loss's F0_hint or pass a gap bound)"
GLM = {"loss": {"kind": "glm_tanh"}}
DERIVE_CASES = [
    (algorithm, changes, f"{algorithm} at n={changes.get('grid', {}).get('n', [64])[0]}, "
                         f"d=4, eps=1.0: {message}")
    for algorithm, changes, message in [
        ("spiderboost", {"loss": {"kind": "huber_mean"}}, NO_F0),
        ("tree_spider", {"loss": {"kind": "huber_mean"}}, NO_F0),
        ("jl_spiderboost", {"loss": {"kind": "huber_mean"}},
         "the loss must be a GLM, got huber_mean"),
        ("jl_spiderboost", {"loss": {"kind": "huber_mean", "F0": 1.0}},
         "the loss must be a GLM, got huber_mean"),
        ("recursive_reg", {"loss": {"kind": "synthetic_nonconvex"}},
         "the loss must be convex, got synthetic_nonconvex"),
        ("jl_spiderboost", {**GLM, "overrides": {"k": 0}}, "need 1 <= k <= d, got k=0, d=4"),
        ("jl_spiderboost", {**GLM, "overrides": {"k": 10}}, "need 1 <= k <= d, got k=10, d=4"),
        # the identity projection is a JLParams field for tests, not a sweep option
        ("jl_spiderboost", {**GLM, "overrides": {"force_identity": 1}},
         "unknown jl overrides: ['force_identity']")]
    + [("tree_spider", {**GLM, "grid": {"n": [1024], "d": [4], "eps": [1.0]},
                        "overrides": overrides}, message)
       # each read `precondition: derived T = ... < 1` in every row
       for overrides, message in (({"b": -1}, "b must be >= 1, got -1"),
                                  ({"T": 0}, "T must be >= 1, got 0"))]
    + [(algorithm, {**GLM, "grid": {"n": [1024], "d": [4], "eps": [1.0]},
                    "overrides": {"b_2": 7}}, f"unknown {kind} overrides: ['b_2']")
       for algorithm, kind in (("spiderboost", "spiderboost"), ("tree_spider", "tree"),
                               ("recursive_reg", "recursive-regularization"),
                               ("jl_spiderboost", "jl"))]]


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

    # top-level n, d and eps too: the grid is read from "grid" only
    @pytest.mark.parametrize("block,key", [(None, "wrokers"), ("grid", "m"),
                                           ("rr", "mdoe"), ("rr", "subrutine"),
                                           ("loss", "nromX"), ("data", "rnak"),
                                           (None, "n"), (None, "d"), (None, "eps")])
    def test_unknown_keys_are_rejected(self, tmp_path, block, key):
        raw = self.base_raw(tmp_path)
        (raw if block is None else raw.setdefault(block, {}))[key] = 1
        with pytest.raises(ValueError, match=rf"unknown {block or 'config'} keys: \['{key}'\]"):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("block,key,value", UNKNOWN_VALUES)
    def test_unknown_kinds_are_rejected_at_load(self, tmp_path, block, key, value):
        raw = self.base_raw(tmp_path)
        raw.setdefault(block, {})[key] = value
        with pytest.raises(ValueError, match=rf"unknown {block} {key} '{value}'"):
            ExperimentConfig.from_dict(raw)

    # 0 and -1 only: a rejected count must never reach a process pool
    @pytest.mark.parametrize("key,value,message", [
        ("workers", 0, "workers must be >= 1, got 0"),
        ("workers", -1, "workers must be >= 1, got -1"),
        ("timing", "false", "timing must be true or false, got 'false'"),
        ("timing", 0, "timing must be true or false, got 0"),
        ("write_reports", "true", "write_reports must be true or false, got 'true'"),
        ("write_reports", None, "write_reports must be true or false, got None"),
        # a NaN eps or c ran a whole job before: PrivacyBudget took it, and
        # gaussian_sigma returned NaN
        ("grid", {"n": [64], "d": [4], "eps": [1.0, float("nan")]},
         "grid eps must be finite and positive, got nan"),
        ("grid", {"n": [64], "d": [4], "eps": [float("inf")]},
         "grid eps must be finite and positive, got inf"),
        ("grid", {"n": [64], "d": [4], "eps": [0.0]},
         "grid eps must be finite and positive, got 0.0"),
        ("grid", {"n": [64, 0], "d": [4], "eps": [1.0]}, "grid n must be >= 1, got 0"),
        ("grid", {"n": [64], "d": [-2], "eps": [1.0]}, "grid d must be >= 1, got -2"),
        ("accountant_c", float("nan"), "accountant_c must be finite and positive, got nan"),
        ("accountant_c", float("inf"), "accountant_c must be finite and positive, got inf")]
        + LOSS_NUMBER_CASES + LOSS_KEY_CASES + DATA_CASES + TYPE_CASES + BOOL_CASES
        + RUN_FAILURE_CASES)
    def test_bad_run_settings_are_rejected_before_out_exists(self, tmp_path, capsys, key,
                                                             value, message):
        out = tmp_path / "out"
        raw = {**self.base_raw(out), key: value}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ExperimentConfig.from_dict(raw)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert cli_main(["run", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("algorithm,changes,message", DERIVE_CASES)
    def test_configs_that_a_derive_rejects_fail_at_load(self, tmp_path, capsys, algorithm,
                                                        changes, message):
        out = tmp_path / "out"
        raw = {**self.base_raw(out), "algorithm": algorithm, **changes}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ExperimentConfig.from_dict(raw)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert cli_main(["run", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @staticmethod
    def derive_raising(exc, seen):
        def derive(point):
            seen.append((point.grid_index, point.n, point.d, point.budget.eps, point.seeds))
            raise exc
        return derive

    def test_a_derive_that_raises_fails_the_load(self, tmp_path, monkeypatch):
        # the load names the grid point and keeps the derive's message
        from dpopt.harness import experiment
        seen = []
        monkeypatch.setitem(experiment.ALGORITHMS, "spiderboost", (
            self.derive_raising(ValueError("no such point"), seen), ALGORITHMS["spiderboost"][1]))
        with pytest.raises(ValueError,
                           match=r"^spiderboost at n=256, d=4, eps=1.0: no such point$"):
            ExperimentConfig.from_dict(tiny_raw("spiderboost", tmp_path / "r"))
        assert seen == [(0, 256, 4, 1.0, [(0, 0), (1, 1), (2, 2)])]

    def test_a_failed_hypothesis_at_load_is_left_to_the_rows(self, tmp_path, monkeypatch):
        # load derives every grid point, and a PreconditionError at each
        # one still loads; each row then says so
        from dpopt.harness import experiment
        from dpopt.util import PreconditionError
        seen = []
        monkeypatch.setitem(experiment.ALGORITHMS, "spiderboost", (
            self.derive_raising(PreconditionError("n too small"), seen),
            ALGORITHMS["spiderboost"][1]))
        cfg = ExperimentConfig.from_dict(tiny_raw("spiderboost", tmp_path / "r"))
        assert [point[:4] for point in seen] == [(0, 256, 4, 1.0), (1, 256, 4, 2.0),
                                                (2, 512, 4, 1.0), (3, 512, 4, 2.0)]
        rows = read_csv_rows(run_experiment(cfg))
        assert [r["status"] for r in rows] == ["precondition: n too small"] * 12

    @pytest.mark.parametrize("algorithm,loss", [
        ("spiderboost", {"kind": "huber_mean", "F0": 1.0}),
        ("tree_spider", {"kind": "huber_mean", "F0": 1.0}),
        ("recursive_reg", {"kind": "huber_mean"}), ("recursive_reg", {"kind": "glm_square"}),
        ("jl_spiderboost", {"kind": "glm_square"})])
    def test_pairs_that_can_run_still_load(self, tmp_path, algorithm, loss):
        raw = {**self.base_raw(tmp_path), "algorithm": algorithm, "loss": loss}
        assert ExperimentConfig.from_dict(raw).algorithm == algorithm

    def test_run_settings_keep_their_values(self, tmp_path):
        raw = self.base_raw(tmp_path)
        cfg = ExperimentConfig.from_dict(raw)
        assert (cfg.workers, cfg.timing, cfg.write_reports) == (1, False, True)
        cfg = ExperimentConfig.from_dict({**raw, "workers": 2, "timing": True,
                                          "write_reports": False})
        assert (cfg.workers, cfg.timing, cfg.write_reports) == (2, True, False)

    def test_a_minimal_config_loads_filled(self, tmp_path):
        cfg = ExperimentConfig.from_dict({
            "algorithm": "spiderboost", "grid": {"n": [64], "d": [4], "eps": [1.0]},
            "delta": 1e-4, "seeds": [0], "out": str(tmp_path)})
        assert cfg.loss == {"kind": "synthetic_nonconvex", "normX": 1.0}
        assert {key: getattr(cfg, key) for key in SPELLED_OUT} == SPELLED_OUT

    @pytest.mark.parametrize("kind", list(SPELLED_OUT_LOSS))
    def test_build_loss_fills_the_block_as_load_does(self, tmp_path, kind):
        raw = {**self.base_raw(tmp_path), "loss": {"kind": kind}}
        if kind == "huber_mean":  # which has no F0 for spiderboost
            raw["algorithm"] = "recursive_reg"
        filled = ExperimentConfig.from_dict(raw).loss
        assert filled == {"kind": kind, **SPELLED_OUT_LOSS[kind]}

        def fields(loss):
            return {**vars(loss), "link": type(getattr(loss, "link", None))}
        assert fields(build_loss({"kind": kind}, 4)) == fields(build_loss(filled, 4))

    def test_build_loss_rejects_keys_that_the_kind_does_not_read(self):
        with pytest.raises(ValueError, match=r"^unknown loss keys: \['L0', 'zmax'\]$"):
            build_loss({"kind": "glm_tanh", "L0": 5.0, "zmax": 9.0}, 4)

    @pytest.mark.parametrize("algorithm", list(ALGORITHMS))
    def test_spelled_out_defaults_change_nothing(self, tmp_path, algorithm):
        # recursive_reg needs a convex loss
        kind = "glm_tanh" if algorithm == "recursive_reg" else "synthetic_nonconvex"
        short = {"algorithm": algorithm, "grid": {"n": [256], "d": [4], "eps": [1.0]},
                 "delta": 1e-4, "seeds": [0, 1], "loss": {"kind": kind}}
        if algorithm in TINY_OVERRIDES:
            short["overrides"] = TINY_OVERRIDES[algorithm]
        spelled = {**SPELLED_OUT, **short, "loss": {"kind": kind, **SPELLED_OUT_LOSS[kind]}}
        a = ExperimentConfig.from_dict({**short, "out": str(tmp_path / "a")})
        assert ExperimentConfig.from_dict({**spelled, "out": str(tmp_path / "a")}) == a
        run_experiment(a)
        run_experiment(ExperimentConfig.from_dict({**spelled, "out": str(tmp_path / "b")}))
        files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*.*"))
        assert Path("runs.csv") in files and len(files) == 3
        for name in files:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("key", ["algorithm", "delta", "seeds", "out"])
    def test_missing_required_key_is_named(self, tmp_path, key):
        raw = self.base_raw(tmp_path)
        del raw[key]
        with pytest.raises(ValueError, match=rf"^missing config field '{key}'$"):
            ExperimentConfig.from_dict(raw)

    def test_algorithm_is_a_key_of_the_table(self, tmp_path):
        # glm_tanh: a loss that every algorithm takes
        raw = {**self.base_raw(tmp_path), "loss": {"kind": "glm_tanh"}}
        for algorithm in ALGORITHMS:
            assert ExperimentConfig.from_dict({**raw, "algorithm": algorithm}).algorithm == algorithm
        with pytest.raises(ValueError, match="unknown algorithm 'spider_boost'"):
            ExperimentConfig.from_dict({**raw, "algorithm": "spider_boost"})

    def test_grid_enumeration(self, tmp_path):
        raw = self.base_raw(tmp_path)
        raw["grid"] = {"n": [64, 128], "d": [2, 4], "eps": [0.5]}
        cfg = ExperimentConfig.from_dict(raw)
        pts = cfg.grid_points()
        assert len(pts) == 4
        assert pts[0] == (0, 64, 2, 0.5)
        assert pts[-1] == (3, 128, 4, 0.5)


# each algorithm's override names, as its derivation reads them
OVERRIDE_NAMES = {
    "spiderboost": ("eta", "q", "b1", "b2", "T", "sigma1", "sigma2", "sigma2_hat"),
    "tree_spider": ("p", "b", "D", "T", "alpha", "beta_par", "C_tilde", "alpha_tilde",
                    "sigma_root", "sigma_delta"),
    "recursive_reg": ("lam", "T", "K_t", "eta_t", "sigma_t"),
    "jl_spiderboost": ("k", "eta", "q", "b1", "b2", "T")}

# one tiny sweep per algorithm whose rows all read ok: one grid point, one seed
MATRIX_BASE = {
    "spiderboost": ({"n": [64], "d": [2], "eps": [1.0]}, {"T": 10}),
    "tree_spider": ({"n": [1024], "d": [2], "eps": [1.0]}, {"C_tilde": 0.5}),
    "recursive_reg": ({"n": [256], "d": [2], "eps": [1.0]}, {}),
    "jl_spiderboost": ({"n": [128], "d": [4], "eps": [1.0]}, {"T": 10})}

MATRIX_VALUES = (None, True, [], "x", math.nan, -1, 0)


def matrix_base(algorithm: str) -> dict:
    grid, overrides = MATRIX_BASE[algorithm]
    return {"algorithm": algorithm, "grid": grid, "delta": 1e-4, "seeds": [0],
            "loss": {"kind": "glm_tanh"}, "overrides": overrides,
            "data": {"kind": "glm_lowrank", "rank": 2, "label_scale": 0.5,
                     "support_size": 64}}


def matrix_cases(algorithm: str):
    """(case name, raw config) for each key a config may set and each bad value."""
    from dpopt.harness.config import DEFAULTS, LOSS_KINDS
    places = [(None, key) for key in (*DEFAULTS["config"], "delta", "seeds")]
    places += [(block, key) for block in ("grid", "loss", "data", "rr")
               for key in DEFAULTS[block]]
    places += [(("loss", kind), key) for kind, (keys, _) in LOSS_KINDS.items() for key in keys]
    places += [("overrides", name) for name in OVERRIDE_NAMES[algorithm]]
    for block, key in places:
        for value in MATRIX_VALUES:
            raw = json.loads(json.dumps(matrix_base(algorithm)))
            if block is None:
                raw[key] = value
            elif isinstance(block, tuple):
                raw["loss"] = {"kind": block[1], key: value}
            else:
                raw.setdefault(block, {})[key] = value
            yield f"{block} {key}={value!r}", raw


class TestConfigMatrix:
    """Each key a config may set, each loss kind's keys and each override
    name, in turn null, true, [], "x", NaN, -1 and 0: the config either fails
    at load with a ValueError, or each of its rows is ok, precondition: or
    diverged; a config error that reaches a row as `error:` is a hole."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("algorithm", list(ALGORITHMS))
    def test_every_bad_value_fails_at_load_or_runs(self, tmp_path, algorithm):
        base = {**matrix_base(algorithm), "out": str(tmp_path / "base")}
        assert {r["status"] for r in read_csv_rows(run_experiment(
            ExperimentConfig.from_dict(base)))} == {"ok"}
        holes = []
        for i, (case, raw) in enumerate(matrix_cases(algorithm)):
            try:
                cfg = ExperimentConfig.from_dict({**raw, "out": str(tmp_path / str(i))})
            except ValueError:
                continue
            statuses = {r["status"] for r in read_csv_rows(run_experiment(cfg))}
            holes += [f"{case}: {s}" for s in statuses if s != "ok" and
                      not s.startswith("precondition: ") and s != "diverged"]
        assert holes == []


class TestRunExperiment:
    @pytest.mark.parametrize("algorithm", list(ALGORITHMS))
    def test_row_count_and_determinism(self, tmp_path, algorithm):
        cfg = ExperimentConfig.from_dict(tiny_raw(algorithm, tmp_path / "a"))
        path = run_experiment(cfg)
        rows = read_csv_rows(path)
        assert len(rows) == 2 * 2 * 3  # 2x2 grid x 3 seeds
        assert list(rows[0]) == ["algorithm", "n", "d", "eps", "delta", "seed",
                                 "grad_norm", "oracle_calls", "wall_ms",
                                 "param_hash", "status"]
        assert all(r["status"] == "ok" for r in rows)
        assert all(r["param_hash"] for r in rows)
        files = sorted(f for f in path.parent.rglob("*") if f.is_file())
        assert len(files) == 1 + 12  # runs.csv and one report per row
        first = [f.read_bytes() for f in files]
        run_experiment(cfg)
        assert [f.read_bytes() for f in files] == first  # byte-identical rerun

    # the names perfbench/spans.py wraps by setting them on the experiment
    # module, and those each entry must reach through it
    SPAN_NAMES = ("run_spiderboost", "run_tree_spider", "run_recursive_regularization",
                  "run_jl", "derive_spider_params", "derive_tree_params",
                  "derive_rr_params", "choose_k", "gen_synthetic", "gen_support",
                  "erm_grad")
    REACHES = {
        "spiderboost": {"derive_spider_params", "gen_synthetic", "run_spiderboost",
                        "erm_grad"},
        "tree_spider": {"derive_tree_params", "gen_support", "run_tree_spider"},
        "recursive_reg": {"derive_rr_params", "gen_support",
                          "run_recursive_regularization"},
        # TINY_OVERRIDES gives k, so choose_k is not called
        "jl_spiderboost": {"gen_synthetic", "run_jl", "derive_spider_params",
                           "run_spiderboost", "erm_grad"},
    }

    @pytest.mark.parametrize("algorithm", list(ALGORITHMS))
    def test_entries_call_through_module_globals(self, tmp_path, monkeypatch, algorithm):
        # an entry that bound one of these names when it was defined would
        # bypass the wrapper, and its spans would be lost in a traced run
        from dpopt.harness import experiment
        calls = dict.fromkeys(self.SPAN_NAMES, 0)

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        for name in self.SPAN_NAMES:
            monkeypatch.setattr(experiment, name, counting(name, getattr(experiment, name)))
        cfg = ExperimentConfig.from_dict(tiny_raw(algorithm, tmp_path / "s"))
        group = run_single(cfg, 0, 256, 4, 1.0, [(0, 0), (1, 1)])
        assert [row["status"] for row, _ in group] == ["ok", "ok"]
        assert {name for name, count in calls.items() if count} == self.REACHES[algorithm]

    @pytest.mark.parametrize("algorithm", list(ALGORITHMS))
    def test_derive_alone_gives_the_rows_hash(self, tmp_path, monkeypatch, algorithm):
        # derive generates no data and runs nothing: with every generator and
        # runner refusing, it still gives the parameters hashed into each row
        from dpopt.harness import experiment
        cfg = ExperimentConfig.from_dict(tiny_raw(algorithm, tmp_path / "h"))
        rows = [row for row, _ in run_single(cfg, 1, 256, 4, 2.0, [(0, 0), (1, 1)])]
        assert [row["status"] for row in rows] == ["ok", "ok"]

        def refuse(*args, **kwargs):
            raise AssertionError("derive generated data or ran an algorithm")

        for name in ("gen_synthetic", "gen_support", "run_spiderboost", "run_tree_spider",
                     "run_recursive_regularization", "run_jl", "erm_grad"):
            monkeypatch.setattr(experiment, name, refuse)
        derive, _ = ALGORITHMS[algorithm]
        point = experiment.GridPoint(cfg, 1, 256, 4, [(0, 0), (1, 1)], build_loss(cfg.loss, 4),
                                     PrivacyBudget(2.0, cfg.delta, cfg.accountant_c))
        assert {row["param_hash"] for row in rows} == {experiment.param_hash(derive(point))}

    def test_jl_derives_its_base_run_once_per_grid_point(self, tmp_path, monkeypatch):
        # choose_k's k, and the base run at (n, k), the rebound constants and
        # (eps, delta/2), derived before any seed's data exists
        from dpopt.harness import experiment
        from dpopt.spiderboost import derive_spider_params
        raw = tiny_raw("jl_spiderboost", tmp_path / "b")
        raw["overrides"] = {"T": 20}
        cfg = ExperimentConfig.from_dict(raw)
        calls = []
        monkeypatch.setattr(experiment, "derive_spider_params",
                            lambda *args: calls.append(args) or derive_spider_params(*args))
        group = run_single(cfg, 0, 256, 4, 1.0, [(0, 0), (1, 1), (2, 2)])
        assert [row["status"] for row, _ in group] == ["ok"] * 3
        loss, budget = build_loss(cfg.loss, 4), PrivacyBudget(1.0, cfg.delta)
        k = choose_k("spiderboost", 256, 2, 4, loss.L0_phi, loss.L1_phi, loss.normX, budget)
        assert [doc["k"] for _, doc in group] == [k] * 3
        (args,) = calls
        assert args[:5] == (256, k, 2 * loss.L0_phi * loss.normX,
                            2 * loss.L1_phi * loss.normX ** 2, loss.F0_hint)
        assert (args[5].eps, args[5].delta) == (1.0, cfg.delta / 2) and args[6] == {"T": 20}

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

    def test_packed_group_rows_equal_single_seed_rows(self, tmp_path, monkeypatch):
        # the group's datasets are views of one read-only block, in slots of
        # 129 x 3 x 8 B (not a multiple of 64), and each seed's row and
        # report still equal what it gives alone
        from dpopt.harness import experiment
        seen, run = [], experiment.run_spiderboost
        monkeypatch.setattr(experiment, "run_spiderboost",
                            lambda loss, S, *a, **k: seen.append(S) or run(loss, S, *a, **k))
        cfg = ExperimentConfig.from_dict({
            "algorithm": "spiderboost", "grid": {"n": [129], "eps": [1.0], "d": [3]},
            "delta": 1e-4, "seeds": [5, 6, 7], "out": str(tmp_path / "p"),
            "master_seed": 3, "data": {"kind": "glm_fullrank", "label_scale": 0.5},
            "overrides": {"T": 50}})
        group = run_single(cfg, 0, 129, 3, 1.0, [(0, 5), (1, 6), (2, 7)])
        X, Y = seen[0].stack(axis=0)
        assert X.shape == (3, 129, 3) and not X.flags.writeable and not Y.flags.writeable
        assert all(np.shares_memory(S.X, X) and np.shares_memory(S.y, Y)
                   for S in seen[0])
        assert all(row["status"] == "ok" for row, _ in group)
        for seed_index, seed in enumerate((5, 6, 7)):
            (alone,) = run_single(cfg, 0, 129, 3, 1.0, [(seed_index, seed)])
            assert group[seed_index][0] == alone[0]
            assert group[seed_index][1] == alone[1]
            assert report_json(group[seed_index][1]) == report_json(alone[1])

    def test_jl_given_k_does_not_call_choose_k(self, tmp_path, monkeypatch):
        from dpopt.harness import experiment

        def refuse(*args):
            raise AssertionError("choose_k called although k is given")

        monkeypatch.setattr(experiment, "choose_k", refuse)
        cfg = ExperimentConfig.from_dict(tiny_raw("jl_spiderboost", tmp_path / "k"))
        group = run_single(cfg, 0, 256, 4, 1.0, [(0, 0), (1, 1)])
        assert [row["status"] for row, _ in group] == ["ok", "ok"]
        assert [doc["k"] for _, doc in group] == [4, 4]

    def test_jl_seed_that_raises_fails_alone(self, tmp_path, monkeypatch):
        # the grid point's seeds run one after another in one job; the
        # second one's run raises, and only its row says so
        from dpopt.harness import experiment
        cfg = ExperimentConfig.from_dict(tiny_raw("jl_spiderboost", tmp_path / "j"))
        seeds = [(0, 5), (1, 6), (2, 7)]
        alone = [run_single(cfg, 0, 256, 4, 1.0, [seed])[0] for seed in seeds]
        calls, run = [], experiment.run_jl

        def flaky(*args):
            calls.append(1)
            if len(calls) == 2:
                raise FloatingPointError("overflow in seed 6")
            return run(*args)

        monkeypatch.setattr(experiment, "run_jl", flaky)
        group = run_single(cfg, 0, 256, 4, 1.0, seeds)
        assert [row["status"] for row, _ in group] == [
            "ok", "error: FloatingPointError: overflow in seed 6", "ok"]
        # the hash is the grid point's, derived before any seed runs
        assert group[1][0]["param_hash"] == group[0][0]["param_hash"] == group[2][0]["param_hash"]
        assert group[1][1] is None
        for i in (0, 2):
            assert group[i][0] == alone[i][0] and group[i][0]["param_hash"]
            assert report_json(group[i][1]) == report_json(alone[i][1])

    def test_group_python_peak_memory(self, tmp_path):
        """Python-side peak (tracemalloc, numpy buffers included) of one
        5-seed SpiderBoost grid point at n = 4096, d = 16, eps = 1: 6.0 MB
        with columnar ledgers in the report docs and one packed data block;
        8.2 MB with an entry object and a report dict per ledger entry and the
        datasets concatenated a second time."""
        import tracemalloc
        cfg = ExperimentConfig.from_dict({
            "algorithm": "spiderboost", "grid": {"n": [4096], "d": [16], "eps": [1.0]},
            "delta": 1e-6, "seeds": [0, 1, 2, 3, 4], "out": str(tmp_path / "m"),
            "loss": {"kind": "synthetic_nonconvex"},
            "data": {"kind": "glm_fullrank", "label_scale": 0.7, "spectrum_decay": 0.5}})
        tracemalloc.start()
        try:
            group = run_single(cfg, 0, 4096, 16, 1.0, list(enumerate(range(5))))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [row["status"] for row, _ in group] == ["ok"] * 5
        assert peak < 7 * 2 ** 20

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

    def tree_config(self, tmp_path, support_size=64, **extra):
        return ExperimentConfig.from_dict({
            "algorithm": "tree_spider", "grid": {"n": [1024], "eps": [1.0], "d": [3]},
            "delta": 1e-4, "seeds": [5, 6, 7], "out": str(tmp_path / "tree"),
            "master_seed": 4, "overrides": {"C_tilde": 0.5},
            "data": {"kind": "glm_fullrank", "label_scale": 0.5,
                     "support_size": support_size},
            **extra})

    def test_tree_group_rows_equal_single_seed_rows(self, tmp_path):
        cfg = self.tree_config(tmp_path)
        group = run_single(cfg, 0, 1024, 3, 1.0, [(0, 5), (1, 6), (2, 7)])
        assert [row["seed"] for row, _ in group] == [5, 6, 7]
        assert all(row["status"] == "ok" for row, _ in group)
        for seed_index, seed in enumerate((5, 6, 7)):
            (alone,) = run_single(cfg, 0, 1024, 3, 1.0, [(seed_index, seed)])
            assert group[seed_index][0] == alone[0]
            assert report_json(group[seed_index][1]) == report_json(alone[1])
        assert len({row["grad_norm"] for row, _ in group}) == 3
        assert len({doc["leaf_count_visited"] for _, doc in group}) == 3

    def test_tree_sample_above_the_norm_bound_fails(self, tmp_path):
        # unit-norm data against a declared normX of 0.5: every seed's sample
        # breaks the bound that L0, L1 and so the noise are calibrated to
        rows = read_csv_rows(run_experiment(
            self.tree_config(tmp_path, loss={"kind": "synthetic_nonconvex", "normX": 0.5})))
        assert [r["status"] for r in rows] == [
            "error: ValueError: feature norm 1.0 exceeds declared bound 0.5"] * 3
        assert not any((tmp_path / "tree" / "reports").glob("*"))

    @pytest.mark.parametrize("algorithm", ["recursive_reg", "tree_spider"])
    def test_bad_sample_fails_only_its_seed(self, tmp_path, monkeypatch, algorithm):
        # a support row above the norm bound that only seed 6's sample draws
        # (a tree sample of 1024 draws every row of a 64-row support)
        from dpopt.core import Dataset
        from dpopt.harness import experiment
        from dpopt.harness.rng import stream
        from dpopt.harness.synthetic import FiniteSupportDistribution
        n, cfg = ((64, self.rr_config(tmp_path)) if algorithm == "recursive_reg" else
                  (1024, self.tree_config(tmp_path, support_size=4096)))
        support = experiment._gen_population(cfg, 3).support
        drawn = [np.isin(np.arange(support.n), FiniteSupportDistribution(support)
                         .sample(n, stream(cfg.master_seed, "sample", 0, i))._idx)
                 for i in range(3)]
        j = int(np.flatnonzero(drawn[1] & ~drawn[0] & ~drawn[2])[0])
        X = support.X.copy()
        X[j] *= 2.0 / np.linalg.norm(X[j])
        monkeypatch.setattr(experiment, "_gen_population",
                            lambda config, d: FiniteSupportDistribution(Dataset(X, support.y)))
        group = run_single(cfg, 0, n, 3, 1.0, [(0, 5), (1, 6), (2, 7)])
        assert [row["status"] for row, _ in group] == [
            "ok", "error: ValueError: feature norm 2.0 exceeds declared bound 1.0", "ok"]
        assert group[1][1] is None and group[1][0]["param_hash"]
        for seed_index, seed in enumerate((5, 6, 7)):
            (alone,) = run_single(cfg, 0, n, 3, 1.0, [(seed_index, seed)])
            assert repr(group[seed_index][0]) == repr(alone[0])  # nan grad_norm on seed 6
            assert group[seed_index][1] == alone[1]

    def test_tree_group_python_peak_memory(self, tmp_path):
        """Python-side peak (tracemalloc, numpy buffers included) of one
        5-seed tree Spider grid point of tree_stream_sweep at n = 2^18 (d =
        16, eps = 1, support 256, C_tilde = 2, master seed 101), after a
        warm-up job: 3.20 MB in lockstep, with uint8 samples, each round's
        leaves in one (2^D, R, d) array, each run's noise drawn 64 nodes
        ahead (41 KB) and batch rows gathered 2^15 entries at a time. One
        seed alone, as one job with an int64 sample and a list of
        leaf arrays, peaked at 3.26-3.30 MB (3,263,786 B at the least)."""
        import tracemalloc
        cfg = ExperimentConfig.from_dict({
            "algorithm": "tree_spider", "grid": {"n": [2 ** 18], "d": [16], "eps": [1.0]},
            "delta": 1e-6, "seeds": [0, 1, 2, 3, 4], "master_seed": 101,
            "out": str(tmp_path / "m"), "loss": {"kind": "synthetic_nonconvex"},
            "data": {"kind": "glm_fullrank", "label_scale": 0.7, "spectrum_decay": 0.5,
                     "support_size": 256},
            "overrides": {"C_tilde": 2.0}})
        run_single(cfg, 1, 2 ** 12, 16, 1.0, [(0, 0)])
        tracemalloc.start()
        try:
            group = run_single(cfg, 0, 2 ** 18, 16, 1.0, list(enumerate(range(5))))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [row["status"] for row, _ in group] == ["ok"] * 5
        assert peak < 3_263_786

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

    def test_jl_param_hash_covers_base_overrides(self, tmp_path):
        # k, rank and normX are equal in both sweeps; only the base
        # SpiderBoost run's T differs, and with it the hash
        hashes = []
        for T in (20, 30):
            raw = {"algorithm": "jl_spiderboost",
                   "grid": {"n": [128], "eps": [1.0], "d": [8]},
                   "delta": 1e-4, "seeds": [0], "out": str(tmp_path / f"T{T}"),
                   "data": {"kind": "glm_lowrank", "rank": 2, "label_scale": 0.5},
                   "overrides": {"k": 4, "T": T}, "write_reports": False}
            row, = read_csv_rows(run_experiment(ExperimentConfig.from_dict(raw)))
            assert row["status"] == "ok", row["status"]
            hashes.append(row["param_hash"])
        assert hashes[0] != hashes[1]

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
        # eta = 1e6: the exact gradient-norm trace (for JL, its base run's)
        # reaches inf, while the returned point and its gradient norm stay
        # finite
        cases = [("spiderboost", "grad_norm_trace", 4,
                  {"kind": "glm_fullrank", "label_scale": 0.5}, {}),
                 ("jl_spiderboost", "base_grad_norm_trace", 8,
                  {"kind": "glm_lowrank", "rank": 2, "label_scale": 0.5}, {"k": 4})]
        for algorithm, key, d, data, overrides in cases:
            raw = {"algorithm": algorithm, "grid": {"n": [64], "eps": [1.0], "d": [d]},
                   "delta": 1e-4, "seeds": [0], "out": str(tmp_path / algorithm),
                   "loss": {"kind": "glm_square"}, "data": data,
                   "overrides": {"T": 40, "eta": 1e6, **overrides}}
            csv = run_experiment(ExperimentConfig.from_dict(raw))
            (row,) = read_csv_rows(csv)
            report = json.loads((csv.parent / "reports" / "run_g0_s0.json").read_text())
            assert np.isfinite(float(row["grad_norm"]))
            assert len(report[key]) == 40 and not np.isfinite(report[key]).all()
            assert row["status"] == "diverged"

    def test_workers_match_serial(self, tmp_path):
        # the pool takes jobs largest n first; runs.csv and every report
        # still come out byte for byte as in a serial sweep
        for algorithm, n_grid, overrides in (("spiderboost", [64, 128], {"T": 30}),
                                             ("tree_spider", [1024, 2048], {})):
            outs = []
            for workers in (1, 2):
                out = tmp_path / f"{algorithm}_{workers}"
                run_experiment(ExperimentConfig.from_dict({
                    "algorithm": algorithm,
                    "grid": {"n": n_grid, "eps": [1.0], "d": [4]},
                    "delta": 1e-4, "seeds": [0, 1], "out": str(out),
                    "data": {"kind": "glm_fullrank", "label_scale": 0.5,
                             "support_size": 64},
                    "overrides": overrides, "workers": workers}))
                outs.append({f.relative_to(out): f.read_bytes()
                             for f in out.rglob("*") if f.is_file()})
            serial, parallel = outs
            assert len(serial) == 5 and serial == parallel  # runs.csv, 4 reports
            rows = serial[Path("runs.csv")].splitlines()[1:]
            assert len(rows) == 4 and all(r.endswith(b",ok") for r in rows)


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

    EDGE_LEDGERS = [
        [],
        [{"site": "spider-grad", "sigma": float("nan"), "dim": 4, "count": 1},
         {"site": "spider-gv", "sigma": float("inf"), "dim": 4, "count": 2},
         {"site": "spider-gv", "sigma": 0, "dim": 4, "count": 1}],
        [{"site": 'quote " back\\ tab\t uni \u00e9 nl\n', "sigma": 1e-300,
          "dim": 16, "count": 3}],
    ]
    EDGE_IDS = ["empty", "nonfinite", "escaped-site"]

    @staticmethod
    def edge_doc(ledger) -> dict:
        return {"algorithm": "spiderboost", "n": 64, "grad_norm": float("nan"),
                "trace_steps": [0, 1], "stop_address": None, "clamped": False,
                "noise_ledger": ledger}

    @pytest.mark.parametrize("entries", EDGE_LEDGERS, ids=EDGE_IDS)
    def test_ledger_docs_write_their_entry_dicts(self, entries):
        # a doc holding the NoiseLedger itself, as run_single returns it
        ledger = NoiseLedger()
        for e in entries:
            for _ in range(e["count"]):
                ledger.record(e["site"], e["sigma"], e["dim"])
        dicts = [{"site": s, "sigma": sig, "dim": d, "count": c}
                 for s, sig, d, c in ledger.rows()]
        assert len(dicts) == len(entries)
        assert (report_json(self.edge_doc(ledger))
                == json.dumps(self.edge_doc(dicts), indent=1))

    def test_chunks_join_to_the_report(self, monkeypatch):
        # stretches of one site, dim and count go out in chunks of at most
        # REPORT_CHUNK_ENTRIES entries
        from dpopt.harness import experiment
        monkeypatch.setattr(experiment, "REPORT_CHUNK_ENTRIES", 3)
        ledger = NoiseLedger()
        for site, sigmas in (("spider-grad", [0.5]), ("spider-gv", [0.1 * k for k in range(7)]),
                             ("spider-grad", [0.5, 0.5]), ("spider-gv", [float("nan"), 2.0])):
            for sigma in sigmas:
                ledger.record(site, sigma, 4)
        dicts = [{"site": s, "sigma": sig, "dim": d, "count": c}
                 for s, sig, d, c in ledger.rows()]
        chunks = list(experiment.report_chunks(self.edge_doc(ledger)))
        # head, [1], [3, 3, 1], [1 (count 2)], [2], tail
        assert len(chunks) == 8
        assert "".join(chunks) == json.dumps(self.edge_doc(dicts), indent=1)
        assert report_json(self.edge_doc(ledger)) == "".join(chunks)

    def test_ledger_must_be_last(self):
        with pytest.raises(ValueError):
            report_json({"noise_ledger": NoiseLedger(), "n": 1})


class TestCLI:
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

    @staticmethod
    def fit_csv(tmp_path):
        path = tmp_path / "runs.csv"
        path.write_text("n,seed,grad_norm,status\n" + "".join(
            f"{n},{s},{(s + 1) / n},ok\n" for n in (64, 128, 256) for s in (0, 1)))
        return str(path)

    def test_fit_filter_without_value_exits_2(self, tmp_path, capsys):
        path = self.fit_csv(tmp_path)
        assert cli_main(["fit", "--csv", path, "--where", "seed=1"]) == 0
        out = capsys.readouterr().out
        assert "slope=-1 " in out and "points=3" in out
        with pytest.raises(SystemExit) as exc:
            cli_main(["fit", "--csv", path, "--where", "seed"])
        assert exc.value.code == 2
        assert "argument --where: filter must be COL=VALUE, got 'seed'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [("--x", "nosuch"), ("--y", "nosuch"),
                                            ("--where", "nosuch=1")])
    def test_fit_unknown_column_exits_2(self, tmp_path, capsys, flag, value):
        path = self.fit_csv(tmp_path)
        assert cli_main(["fit", "--csv", path, flag, value]) == 2
        assert capsys.readouterr().err == f"error: {path} has no column 'nosuch'\n"

    @pytest.mark.parametrize("row,fields", [("128,1,0.5", 3), ("128,1,0.5,ok,extra", 5)])
    def test_fit_rejects_row_with_wrong_field_count(self, tmp_path, capsys, row, fields):
        path = self.fit_csv(tmp_path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(row + "\n")
        assert cli_main(["fit", "--csv", path]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: line 8 has {fields} fields, the header has 4\n")

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

    @pytest.mark.parametrize("key,value,flags", [("grid", 5, ["--n", "128"]),
                                                 ("overrides", [1], ["--override", "T=25"])])
    def test_flag_into_a_block_that_is_no_object(self, tmp_path, capsys, key, value, flags):
        # the flag leaves the block alone, and config load names it
        cfg = {"algorithm": "spiderboost", "grid": {"n": [64], "eps": [1.0], "d": [4]},
               "delta": 1e-4, "seeds": [0], "out": str(tmp_path / "x"), key: value}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli_main(["run", "--config", str(cfg_path), *flags]) == 2
        assert capsys.readouterr().err == f"error: {key} must be an object, got {value!r}\n"
        assert not (tmp_path / "x").exists()

    def test_algorithm_choices_are_the_table(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["run", "--help"])
        assert "--algorithm {" + ",".join(ALGORITHMS) + "}" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            cli_main(["run", "--algorithm", "spider_boost"])
        assert "invalid choice: 'spider_boost'" in capsys.readouterr().err

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

    @pytest.mark.parametrize("block,key,value", UNKNOWN_VALUES)
    def test_unknown_kind_exits_before_any_output(self, tmp_path, capsys, block, key, value):
        cfg = {"algorithm": "spiderboost", "grid": {"n": [64], "eps": [1.0], "d": [4]},
               "delta": 1e-4, "seeds": [0], "out": str(tmp_path / "out"),
               "loss": {"kind": "synthetic_nonconvex"}, "data": {"kind": "glm_fullrank"}}
        cfg.setdefault(block, {})[key] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli_main(["run", "--config", str(cfg_path)]) == 2
        assert f"unknown {block} {key} '{value}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
