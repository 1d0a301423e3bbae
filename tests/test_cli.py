"""End-to-end tests of the command-line interface."""

import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import staghmc.cli
import staghmc.diagnostics
from staghmc.cli import main, resolve_config, build_parser
from staghmc.model import TimeSeriesData
from staghmc.sampler import CHAIN_COLUMNS, CHAIN_CSV_HEADER, ChainRecord


def small_config(obs_file="observations.csv"):
    """A deliberately tiny problem so chains finish in well under a second."""
    return {
        "model": {"K": 30.0, "gamma": 0.4, "T": 40.0},
        "signal": {"kind": "sinusoid", "a": 1.0, "omega": 0.05, "b": 0.2},
        "observation": {"sigma": 0.15, "n": 4},
        "lattice": {"j": 3},
        "infer": {
            "n_mc": 120,
            "start": {"K": 60.0, "gamma": 0.25},
            "masses": {"M": 50.0, "m_prime": 30.0, "m_alpha": [40.0, 40.0]},
            "integrator": {"d_tau": 0.15, "P": 2},
            "observations_file": obs_file,
            "discard": 0.25,
        },
    }


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run_simulate(tmp_path, seed=5):
    tmp_path.mkdir(parents=True, exist_ok=True)
    cfg_path = write_config(tmp_path, small_config())
    out = tmp_path / "data"
    rc = main(["simulate", "--config", cfg_path, "--seed", str(seed), "--out", str(out)])
    assert rc == 0
    return out


class TestConfigResolution:
    def test_flags_override_file(self, tmp_path):
        cfg_path = write_config(tmp_path, {"seed": 3, "chains": 2, "out": "x"})
        args = build_parser().parse_args(
            ["infer", "--config", cfg_path, "--seed", "9", "--out", "y"]
        )
        cfg = resolve_config(args)
        assert cfg["seed"] == 9
        assert cfg["chains"] == 2
        assert cfg["out"] == "y"

    def test_preset_fills_blocks_and_file_overrides(self, tmp_path):
        cfg_path = write_config(tmp_path, {"infer": {"n_mc": 77}})
        args = build_parser().parse_args(
            ["infer", "--preset", "paper-sec4", "--config", cfg_path]
        )
        cfg = resolve_config(args)
        assert cfg["model"]["K"] == 50.0
        assert cfg["lattice"]["j"] == 30
        assert cfg["infer"]["n_mc"] == 77
        assert cfg["infer"]["masses"]["M"] == 720.0

    def test_unknown_top_level_key_rejected(self, tmp_path):
        cfg_path = write_config(tmp_path, {"wibble": 1})
        assert main(["simulate", "--config", cfg_path]) == 2

    def test_unknown_nested_key_rejected(self, tmp_path):
        cfg_path = write_config(tmp_path, {"model": {"K": 1.0, "volume": 3}})
        assert main(["simulate", "--config", cfg_path]) == 2

    def test_unknown_preset_rejected(self):
        assert main(["simulate", "--preset", "nope"]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "absent.json")]) == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["simulate", "--config", str(path)]) == 2

    def test_non_object_document(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert main(["simulate", "--config", str(path)]) == 2

    def test_negative_seed_rejected(self, tmp_path):
        cfg_path = write_config(tmp_path, small_config())
        assert main(["simulate", "--config", cfg_path, "--seed", "-1"]) == 2

    def test_bad_chain_count_rejected(self, tmp_path):
        cfg_path = write_config(tmp_path, small_config())
        assert main(["infer", "--config", cfg_path, "--chains", "0"]) == 2

    def test_byte_order_mark_reads_as_without(self, tmp_path):
        # as Excel's "CSV UTF-8" and PowerShell 5's utf8 write it
        plain = write_config(tmp_path, small_config())
        marked = tmp_path / "bom.json"
        marked.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "config.json").read_bytes())
        parse = build_parser().parse_args
        assert resolve_config(parse(["infer", "--config", str(marked)])) == resolve_config(
            parse(["infer", "--config", plain])
        )

    @pytest.mark.parametrize("command", ["simulate", "infer"])
    def test_empty_out_rejected_before_any_work(self, tmp_path, monkeypatch, capsys, command):
        import staghmc.cli

        def fail(*args, **kwargs):
            raise AssertionError("no work may start")

        cfg_path = write_config(tmp_path, config_for(tmp_path, command), "run.json")
        monkeypatch.setattr(staghmc.cli, "simulate_truth", fail)
        monkeypatch.setattr(staghmc.cli, "run_parallel_chains", fail)
        before = sorted(os.listdir(tmp_path))
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        assert main([command, "--config", cfg_path, "--out", ""]) == 2
        assert capsys.readouterr().err == (
            "error: config field out has an invalid value '': not a directory name\n"
        )
        assert sorted(os.listdir(tmp_path)) == before


class TestSimulate:
    def test_writes_outputs_and_echo(self, tmp_path):
        out = run_simulate(tmp_path)
        truth = np.loadtxt(out / "truth.csv", delimiter=",", skiprows=1)
        data = TimeSeriesData.from_csv(out / "observations.csv")
        assert (out / "truth.csv").read_text().startswith("t,S,q\n")
        assert truth.shape == (4 * 3 * 20 + 1, 3)  # the lattice refined 20 times
        assert data.times.size == 5
        assert data.horizon == 40.0
        echo = json.loads((out / "config_simulate.json").read_text())
        assert echo["command"] == "simulate"
        assert echo["seed"] == 5
        assert echo["model"]["K"] == 30.0

    def test_same_seed_reproduces_files(self, tmp_path):
        a = run_simulate(tmp_path / "a", seed=11)
        b = run_simulate(tmp_path / "b", seed=11)
        c = run_simulate(tmp_path / "c", seed=12)
        assert (a / "observations.csv").read_text() == (b / "observations.csv").read_text()
        assert (a / "truth.csv").read_text() == (b / "truth.csv").read_text()
        assert (a / "observations.csv").read_text() != (c / "observations.csv").read_text()

    def test_echo_reproduces_run(self, tmp_path):
        out1 = run_simulate(tmp_path / "first", seed=21)
        echo = json.loads((out1 / "config_simulate.json").read_text())
        echo["out"] = str(tmp_path / "second")
        cfg_path = write_config(tmp_path, echo, "echo.json")
        assert main(["simulate", "--config", cfg_path]) == 0
        assert (tmp_path / "second" / "observations.csv").read_text() == (
            out1 / "observations.csv"
        ).read_text()

    def test_zero_observations_rejected(self, tmp_path):
        cfg = small_config()
        cfg["observation"]["n"] = 0
        cfg_path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2

    def test_seed_of_wrong_type_rejected_before_writing(self, tmp_path, capsys):
        cfg = small_config()
        cfg["seed"] = "abc"
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 2
        assert not out.exists()
        assert "config field seed" in capsys.readouterr().err

    def test_missing_model_block_rejected(self, tmp_path):
        cfg = small_config()
        del cfg["model"]
        cfg_path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("rows", ["5,0.5\n90,0.7\n", "0,0.5\n30,0.7\n"], ids=["late", "early"])
    def test_short_tabulated_signal_rejected_as_infer_rejects_it(self, tmp_path, capsys, rows):
        # a table that starts after 0 or stops before T = 40: a one-line
        # validation error naming the file, not a runtime failure
        table = tmp_path / "signal.csv"
        table.write_text("t,r\n" + rows)
        cfg = small_config()
        cfg["signal"] = {"kind": "tabulated", "file": str(table)}
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(
            f"error: {table} (config field signal.file): input signal does not cover the data: "
        )


class TestInfer:
    def infer_into(self, tmp_path, out_name, seed=7, chains=2, extra=None):
        data_dir = run_simulate(tmp_path)
        cfg = small_config(obs_file=str(data_dir / "observations.csv"))
        if extra:
            for key, val in extra.items():
                cfg["infer"][key] = val
        cfg_path = write_config(tmp_path, cfg, "infer.json")
        out = tmp_path / out_name
        rc = main(
            ["infer", "--config", cfg_path, "--seed", str(seed),
             "--chains", str(chains), "--out", str(out)]
        )
        return rc, out

    def test_writes_chains_and_summary(self, tmp_path):
        rc, out = self.infer_into(tmp_path, "run")
        assert rc == 0
        assert (out / "chain00.csv").exists()
        assert (out / "chain01.csv").exists()
        assert not (out / "chain02.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["parameters"]) == {"beta", "gamma", "K"}
        assert summary["chains"] == 2
        assert summary["n_total"] == 240
        assert summary["n_retained"] == 180
        assert 0.0 <= summary["acceptance_rate"] <= 1.0
        echo = json.loads((out / "config_infer.json").read_text())
        assert echo["command"] == "infer"
        assert echo["chains"] == 2

    def test_reproducible_across_runs(self, tmp_path):
        rc1, out1 = self.infer_into(tmp_path, "r1", seed=7, chains=2)
        rc2, out2 = self.infer_into(tmp_path, "r2", seed=7, chains=2)
        assert rc1 == rc2 == 0
        for name in ("chain00.csv", "chain01.csv"):
            assert (out1 / name).read_text() == (out2 / name).read_text()
        # the summaries differ only in the measured wall clock of each chain
        summaries = []
        for out in (out1, out2):
            summary = json.loads((out / "summary.json").read_text())
            for meta in summary["chains_meta"]:
                assert meta.pop("wall_clock_s") > 0
            summaries.append(summary)
        assert summaries[0] == summaries[1]

    def test_echo_reproduces_run(self, tmp_path):
        rc, out = self.infer_into(tmp_path, "first", chains=2)
        assert rc == 0
        other = tmp_path / "other"
        echo = str(out / "config_infer.json")
        assert main(["infer", "--config", echo, "--out", str(other)]) == 0
        for name in ("chain00.csv", "chain01.csv"):
            assert (other / name).read_bytes() == (out / name).read_bytes()

    def test_missing_observations_file(self, tmp_path):
        cfg = small_config(obs_file=str(tmp_path / "nowhere.csv"))
        cfg_path = write_config(tmp_path, cfg)
        assert main(["infer", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("row", ["10,nan", "nan,0.5", "10,inf", "-inf,0.5"])
    def test_non_finite_observation_named(self, tmp_path, capsys, row):
        # before the spacing and sign checks, which would misname the fault
        path = tmp_path / "obs.csv"
        path.write_text(f"t,y\n0,0.5\n{row}\n20,0.5\n30,0.5\n40,0.5\n")
        cfg_path = write_config(tmp_path, small_config(obs_file=str(path)))
        out = tmp_path / "o"
        capsys.readouterr()
        assert main(["infer", "--config", cfg_path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: {path}: " in err and "finite" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra", [{"discard": 1.5}, {"discard": -0.1}, {"discard": 0.9, "n_mc": 2}]
    )
    def test_bad_discard_rejected_before_sampling(self, tmp_path, monkeypatch, extra):
        import staghmc.cli

        def fail(*args, **kwargs):
            raise AssertionError("run_parallel_chains must not be called")

        monkeypatch.setattr(staghmc.cli, "run_parallel_chains", fail)
        rc, out = self.infer_into(tmp_path, "run", extra=extra)
        assert rc == 2
        assert not list(out.glob("chain*.csv"))
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize(
        "block,name,value", [("integrator", "P", "three"), ("masses", "m_alpha", 5)]
    )
    def test_field_of_wrong_type_rejected_before_writing(
        self, tmp_path, monkeypatch, capsys, block, name, value
    ):
        import staghmc.cli

        def fail(*args, **kwargs):
            raise AssertionError("run_parallel_chains must not be called")

        monkeypatch.setattr(staghmc.cli, "run_parallel_chains", fail)
        data_dir = run_simulate(tmp_path)
        cfg = small_config(obs_file=str(data_dir / "observations.csv"))
        cfg["infer"][block][name] = value
        cfg_path = write_config(tmp_path, cfg, "infer.json")
        out = tmp_path / "run"
        capsys.readouterr()
        assert main(["infer", "--config", cfg_path, "--out", str(out)]) == 2
        assert not out.exists()
        assert f"config field infer.{block}.{name}" in capsys.readouterr().err

    def test_summary_holds_chain_meta(self, tmp_path):
        rc, out = self.infer_into(tmp_path, "run")
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        metas = summary["chains_meta"]
        assert [m["chain_index"] for m in metas] == [0, 1]
        for meta in metas:
            assert set(meta) >= {
                "wall_clock_s", "acceptance_rate", "pathologies", "data_digest",
                "N", "median_abs_dh",
            }
            assert meta["N"] == 4 * 3 + 1  # the n = 4 segments of j = 3 steps
            assert meta["median_abs_dh"] >= 0.0
            assert all(isinstance(v, int) and v > 0 for v in meta["pathologies"].values())
        assert summary["chains"] == len(metas)

    def test_never_moved_chain_warns(self, tmp_path, monkeypatch, capsys):
        import staghmc.cli
        from staghmc.sampler import ChainRecord

        def record(beta, accepted):
            n = beta.size
            return ChainRecord(
                beta=beta, gamma=np.full(n, 0.5), K=10.0 * beta, accepted=accepted,
                h_before=np.zeros(n), h_after=np.zeros(n), dh=np.zeros(n), meta={},
            )

        def one_stuck(problem, hmc):
            n = hmc.n_mc
            return [
                record(np.linspace(1.0, 1.1, n), np.ones(n, dtype=bool)),
                record(np.ones(n), np.zeros(n, dtype=bool)),
            ]

        monkeypatch.setattr(staghmc.cli, "run_parallel_chains", one_stuck)
        rc, _ = self.infer_into(tmp_path, "run")
        captured = capsys.readouterr()
        assert rc == 0
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("warning: chain 01 accepted none")
        assert "acceptance rate: 0.500" in captured.out

    @pytest.mark.parametrize("retained_hit, warned", [(False, True), (True, False)])
    def test_chain_that_stops_moving_warns(
        self, tmp_path, monkeypatch, capsys, retained_hit, warned
    ):
        # n_mc = 120 and discard = 0.25: rows 30.. are retained. The chain
        # accepts in its burn-in only, or also once in its retained rows
        import staghmc.cli
        from staghmc.sampler import ChainRecord

        def burn_in_only(problem, hmc):
            n = hmc.n_mc
            accepted = np.zeros(n, dtype=bool)
            accepted[:30:3] = True
            accepted[n - 1] = retained_hit
            beta = np.ones(n)
            return [
                ChainRecord(
                    beta=beta, gamma=np.full(n, 0.5), K=10.0 * beta, accepted=accepted,
                    h_before=np.zeros(n), h_after=np.zeros(n), dh=np.zeros(n), meta={},
                )
            ]

        monkeypatch.setattr(staghmc.cli, "run_parallel_chains", burn_in_only)
        rc, _ = self.infer_into(tmp_path, "run", chains=1)
        err = capsys.readouterr().err
        assert rc == 0
        if warned:
            assert err.splitlines() == [
                "warning: chain 00 accepted none after its first 30 of 120 proposals;"
                " it stopped moving"
            ]
        else:
            assert "warning" not in err

    @pytest.mark.parametrize("late_hit, warned", [(False, True), (True, False)])
    def test_chain_that_stops_in_its_kept_rows_warns(
        self, tmp_path, monkeypatch, capsys, late_hit, warned
    ):
        # n_mc = 120 and discard = 0.25: rows 30.. are kept, and rows 75..
        # are their second half. The chain accepts in its burn-in and the
        # first half of its kept rows only, or also once in the last quarter
        import staghmc.cli
        from staghmc.sampler import ChainRecord

        def stops_early(problem, hmc):
            n = hmc.n_mc
            accepted = np.zeros(n, dtype=bool)
            accepted[:61:3] = True
            accepted[110] = late_hit
            beta = np.ones(n)
            return [
                ChainRecord(
                    beta=beta, gamma=np.full(n, 0.5), K=10.0 * beta, accepted=accepted,
                    h_before=np.zeros(n), h_after=np.zeros(n), dh=np.zeros(n), meta={},
                )
            ]

        monkeypatch.setattr(staghmc.cli, "run_parallel_chains", stops_early)
        rc, _ = self.infer_into(tmp_path, "run", chains=1)
        err = capsys.readouterr().err
        assert rc == 0
        if warned:
            assert err.splitlines() == [
                "warning: chain 00 accepted none in its last 45 of 120 proposals;"
                " it last accepted proposal 61"
            ]
        else:
            assert "warning" not in err

    def test_quick_start_chain_does_not_warn(self, tmp_path, monkeypatch, capsys):
        # the README quick-start's simulate and infer
        monkeypatch.chdir(tmp_path)
        rc = main(["simulate", "--preset", "paper-sec4", "--seed", "2718", "--out", "run"])
        assert rc == 0
        cfg = {"infer": {"observations_file": "run/observations.csv", "n_mc": 4000}}
        cfg_path = write_config(tmp_path, cfg, "infer.json")
        capsys.readouterr()
        rc = main(
            ["infer", "--preset", "paper-sec4", "--seed", "7", "--config", cfg_path,
             "--out", "run"]
        )
        assert rc == 0
        assert capsys.readouterr().err == ""

    def test_first_time_just_below_zero_runs_on_a_table_from_zero(self, tmp_path, capsys):
        # data over [0, 40] whose first time, 2e-11 below 0, is within
        # 1e-12 T of 0: it is stored as 0, which the table covers
        early = tmp_path / "early.csv"
        early.write_text("t,y\n-2e-11,0.5\n10,0.7\n20,0.6\n30,0.6\n40,0.5\n")
        table = tmp_path / "signal.csv"
        table.write_text("t,r\n0,0.5\n40,0.7\n")
        cfg = small_config(obs_file=str(early))
        cfg["signal"] = {"kind": "tabulated", "file": str(table)}
        cfg_path = write_config(tmp_path, cfg, "early.json")
        out = tmp_path / "run"
        rc = main(["infer", "--config", cfg_path, "--chains", "1", "--out", str(out)])
        assert rc == 0, capsys.readouterr().err
        assert ChainRecord.from_csv(out / "chain00.csv").n_rows == 120

    @pytest.mark.parametrize("chains", [1, 3])
    def test_short_tabulated_signal_rejected_before_writing(self, tmp_path, capsys, chains):
        cfg = config_for(tmp_path, "infer")  # data over [0, 40]
        # data that start at 8e-10, within 1e-12 T of 0, under a table that
        # covers them but not the lattice's first bead at t = 0
        late = tmp_path / "late.csv"
        TimeSeriesData(np.linspace(8e-10, 833.0, 5), np.full(5, 0.5)).to_csv(late)
        cases = [
            (cfg["infer"]["observations_file"], "0,0.5\n10,0.7\n20,0.6\n"),
            (str(late), "5e-10,0.5\n900,0.7\n"),
        ]
        for k, (obs_file, rows) in enumerate(cases):
            table = tmp_path / f"signal{k}.csv"
            table.write_text("t,r\n" + rows)
            cfg["infer"]["observations_file"] = obs_file
            cfg["signal"] = {"kind": "tabulated", "file": str(table)}
            cfg_path = write_config(tmp_path, cfg, f"short{k}.json")
            out = tmp_path / f"run{k}"
            capsys.readouterr()
            rc = main(["infer", "--config", cfg_path, "--chains", str(chains), "--out", str(out)])
            assert rc == 2
            assert not out.exists()
            err = capsys.readouterr().err
            assert "does not cover the data" in err
            assert f"{table} (config field signal.file)" in err

    def test_out_path_collision_is_runtime_failure(self, tmp_path):
        (tmp_path / "blocked").write_text("a file, not a directory")
        cfg_path = write_config(tmp_path, small_config())
        rc = main(["infer", "--config", cfg_path, "--out", str(tmp_path / "blocked")])
        assert rc == 1


class TestSummarize:
    def make_run(self, tmp_path, chains=2):
        data_dir = run_simulate(tmp_path)
        cfg = small_config(obs_file=str(data_dir / "observations.csv"))
        cfg_path = write_config(tmp_path, cfg, "infer.json")
        out = tmp_path / "run"
        rc = main(
            ["infer", "--config", cfg_path, "--seed", "3",
             "--chains", str(chains), "--out", str(out)]
        )
        assert rc == 0
        return out, [str(out / f"chain{i:02d}.csv") for i in range(chains)]

    def summarize(self, tmp_path, chain_files, out_name="summ", discard=0.25, rc_only=False):
        cfg = {"summarize": {"chain_files": chain_files, "discard": discard}}
        cfg_path = write_config(tmp_path, cfg, f"{out_name}.json")
        out = tmp_path / out_name
        rc = main(["summarize", "--config", cfg_path, "--out", str(out)])
        if rc_only:
            return rc
        assert rc == 0
        return json.loads((out / "summary.json").read_text()), out

    def test_matches_inline_summary(self, tmp_path):
        run_dir, chains = self.make_run(tmp_path)
        inline = json.loads((run_dir / "summary.json").read_text())
        merged, _ = self.summarize(tmp_path, chains)
        assert set(inline) - {"chains_meta"} == set(merged)
        for key in ("parameters", "acceptance_rate", "n_retained", "n_total", "chains", "discard"):
            assert merged[key] == inline[key], key
        assert merged["chains"] == 2 and merged["n_total"] == 240

    def test_kept_rows_are_joined_once(self, tmp_path, monkeypatch):
        # the summary and the densities read one join of every chain's kept rows
        _, chains = self.make_run(tmp_path)
        calls = []
        join = staghmc.diagnostics._kept_rows

        def counted(records, discard):
            calls.append(discard)
            return join(records, discard)

        monkeypatch.setattr(staghmc.cli, "_kept_rows", counted)
        monkeypatch.setattr(staghmc.diagnostics, "_kept_rows", counted)
        self.summarize(tmp_path, chains)
        assert calls == [0.25]

    def test_infer_summary_is_not_overwritten(self, tmp_path, capsys):
        run_dir, chains = self.make_run(tmp_path)
        summary_path = run_dir / "summary.json"
        before, listing = summary_path.read_bytes(), sorted(os.listdir(run_dir))
        capsys.readouterr()
        cfg = {"summarize": {"chain_files": chains, "discard": 0.25}}
        cfg_path = write_config(tmp_path, cfg, "summ.json")
        rc = main(["summarize", "--config", cfg_path, "--out", str(run_dir)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and str(summary_path) in err[0] and "chains_meta" in err[0]
        assert summary_path.read_bytes() == before
        # neither the config echo nor a density file
        assert sorted(os.listdir(run_dir)) == listing

    def test_summarize_overwrites_its_own_summary(self, tmp_path):
        _, chains = self.make_run(tmp_path)
        first, out = self.summarize(tmp_path, chains)
        again, same = self.summarize(tmp_path, chains[:1])
        assert same == out
        assert (first["chains"], again["chains"]) == (2, 1)

    def test_duplicate_chain_keeps_quantiles(self, tmp_path):
        # the chain pooled with a copy of itself: one file listed twice is
        # refused (test_file_listed_twice_rejected)
        _, chains = self.make_run(tmp_path, chains=1)
        copy = str(tmp_path / "copy.csv")
        shutil.copyfile(chains[0], copy)
        single, _ = self.summarize(tmp_path, chains, "one")
        doubled, _ = self.summarize(tmp_path, [*chains, copy], "two")
        for name in ("beta", "gamma", "K"):
            assert doubled["parameters"][name]["mean"] == pytest.approx(
                single["parameters"][name]["mean"], rel=1e-12
            )
            assert doubled["parameters"][name]["quantiles"] == (
                single["parameters"][name]["quantiles"]
            )
        assert doubled["n_retained"] == 2 * single["n_retained"]

    def test_discard_halves_retained_rows(self, tmp_path):
        _, chains = self.make_run(tmp_path, chains=1)
        s0, _ = self.summarize(tmp_path, chains, "d0", discard=0.0)
        s5, _ = self.summarize(tmp_path, chains, "d5", discard=0.5)
        assert s0["n_retained"] == 120
        assert s5["n_retained"] == 60

    def test_density_files(self, tmp_path):
        _, chains = self.make_run(tmp_path)
        _, out = self.summarize(tmp_path, chains)
        for name in ("beta", "gamma", "K"):
            lines = (out / f"density_{name}.csv").read_text().splitlines()
            assert lines[0] == "x,density"
            vals = np.loadtxt(out / f"density_{name}.csv", delimiter=",", skiprows=1)
            assert vals.shape[1] == 2
            assert np.all(vals[:, 1] >= 0)

    def test_constant_chain_density_skipped(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        rows = "\n".join(
            f"{i+1},1.5,0.5,10,1,3,3,0" for i in range(12)
        )
        path.write_text("iter,beta,gamma,K,accepted,H_before,H_after,dH\n" + rows + "\n")
        summary, out = self.summarize(tmp_path, [str(path)], "flat", discard=0.0)
        assert summary["parameters"]["K"]["mean"] == 10.0
        assert not (out / "density_K.csv").exists()
        assert "histogram" in capsys.readouterr().err

    def test_chain_that_never_moved_has_null_ess(self, tmp_path):
        path = tmp_path / "flat.csv"
        rows = "\n".join(f"{i+1},1.5,0.5,10,0,3,3,0" for i in range(40))
        path.write_text("iter,beta,gamma,K,accepted,H_before,H_after,dH\n" + rows + "\n")
        _, out = self.summarize(tmp_path, [str(path)], "flat", discard=0.0)
        text = (out / "summary.json").read_text()
        assert text.count('"ess": null') == 3
        summary = json.loads(text)
        assert summary["parameters"]["beta"]["mean"] == 1.5
        assert summary["acceptance_rate"] == 0.0

    def test_stalled_chain_at_an_inexact_beta_has_null_ess_and_no_density(
        self, tmp_path, capsys
    ):
        # the rounded mean of 100 copies of this beta leaves a std of 2e-16
        path = tmp_path / "stalled.csv"
        rows = "\n".join(f"{i+1},1.4430869689661812,0.5,200,0,3,3,0" for i in range(100))
        path.write_text("iter,beta,gamma,K,accepted,H_before,H_after,dH\n" + rows + "\n")
        _, out = self.summarize(tmp_path, [str(path)], "stalled", discard=0.0)
        assert (out / "summary.json").read_text().count('"ess": null') == 3
        assert not list(out.glob("density_*.csv"))
        assert capsys.readouterr().err.count("histogram") == 3

    def test_spread_that_underflows_skips_its_density(self, tmp_path, capsys):
        # beta moved, but between two subnormals: its spread underflows, so
        # its density is skipped with a note, and summarize exits 0
        path = tmp_path / "tiny.csv"
        rows = "\n".join(
            f"{i+1},{(5e-324, 1e-323)[i % 2]!r},{0.5 + 0.01 * (i % 7)},{200 + i % 5},1,3,3,0"
            for i in range(40)
        )
        path.write_text("iter,beta,gamma,K,accepted,H_before,H_after,dH\n" + rows + "\n")
        summary, out = self.summarize(tmp_path, [str(path)], "tiny", discard=0.0)
        assert summary["parameters"]["beta"]["ess"] is None
        assert sorted(p.name for p in out.glob("density_*.csv")) == [
            "density_K.csv", "density_gamma.csv"
        ]
        assert capsys.readouterr().err.count("skipped") == 1

    def test_one_row_chain_skips_every_density(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("iter,beta,gamma,K,accepted,H_before,H_after,dH\n1,1.5,0.5,10,1,3,3,0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            summary, out = self.summarize(tmp_path, [str(path)], "one", discard=0.0)
        assert summary["n_retained"] == 1
        assert summary["parameters"]["K"]["mean"] == 10.0
        assert not list(out.glob("density_*.csv"))
        err = capsys.readouterr().err
        assert err.count("skipped") == 3

    def test_inconsistent_header_rejected(self, tmp_path):
        _, chains = self.make_run(tmp_path, chains=1)
        bad = tmp_path / "bad.csv"
        bad.write_text("iter,beta,gamma,K\n1,1,1,1\n")
        rc = self.summarize(tmp_path, chains + [str(bad)], "bad", rc_only=True)
        assert rc == 2

    # density_points is a retired key, refused whatever its value
    @pytest.mark.parametrize(
        "block",
        [{"density_points": 1}, {"density_points": "many"}, {"discard": 1.0}, {"discard": 0.99}],
    )
    def test_bad_settings_rejected_before_writing(self, tmp_path, block):
        path = tmp_path / "flat.csv"
        rows = "\n".join(f"{i+1},1.5,0.5,10,1,3,3,0" for i in range(12))
        path.write_text("iter,beta,gamma,K,accepted,H_before,H_after,dH\n" + rows + "\n")
        cfg = {"summarize": {"chain_files": [str(path)], "discard": 0.0, **block}}
        cfg_path = write_config(tmp_path, cfg, "bad.json")
        out = tmp_path / "summ"
        assert main(["summarize", "--config", cfg_path, "--out", str(out)]) == 2
        assert not (out / "summary.json").exists()
        assert not list(out.glob("density_*.csv"))

    @pytest.mark.parametrize("column, value", [(1, "inf"), (2, "nan"), (3, "-inf")])
    def test_non_finite_parameter_rejected_before_writing(self, tmp_path, capsys, column, value):
        # beta, gamma or K: no summary and no density of a non-finite draw
        path = tmp_path / "bad.csv"
        row = ["7", "1.5", "0.5", "10", "1", "3", "3", "0"]
        row[column] = value
        rows = [f"{i+1},1.5,0.5,10,1,3,3,0" for i in range(6)] + [",".join(row)]
        path.write_text("iter,beta,gamma,K,accepted,H_before,H_after,dH\n" + "\n".join(rows) + "\n")
        capsys.readouterr()
        assert self.summarize(tmp_path, [str(path)], "summ", discard=0.0, rc_only=True) == 2
        err = capsys.readouterr().err
        assert str(path) in err
        assert ("beta", "gamma", "K")[column - 1] in err
        assert not (tmp_path / "summ").exists()

    @pytest.mark.parametrize(
        "row, message",
        [
            ("7,-1.5,0.5,10,1,3,3,0", "beta must be positive and finite, got -1.5"),
            ("7,1.5,0,10,1,3,3,0", "gamma must be positive and finite, got 0.0"),
            ("7,-1,-1,-10,7,3,3,0", "beta must be positive and finite, got -1.0"),
            ("7,1.5,0.5,-10,1,3,3,0", "K must be positive and finite, got -10.0"),
            ("7,1.5,0.5,10,7,3,3,0", "accepted must be 0 or 1, got 7.0"),
            ("7,1.5,0.5,10,0.5,3,3,0", "accepted must be 0 or 1, got 0.5"),
        ],
        ids=["beta", "gamma", "all-negative", "K", "accepted-7", "accepted-half"],
    )
    def test_row_the_sampler_never_records_is_named_by_line(self, tmp_path, capsys, row, message):
        # a comment and a blank line above it: the line is the file's, not
        # the row's; a later bad row is not the one named
        path = tmp_path / "bad.csv"
        good = [f"{i+1},1.5,0.5,10,1,3,3,0" for i in range(6)]
        body = "\n".join([*good[:3], "# resumed", "", *good[3:], row, "8,-1,1,1,1,3,3,0"])
        path.write_text("iter,beta,gamma,K,accepted,H_before,H_after,dH\n" + body + "\n")
        capsys.readouterr()
        assert self.summarize(tmp_path, [str(path)], "summ", discard=0.0, rc_only=True) == 2
        assert capsys.readouterr().err == f"error: {path}, line 10: {message}\n"
        assert not (tmp_path / "summ").exists()

    def test_joined_chain_file_rejected_with_its_line(self, tmp_path, capsys):
        # one chain's body pasted under another restarts the iteration
        # numbers: read as one chain, its start and burn-in would be kept
        run_dir, _ = self.make_run(tmp_path, chains=1)
        text = (run_dir / "chain00.csv").read_text()
        joined = tmp_path / "joined.csv"
        joined.write_text(text + text.split("\n", 1)[1])
        n = text.count("\n") - 1
        capsys.readouterr()
        assert self.summarize(tmp_path, [str(joined)], "summ", rc_only=True) == 2
        err = capsys.readouterr().err
        assert err == f"error: {joined}, line {n + 2}: iter must be {n + 1}, got 1.0\n"
        assert not (tmp_path / "summ").exists()

    @pytest.mark.parametrize(
        "iters, line, message",
        [
            ("1 2 nan 4", 4, "iter must be 3, got nan"),
            ("nan 2 3 4", 2, "iter must be a whole number >= 1, got nan"),
            ("1 2 4 5", 4, "iter must be 3, got 4.0"),
            ("1 2 2 3", 4, "iter must be 3, got 2.0"),
            ("0 1 2 3", 2, "iter must be a whole number >= 1, got 0.0"),
            ("1.5 2.5 3.5", 2, "iter must be a whole number >= 1, got 1.5"),
            ("inf inf", 2, "iter must be a whole number >= 1, got inf"),
        ],
        ids=["nan", "nan-first", "skipped", "repeated", "zero-first", "fraction", "inf"],
    )
    def test_iteration_numbers_must_rise_by_one(self, tmp_path, capsys, iters, line, message):
        path = tmp_path / "bad.csv"
        rows = [f"{i},1.5,0.5,10,1,3,3,0" for i in iters.split()]
        path.write_text("iter,beta,gamma,K,accepted,H_before,H_after,dH\n" + "\n".join(rows) + "\n")
        capsys.readouterr()
        assert self.summarize(tmp_path, [str(path)], "summ", discard=0.0, rc_only=True) == 2
        assert capsys.readouterr().err == f"error: {path}, line {line}: {message}\n"
        assert not (tmp_path / "summ").exists()

    def test_chain_file_cut_from_the_front_reads(self, tmp_path):
        # the rows from iteration 101 on, numbered from 101
        run_dir, _ = self.make_run(tmp_path, chains=1)
        chain = run_dir / "chain00.csv"
        header, *rows = chain.read_text().splitlines()
        cut = tmp_path / "cut.csv"
        cut.write_text("\n".join([header, *rows[100:]]) + "\n")
        summary, _ = self.summarize(tmp_path, [str(cut)], "cut", discard=0.0)
        assert summary["n_total"] == len(rows) - 100
        np.testing.assert_array_equal(ChainRecord.from_csv(cut).K, ChainRecord.from_csv(chain).K[100:])

    def test_non_finite_energy_columns_read(self, tmp_path):
        # a rejected runaway proposal records H_after = inf and dH = inf
        path = tmp_path / "runaway.csv"
        rows = [f"{i+1},1.5,0.5,{10 + i},1,3,3,0" for i in range(11)]
        rows.append("12,1.5,0.5,10,0,3,inf,inf")
        path.write_text("iter,beta,gamma,K,accepted,H_before,H_after,dH\n" + "\n".join(rows) + "\n")
        summary, _ = self.summarize(tmp_path, [str(path)], "summ", discard=0.0)
        assert summary["n_retained"] == 12

    def test_chain_file_without_rows_rejected_before_writing(self, tmp_path, capsys):
        # a header and no rows: the file of a 0-row record, or a truncated one
        path = tmp_path / "empty.csv"
        ChainRecord(**{name: np.empty(0) for name, _ in CHAIN_COLUMNS}, meta={}).to_csv(path)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = self.summarize(tmp_path, [str(path)], "summ", discard=0.0, rc_only=True)
        assert rc == 2
        assert f"no data rows in {path}" in capsys.readouterr().err
        assert not (tmp_path / "summ").exists()

    @pytest.mark.parametrize(
        "body, line, message",
        [
            ("2,abc,0.5,10,1,3,3,0\n", 3, "'abc' is not a number"),
            ("2,1.5,0.5\n", 3, "want 8 columns, got 3"),
            ("# resumed\n\n2,1.5,0.5,10,1,3,3,0,9\n", 5, "want 8 columns, got 9"),
            ("2,1.5,0.5,10,1,3,3,0\n   \n", 4, "want 8 columns, got 1"),
        ],
        ids=["non-numeric", "short", "long-after-comment", "whitespace-only"],
    )
    def test_malformed_row_rejected_with_its_line(self, tmp_path, capsys, body, line, message):
        # the first row is good, so the bad one is not the first of the body
        path = tmp_path / "bad.csv"
        header = ",".join(["iter", "beta", "gamma", "K", "accepted", "H_before", "H_after", "dH"])
        path.write_text(f"{header}\n1,1.5,0.5,10,1,3,3,0\n{body}")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = self.summarize(tmp_path, [str(path)], "summ", discard=0.0, rc_only=True)
        assert rc == 2
        assert f"{path}, line {line}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "summ").exists()

    def test_comment_only_chain_file_rejected_without_a_warning(self, tmp_path, capsys):
        path = tmp_path / "notes.csv"
        path.write_text("iter,beta,gamma,K,accepted,H_before,H_after,dH\n# one\n# two\n")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = self.summarize(tmp_path, [str(path)], "summ", discard=0.0, rc_only=True)
        assert rc == 2
        assert f"no data rows in {path}" in capsys.readouterr().err
        assert not (tmp_path / "summ").exists()

    def test_empty_chain_list_rejected(self, tmp_path):
        assert self.summarize(tmp_path, [], "none", rc_only=True) == 2

    def test_missing_chain_file_rejected(self, tmp_path):
        rc = self.summarize(tmp_path, [str(tmp_path / "ghost.csv")], "gone", rc_only=True)
        assert rc == 2

    @pytest.mark.parametrize("spelling", ["same", "dot", "hard-link"])
    def test_file_listed_twice_rejected(self, tmp_path, monkeypatch, capsys, spelling):
        # pooling one file twice would count its chain twice, under any name
        monkeypatch.chdir(tmp_path)
        chain = config_for(tmp_path, "summarize")["summarize"]["chain_files"][0]
        again = {"same": chain, "dot": os.path.join(".", "flat.csv"), "hard-link": "link.csv"}
        if spelling == "hard-link":
            os.link(chain, "link.csv")
        capsys.readouterr()
        assert self.summarize(tmp_path, [chain, again[spelling]], "twice", rc_only=True) == 2
        assert capsys.readouterr().err == (
            "error: config field summarize.chain_files lists one file twice:"
            f" {chain}, {again[spelling]}\n"
        )
        assert not (tmp_path / "twice").exists()

    def test_draws_whose_mean_overflows_rejected_before_writing(self, tmp_path, capsys):
        # positive, finite K draws, each of which from_csv reads, whose sum
        # leaves the double range: no summary, and no Infinity in a JSON file
        path = tmp_path / "huge.csv"
        rows = "".join(f"{i},1.5,0.5,{1.5e308 + i * 1e305!r},1,3,3,0\n" for i in range(1, 41))
        path.write_text(CHAIN_CSV_HEADER + "\n" + rows)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = self.summarize(tmp_path, [str(path)], "huge", rc_only=True)
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: config field summarize.chain_files: the draws of K overflow:"
            " mean inf, sd inf\n"
        )
        assert not (tmp_path / "huge").exists()


# every integer config field, with the command that reads it
INT_FIELDS = [
    ("simulate", ("seed",)),
    ("infer", ("chains",)),
    ("simulate", ("observation", "n")),
    ("simulate", ("lattice", "j")),
    ("infer", ("infer", "integrator", "P")),
    ("infer", ("infer", "n_mc")),
]


def config_for(tmp_path, command):
    """A valid config for ``command``, with its input files under ``tmp_path``."""
    if command == "simulate":
        return small_config()
    if command == "infer":
        data_dir = run_simulate(tmp_path)
        return small_config(obs_file=str(data_dir / "observations.csv"))
    path = tmp_path / "flat.csv"
    rows = "\n".join(f"{i+1},1.5,0.5,10,1,3,3,0" for i in range(12))
    path.write_text("iter,beta,gamma,K,accepted,H_before,H_after,dH\n" + rows + "\n")
    return {"summarize": {"chain_files": [str(path)], "discard": 0.0}}


def set_field(cfg, field, value):
    block = cfg
    for key in field[:-1]:
        block = block.setdefault(key, {})
    block[field[-1]] = value


class TestIntegerFields:
    @pytest.mark.parametrize("value", [2.5, True, float("inf")], ids=["frac", "bool", "inf"])
    @pytest.mark.parametrize(
        "command,field", INT_FIELDS, ids=[".".join(f) for _, f in INT_FIELDS]
    )
    def test_non_integer_rejected_before_writing(
        self, tmp_path, monkeypatch, capsys, command, field, value
    ):
        import staghmc.cli

        def fail(*args, **kwargs):
            raise AssertionError("run_parallel_chains must not be called")

        monkeypatch.setattr(staghmc.cli, "run_parallel_chains", fail)
        cfg = config_for(tmp_path, command)
        set_field(cfg, field, value)
        cfg_path = write_config(tmp_path, cfg, "bad.json")
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([command, "--config", cfg_path, "--out", str(out)]) == 2
        assert not out.exists() or not list(out.iterdir())
        assert f"config field {'.'.join(field)} has" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,field",
        [
            ("simulate", ("lattice", "j")),
            ("infer", ("infer", "integrator", "P")),
            ("summarize", ("seed",)),
        ],
        ids=["simulate", "infer", "summarize"],
    )
    def test_rejected_config_creates_no_output_directory(self, tmp_path, command, field):
        cfg = config_for(tmp_path, command)
        set_field(cfg, field, 2.5)
        cfg_path = write_config(tmp_path, cfg, "bad.json")
        out = tmp_path / "never"
        assert main([command, "--config", cfg_path, "--out", str(out)]) == 2
        assert not out.exists()

    def test_integral_floats_accepted(self, tmp_path):
        cfg = small_config()
        cfg["seed"] = 5.0
        cfg["observation"]["n"] = 4.0
        cfg["lattice"]["j"] = 3.0
        cfg_path = write_config(tmp_path, cfg, "floats.json")
        out = tmp_path / "floats"
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
        ref = run_simulate(tmp_path / "ints", seed=5)
        for name in ("truth.csv", "observations.csv"):
            assert (out / name).read_bytes() == (ref / name).read_bytes()


# values of a wrong type or range outside the integer fields, with the
# command that reads them and an id
BAD_VALUES = [
    ("simulate", ("model",), 5, "model-block"),
    ("summarize", ("summarize",), 5, "summarize-block"),
    ("simulate", ("out",), 5, "out"),
    # a JSON integer beyond the double range, which float() cannot convert
    ("simulate", ("model", "K"), 10**400, "K-beyond-double"),
    ("infer", ("infer", "masses", "m_alpha"), [10**400, 1.0], "m_alpha-beyond-double"),
    ("summarize", ("summarize", "chain_files"), "a.csv", "chain_files-text"),
]


@pytest.mark.parametrize(
    "command,field,value", [c[:3] for c in BAD_VALUES], ids=[c[3] for c in BAD_VALUES]
)
def test_bad_value_rejected_before_writing(tmp_path, monkeypatch, capsys, command, field, value):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    cfg = config_for(tmp_path, command)
    cfg["out"] = str(out)
    set_field(cfg, field, value)
    cfg_path = write_config(tmp_path, cfg, "bad.json")
    before = sorted(os.listdir(tmp_path))
    capsys.readouterr()
    assert main([command, "--config", cfg_path]) == 2
    assert not out.exists()
    assert sorted(os.listdir(tmp_path)) == before
    assert f"config field {'.'.join(field)} " in capsys.readouterr().err


# values that a config block's dataclass rejects, with the command that
# builds it: K and gamma whose beta = sqrt(T gamma / K) underflows to 0
BAD_BLOCKS = [
    ("simulate", ("model",), {"K": 1e300, "gamma": 1e-300}, "beta = sqrt"),
    ("infer", ("infer", "start"), {"K": 1e300, "gamma": 1e-300}, "beta = sqrt"),
    ("infer", ("infer", "masses"), {"M": -1.0}, "M must be positive"),
]


@pytest.mark.parametrize(
    "command,block,values,message", BAD_BLOCKS, ids=[".".join(b[1]) for b in BAD_BLOCKS]
)
def test_dataclass_error_names_its_block(tmp_path, capsys, command, block, values, message):
    cfg = config_for(tmp_path, command)
    for key, value in values.items():
        set_field(cfg, (*block, key), value)
    cfg_path = write_config(tmp_path, cfg, "bad.json")
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, "--config", cfg_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config block {'.'.join(block)}: ")
    assert message in err
    assert not out.exists()


def test_start_no_chain_can_take_rejected_before_writing(tmp_path, capsys):
    # K = 1e-300 passes the block's own checks, but the force at the start
    # it gives is not finite, so no chain can start there
    cfg = config_for(tmp_path, "infer")
    set_field(cfg, ("infer", "start", "K"), 1e-300)
    cfg_path = write_config(tmp_path, cfg, "bad.json")
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["infer", "--config", cfg_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config block infer.start: no chain can start at K = 1e-300")
    assert "non-finite gradient" in err and err.count("\n") == 1
    assert not out.exists()


def test_start_refused_on_a_huge_signal_names_the_signal(tmp_path, monkeypatch, capsys):
    # on the README quick-start's observations, signal.a = 1e300 leaves no
    # start with a finite force; the refusal names every setting that fixes it
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--preset", "paper-sec4", "--seed", "2718", "--out", "run"]) == 0
    cfg = {"infer": {"observations_file": "run/observations.csv"}, "signal": {"a": 1e300}}
    cfg_path = write_config(tmp_path, cfg, "infer.json")
    capsys.readouterr()
    rc = main(["infer", "--preset", "paper-sec4", "--config", cfg_path, "--out", "out"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config block infer.start: no chain can start at K = 200.0")
    assert err.count("\n") == 1
    for named in (
        "infer.observations_file = run/observations.csv", "signal.a = 1e+300",
        "signal.omega = 0.01", "signal.b = 0.1", "observation.sigma = 0.1", "lattice.j = 30",
    ):
        assert named in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["infer", "simulate"])
def test_signal_not_positive_where_read_is_named_by_its_file(tmp_path, capsys, command):
    # the table interpolates to exactly 0.0 at t = 6, where the lattice
    # (data at t = 0, 6, 12, j = 3) and the simulation grid read it
    table = tmp_path / "sig.csv"
    table.write_text("t,r\n0,10\n6.000000000000001,1e-300\n12,1\n")
    obs = tmp_path / "obs.csv"
    obs.write_text("t,y\n0,1\n6,1\n12,1\n")
    cfg = small_config(obs_file=str(obs))
    cfg["model"]["T"], cfg["observation"]["n"] = 12.0, 2
    cfg["signal"] = {"kind": "tabulated", "file": str(table)}
    cfg_path = write_config(tmp_path, cfg, "zero.json")
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, "--config", cfg_path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {table} (config field signal.file): input signal must be positive"
        " and finite wherever it is read: r(6.0) = 0.0\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["infer", "simulate"])
def test_sinusoid_not_positive_where_read_is_named_by_its_block(tmp_path, capsys, command):
    # omega t overflows past t = 1.8, so sin(omega t) and r are NaN there
    cfg = config_for(tmp_path, command)
    set_field(cfg, ("signal", "omega"), 1e308)
    cfg_path = write_config(tmp_path, cfg, "nan.json")
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, "--config", cfg_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(
        "error: config block signal: input signal must be positive and finite wherever it is"
        " read: r("
    )
    assert err.endswith(") = nan from a=1.0, omega=1e+308, b=0.2\n") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["infer", "simulate"])
def test_sinusoid_whose_peak_overflows_is_named_by_its_block(tmp_path, capsys, command):
    # a and b are finite, but r(t) = a sin^2(omega t) + b overflows where
    # sin^2(omega t) > 0.797, which the lattice and the grid read past t = 22
    cfg = config_for(tmp_path, command)
    set_field(cfg, ("signal", "a"), 1e308)
    set_field(cfg, ("signal", "b"), 1e308)
    cfg_path = write_config(tmp_path, cfg, "peak.json")
    out = tmp_path / "out"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", cfg_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(
        "error: config block signal: input signal must be positive and finite wherever it is"
        " read: r(2"
    )
    assert err.endswith(") = inf from a=1e+308, omega=0.05, b=1e+308\n") and err.count("\n") == 1
    assert not out.exists()


def test_sinusoid_positive_where_read_runs(tmp_path, capsys):
    # r(t) = 1 - 2 sin^2(0.0005 t) would reach -1, but it stays >= 0.67 on
    # the preset's [0, 833], where simulate and infer read it
    signal = {"signal": {"a": -2.0, "omega": 0.0005, "b": 1.0}}
    cfg_path = write_config(tmp_path, signal, "dip.json")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(
            ["simulate", "--preset", "paper-sec4", "--seed", "2718", "--config", cfg_path,
             "--out", str(tmp_path / "run")]
        )
        assert rc == 0
        infer = {"infer": {"observations_file": str(tmp_path / "run" / "observations.csv"),
                           "n_mc": 40}, **signal}
        cfg_path = write_config(tmp_path, infer, "infer.json")
        rc = main(
            ["infer", "--preset", "paper-sec4", "--seed", "7", "--config", cfg_path,
             "--out", str(tmp_path / "run")]
        )
        assert rc == 0
    assert (tmp_path / "run" / "summary.json").exists()


def test_sinusoid_whose_drift_overflows_is_named_by_its_block(tmp_path, capsys):
    # r(t) stays within [0.1, 1.1], but simulate's drift term (T / beta)
    # r'/r, with r' = omega sin(2 omega t), leaves the double range
    cfg_path = write_config(tmp_path, {"signal": {"omega": 1.5e305}}, "drift.json")
    out = tmp_path / "out"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(
            ["simulate", "--preset", "paper-sec4", "--seed", "2718", "--config", cfg_path,
             "--out", str(out)]
        )
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: config block signal: input signal must give a finite drift wherever it is"
        " read: (T/beta) r'/r = inf at t = 3.332\n"
    )
    assert not out.exists()


# the settings that no run set, with the value each had in a config echo
RETIRED = [
    ("simulate", ("simulate", "s0"), None),
    ("simulate", ("simulate", "factor"), 20),
    ("summarize", ("summarize", "density_points"), 256),
    ("simulate", ("simulate", "truth_file"), "truth.csv"),
    ("simulate", ("simulate", "observations_file"), "observations.csv"),
]


@pytest.mark.parametrize(
    "command,field,value", RETIRED, ids=[".".join(f) for _, f, _ in RETIRED]
)
def test_retired_key_refused(tmp_path, capsys, command, field, value):
    # an echo written before the key was retired is refused until it is deleted
    cfg = config_for(tmp_path, command)
    set_field(cfg, field, value)
    cfg_path = write_config(tmp_path, cfg, "old.json")
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, "--config", cfg_path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: unknown config key {'.'.join(field)!r}\n"
    assert not out.exists()


def test_long_unknown_key_quoted_short(tmp_path, capsys):
    cfg = config_for(tmp_path, "simulate")
    cfg["model"]["x" * 500] = 1.0
    cfg_path = write_config(tmp_path, cfg, "long.json")
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown config key 'model.xxx")
    assert err.count("\n") == 1 and len(err) < 200
    assert not out.exists()


def test_each_command_writes_fixed_names(tmp_path):
    # no setting names an output file: simulate writes these three, and no
    # echo holds a simulate block
    data_dir = run_simulate(tmp_path)
    assert sorted(os.listdir(data_dir)) == [
        "config_simulate.json", "observations.csv", "truth.csv"
    ]
    cfg = small_config(obs_file=str(data_dir / "observations.csv"))
    cfg["summarize"] = {"chain_files": [str(tmp_path / "run" / "chain00.csv")]}
    cfg_path = write_config(tmp_path, cfg)
    assert main(["infer", "--config", cfg_path, "--out", str(tmp_path / "run")]) == 0
    assert main(["summarize", "--config", cfg_path, "--out", str(tmp_path / "summ")]) == 0
    for echo in (
        data_dir / "config_simulate.json",
        tmp_path / "run" / "config_infer.json",
        tmp_path / "summ" / "config_summarize.json",
    ):
        assert "simulate" not in json.loads(echo.read_text())


# a size past NumPy's limit, refused before any allocation, with the command
# that sizes its arrays by it and the fields its refusal names
TOO_LARGE = [
    ("infer", ("lattice", "j"), f"lattice.j = {10**30}"),
    ("simulate", ("observation", "n"), f"observation.n = {10**30} and lattice.j = 3"),
]


@pytest.mark.parametrize(
    "command,field,named", TOO_LARGE, ids=[".".join(f) for _, f, _ in TOO_LARGE]
)
def test_size_past_numpy_limit_named(tmp_path, capsys, command, field, named):
    cfg = config_for(tmp_path, command)
    set_field(cfg, field, 10**30)
    cfg_path = write_config(tmp_path, cfg, "huge.json")
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, "--config", cfg_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (
        f"error: arrays sized by {named} are too large to allocate:"
        " Maximum allowed size exceeded\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["infer", "simulate"])
def test_allocation_refused_by_memory_named(tmp_path, monkeypatch, capsys, command):
    # the lattice and the simulation grid, each refused as NumPy refuses an
    # array larger than the memory left
    import staghmc.cli
    import staghmc.energy

    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")

    cfg_path = write_config(tmp_path, config_for(tmp_path, command), "config.json")
    monkeypatch.setattr(staghmc.energy, "LatticeLayout", refuse)
    monkeypatch.setattr(staghmc.cli, "fine_grid", refuse)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, "--config", cfg_path, "--out", str(out)]) == 2
    named = "lattice.j = 3" if command == "infer" else "observation.n = 4 and lattice.j = 3"
    assert capsys.readouterr().err == (
        f"error: arrays sized by {named} are too large to allocate:"
        " Unable to allocate 74.5 GiB for an array\n"
    )
    assert not out.exists()


def test_integer_past_the_digit_limit_is_not_valid_json(tmp_path, capsys):
    # where Python limits int() to 4 300 digits (3.11, and 3.10 from 3.10.7),
    # json refuses a 5 000-digit literal, so the file is no JSON; set to 4 300
    # here, as PYTHONINTMAXSTRDIGITS=0 lifts it. Without a limit the literal
    # reads as an int that is no double
    limited = hasattr(sys, "set_int_max_str_digits")
    if limited:
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
    cfg_path = tmp_path / "long.json"
    cfg_path.write_text('{"model": {"K": 1' + "0" * 4999 + "}}")
    out = tmp_path / "out"
    capsys.readouterr()
    try:
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
    finally:
        if limited:
            sys.set_int_max_str_digits(old)
    err = capsys.readouterr().err
    if limited:
        assert err.startswith(f"error: config file {cfg_path} is not valid JSON: ")
    else:
        assert err.startswith("error: config field model.K has an invalid value ")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("kind", ["square", "constant"])
def test_unknown_signal_kind_rejected(tmp_path, capsys, kind):
    # a constant input is a sinusoid with a = 0; "constant" is no kind
    cfg = config_for(tmp_path, "infer")
    cfg["signal"] = {"kind": kind}
    cfg_path = write_config(tmp_path, cfg, "kind.json")
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["infer", "--config", cfg_path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: config field signal.kind has an unknown value {kind!r}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("sigma", [1e-300, 1e-160])
def test_sigma_whose_inverse_square_overflows_rejected_by_infer(tmp_path, capsys, sigma):
    # a positive, finite sigma whose 1/sigma^2 is inf would make every
    # likelihood and force infinite; the noise model refuses it, so
    # simulate refuses it with infer's line, and neither writes a file
    cfg = config_for(tmp_path, "infer")
    set_field(cfg, ("observation", "sigma"), sigma)
    cfg_path = write_config(tmp_path, cfg, "bad.json")
    want = (
        f"error: config block observation: sigma = {sigma!r} is too small for the"
        " likelihood: 1/sigma^2 overflows\n"
    )
    capsys.readouterr()
    for command in ("infer", "simulate"):
        out = tmp_path / command
        assert main([command, "--config", cfg_path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == want
        assert not out.exists()


# one field of each config block that a command builds a dataclass from,
# with a command that reads it
MISSING_FIELDS = [
    ("simulate", ("model", "T")),
    ("simulate", ("observation", "sigma")),
    ("infer", ("observation", "sigma")),
    ("infer", ("infer", "start", "gamma")),
    ("infer", ("infer", "masses", "m_alpha")),
    ("infer", ("infer", "integrator", "P")),
]


@pytest.mark.parametrize(
    "command,field", MISSING_FIELDS, ids=[f"{c}-{'.'.join(f)}" for c, f in MISSING_FIELDS]
)
def test_missing_field_named_before_writing(tmp_path, capsys, command, field):
    cfg = config_for(tmp_path, command)
    block = cfg
    for key in field[:-1]:
        block = block[key]
    del block[field[-1]]
    cfg_path = write_config(tmp_path, cfg, "missing.json")
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, "--config", cfg_path, "--out", str(out)]) == 2
    assert f"missing config field {'.'.join(field)};" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.skipif(shutil.which("staghmc") is None, reason="console script not installed")
def test_console_script_entry_point(tmp_path):
    out = tmp_path / "cli"
    proc = subprocess.run(
        ["staghmc", "simulate", "--preset", "paper-sec4", "--seed", "1",
         "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "observations.csv").exists()


# numbers given as a bool or a string, with the command that reads them
NOT_NUMBERS = [
    ("simulate", ("observation", "sigma"), True, "sigma-bool"),
    ("simulate", ("model", "K"), "30", "K-text"),
    ("infer", ("infer", "masses", "m_alpha"), [True, 1], "m_alpha-bool"),
    ("simulate", ("seed",), "5", "seed-text"),
]


@pytest.mark.parametrize(
    "command,field,value", [c[:3] for c in NOT_NUMBERS], ids=[c[3] for c in NOT_NUMBERS]
)
def test_bool_or_string_number_rejected(tmp_path, capsys, command, field, value):
    cfg = config_for(tmp_path, command)
    set_field(cfg, field, value)
    cfg_path = write_config(tmp_path, cfg, "bad.json")
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, "--config", cfg_path, "--out", str(out)]) == 2
    assert not out.exists()
    assert f"config field {'.'.join(field)} has" in capsys.readouterr().err


# fields that JSON's Infinity reaches, with the command that reads them
NON_FINITE = [
    ("infer", ("infer", "masses", "M")),
    ("simulate", ("signal", "a")),
    ("simulate", ("signal", "omega")),
]


@pytest.mark.parametrize(
    "command,field", NON_FINITE, ids=[".".join(f) for _, f in NON_FINITE]
)
def test_infinity_rejected_before_writing(tmp_path, capsys, command, field):
    cfg = config_for(tmp_path, command)
    set_field(cfg, field, float("inf"))
    cfg_path = write_config(tmp_path, cfg, "bad.json")
    assert "Infinity" in Path(cfg_path).read_text()
    out = tmp_path / "out"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([command, "--config", cfg_path, "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "model", [{"K": 0.01, "gamma": 500}, {"K": 1, "gamma": 50}], ids=["q", "S"]
)
def test_path_out_of_double_range_is_a_one_line_error(tmp_path, capsys, model):
    cfg_path = write_config(tmp_path, {"model": model})
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(
            ["simulate", "--preset", "paper-sec4", "--config", cfg_path,
             "--out", str(tmp_path / "out")]
        )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite simulated ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "model, given",
    [({"gamma": 1e300}, "K=50.0, gamma=1e+300, T=833.0"),
     ({"T": 1e300}, "K=50.0, gamma=0.2, T=1e+300")],
    ids=["gamma-huge", "T-huge"],
)
def test_model_whose_drift_overflows_is_named_by_its_block(tmp_path, capsys, model, given):
    # beta is finite, but (2 + gamma) beta / (2 gamma), or its product with
    # a step h <= T, overflows: known from (K, gamma, T) before any noise
    cfg_path = write_config(tmp_path, {"model": model})
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(
            ["simulate", "--preset", "paper-sec4", "--config", cfg_path,
             "--out", str(tmp_path / "out")]
        )
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: config block model: T (2 + gamma) beta / (2 gamma) must be finite,"
        f" got inf from {given}\n"
    )
    assert not (tmp_path / "out").exists()


def test_n_mc_below_one_named_by_infer_block(tmp_path, capsys):
    # infer builds its sampler settings from the block, as every other block
    cfg = config_for(tmp_path, "infer")
    set_field(cfg, ("infer", "n_mc"), 0)
    cfg_path = write_config(tmp_path, cfg, "bad.json")
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["infer", "--config", cfg_path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: config block infer: n_mc must be >= 1, got 0\n"
    assert not out.exists()


# a rejected value far too long to quote in full, with the command that reads it
LONG_VALUES = [
    ("simulate", ("model", "K"), 10**400, "K-400-digits"),
    ("summarize", ("summarize", "chain_files"), list(range(1000)), "chain_files-1000-numbers"),
]


@pytest.mark.parametrize(
    "command,field,value", [c[:3] for c in LONG_VALUES], ids=[c[3] for c in LONG_VALUES]
)
def test_long_rejected_value_quoted_short(tmp_path, capsys, command, field, value):
    cfg = config_for(tmp_path, command)
    set_field(cfg, field, value)
    cfg_path = write_config(tmp_path, cfg, "bad.json")
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, "--config", cfg_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config field {'.'.join(field)} has an invalid value ")
    assert err.count("\n") == 1 and len(err) < 200
    assert not out.exists()
