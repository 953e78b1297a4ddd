"""End-to-end tests of the command-line interface.

Each test drives ``main(argv)`` in process with a shrunk config file and
checks exit codes, emitted files, and the printed summaries.
"""

import numpy as np
import pytest

from softdeepc import cli
from softdeepc.cli import main
from softdeepc.hankel import TrajectoryDataset
from softdeepc.runlog import save_dataset

SMALL_CONFIG = """\
t_ini = 6
horizon = 8
n_est = 4
dataset_steps = 400
reduction_rank = 60
stages = 15:0:25, 30:90:25
circle_waypoints = 40
circle_laps = 1
timing_enabled = false
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CONFIG)
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestParser:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            run_cli()

    def test_unknown_subcommand_exits(self):
        with pytest.raises(SystemExit):
            run_cli("frobnicate")


class TestCollectAndCheck:
    def test_collect_writes_dataset(self, tmp_path, config_path, capsys):
        out = tmp_path / "collect"
        code = run_cli("collect", "--config", config_path, "--seed", "0", "--out", out)
        assert code == 0
        assert (out / "dataset.csv").exists()
        stdout = capsys.readouterr().out
        assert "collected 400 samples" in stdout
        assert "ok" in stdout

    def test_collect_reports_rank_of_the_dataset_channels(self, tmp_path, config_path,
                                                          capsys, monkeypatch):
        # a two-channel dataset: full rank is 2 * order, not 3 * order
        rng = np.random.default_rng(1)
        two = TrajectoryDataset(inputs=rng.uniform(0, 90, size=(400, 2)),
                                outputs=rng.normal(size=(400, 3)))
        monkeypatch.setattr(cli, "collect_dataset", lambda cfg, seed, task: two)
        code = run_cli("collect", "--config", config_path, "--seed", "0",
                       "--out", tmp_path / "collect")
        assert code == 0
        order = 6 + 8 + 4
        assert f"excitation order {order}: rank {2 * order} of {2 * order} (ok)" in (
            capsys.readouterr().out.splitlines())

    def test_collect_circle_task(self, tmp_path, config_path):
        out = tmp_path / "collect_circle"
        code = run_cli("collect", "--config", config_path, "--seed", "0",
                       "--out", out, "--task", "circle")
        assert code == 0
        assert (out / "dataset.csv").exists()

    def test_check_pe_accepts_rich_dataset(self, tmp_path, config_path, capsys):
        out = tmp_path / "collect"
        run_cli("collect", "--config", config_path, "--seed", "0", "--out", out)
        capsys.readouterr()
        code = run_cli("check-pe", "--config", config_path,
                       "--dataset", out / "dataset.csv")
        assert code == 0
        assert "is persistently exciting" in capsys.readouterr().out

    def test_check_pe_rejects_poor_dataset(self, tmp_path, config_path, capsys):
        rng = np.random.default_rng(0)
        poor = TrajectoryDataset(
            inputs=rng.uniform(0, 90, size=(30, 3)),
            outputs=rng.normal(size=(30, 3)),
        )
        path = tmp_path / "poor.csv"
        save_dataset(path, poor)
        code = run_cli("check-pe", "--config", config_path, "--dataset", path)
        assert code == 1
        assert "NOT persistently exciting" in capsys.readouterr().err


class TestRunCommands:
    def test_fixed_point_baseline(self, tmp_path, config_path, capsys):
        out = tmp_path / "fp"
        code = run_cli("fixed-point", "--config", config_path, "--seed", "2",
                       "--out", out, "--controller", "baseline")
        assert code == 0
        assert (out / "run.csv").exists()
        assert (out / "metrics.json").exists()
        stdout = capsys.readouterr().out
        assert "fixed_point run (baseline" in stdout
        assert "stage 2" in stdout

    def test_fixed_point_deepc_with_dataset(self, tmp_path, config_path):
        data_dir = tmp_path / "collect"
        run_cli("collect", "--config", config_path, "--seed", "0", "--out", data_dir)
        out = tmp_path / "fp_deepc"
        code = run_cli("fixed-point", "--config", config_path, "--seed", "2",
                       "--out", out, "--dataset", data_dir / "dataset.csv")
        assert code == 0
        assert (out / "run.csv").exists()

    def test_track_circle_with_svg(self, tmp_path, config_path):
        out = tmp_path / "circle"
        code = run_cli("track-circle", "--config", config_path, "--seed", "2",
                       "--out", out, "--controller", "baseline", "--svg")
        assert code == 0
        assert (out / "trajectory.svg").exists()

    def test_nominal_flag(self, tmp_path, config_path):
        out = tmp_path / "nominal"
        code = run_cli("fixed-point", "--config", config_path, "--seed", "2",
                       "--out", out, "--controller", "baseline", "--nominal")
        assert code == 0

    def test_compare_writes_both_runs(self, tmp_path, config_path, capsys):
        out = tmp_path / "cmp"
        code = run_cli("compare", "--config", config_path, "--seed", "2", "--out", out)
        assert code == 0
        assert (out / "deepc" / "run.csv").exists()
        assert (out / "baseline" / "run.csv").exists()
        stdout = capsys.readouterr().out
        assert "rmse_mm" in stdout


class TestErrorPaths:
    def test_malformed_config_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("t_ini 6\n")
        code = run_cli("fixed-point", "--config", bad, "--controller", "baseline")
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_config_key_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("warp_speed = 9\n")
        code = run_cli("fixed-point", "--config", bad, "--controller", "baseline")
        assert code == 1
        assert "warp_speed" in capsys.readouterr().err

    def test_missing_dataset_fails_cleanly(self, tmp_path, config_path, capsys):
        code = run_cli("fixed-point", "--config", config_path,
                       "--out", tmp_path / "x",
                       "--dataset", tmp_path / "nope.csv")
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")
