"""Tests for the flat key = value experiment configuration."""

import dataclasses
import math

import pytest

from softdeepc.config import (
    ExperimentConfig,
    default_config_path,
    load_config,
    parse_config_text,
    parse_stage_string,
)


class TestDefaults:
    def test_shipped_file_matches_dataclass_defaults(self):
        # the packaged default.cfg must never drift from the code defaults
        assert load_config(default_config_path()) == ExperimentConfig()

    def test_shipped_file_lists_every_field_once(self):
        # a field missing from the file would still parse to its default
        keys = [line.split("#", 1)[0].split("=", 1)[0].strip()
                for line in default_config_path().read_text().splitlines()]
        keys = [key for key in keys if key]
        assert sorted(keys) == sorted(f.name for f in dataclasses.fields(ExperimentConfig))

    def test_excitation_order_combines_windows_and_state_allowance(self):
        cfg = ExperimentConfig()
        assert cfg.pe_order() == cfg.t_ini + cfg.horizon + cfg.n_est
        assert cfg.pe_order() == 60

    def test_paper_weights_are_the_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.t_ini == 20
        assert cfg.horizon == 30
        assert cfg.q_weight == 10.0
        assert cfg.r_weight == 2e-3
        assert cfg.lambda_g == 300.0
        assert cfg.lambda_y == 1000.0
        assert (cfg.u_lower, cfg.u_upper) == (0.0, 90.0)


class TestParsing:
    def test_round_trip_through_text(self, tmp_path):
        cfg = dataclasses.replace(ExperimentConfig(), lambda_g=7.5,
                                  dataset_steps=600, timing_enabled=False)
        lines = []
        for field in dataclasses.fields(cfg):
            lines.append(f"{field.name} = {getattr(cfg, field.name)}")
        path = tmp_path / "edited.cfg"
        path.write_text("\n".join(lines))
        assert load_config(path) == cfg

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config_text("# full-line comment\n\nlambda_g = 5 # trailing\n")
        assert cfg.lambda_g == 5.0

    def test_unknown_key_reports_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_config_text("t_ini = 20\nnot_a_key = 3\n")

    @pytest.mark.parametrize("line", [
        "tol_kkt = 1e-8", "tol_feas = 1e-8", "max_iter = 20000",
        "excitation_kind = stage_dither", "amp_lower = 0.0", "amp_upper = 70.0",
        "ramp_steps = 4", "hold_steps = 8", "pe_retries = 8"])
    def test_removed_solver_and_excitation_keys_rejected(self, line):
        # the QP solver's tolerance and cap are its own constants, and the
        # data is always collected by the stage dither, so a file that still
        # sets one of these keys fails where it sets it
        with pytest.raises(ValueError, match="line 2: unknown config key"):
            parse_config_text(f"t_ini = 20\n{line}\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="expected 'key = value'"):
            parse_config_text("just some words\n")

    def test_bool_casting_variants(self):
        assert parse_config_text("timing_enabled = off").timing_enabled is False
        assert parse_config_text("use_reduction = YES").use_reduction is True
        with pytest.raises(ValueError, match="boolean"):
            parse_config_text("timing_enabled = maybe")

    def test_inf_accepted_for_floats(self):
        cfg = parse_config_text("lambda_y = inf")
        assert math.isinf(cfg.lambda_y)

    def test_int_field_rejects_fraction(self):
        with pytest.raises(ValueError):
            parse_config_text("t_ini = 2.5")


class TestValidation:
    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValueError, match="u_lower"):
            ExperimentConfig(u_lower=5.0, u_upper=1.0)

    def test_energy_fraction_range(self):
        with pytest.raises(ValueError, match="reduction_energy"):
            ExperimentConfig(reduction_energy=0.0)
        with pytest.raises(ValueError, match="reduction_energy"):
            ExperimentConfig(reduction_energy=1.5)

    def test_reduction_rank_range(self):
        with pytest.raises(ValueError, match="reduction_rank"):
            ExperimentConfig(reduction_rank=-2)
        for rank in (-1, 0, 1):
            assert ExperimentConfig(reduction_rank=rank).reduction_rank == rank

    def test_dither_fields_validated(self):
        with pytest.raises(ValueError, match="dither_halfwidth"):
            ExperimentConfig(dither_halfwidth=0.0)
        with pytest.raises(ValueError, match="dither_hold"):
            ExperimentConfig(dither_hold=0)

    def test_negative_state_allowance_rejected(self):
        # n_est = -45 used to lower the excitation order to 5, below the
        # t_ini + horizon = 50 windows the controller reads
        with pytest.raises(ValueError, match="n_est"):
            ExperimentConfig(n_est=-45)
        assert ExperimentConfig(n_est=0).pe_order() == 50


class TestStages:
    def test_default_stage_string(self):
        assert ExperimentConfig().stage_list() == [
            (20.0, 0.0, 200), (40.0, 60.0, 200), (60.0, 120.0, 200)]

    def test_parse_custom_stage_string(self):
        assert parse_stage_string("5:90:50") == [(5.0, 90.0, 50)]

    def test_bad_stage_triplet_rejected(self):
        with pytest.raises(ValueError, match="stage"):
            parse_stage_string("20:0")
        with pytest.raises(ValueError, match="stage"):
            parse_stage_string("20:0:0")


class TestSnapshot:
    def test_snapshot_serializes_infinities(self):
        snap = dataclasses.replace(ExperimentConfig(), lambda_y=math.inf).snapshot()
        assert snap["lambda_y"] == "inf"
        assert snap["t_ini"] == 20

    def test_snapshot_lists_every_field(self):
        cfg = ExperimentConfig()
        assert set(cfg.snapshot()) == {f.name for f in dataclasses.fields(cfg)}
