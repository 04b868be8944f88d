"""Tests for config parsing/validation and the command-line front end."""

import json
import os
import pathlib

import pytest
import yaml

from cs_sounding import config as config_module
from cs_sounding import sounding as snd
from cs_sounding import sparse_recovery as sr
from cs_sounding.cli import CHANNEL_CSV_HEADER, SWEEP_CSV_HEADER, main
from cs_sounding.config import ConfigError, config_from_dict, load_config, validate_config
from cs_sounding.sparse_recovery import STOP_REASONS

TINY_CONFIG = {
    "dims": {"n_dft": 64, "n_t": 2, "n_r": 2},
    "correlation": {"rho_tx": 0.7, "rho_rx": 0.7},
    "recovery": {"kappa": 20, "tau": 1e-6, "i_max": 40, "algorithm": "cosamp"},
    "sounding": {"seed": 37, "n_kappa": 80, "snr_db": None, "power_mode": "uniform"},
    "feedback": {"mode": "MU", "quant_bits": 10, "n_tones": 234, "ltf_duration_us": 12.0},
    "trials": 2,
    "master_seed": 7,
}


HUGE = int("9" * 401)  # more digits than a float can hold
SHIPPED_MODEL = pathlib.Path(__file__).resolve().parent.parent / "configs" / "model_4x2.yaml"


def write_config(tmp_path, data, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return str(path)


class TestConfig:
    def test_load_valid_yaml(self, tmp_path):
        cfg, pdp = load_config(write_config(tmp_path, TINY_CONFIG))
        assert cfg.dims.n_dft == 64
        assert len(pdp.taps) == 18  # built-in profile

    def test_json_is_accepted(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(TINY_CONFIG))
        cfg, _ = load_config(str(path))
        assert cfg.sounding.n_kappa == 80

    def test_zero_seed_names_field(self, tmp_path):
        bad = dict(TINY_CONFIG, sounding=dict(TINY_CONFIG["sounding"], seed=0))
        with pytest.raises(ConfigError, match="sounding.seed"):
            load_config(write_config(tmp_path, bad))

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            config_from_dict(dict(TINY_CONFIG, bogus=1))

    @pytest.mark.parametrize("data", [
        dict(TINY_CONFIG, dims={1: 2, "x": 3}), {**TINY_CONFIG, 1: 2, "x": 3},
    ], ids=["section", "top_level"])
    def test_unknown_keys_of_mixed_types_rejected(self, tmp_path, capsys, data):
        with pytest.raises(ConfigError, match="unknown"):
            config_from_dict(data)
        assert main(["simulate", "--config", write_config(tmp_path, data),
                     "--out", str(tmp_path / "out")]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_n_kappa_lower_bound(self):
        bad = dict(TINY_CONFIG, sounding=dict(TINY_CONFIG["sounding"], n_kappa=10))
        cfg = config_from_dict(bad)
        with pytest.raises(ConfigError, match="n_kappa"):
            validate_config(cfg)

    def test_n_kappa_upper_bound(self):
        bad = dict(TINY_CONFIG, sounding=dict(TINY_CONFIG["sounding"], n_kappa=1000))
        cfg = config_from_dict(bad)
        with pytest.raises(ConfigError, match="available"):
            validate_config(cfg)

    def test_multiple_errors_reported_together(self):
        bad = dict(TINY_CONFIG,
                   recovery=dict(TINY_CONFIG["recovery"], algorithm="magic"),
                   feedback=dict(TINY_CONFIG["feedback"], mode="ALL"))
        cfg = config_from_dict(bad)
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        assert "recovery.algorithm" in str(err.value)
        assert "feedback.mode" in str(err.value)

    def test_inline_pdp(self, tmp_path):
        data = dict(TINY_CONFIG, pdp={
            "sample_period_ns": 50.0,
            "taps": [{"delay_ns": 0, "power_db": 0}, {"delay_ns": 60, "power_db": -3}],
        })
        _, pdp = load_config(write_config(tmp_path, data))
        assert len(pdp.taps) == 2

    def test_pdp_from_file(self, tmp_path):
        pdp_path = tmp_path / "profile.yaml"
        pdp_path.write_text(yaml.safe_dump({
            "sample_period_ns": 50.0,
            "taps": [{"delay_ns": 0, "power_db": 0}],
        }))
        data = dict(TINY_CONFIG, pdp="profile.yaml")
        _, pdp = load_config(write_config(tmp_path, data))
        assert len(pdp.taps) == 1

    def test_pdp_delay_span_checked(self, tmp_path):
        data = dict(TINY_CONFIG, pdp={
            "sample_period_ns": 50.0,
            "taps": [{"delay_ns": 0, "power_db": 0},
                     {"delay_ns": 64 * 50.0, "power_db": -3}],
        })
        with pytest.raises(ConfigError, match="delay span"):
            load_config(write_config(tmp_path, data))

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("/nonexistent/config.yaml")

    @pytest.mark.parametrize("field", ["rho_tx", "rho_rx"])
    def test_correlation_the_channel_cannot_factor(self, tmp_path, capsys, field):
        # in [0, 1), but the 2x2 matrix's second pivot (2e-13) fails the
        # rank tolerance the channel draw factors it with
        data = dict(TINY_CONFIG, correlation=dict(TINY_CONFIG["correlation"],
                                                  **{field: 0.9999999999999}))
        with pytest.raises(ConfigError, match=rf"correlation\.{field}: .*pivot"):
            validate_config(config_from_dict(data))
        out = tmp_path / "out"
        for command in (["simulate"], ["sweep", "--nkappa-list", "80"]):
            rc = main([*command, "--config", write_config(tmp_path, data), "--out", str(out)])
            assert rc == 2
            assert f"correlation.{field}" in capsys.readouterr().err

    @pytest.mark.parametrize("field", [
        "dims.n_dft", "dims.n_t", "dims.n_r",
        "correlation.rho_tx", "correlation.rho_rx",
        "recovery.kappa", "recovery.tau", "recovery.i_max",
        "sounding.seed", "sounding.n_kappa", "sounding.snr_db", "sounding.threshold_db",
        "feedback.quant_bits", "feedback.n_tones", "feedback.ltf_duration_us",
        "trials", "master_seed", "sounding.usable_tones",
    ])
    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_rejected_in_numeric_field(self, field, flag):
        data = json.loads(json.dumps(TINY_CONFIG))
        *section, key = field.split(".")
        value = [flag, 5, 7, 9] if key == "usable_tones" else flag
        (data[section[0]] if section else data)[key] = value
        with pytest.raises(ConfigError, match=field.replace(".", r"\.")):
            validate_config(config_from_dict(data))

    @pytest.mark.parametrize("bad_tone", [2.9, [1, 2]], ids=["fraction", "nested_list"])
    def test_non_integer_usable_tone_rejected(self, tmp_path, capsys, bad_tone):
        sounding = dict(TINY_CONFIG["sounding"], usable_tones=[1, bad_tone, 5, 7, 9])
        rc = main(["simulate", "--config",
                   write_config(tmp_path, dict(TINY_CONFIG, sounding=sounding)),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "sounding.usable_tones" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("sounding.snr_db", float("nan")),
        ("sounding.snr_db", float("-inf")),
        ("sounding.snr_db", -4000.0),  # the noise variance overflows
        ("sounding.snr_db", -300.5),
        ("feedback.quant_bits", 33),  # level indices are packed from uint32
        ("feedback.quant_bits", 2000),
        ("feedback.ltf_duration_us", float("inf")),
        ("feedback.ltf_duration_us", float("nan")),
        ("feedback.ltf_duration_us", 1e308),  # finite, but two symbols of it are not
        pytest.param("feedback.ltf_duration_us", 10 ** 308, id="int_airtime_overflow"),
    ])
    def test_non_finite_value_rejected(self, tmp_path, capsys, field, value):
        section, key = field.split(".")
        data = dict(TINY_CONFIG, **{section: dict(TINY_CONFIG[section], **{key: value})})
        with pytest.raises(ConfigError, match=field.replace(".", r"\.")):
            validate_config(config_from_dict(data))
        rc = main(["overhead", "--config", write_config(tmp_path, data),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_infinite_snr_is_noiseless(self, tmp_path):
        out_none, out_inf = tmp_path / "none", tmp_path / "inf"
        sounding = dict(TINY_CONFIG["sounding"], snr_db=float("inf"))
        assert main(["simulate", "--config", write_config(tmp_path, TINY_CONFIG),
                     "--out", str(out_none)]) == 0
        assert main(["simulate", "--config",
                     write_config(tmp_path, dict(TINY_CONFIG, sounding=sounding), "inf.yaml"),
                     "--out", str(out_inf)]) == 0
        assert (out_none / "channel.csv").read_bytes() == (out_inf / "channel.csv").read_bytes()

    @pytest.mark.parametrize("inline", [True, False])
    @pytest.mark.parametrize("period, tap, field", [
        (float("nan"), {"delay_ns": 60, "power_db": -3}, "sample_period_ns"),
        (True, {"delay_ns": 60, "power_db": -3}, "sample_period_ns"),
        (50.0, {"delay_ns": float("nan"), "power_db": -3}, "delay_ns"),
        (50.0, {"delay_ns": float("inf"), "power_db": -3}, "delay_ns"),
        (50.0, {"delay_ns": 60, "power_db": float("inf")}, "power_db"),
        (50.0, {"delay_ns": 60, "power_db": float("nan")}, "power_db"),
        (50.0, {"delay_ns": 60, "power_db": 4000}, "power_db"),
        (1e-3, {"delay_ns": 1e307, "power_db": -3}, "delay_ns / sample_period_ns"),
        (1e-320, {"delay_ns": 60, "power_db": -3}, "delay_ns / sample_period_ns"),
        pytest.param(50.0, {"delay_ns": HUGE, "power_db": -3}, "delay_ns", id="huge_delay"),
        pytest.param(50.0, {"delay_ns": 60, "power_db": HUGE}, "power_db", id="huge_power"),
        pytest.param(HUGE, {"delay_ns": 60, "power_db": -3}, "sample_period_ns",
                     id="huge_period"),
    ])
    def test_bad_pdp_value_exits_2(self, tmp_path, capsys, inline, period, tap, field):
        profile = {"sample_period_ns": period,
                   "taps": [{"delay_ns": 0, "power_db": 0}, tap]}
        if not inline:
            (tmp_path / "profile.yaml").write_text(yaml.safe_dump(profile))
            profile = "profile.yaml"
        rc = main(["simulate", "--config",
                   write_config(tmp_path, dict(TINY_CONFIG, pdp=profile)),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{field} must be" in err and "Traceback" not in err

    def test_more_estimates_than_the_shuffle_can_permute(self, tmp_path, capsys):
        # 32768 tones x 4 rx = 131072 estimates > 2^16
        big = dict(TINY_CONFIG, dims={"n_dft": 32768, "n_t": 2, "n_r": 4})
        with pytest.raises(ConfigError, match="131072 estimates"):
            validate_config(config_from_dict(big))
        rc = main(["simulate", "--config", write_config(tmp_path, big),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "16-bit LFSR shuffle" in capsys.readouterr().err

    @pytest.mark.parametrize("field, commands", [
        ("sounding.n_kappa", [["simulate"], ["overhead"]]),
        ("dims.n_t", [["simulate"], ["overhead"], ["sweep", "--nkappa-list", "80"]]),
        ("--nkappa-list", [["sweep", "--nkappa-list", f"80,{HUGE}"]]),
    ], ids=["n_kappa", "n_t", "nkappa_list"])
    def test_huge_integer_exits_2(self, tmp_path, capsys, field, commands):
        # a count a float cannot hold reached the airtime check, which
        # crashed with OverflowError
        data = json.loads(json.dumps(TINY_CONFIG))
        if field != "--nkappa-list":
            section, key = field.split(".")
            data[section][key] = HUGE
        named = "sounding.n_kappa" if field == "--nkappa-list" else field
        for command in commands:
            rc = main([*command, "--config", write_config(tmp_path, data),
                       "--out", str(tmp_path / "out")])
            assert rc == 2
            err = capsys.readouterr().err
            assert named in err and "Traceback" not in err
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field", [
        "correlation.rho_tx", "correlation.rho_rx", "recovery.tau",
        "sounding.snr_db", "sounding.threshold_db", "feedback.ltf_duration_us",
    ])
    def test_real_too_large_for_a_float_exits_2(self, tmp_path, capsys, field):
        # a real-valued field is range-checked as a float, so an integer
        # beyond the float range fails instead of overflowing later
        data = json.loads(json.dumps(TINY_CONFIG))
        section, key = field.split(".")
        data[section][key] = HUGE
        with pytest.raises(ConfigError, match=field.replace(".", r"\.")):
            validate_config(config_from_dict(data))
        for command in (["simulate"], ["overhead"], ["sweep", "--nkappa-list", "80"]):
            rc = main([*command, "--config", write_config(tmp_path, data),
                       "--out", str(tmp_path / "out")])
            assert rc == 2
            err = capsys.readouterr().err
            assert field in err and "Traceback" not in err
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("tones", [{0: 1, 2: 3, 4: 5, 6: 7}, 5], ids=["mapping", "scalar"])
    def test_usable_tones_must_be_a_list(self, tmp_path, capsys, tones):
        data = dict(TINY_CONFIG, sounding=dict(TINY_CONFIG["sounding"], usable_tones=tones))
        with pytest.raises(ConfigError, match=r"sounding\.usable_tones"):
            config_from_dict(data)
        rc = main(["simulate", "--config", write_config(tmp_path, data),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "sounding.usable_tones" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_validate_returns_the_profile_load_config_returns(self, tmp_path):
        (tmp_path / "profile.yaml").write_text(yaml.safe_dump({
            "sample_period_ns": 50.0,
            "taps": [{"delay_ns": 0, "power_db": 0}, {"delay_ns": 100, "power_db": -4}],
        }))
        path = write_config(tmp_path, dict(TINY_CONFIG, pdp="profile.yaml"))
        cfg, pdp = load_config(path)
        assert validate_config(cfg, str(tmp_path)) == pdp
        assert pdp.taps[1][0] == 100.0

    @pytest.mark.parametrize("command, most", [
        (["simulate"], 1), (["overhead"], 1),
        (["sweep", "--nkappa-list", "80,100"], 2),
        (["sweep", "--nkappa-list", "80,100,120"], 3),
    ], ids=["simulate", "overhead", "sweep2", "sweep3"])
    def test_profile_file_read_once_per_validation(self, tmp_path, monkeypatch,
                                                   command, most):
        profile = tmp_path / "cfg" / "profile.yaml"
        profile.parent.mkdir()
        profile.write_text(yaml.safe_dump({
            "sample_period_ns": 50.0, "taps": [{"delay_ns": 0, "power_db": 0}]}))
        cfg_path = write_config(profile.parent, dict(TINY_CONFIG, pdp="profile.yaml"))
        reads = []

        def counting_open(file, *args, **kwargs):
            if os.path.abspath(file) == str(profile):
                reads.append(file)
            return open(file, *args, **kwargs)

        monkeypatch.setattr(config_module, "open", counting_open, raising=False)
        monkeypatch.chdir(tmp_path)  # the path is relative to the config, not the cwd
        assert main([*command, "--config", cfg_path, "--out", str(tmp_path / "out")]) == 0
        assert 1 <= len(reads) <= most


class TestSimulateCommand:
    def test_writes_result_and_channel(self, tmp_path):
        cfg_path = write_config(tmp_path, TINY_CONFIG)
        out = tmp_path / "out"
        rc = main(["simulate", "--config", cfg_path, "--out", str(out)])
        assert rc == 0
        result = json.loads((out / "result.json").read_text())
        assert result["status"] == "ok"
        assert result["mse"] < 1e-3
        assert result["recovery"]["iterations"] <= 40
        assert result["recovery"]["stop_reason"] == "cycled"  # 10-bit feedback: no exact fit
        assert result["kappa_realized"] <= 20
        assert result["overhead"]["conventional"]["total_bits"] == 16 * 234
        lines = (out / "channel.csv").read_text().splitlines()
        assert lines[0] == CHANNEL_CSV_HEADER
        assert len(lines) == 1 + 2 * (64 * 4)  # two domains, n_dft * n_s rows

    def test_rerun_byte_identical(self, tmp_path):
        cfg_path = write_config(tmp_path, TINY_CONFIG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg_path, "--out", str(out_a)]) == 0
        assert main(["simulate", "--config", cfg_path, "--out", str(out_b)]) == 0
        for name in ("result.json", "channel.csv"):
            blob_a = (out_a / name).read_bytes()
            blob_b = (out_b / name).read_bytes()
            # the config echo contains the output dir, which differs by design
            assert blob_a.replace(str(out_a).encode(), b"") == \
                blob_b.replace(str(out_b).encode(), b"")

    def test_seed_override_changes_results(self, tmp_path):
        cfg_path = write_config(tmp_path, TINY_CONFIG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", cfg_path, "--out", str(out_a), "--seed", "1"])
        main(["simulate", "--config", cfg_path, "--out", str(out_b), "--seed", "2"])
        a = json.loads((out_a / "result.json").read_text())
        b = json.loads((out_b / "result.json").read_text())
        assert a["seeds"]["channel"] != b["seeds"]["channel"]

    def test_invalid_seed_exits_2(self, tmp_path, capsys):
        bad = dict(TINY_CONFIG, sounding=dict(TINY_CONFIG["sounding"], seed=0))
        rc = main(["simulate", "--config", write_config(tmp_path, bad)])
        assert rc == 2
        assert "sounding.seed" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["simulate"], ["sweep", "--nkappa-list", "80"]])
    def test_negative_seed_override_exits_2(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        rc = main([*command, "--config", write_config(tmp_path, TINY_CONFIG),
                   "--out", str(out), "--seed", "-1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "master_seed" in err and "--nkappa-list" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["simulate"], ["sweep", "--nkappa-list", "80"], ["overhead"]])
    @pytest.mark.parametrize("below", ["", "sub"])
    def test_output_naming_a_file_exits_2(self, tmp_path, capsys, command, below):
        taken = tmp_path / "taken"
        taken.write_text("keep me\n")
        rc = main([*command, "--config", write_config(tmp_path, TINY_CONFIG),
                   "--out", str(taken / below)])
        assert rc == 2
        assert "output" in capsys.readouterr().err
        assert taken.read_text() == "keep me\n"

    @pytest.mark.parametrize("command, name", [
        (["simulate"], "result.json"), (["sweep", "--nkappa-list", "80"], "sweep.csv"),
        (["overhead"], "overhead.json")])
    def test_unwritable_output_file_exits_2(self, tmp_path, capsys, command, name):
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        rc = main([*command, "--config", write_config(tmp_path, TINY_CONFIG),
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "output" in err and name in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag, bad, value, echoed", [
        ("--seed", {"master_seed": -3}, "4", ("master_seed", 4)),
        ("--out", {"output": "taken"}, "fresh", ("output", "fresh")),
        ("--algorithm", {"recovery": dict(TINY_CONFIG["recovery"], algorithm="bogus")},
         "omp", ("recovery", {**TINY_CONFIG["recovery"], "algorithm": "omp"})),
    ], ids=["seed", "out", "algorithm"])
    def test_override_replaces_invalid_file_value(self, tmp_path, monkeypatch,
                                                  flag, bad, value, echoed):
        monkeypatch.chdir(tmp_path)  # relative output paths land in tmp_path
        (tmp_path / "taken").write_text("keep me\n")
        cfg_path = write_config(tmp_path, {**TINY_CONFIG, "output": "out", **bad})
        assert main(["simulate", "--config", cfg_path, flag, value]) == 0
        out = tmp_path / (value if flag == "--out" else "out")
        key, expected = echoed
        assert json.loads((out / "result.json").read_text())["config"][key] == expected

    def test_algorithm_override(self, tmp_path):
        cfg_path = write_config(tmp_path, TINY_CONFIG)
        out = tmp_path / "omp"
        rc = main(["simulate", "--config", cfg_path, "--out", str(out),
                   "--algorithm", "omp"])
        assert rc == 0
        result = json.loads((out / "result.json").read_text())
        assert result["config"]["recovery"]["algorithm"] == "omp"

    def test_shipped_reference_config(self, tmp_path):
        import pathlib
        cfg_path = pathlib.Path(__file__).parent.parent / "configs" / "model_4x2.yaml"
        out = tmp_path / "ref"
        rc = main(["simulate", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        result = json.loads((out / "result.json").read_text())
        assert result["mse"] < 1e-3
        assert result["recovery"]["iterations"] <= 50
        assert result["kappa_realized"] <= 50

    def test_n_kappa_at_twice_kappa(self, tmp_path):
        # CoSaMP's merged support can exceed 2*kappa = n_kappa columns here
        import pathlib
        cfg_path = pathlib.Path(__file__).parent.parent / "configs" / "model_4x2.yaml"
        data = yaml.safe_load(cfg_path.read_text())
        data["sounding"]["n_kappa"] = 2 * data["recovery"]["kappa"]
        out = tmp_path / "out"
        rc = main(["simulate", "--config", write_config(tmp_path, data), "--out", str(out)])
        assert rc == 0
        assert json.loads((out / "result.json").read_text())["recovery"]["iterations"] >= 1


class TestSweepCommand:
    def test_rows_and_header(self, tmp_path):
        cfg_path = write_config(tmp_path, TINY_CONFIG)
        out = tmp_path / "out"
        rc = main(["sweep", "--config", cfg_path, "--out", str(out),
                   "--nkappa-list", "80,100"])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == SWEEP_CSV_HEADER
        assert len(lines) == 1 + 2 * TINY_CONFIG["trials"]
        first = lines[1].split(",")
        assert first[0] == "80" and first[1] == "0"
        assert all(line.split(",")[-1] in STOP_REASONS for line in lines[1:])

    def test_list_replaces_invalid_file_n_kappa(self, tmp_path):
        # the shipped 256-tone 2-rx config yields 512 estimates
        data = yaml.safe_load(SHIPPED_MODEL.read_text())
        data["sounding"]["n_kappa"] = 5000
        data["trials"] = 2
        out = tmp_path / "out"
        rc = main(["sweep", "--config", write_config(tmp_path, data), "--out", str(out),
                   "--nkappa-list", "160,200"])
        assert rc == 0
        rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
        assert [(row[0], row[1]) for row in rows] == [
            ("160", "0"), ("160", "1"), ("200", "0"), ("200", "1")]

    def test_failed_rows_leave_stop_reason_empty(self, tmp_path, monkeypatch):
        def degenerate(phi, y, cfg):
            raise sr.DegenerateSupport("rank-deficient support")

        monkeypatch.setattr(sr, "cosamp", degenerate)
        out = tmp_path / "out"
        rc = main(["sweep", "--config", write_config(tmp_path, TINY_CONFIG),
                   "--out", str(out), "--nkappa-list", "80"])
        assert rc == 0
        rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
        assert [(row[2], row[-1]) for row in rows] == [("nan", "")] * TINY_CONFIG["trials"]

    def test_median_recompute_from_csv(self, tmp_path):
        import statistics
        from cs_sounding import pipeline as pl
        cfg_path = write_config(tmp_path, TINY_CONFIG)
        out = tmp_path / "out"
        main(["sweep", "--config", cfg_path, "--out", str(out),
              "--nkappa-list", "80"])
        lines = (out / "sweep.csv").read_text().splitlines()[1:]
        csv_med = statistics.median(float(l.split(",")[2]) for l in lines)
        cfg, pdp = load_config(cfg_path)
        rows = pl.sweep_nkappa(cfg, [80], cfg.trials, pdp)
        direct_med = statistics.median(r["mse"] for r in rows)
        assert abs(csv_med - direct_med) <= 1e-15 * max(1.0, abs(direct_med))

    def test_empty_list_exits_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, TINY_CONFIG)
        rc = main(["sweep", "--config", cfg_path, "--nkappa-list", " "])
        assert rc == 2
        assert "nkappa-list" in capsys.readouterr().err

    @pytest.mark.parametrize("bad, reason", [
        ("600", "available"),  # the 64-tone 2-rx config yields 128 estimates
        ("30", "2*recovery.kappa"),  # below 2*kappa = 40
    ])
    def test_invalid_value_exits_2_before_any_work(self, tmp_path, capsys, bad, reason):
        cfg_path = write_config(tmp_path, TINY_CONFIG)
        out = tmp_path / "out"
        rc = main(["sweep", "--config", cfg_path, "--out", str(out),
                   "--nkappa-list", f"80,{bad}"])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"--nkappa-list: value {bad}" in err and reason in err
        assert "Traceback" not in err
        assert not (out / "sweep.csv").exists()


class TestOverheadCommand:
    def test_16x4_mu_report(self, tmp_path):
        data = dict(TINY_CONFIG,
                    dims={"n_dft": 256, "n_t": 16, "n_r": 4},
                    recovery=dict(TINY_CONFIG["recovery"], kappa=50),
                    sounding=dict(TINY_CONFIG["sounding"], n_kappa=200))
        out = tmp_path / "out"
        rc = main(["overhead", "--config", write_config(tmp_path, data),
                   "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "overhead.json").read_text())
        assert report["angle_bits_per_tone"]["MU"] == 864
        assert report["conventional"]["total_bits"] == 202_176
        assert report["conventional"]["airtime_us"] == 192.0
        assert report["proposed"]["airtime_us"] == 12.0
        assert report["proposed"]["total_bits"] == 200 * 2 * 10 + 32

    def test_integer_ltf_duration_gives_float_airtime(self, tmp_path):
        data = dict(TINY_CONFIG, feedback=dict(TINY_CONFIG["feedback"], ltf_duration_us=12))
        out = tmp_path / "out"
        assert main(["overhead", "--config", write_config(tmp_path, data),
                     "--out", str(out)]) == 0
        text = (out / "overhead.json").read_text()
        assert '"airtime_us": 24.0' in text and '"airtime_us": 24,' not in text


class TestSelfcheckCommand:
    def test_clean_build_passes(self, capsys):
        assert main(["selfcheck"]) == 0
        out = capsys.readouterr().out
        for name in ("p_matrix_orthogonality", "kron_path_consistency",
                     "givens_roundtrip", "angle_bits_table",
                     "allocation_partition", "operator_columns", "operator_gram", "gram_solve"):
            assert f"{name}: ok" in out

    def test_corrupted_p_matrix_fails(self, capsys, monkeypatch):
        built_in = snd.p_matrix

        def flipped(n):
            p = built_in(n).entries.copy()
            p[0, 0] = -p[0, 0]
            return snd.PMatrix(p)

        monkeypatch.setattr(snd, "p_matrix", flipped)
        assert main(["selfcheck"]) != 0
        assert "p_matrix_orthogonality: FAIL" in capsys.readouterr().out
