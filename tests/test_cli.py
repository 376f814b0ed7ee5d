"""Command-line interface: output contracts, exit codes, reproducibility."""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from uwauth import (
    AccuracyError,
    SweepSpec,
    authentication,
    baseline_scenario,
    cli,
    experiment,
    localization,
    quadform,
    roc_curve,
    run_sweep,
)
from uwauth.cli import main


ROOT = Path(__file__).resolve().parents[1]
FIXED_EVE = str(ROOT / "configs" / "fixed-eve.json")


def write_config(path, **overrides):
    cfg = {
        "region": {"width_m": 1000.0, "height_m": 1000.0},
        "anchors": [[0.0, 500.0], [-500.0, -500.0], [-500.0, 500.0]],
        "alice": [0.0, 0.0],
        "eve": [100.0, 100.0],
        "channel": {
            "frequency_khz": 10.0,
            "sound_speed_mps": 1500.0,
            "spreading_factor": 1.5,
            "signal_design_gain": 1.0e6,
        },
        "sweep": {
            "power_db": [40.0, 60.0, 10.0],
            "thresholds": {"h0_quantiles": [0.5, 0.9, 0.99],
                           "at_power_db": 50.0},
        },
        "trials": 500,
        "seed": 4242,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg, indent=1))
    return path


def run(args, capsys):
    rc = main(args)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_pathloss_reference_line(capsys):
    rc, out, _ = run(["pathloss", "-f", "10", "-d", "500", "-v", "1.5"], capsys)
    assert rc == 0
    assert out == "alpha=1.18703 dB/km, PL=41.0781 dB\n"


def test_pathloss_one_meter(capsys):
    rc, out, _ = run(["pathloss", "-f", "10", "-d", "1", "-v", "1.5"], capsys)
    assert rc == 0
    assert out == "alpha=1.18703 dB/km, PL=0.00118703 dB\n"


def test_pathloss_defaults(capsys):
    rc, out, _ = run(["pathloss"], capsys)
    assert rc == 0
    assert out == "alpha=1.18703 dB/km, PL=46.187 dB\n"


def test_pathloss_rejects_zero_frequency(capsys):
    rc, out, err = run(["pathloss", "-f", "0"], capsys)
    assert rc == 2
    assert out == ""
    assert "frequency must be positive" in err


def test_pathloss_rejects_an_overflowing_frequency(capsys):
    rc, out, err = run(["pathloss", "--frequency-khz", "1e200",
                        "--distance-m", "1000"], capsys)
    assert rc == 2
    assert out == ""
    assert err == "error: frequency is too large: absorption overflows\n"


@pytest.mark.parametrize("argv", [
    ["-f", "1e10", "-d", "1e300"],
    ["-v", "1e308", "-d", "1e300"],
], ids=["absorption", "spreading"])
def test_pathloss_rejects_a_pathloss_that_is_not_finite(argv, capsys):
    rc, out, err = run(["pathloss", *argv], capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: pathloss is not finite")


def test_localize_noiseless_recovers_the_claimed_position(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json")
    rc, out, _ = run(["localize", str(cfg), "--noise", "off"], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert set(payload) == {"x_m", "y_m", "consistency_gap_m2", "noise_std_m"}
    assert abs(payload["x_m"]) < 1e-9
    assert abs(payload["y_m"]) < 1e-9
    assert payload["consistency_gap_m2"] < 1e-6
    assert payload["noise_std_m"] == [0.0, 0.0, 0.0]


def test_localize_is_seed_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json")
    rc1, out1, _ = run(["localize", str(cfg), "--seed", "5"], capsys)
    rc2, out2, _ = run(["localize", str(cfg), "--seed", "5"], capsys)
    rc3, out3, _ = run(["localize", str(cfg), "--seed", "6"], capsys)
    assert rc1 == rc2 == rc3 == 0
    assert out1 == out2
    assert out1 != out3
    moved = json.loads(out3)
    assert abs(moved["x_m"]) > 1e-9 or abs(moved["y_m"]) > 1e-9


def test_localize_matches_the_recorded_output(capsys):
    # tests/data/fixed-eve-localize.json is `uwauth localize
    # configs/fixed-eve.json` as printed; it pins the seeded noise model
    # and the least-squares solve bit for bit.
    rc, out, _ = run(["localize", FIXED_EVE], capsys)
    assert rc == 0
    assert out == (ROOT / "tests" / "data" / "fixed-eve-localize.json"
                   ).read_text()


@pytest.mark.parametrize("command", ["pathloss", "localize", "roc"])
def test_readme_examples_print_what_the_readme_shows(command, capsys,
                                                     monkeypatch):
    # Each example is a `$ uwauth ...` line in a sh block of README.md
    # followed by its output. A "..." in a line stands for the rest of a
    # number, and a line that is "..." alone for the lines after it.
    readme = (ROOT / "README.md").read_text()
    (example,) = [block for block in re.findall(r"```sh\n(.*?)```", readme,
                                                re.S)
                  if block.startswith(f"$ uwauth {command} ")]
    argv, *shown = example.splitlines()
    monkeypatch.chdir(ROOT)
    rc, out, _ = run(argv.split()[2:], capsys)
    assert rc == 0
    printed = out.splitlines()
    if shown[-1] == "...":
        shown.pop()
        printed = printed[:len(shown)]
    assert len(printed) == len(shown), (printed, shown)
    for want, got in zip(shown, printed):
        pattern = r"\d*".join(map(re.escape, want.split("...")))
        assert re.fullmatch(pattern, got), (want, got)


def test_localize_rejects_malformed_json(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{"region": {,}')
    rc, out, err = run(["localize", str(bad)], capsys)
    assert rc == 2
    assert out == ""
    assert "config error" in err and "line" in err


def test_localize_rejects_unknown_field(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", typo_field=1)
    rc, _, err = run(["localize", str(cfg)], capsys)
    assert rc == 2
    assert "typo_field" in err


def test_localize_rejects_missing_section(tmp_path, capsys):
    cfg_path = tmp_path / "c.json"
    cfg = json.loads(write_config(cfg_path).read_text())
    del cfg["channel"]
    cfg_path.write_text(json.dumps(cfg))
    rc, _, err = run(["localize", str(cfg_path)], capsys)
    assert rc == 2
    assert "channel" in err


def test_localize_rejects_bad_value_with_field_path(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json")
    raw = json.loads(cfg.read_text())
    raw["channel"]["frequency_khz"] = "fast"
    cfg.write_text(json.dumps(raw))
    rc, _, err = run(["localize", str(cfg)], capsys)
    assert rc == 2
    assert "frequency_khz" in err


def test_localize_missing_file(tmp_path, capsys):
    rc, _, err = run(["localize", str(tmp_path / "nope.json")], capsys)
    assert rc == 2
    assert "config error" in err


def test_sweep_writes_deterministic_csv(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json")
    out1, out2, out3 = (tmp_path / n for n in ("a.csv", "b.csv", "w.csv"))
    assert run(["sweep", str(cfg), "--out", str(out1)], capsys)[0] == 0
    assert run(["sweep", str(cfg), "--out", str(out2)], capsys)[0] == 0
    rc, _, _ = run(["sweep", str(cfg), "--out", str(out3), "--workers", "4"],
                   capsys)
    assert rc == 0
    b1, b2, b3 = out1.read_bytes(), out2.read_bytes(), out3.read_bytes()
    assert b1 == b2 == b3
    lines = b1.decode().splitlines()
    assert lines[0] == ("power_db,threshold,p_fa_analytic,p_md_analytic,"
                        "p_fa_emp,p_md_emp,stderr_fa,stderr_md")
    assert len(lines) == 1 + 3 * 3  # three powers, three thresholds
    meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
    assert meta["seed"] == 4242
    assert meta["eve_mode"] == "fixed"
    assert meta["threshold_source"] == {
        "h0_quantiles": [0.5, 0.9, 0.99], "at_power_db": 50.0}
    assert len(meta["thresholds"]) == 3


def test_sweep_without_trials_leaves_empty_cells(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", trials=0,
                       sweep={"power_db": [50.0, 50.0, 5.0],
                              "thresholds": [1.0e5, 2.0e5]})
    out = tmp_path / "a.csv"
    assert run(["sweep", str(cfg), "--out", str(out)], capsys)[0] == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    for line in lines[1:]:
        assert line.endswith(",,,,")
        assert len(line.split(",")) == 8
    meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
    assert meta["threshold_source"] == {"explicit": [1.0e5, 2.0e5]}


def test_sweep_rejects_bad_power_grid(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json",
                       sweep={"power_db": [60.0, 40.0, 5.0],
                              "thresholds": [1.0e5]})
    rc, _, err = run(["sweep", str(cfg), "--out", str(tmp_path / "x.csv")],
                     capsys)
    assert rc == 2
    assert "power" in err


@pytest.mark.parametrize("power_db", [
    [0.0, 1e9, 1e-9],      # 1e18 powers
    [0.0, 100.0, 1e-300],  # 1e302 powers
    [0.0, 100.0, 5e-324],  # an infinite count
    [0.0, 1e5, 1.0],       # one power too many
])
def test_sweep_rejects_power_grids_over_100000_powers(tmp_path, capsys,
                                                      power_db):
    cfg = write_config(tmp_path / "c.json",
                       sweep={"power_db": power_db, "thresholds": [1.0e5]})
    out = tmp_path / "x.csv"
    rc, stdout, err = run(["sweep", str(cfg), "--out", str(out)], capsys)
    assert rc == 2
    assert stdout == ""
    assert err.startswith("config error:") and "sweep.power_db" in err
    assert not out.exists()


def test_power_grid_holds_up_to_100000_powers():
    grid = cli._power_grid({"sweep": {"power_db": [0.0, 99999.0, 1.0]}})
    assert grid.size == 100_000 and grid[-1] == 99999.0


@pytest.mark.parametrize("command, flags", [
    ("localize", ["--power", "4000"]),
    ("localize", ["--power", "-4000"]),
    ("roc", ["--power", "4000", "--points", "3"]),
    ("sweep", ["--out", "x.csv"]),
])
def test_transmit_powers_without_a_finite_variance_exit_2(
        tmp_path, capsys, monkeypatch, command, flags):
    # 10^400 overflows a float and 10^-400 underflows to 0, so the range
    # variance is zero or infinite. The sweep grid reaches 4000 dB.
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path / "c.json", trials=0,
                       sweep={"power_db": [0.0, 4000.0, 1000.0],
                              "thresholds": [1.0e5]})
    rc, stdout, err = run([command, str(cfg), *flags], capsys)
    assert rc == 2
    assert stdout == ""
    assert err.startswith("error:") and "variance" in err
    assert not (tmp_path / "x.csv").exists()


def test_localize_at_3000_db_prints_finite_json(tmp_path, capsys):
    def refuse(token):
        raise ValueError(token)

    cfg = write_config(tmp_path / "c.json")
    rc, out, _ = run(["localize", str(cfg), "--power", "3000"], capsys)
    assert rc == 0
    payload = json.loads(out, parse_constant=refuse)
    assert payload["x_m"] == pytest.approx(0.0, abs=1e-9)
    assert all(0.0 < s < 1e-140 for s in payload["noise_std_m"])


def test_sweep_rejects_nonpositive_workers(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", trials=0)
    out = tmp_path / "x.csv"
    rc, stdout, err = run(["sweep", str(cfg), "--out", str(out),
                           "--workers", "0"], capsys)
    assert rc == 2
    assert "workers" in err
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("command, field, literal", [
    ("localize", "channel.sound_speed_mps", "Infinity"),
    ("localize", "channel.spreading_factor", "Infinity"),
    ("roc", "sweep.power_db.1", "Infinity"),
    ("sweep", "region.width_m", "Infinity"),
    ("localize", "channel.signal_design_gain", "NaN"),
    ("sweep", "region.height_m", "1e999"),
])
def test_non_finite_config_numbers_exit_2(tmp_path, capsys, command, field,
                                          literal):
    # json reads these literals as non-finite floats, which the schema's
    # "number" accepts; the loader must refuse them.
    rc, out, err = run_with_literal(tmp_path, capsys, command, field, literal)
    assert rc == 2
    assert out == ""
    assert err.startswith("config error:") and literal in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command, field", [
    ("localize", "channel.sound_speed_mps"),
    ("roc", "sweep.power_db.1"),
    ("sweep", "trials"),
])
def test_integers_too_large_for_a_float_exit_2(tmp_path, capsys, command,
                                               field):
    rc, out, err = run_with_literal(tmp_path, capsys, command, field,
                                    "1" + "0" * 400)
    assert rc == 2
    assert out == ""
    assert err.startswith("config error:")
    assert f"field {field.replace('.', '/')}: integer is too large" in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("literal", [str(10 ** 30), "10000001"])
def test_trials_over_ten_million_exit_2(tmp_path, capsys, literal):
    rc, out, err = run_with_literal(tmp_path, capsys, "sweep", "trials",
                                    literal)
    assert rc == 2
    assert out == ""
    assert err.startswith("config error:") and "field trials:" in err
    assert not (tmp_path / "x.csv").exists()


def run_with_literal(tmp_path, capsys, command, field, literal):
    """Run command on the test config with the dotted field set to the raw
    JSON literal."""
    path = write_config(tmp_path / "c.json")
    cfg = json.loads(path.read_text())
    *parents, key = field.split(".")
    node = cfg
    for name in parents:
        node = node[name]
    node[int(key) if key.isdigit() else key] = "LITERAL"
    path.write_text(json.dumps(cfg).replace('"LITERAL"', literal))
    argv = [command, str(path)]
    if command == "sweep":
        argv += ["--out", str(tmp_path / "x.csv")]
    return run(argv, capsys)


def test_seeds_of_any_size_are_accepted(tmp_path, capsys):
    path = write_config(tmp_path / "c.json", seed=10 ** 400, trials=10)
    rc, out, _ = run(["localize", str(path)], capsys)
    assert rc == 0 and "x_m" in json.loads(out)
    csv = tmp_path / "x.csv"
    rc, _, _ = run(["sweep", str(path), "--out", str(csv)], capsys)
    assert rc == 0
    meta = json.loads((tmp_path / "x.csv.meta.json").read_text())
    assert meta["seed"] == 10 ** 400


MISSING = object()

# (command, {dotted field: new value or MISSING}, exit code, the field as
# the diagnostic names it). Accepted rows run localize, which reads the
# whole config.
READER_ROWS = [
    # Each required key, missing at each level.
    *[("localize", {key: MISSING}, 2, key)
      for key in ("region", "anchors", "alice", "eve", "channel", "sweep",
                  "trials", "seed")],
    ("localize", {"region.height_m": MISSING}, 2, "region/height_m"),
    ("localize", {"channel.spreading_factor": MISSING}, 2,
     "channel/spreading_factor"),
    ("localize", {"sweep.power_db": MISSING}, 2, "sweep/power_db"),
    ("localize", {"sweep.thresholds": MISSING}, 2, "sweep/thresholds"),
    ("localize", {"sweep.thresholds.h0_quantiles": MISSING}, 2,
     "sweep/thresholds/h0_quantiles"),
    # An unknown key at each level.
    ("localize", {"extra": 1}, 2, "extra"),
    ("localize", {"region.depth_m": 1.0}, 2, "region/depth_m"),
    ("localize", {"channel.extra": 1.0}, 2, "channel/extra"),
    ("localize", {"sweep.extra": 1.0}, 2, "sweep/extra"),
    ("localize", {"sweep.thresholds.extra": 1.0}, 2,
     "sweep/thresholds/extra"),
    # Wrong types.
    ("localize", {"": []}, 2, "(top level)"),
    ("localize", {"region": [1000.0, 1000.0]}, 2, "region"),
    ("localize", {"channel.frequency_khz": True}, 2, "channel/frequency_khz"),
    ("localize", {"channel.sound_speed_mps": "fast"}, 2,
     "channel/sound_speed_mps"),
    ("localize", {"channel.signal_design_gain": None}, 2,
     "channel/signal_design_gain"),
    ("localize", {"anchors": "triangle"}, 2, "anchors"),
    ("localize", {"anchors.2": [0.0]}, 2, "anchors/2"),
    ("localize", {"anchors.1.0": False}, 2, "anchors/1/0"),
    ("localize", {"alice": [0.0, 0.0, 0.0]}, 2, "alice"),
    ("localize", {"eve": "random"}, 2, "eve"),
    ("localize", {"eve": {"x": 1.0}}, 2, "eve"),
    ("localize", {"eve.1": "a"}, 2, "eve/1"),
    ("localize", {"sweep.power_db": [40.0, 60.0]}, 2, "sweep/power_db"),
    ("localize", {"sweep.power_db.2": "10"}, 2, "sweep/power_db/2"),
    ("localize", {"sweep.thresholds": "auto"}, 2, "sweep/thresholds"),
    ("localize", {"sweep.thresholds.at_power_db": "50"}, 2,
     "sweep/thresholds/at_power_db"),
    ("localize", {"trials": True}, 2, "trials"),
    ("localize", {"seed": True}, 2, "seed"),
    # Bound edges.
    ("localize", {"region.width_m": 0}, 2, "region/width_m"),
    ("localize", {"region.height_m": -1.0}, 2, "region/height_m"),
    ("localize", {"region.width_m": 1e-300, "eve": "uniform"}, 0, None),
    ("localize", {"anchors": [[0.0, 500.0], [-500.0, -500.0]]}, 2, "anchors"),
    ("localize", {"sweep.thresholds.h0_quantiles": [0.5, 0]}, 2,
     "sweep/thresholds/h0_quantiles/1"),
    ("localize", {"sweep.thresholds.h0_quantiles": [1]}, 2,
     "sweep/thresholds/h0_quantiles/0"),
    ("localize", {"sweep.thresholds.h0_quantiles": []}, 2,
     "sweep/thresholds/h0_quantiles"),
    ("localize", {"sweep.thresholds.h0_quantiles": [1e-300, 1 - 1e-16]}, 0,
     None),
    ("localize", {"sweep.thresholds": [1.0e5, -1.0]}, 2, "sweep/thresholds/1"),
    ("localize", {"sweep.thresholds": []}, 2, "sweep/thresholds"),
    ("localize", {"sweep.thresholds": [0, 1.0e5]}, 0, None),
    ("localize", {"sweep.thresholds": {"h0_quantiles": [0.9]}}, 0, None),
    ("localize", {"trials": 10_000_000}, 0, None),
    ("localize", {"trials": 10_000_001}, 2, "trials"),
    ("localize", {"trials": -1}, 2, "trials"),
    ("localize", {"trials": 0, "seed": 0}, 0, None),
    ("localize", {"sweep.analytic_eve_count": 0}, 2,
     "sweep/analytic_eve_count"),
    ("localize", {"sweep.analytic_eve_count": 1}, 0, None),
    ("localize", {"sweep.analytic_eve_count": 100_000}, 0, None),
    ("localize", {"sweep.analytic_eve_count": 100_001}, 2,
     "sweep/analytic_eve_count"),
    ("sweep", {"eve": "uniform", "sweep.analytic_eve_count": 10 ** 19}, 2,
     "sweep/analytic_eve_count"),
    # Integer fields take integer literals only; the seed is nonnegative.
    ("sweep", {"trials": 20.0}, 2, "trials"),
    ("localize", {"seed": 5.0}, 2, "seed"),
    ("sweep", {"eve": "uniform", "sweep.analytic_eve_count": 9.0}, 2,
     "sweep/analytic_eve_count"),
    ("localize", {"seed": -5}, 2, "seed"),
    ("sweep", {"seed": -5}, 2, "seed"),
]


@pytest.mark.parametrize(
    "command, changes, code, field", READER_ROWS,
    ids=[command + "-" + ",".join(
        f"{key or 'config'}=" + ("missing" if value is MISSING
                                 else json.dumps(value))
        for key, value in changes.items())
        for command, changes, _, _ in READER_ROWS])
def test_config_reader_names_the_offending_field(tmp_path, capsys, command,
                                                 changes, code, field):
    path = write_config(tmp_path / "c.json")
    cfg = json.loads(path.read_text())
    for dotted, value in changes.items():
        if not dotted:
            cfg = value
            continue
        *parents, key = dotted.split(".")
        node = cfg
        for name in parents:
            node = node[int(name) if name.isdigit() else name]
        key = int(key) if key.isdigit() else key
        if value is MISSING:
            del node[key]
        else:
            node[key] = value
    path.write_text(json.dumps(cfg))
    out = tmp_path / "x.csv"
    argv = [command, str(path)]
    if command == "sweep":
        argv += ["--out", str(out)]
    rc, stdout, err = run(argv, capsys)
    assert rc == code, err
    if code == 2:
        assert stdout == ""
        assert err.startswith("config error:") and err.count("\n") == 1
        assert f"field {field}:" in err
        assert not out.exists()


def test_negative_seed_flag_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json")
    rc, out, err = run(["localize", str(cfg), "--seed", "-1"], capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "--seed" in err


def test_sweep_to_an_unwritable_path_exits_2(tmp_path, capsys, monkeypatch):
    # A directory that is missing or a file is refused before the sweep.
    def refuse(*args, **kwargs):
        pytest.fail("run_sweep ran although --out cannot be written")

    monkeypatch.setattr(cli, "run_sweep", refuse)
    cfg = write_config(tmp_path / "c.json", trials=0)
    (tmp_path / "file.txt").write_text("")
    for parent in ("missing", "file.txt"):
        out = tmp_path / parent / "x.csv"
        rc, stdout, err = run(["sweep", str(cfg), "--out", str(out)], capsys)
        assert rc == 2
        assert stdout == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(out) in err
    assert not (tmp_path / "missing").exists()
    assert (tmp_path / "file.txt").read_text() == ""


def test_integer_literal_over_the_digit_limit_exits_2(tmp_path, capsys):
    # Python's int() refuses literals over 4300 digits by default.
    rc, out, err = run_with_literal(tmp_path, capsys, "localize", "seed",
                                    "7" * 5000)
    assert rc == 2
    assert out == ""
    assert err.startswith("config error:") and "digits" in err


def test_accuracy_failure_exits_3_with_its_error_figures(tmp_path, capsys,
                                                         monkeypatch):
    def fail(*args):
        raise AccuracyError("inversion failed", achieved=2.5e-06,
                            target=1e-07)

    monkeypatch.setattr(quadform, "_euler_cdf", fail)
    cfg = write_config(tmp_path / "c.json")
    rc, stdout, err = run(["roc", str(cfg), "--points", "5"], capsys)
    assert rc == 3
    assert stdout == ""
    assert "accuracy failure" in err
    assert "2.5e-06" in err and "1e-07" in err


def test_roc_matches_library_exactly(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json",
                       channel={"frequency_khz": 10.0,
                                "sound_speed_mps": 1500.0,
                                "spreading_factor": 1.5,
                                "signal_design_gain": 1.0})
    rc, out, _ = run(["roc", str(cfg), "--power", "50", "--points", "21"],
                     capsys)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "p_fa,p_d"
    assert len(lines) == 22
    scen = baseline_scenario(signal_design_gain=1.0)
    fa, pd = roc_curve(scen, points=21)
    for line, f, p in zip(lines[1:], fa, pd):
        assert line == f"{float(f)!r},{float(p)!r}"


def test_roc_two_point_extremes(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json")
    rc, out, _ = run(["roc", str(cfg), "--points", "2"], capsys)
    assert rc == 0
    rows = [tuple(map(float, l.split(","))) for l in out.splitlines()[1:]]
    assert rows[0][0] < 1e-5
    assert rows[1][0] > 1 - 1e-5 and rows[1][1] > 1 - 1e-5


def test_roc_diagonal_when_impersonator_sits_on_the_claim(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", eve=[0.0, 0.0],
                       channel={"frequency_khz": 10.0,
                                "sound_speed_mps": 1500.0,
                                "spreading_factor": 1.5,
                                "signal_design_gain": 1.0})
    rc, out, _ = run(["roc", str(cfg), "--points", "11"], capsys)
    assert rc == 0
    for line in out.splitlines()[1:]:
        fa, pd = map(float, line.split(","))
        assert pd == pytest.approx(fa, abs=1e-6)


def test_roc_rejects_too_many_points(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json")
    points = str(experiment.MAX_ROC_POINTS + 1)
    rc, out, err = run(["roc", str(cfg), "--points", points], capsys)
    assert rc == 2
    assert out == ""
    assert str(experiment.MAX_ROC_POINTS) in err


def test_roc_requires_a_fixed_impersonator(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", eve="uniform")
    rc, _, err = run(["roc", str(cfg)], capsys)
    assert rc == 2
    assert "eve" in err


def test_uniform_eve_config_is_valid_for_sweep(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", eve="uniform", trials=200)
    out = tmp_path / "u.csv"
    rc, _, _ = run(["sweep", str(cfg), "--out", str(out)], capsys)
    assert rc == 0
    meta = json.loads((tmp_path / "u.csv.meta.json").read_text())
    assert meta["eve_mode"] == "uniform"


def test_sweep_passes_the_configured_analytic_eve_count(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", eve="uniform", trials=0,
                       sweep={"power_db": [40.0, 60.0, 10.0],
                              "thresholds": [1.0e5, 2.0e5],
                              "analytic_eve_count": 9})
    out = tmp_path / "u.csv"
    assert run(["sweep", str(cfg), "--out", str(out)], capsys)[0] == 0
    spec = SweepSpec(scenario=baseline_scenario(eve=None),
                     power_grid_db=[40.0, 50.0, 60.0],
                     thresholds=[1.0e5, 2.0e5], analytic_eve_count=9)
    rows = run_sweep(spec)
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + len(rows)
    for line, row in zip(lines[1:], rows):
        assert line == ",".join([repr(row.power_db), repr(row.threshold),
                                 repr(row.p_fa_analytic),
                                 repr(row.p_md_analytic), "", "", "", ""])
    meta = json.loads((tmp_path / "u.csv.meta.json").read_text())
    assert meta["analytic_eve_count"] == 9


def test_forms_beyond_the_float_range_exit_2(tmp_path, capsys):
    # Ranging noise so large that the statistic's scales square past the
    # largest double; RuntimeWarnings fail the suite, so none may occur.
    cfg = write_config(
        tmp_path / "c.json", trials=0,
        anchors=[[0.0, 1e8], [-1e8, -1e8], [-1e8, 1e8]],
        channel={"frequency_khz": 1e-6, "sound_speed_mps": 1500.0,
                 "spreading_factor": 1.5, "signal_design_gain": 1e-235},
        sweep={"power_db": [0.0, 0.0, 5.0], "thresholds": [1.0, 1e300]})
    for args in (["sweep", str(cfg), "--out", str(tmp_path / "x.csv")],
                 ["roc", str(cfg)]):
        rc, out, err = run(args, capsys)
        assert rc == 2
        assert out == ""
        assert "overflows a double" in err


def _assert_matches_recorded(text, name, analytic):
    """CSV text against tests/data/name: analytic columns (indices) equal
    where either side is exactly 0.0 or 1.0 and within 1e-12 elsewhere;
    every other cell, thresholds and Monte Carlo rates included, equal."""
    expected = (ROOT / "tests" / "data" / name).read_text().splitlines()
    got = text.splitlines()
    assert got[0] == expected[0] and len(got) == len(expected)
    for line, ref in zip(got[1:], expected[1:]):
        cells, ref_cells = line.split(","), ref.split(",")
        assert len(cells) == len(ref_cells)
        for j, (cell, want) in enumerate(zip(cells, ref_cells)):
            if j in analytic and not {float(cell), float(want)} & {0.0, 1.0}:
                assert abs(float(cell) - float(want)) <= 1e-12, (line, ref)
            else:
                assert cell == want, (line, ref)


def test_shipped_outputs_match_recorded_files(tmp_path, capsys):
    # Recorded from the fixed-Eve config with quantiles found by Newton
    # steps in log x between the saddle-curve points; a change that keeps
    # the numerical method must keep every certified 0 and 1 and move
    # inverted values by rounding only.
    out = tmp_path / "fixed.csv"
    rc, _, _ = run(["sweep", FIXED_EVE, "--out", str(out)], capsys)
    assert rc == 0
    _assert_matches_recorded(out.read_text(), "fixed-eve-sweep.csv", (2, 3))
    rc, stdout, _ = run(["roc", FIXED_EVE, "--points", "101"], capsys)
    assert rc == 0
    _assert_matches_recorded(stdout, "fixed-eve-roc-101.csv", (0, 1))
    # The uniform-Eve sweep of the baseline config, Monte Carlo columns
    # exact: batching the simulation over grid powers draws the same
    # stream at every power.
    out = tmp_path / "baseline.csv"
    rc, _, _ = run(["sweep", str(ROOT / "configs" / "baseline.json"),
                    "--out", str(out)], capsys)
    assert rc == 0
    _assert_matches_recorded(out.read_text(), "baseline-sweep.csv", (2, 3))


def test_main_calls_in_one_process_carry_no_state(tmp_path, capsys,
                                                  monkeypatch):
    # main keeps its parser between calls; usage errors, --help and other
    # commands in between must not change what a later call prints.
    data = ROOT / "tests" / "data"
    roc = ["roc", FIXED_EVE, "--points", "101"]
    expected_roc = (data / "fixed-eve-roc-101.csv").read_bytes()
    rc, first, _ = run(roc, capsys)
    assert rc == 0 and first.encode() == expected_roc
    with pytest.raises(SystemExit) as exc:
        main(["sweep", FIXED_EVE])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["roc", "--help"])
    assert exc.value.code == 0
    capsys.readouterr()
    out = tmp_path / "fixed.csv"
    rc, _, _ = run(["sweep", FIXED_EVE, "--out", str(out)], capsys)
    assert rc == 0
    assert out.read_bytes() == (data / "fixed-eve-sweep.csv").read_bytes()
    rc, second, _ = run(roc, capsys)
    assert rc == 0 and second.encode() == expected_roc

    # The sweep handler finds run_sweep when it runs, so a stand-in set
    # after the parser was built is the one called.
    calls = []

    def stand_in(spec, *, workers):
        calls.append(workers)
        return []

    monkeypatch.setattr(cli, "run_sweep", stand_in)
    rc, _, _ = run(["sweep", FIXED_EVE, "--out", str(out), "--workers", "2"],
                   capsys)
    assert rc == 0 and calls == [2]
    assert out.read_text().count("\n") == 1


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "uwauth.cli", "pathloss", "-d", "500"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "alpha=1.18703 dB/km, PL=41.0781 dB\n"


def test_closed_stdout_exits_1_without_a_message():
    # A reader that stops early, as `uwauth roc ... | head -1` does, is
    # not bad input: the command exits 1, as Python does on a broken pipe,
    # with nothing on stderr. Its pipe's read end is closed before the
    # command starts, so the first write fails whatever the output's size.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "uwauth.cli", "roc", FIXED_EVE,
             "--points", "11"],
            stdout=write_end, stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


def test_benchmark_trace_hooks_find_their_attributes():
    # The benchmark's trace mode wraps uwauth's entry points at the module
    # and class attributes named in perfbench/spans.py; a refactor that
    # drops one of them makes install raise KeyError.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    owners = (authentication, cli, experiment, localization,
              quadform.QuadFormDist)
    saved = [(owner, dict(vars(owner))) for owner in owners]
    try:
        spans.uninstall(spans.install(spans.Recorder()))
    finally:
        # A partial install leaves wrappers behind; put the originals back.
        for owner, attrs in saved:
            for name, value in attrs.items():
                if vars(owner).get(name) is not value:
                    setattr(owner, name, value)
