import contextlib
import csv
import hashlib
import io
import json
import subprocess
import sys
import tempfile
import warnings
from unittest import mock
from concurrent.futures import Future
from pathlib import Path
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwesim import experiment
from pwesim.cli import (_DEVIATION_ROW, ConfigError, _csv_row, config_from_raw, main,
                        parse_config_text)
from pwesim.experiment import (MAX_M_SIDE, MAX_RIS_UNITS, MAX_TRIALS, ExperimentConfig,
                               build_scene, fit_models)
from pwesim.geometry import unit
from pwesim.routing import WavefrontSpec, get_routes
from pwesim.scene import build_graph

from oracles import read_phi_dictreader
from test_experiment import InlinePool

SMALL_CONFIG = """\
# quick smoke sweep
d_r_values = [0.5]
m_sides = [2]
n_trials = 4
seed = 11
"""

GOLDEN_SMALL_SWEEP = {
    "deviations.csv": "827d73bba75a3d5add2643457b874f00172ff710583fdd6dd357cd6fbaeb3c47",
    "fits.csv": "9e0072d83c08c690a70636a51d632037f4c6d594316957a2b9b5a803b6cb4f33",
    "histograms.csv": "08a1237fdebf7e9308538792d6efa4a4a60e02d31452cd3a4176c275a1a8c58f",
}


def write_config(tmp_path, text=SMALL_CONFIG, name="cfg.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def bom_copy(path):
    """A copy of `path` beside it, led by a UTF-8 byte-order mark (as
    spreadsheet exports and some editors save text)."""
    copy = path.with_name("bom_" + path.name)
    copy.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    return copy


class TestConfigParsing:
    def test_round_trip(self):
        raw = parse_config_text(SMALL_CONFIG)
        cfg = config_from_raw(raw)
        assert cfg.d_r_values == (0.5,)
        assert cfg.m_sides == (2,)
        assert cfg.n_trials == 4
        assert cfg.seed == 11

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key 'dr_values'"):
            parse_config_text("dr_values = [0.5]")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate key 'seed'"):
            parse_config_text("seed = 1\nseed = 2")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="'seed'"):
            parse_config_text("seed = one")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("just some words")

    def test_comments_and_blanks(self):
        raw = parse_config_text("\n# comment only\nseed = 3  # trailing\n")
        assert raw == {"seed": 3}

    def test_position_length(self):
        with pytest.raises(ConfigError, match="tx_position"):
            config_from_raw({"tx_position": [1.0, 2.0]})

    def test_seed_override(self):
        cfg = config_from_raw({"seed": 4}, seed_override=9)
        assert cfg.seed == 9

    def test_invalid_values_name_key(self):
        with pytest.raises(ConfigError, match="d_r_values"):
            config_from_raw({"d_r_values": [-1.0]})

    def test_integer_valued_float_accepted(self):
        assert config_from_raw({"n_trials": 3.0, "m_sides": [2.0]}).n_trials == 3

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from(["d_r_values", "m_sides", "n_trials", "seed", "n_bins",
                         "room_length", "door_width", "tx_position", "bogus", ""]),
        st.recursive(st.none() | st.booleans() | st.text(max_size=4)
                     | st.integers(-10**400, 10**400) | st.floats(),
                     lambda inner: st.lists(inner, max_size=4), max_leaves=6)
        .map(lambda v: json.dumps(v)) | st.text(max_size=12)),
        max_size=4))
    def test_any_text_parses_or_config_error(self, entries):
        text = "\n".join(f"{key} = {value}" for key, value in entries)
        try:
            cfg = config_from_raw(parse_config_text(text))
        except ConfigError:
            return
        assert isinstance(cfg, ExperimentConfig)


def assert_one_line_error(capsys, *words):
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    for word in words:
        assert word in err
    return err


class TestConfigBoundary:
    """Each malformed value exits 1 with one line naming the key."""

    @pytest.mark.parametrize("text, key", [
        ("seed = -1\n", "seed"),
        ("room_length = NaN\n", "room_length"),
        ("d_r_values = [0.5, Infinity]\n", "d_r_values"),
        ("n_trials = 2.7\n", "n_trials"),
        ("n_trials = true\n", "n_trials"),
        ("m_sides = [2, true]\n", "m_sides"),
        ("room_height = -3\n", "room_height"),
    ], ids=["negative_seed", "nan", "infinity", "fractional_int", "bool",
            "bool_in_list", "negative_room"])
    def test_bad_value_exit_1(self, tmp_path, capsys, text, key):
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        assert_one_line_error(capsys, key)
        assert not out.exists()

    @pytest.mark.parametrize("text, key", [
        ("room_length = 1" + "0" * 400 + "\n", "room_length"),
        ("n_trials = 1" + "0" * 400 + "\n", "n_trials"),
        ("d_r_values = [0.5, 1" + "0" * 400 + "]\n", "d_r_values"),
        ("seed = 1" + "0" * 5000 + "\n", "seed"),
    ], ids=["float_key", "int_key", "list_entry", "past_int_digit_limit"])
    def test_number_past_float_range_exit_1(self, tmp_path, capsys, text, key):
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        assert_one_line_error(capsys, key)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sweep", "route"])
    @pytest.mark.parametrize("key", ["d_r_values", "m_sides"])
    def test_empty_sweep_list_exit_1(self, tmp_path, capsys, command, key):
        cfg = write_config(tmp_path, f"{key} = []\n")
        out = tmp_path / "out"
        extra = ["--spec", str(write_config(tmp_path, "[]", "spec.json"))] \
            if command == "route" else []
        assert main([command, "--config", str(cfg), "--out", str(out)] + extra) == 1
        assert_one_line_error(capsys, key)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sweep", "route"])
    @pytest.mark.parametrize("text, key", [
        ("ris_margin = -0.5\n", "ris_margin"),
        ("door_width = -1.2\n", "door_width"),
        ("door_height = -0.1\n", "door_height"),
        ("rx_spacing = 0\n", "rx_spacing"),
        ("rx_spacing = -0.05\n", "rx_spacing"),
    ], ids=["margin", "door_width", "door_height", "zero_spacing", "negative_spacing"])
    def test_negative_scene_size_exit_1(self, tmp_path, capsys, command, text, key):
        cfg = write_config(tmp_path, SMALL_CONFIG + text)
        out = tmp_path / "out"
        extra = ["--spec", str(write_config(tmp_path, "[]", "spec.json"))] \
            if command == "route" else []
        assert main([command, "--config", str(cfg), "--out", str(out)] + extra) == 1
        assert_one_line_error(capsys, key)
        assert not out.exists()

    def test_zero_scene_sizes_accepted(self):
        # no margin and a zero-size doorway (a closed divider) are valid scenes
        cfg = config_from_raw({"ris_margin": 0, "door_width": 0, "door_height": 0})
        assert (cfg.scene.ris_margin, cfg.scene.door_width, cfg.scene.door_height) == (0, 0, 0)

    @pytest.mark.parametrize("command", ["sweep", "route"])
    def test_config_not_utf8_exit_1(self, tmp_path, capsys, command):
        cfg = tmp_path / "cfg.txt"
        cfg.write_bytes(b"seed = \xff\n")
        extra = ["--spec", str(write_config(tmp_path, "[]", "spec.json"))] \
            if command == "route" else []
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]
                    + extra) == 1
        assert_one_line_error(capsys, "cannot read config")

    def test_config_with_bom_sweeps_as_without(self, tmp_path):
        cfg = write_config(tmp_path, "d_r_values = [0.5]\nm_sides = [2]\nn_trials = 4\n")
        tables = []
        for path in (cfg, bom_copy(cfg)):
            out = tmp_path / f"out_{path.stem}"
            assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
            tables.append([(out / name).read_bytes()
                           for name in ("deviations.csv", "fits.csv", "histograms.csv")])
        assert tables[0] == tables[1]

    def test_value_nested_too_deep_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "seed = " + "[" * 100_000 + "]" * 100_000 + "\n")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert_one_line_error(capsys, "seed")

    def test_unparseable_value_echo_cut(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "seed = " + "[" * 100_000 + "]" * 100_000 + "\n")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = assert_one_line_error(capsys, "seed", "unparseable value")
        assert len(err) < 200

    def test_negative_seed_flag_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--seed", "-1"]) == 1
        assert_one_line_error(capsys, "seed")

    @pytest.mark.parametrize("raw, key", [
        ({"n_trials": 10**300}, "n_trials"),
        ({"n_trials": 1_000_001}, "n_trials"),
        ({"m_sides": [4, 10**15]}, "m_sides"),
        ({"m_sides": [65]}, "m_sides"),
        ({"n_bins": 10**11}, "n_bins"),
        ({"n_bins": 10_001}, "n_bins"),
    ], ids=["huge_trials", "trials", "huge_m", "m", "huge_bins", "bins"])
    def test_value_past_bound_rejected(self, raw, key):
        with pytest.raises(ConfigError, match=key):
            config_from_raw(raw)

    def test_values_at_bounds_accepted(self):
        cfg = config_from_raw({"n_trials": 1_000_000, "m_sides": [1, 64], "n_bins": 10_000})
        assert (cfg.n_trials, cfg.m_sides, cfg.n_bins) == (1_000_000, (1, 64), 10_000)

    @pytest.mark.parametrize("text, key", [
        ("n_trials = 1000001\n", "n_trials"),
        ("m_sides = [1000000000000000]\n", "m_sides"),
        ("n_bins = 100000000000\n", "n_bins"),
    ], ids=["n_trials", "m_sides", "n_bins"])
    def test_value_past_bound_exit_1_before_any_cell(self, tmp_path, capsys, monkeypatch,
                                                     text, key):
        def no_cells(config, threads):
            raise AssertionError("a sweep cell ran")

        monkeypatch.setattr("pwesim.cli.run_sweep", no_cells)
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        assert_one_line_error(capsys, key)
        assert not out.exists()


class BrokenPool(InlinePool):
    """InlinePool that breaks after the first submitted cell, as a pool does
    when a worker process is killed: later futures raise BrokenProcessPool,
    or with on_submit, later submits do."""

    def __init__(self, pools, max_workers, mp_context, on_submit=False):
        super().__init__(pools, max_workers, mp_context)
        self.on_submit = on_submit

    def submit(self, fn, config, d_r, m_side):
        if not self.cells:
            return super().submit(fn, config, d_r, m_side)
        if self.on_submit:
            raise BrokenProcessPool("a process in the pool was terminated")
        self.cells.append((m_side, d_r))
        future = Future()
        future.set_exception(BrokenProcessPool("a process in the pool was terminated"))
        return future


class TestSweepCommand:
    def test_writes_all_outputs(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("deviations.csv", "fits.csv", "histograms.csv",
                     "manifest.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 11
        for name, digest in manifest["files"].items():
            assert digest == hashlib.sha256((out / name).read_bytes()).hexdigest()

    def test_failed_rerun_leaves_no_manifest(self, tmp_path, capsys):
        # a rerun into the same directory that fails partway must not leave
        # the previous run's manifest beside the new CSVs
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        (out / "histograms.csv").unlink()
        (out / "histograms.csv").mkdir()
        assert main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--seed", "1"]) == 3
        assert_one_line_error(capsys, "histograms.csv")
        assert not (out / "manifest.json").exists()

    def test_bad_config_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "d_r_values = [-1.0]\n")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        assert "d_r_values" in capsys.readouterr().err

    def test_scene_fault_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, "d_r_values = [50.0]\nm_sides = [2]\n"
                                     "n_trials = 2\n")
        assert main(["sweep", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2

    @staticmethod
    def run_2x2(tmp_path, command, d_r):
        """Exit code of `command` on one cell of side d_r and M = 2."""
        cfg = write_config(tmp_path, f"d_r_values = [{d_r}]\nm_sides = [2]\n"
                                     "n_trials = 2\n")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps([[-1.0, 0.0, 0.0]] * 4))
        args = {"sweep": ["--out", str(tmp_path / "out")],
                "route": ["--spec", str(spec), "--out", str(tmp_path / "r.json")]}
        return main([command, "--config", str(cfg), *args[command]])

    @pytest.mark.parametrize("command", ["sweep", "route"])
    def test_too_many_ris_units_exit_2(self, tmp_path, capsys, monkeypatch,
                                       command):
        # d_r = 0.001 would tile ~1.5e8 units; the bound stops it before any
        # wall is tiled
        def no_tiling(*args, **kwargs):
            raise AssertionError("tile_wall called past the unit bound")
        monkeypatch.setattr(experiment, "tile_wall", no_tiling)
        assert self.run_2x2(tmp_path, command, 0.001) == 2
        assert_one_line_error(capsys, "d_r=0.001, M=2", "RIS units")

    @pytest.mark.parametrize("command", ["sweep", "route"])
    def test_too_many_antenna_ris_pairs_exit_2(self, tmp_path, capsys, monkeypatch,
                                               command):
        # 4 antennas x 620 grid cells of side 0.5 pass a bound of 1,000
        # pairs; no wall is tiled and no visibility row computed
        def unreached(*args, **kwargs):
            raise AssertionError("reached past the pair bound")
        monkeypatch.setattr(experiment, "MAX_ANTENNA_RIS_PAIRS", 1000)
        monkeypatch.setattr(experiment, "tile_wall", unreached)
        monkeypatch.setattr("pwesim.scene.segments_clear_batch", unreached)
        assert self.run_2x2(tmp_path, command, 0.5) == 2
        assert_one_line_error(capsys, "d_r=0.5, M=2", "4 antennas x 620 RIS units",
                              "more than 1000 visibility pairs")

    @pytest.mark.parametrize("command", ["sweep", "route"])
    @pytest.mark.parametrize("text, cell", [
        ("m_sides = [33]\n", "M=33"),
        ("m_sides = [1]\nrx_position = [10.0, 0.25, 0.25]\n", "M=1"),
        ("m_sides = [1]\nrx_position = [1e6, 1e6, 1e6]\n", "M=1"),
    ], ids=["m33", "on_far_wall", "outside"])
    def test_array_outside_room_2_exit_2(self, tmp_path, capsys, monkeypatch, command,
                                         text, cell):
        def no_tiling(*args, **kwargs):
            raise AssertionError("tile_wall called for an array outside room 2")
        monkeypatch.setattr(experiment, "tile_wall", no_tiling)
        cfg = write_config(tmp_path, "d_r_values = [0.5]\nn_trials = 1\n" + text)
        spec = write_config(tmp_path, "[]", "spec.json")
        out = tmp_path / "out"
        args = {"sweep": [], "route": ["--spec", str(spec)]}
        assert main([command, "--config", str(cfg), "--out", str(out), *args[command]]) == 2
        assert_one_line_error(capsys, f"d_r=0.5, {cell}", "does not lie inside room 2")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sweep", "route"])
    def test_tx_outside_room_1_exit_2(self, tmp_path, capsys, monkeypatch, command):
        # behind wall 6, outside the building: refused before any wall is tiled
        def no_tiling(*args, **kwargs):
            raise AssertionError("tile_wall called for a transmitter outside room 1")
        monkeypatch.setattr(experiment, "tile_wall", no_tiling)
        cfg = write_config(tmp_path, "d_r_values = [0.5]\nm_sides = [2]\nn_trials = 1\n"
                                     "tx_position = [-0.3, 2.5, 1.5]\n")
        spec = write_config(tmp_path, "[]", "spec.json")
        out = tmp_path / "out"
        args = {"sweep": [], "route": ["--spec", str(spec)]}
        assert main([command, "--config", str(cfg), "--out", str(out), *args[command]]) == 2
        assert_one_line_error(capsys, "d_r=0.5, M=2", "transmitter at (-0.3, 2.5, 1.5) "
                                                       "does not lie inside room 1")
        assert not out.exists()

    def test_sampler_rejection_bound_exit_2(self, tmp_path, capsys, monkeypatch):
        # every ray from inside room 2 meets a wall, so the trace is made to
        # miss every wall
        def every_ray_misses(points, dirs, table):
            return np.full(len(points), -1), np.full((len(points), 3), np.nan)
        monkeypatch.setattr(experiment, "trace_walls", every_ray_misses)
        cfg = write_config(tmp_path, "d_r_values = [0.5]\nm_sides = [1]\nn_trials = 1\n")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert_one_line_error(capsys, "(d_r=0.5, M=1)",
                              "rejected 10000 directions in a row for one antenna")
        assert not (tmp_path / "out").exists()

    def test_repeated_sweep_value_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "d_r_values = [0.5, 0.5]\nn_trials = 2\n")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "d_r_values" in err and len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_unfittable_cell_exit_2(self, tmp_path, capsys):
        # one antenna, one trial: one deviation sample, too few for a fit
        cfg = write_config(tmp_path, "d_r_values = [0.5]\nm_sides = [1]\n"
                                     "n_trials = 1\n")
        assert main(["sweep", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert "d_r=0.5, M=1" in err and "Traceback" not in err

    def test_negative_threads_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--threads", "-3"]) == 1
        assert_one_line_error(capsys, "--threads")
        assert not out.exists()

    @pytest.mark.parametrize("text, cell", [
        ("d_r_values = [0.5, 50.0]\nm_sides = [2]\nn_trials = 2\n", "d_r=50.0, M=2"),
        ("d_r_values = [0.5, 0.55]\nm_sides = [1]\nn_trials = 1\n", "d_r=0.5, M=1"),
    ], ids=["scene_fault", "unfittable_cell"])
    def test_worker_failure_exit_2(self, tmp_path, capsys, text, cell):
        # the cell fails inside a worker process; exit code and message are
        # those of the in-process run
        cfg = write_config(tmp_path, text)
        errors = []
        for threads in ("1", "2"):
            assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out"),
                         "--threads", threads]) == 2
            errors.append(assert_one_line_error(capsys, cell))
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("on_submit", [False, True], ids=["result", "submit"])
    def test_killed_worker_exit_2(self, tmp_path, capsys, monkeypatch, on_submit):
        # the heaviest cell, submitted first, gets its result; the others none
        pools = []
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                            lambda **kw: BrokenPool(pools, on_submit=on_submit, **kw))
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1})
        cfg = write_config(tmp_path, "d_r_values = [0.45, 0.55]\nm_sides = [2, 3]\n"
                                     "n_trials = 2\n")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--threads", "2"]) == 2
        err = assert_one_line_error(capsys, "worker", "d_r=0.45, M=2", "d_r=0.55, M=2",
                                    "d_r=0.55, M=3")
        assert "d_r=0.45, M=3" not in err
        assert pools[0].cells[0] == (3, 0.45)
        assert not out.exists()

    def test_zero_size_door_sweeps_as_closed_divider(self, tmp_path):
        # a door with a zero side is a closed divider, whichever side is zero
        tables = set()
        for width, height in [(0, 0), (0, 2.2), (1.2, 0)]:
            cfg = write_config(tmp_path, "d_r_values = [0.55]\nm_sides = [2]\nn_trials = 3\n"
                                         f"door_width = {width}\ndoor_height = {height}\n")
            out = tmp_path / f"out_{width}_{height}"
            assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
            tables.add((out / "deviations.csv").read_bytes())
        assert len(tables) == 1

    def test_golden_digests(self, tmp_path):
        # pinned output bytes of a small fixed sweep; a change here is a
        # behaviour change of the simulator, not a refactor
        cfg = write_config(tmp_path, "d_r_values = [0.5]\nm_sides = [2, 4]\n"
                                     "n_trials = 5\nseed = 0\n")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["files"] == GOLDEN_SMALL_SWEEP

    def test_one_histogram_per_cell(self, tmp_path, monkeypatch):
        # the cell's KLDs and its histograms.csv rows read one histogram
        calls = []
        histogram = np.histogram

        def counting(*args, **kwargs):
            calls.append(args)
            return histogram(*args, **kwargs)

        monkeypatch.setattr(np, "histogram", counting)
        assert main(["sweep", "--config", str(write_config(tmp_path)),
                     "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 1

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["sweep", "--config", str(cfg), "--out", str(out1)])
        main(["sweep", "--config", str(cfg), "--out", str(out2),
              "--threads", "3"])
        for name in ("deviations.csv", "fits.csv", "histograms.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_csv_well_formed(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["sweep", "--config", str(cfg), "--out", str(out)])
        text = (out / "deviations.csv").read_text(encoding="utf-8")
        assert "\r" not in text
        with open(out / "deviations.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["d_r", "m_side", "trial", "antenna_index",
                           "phi_deg", "last_ris_id", "path_len"]
        assert all(len(r) == 7 for r in rows)
        # every float cell round-trips
        for r in rows[1:]:
            assert repr(float(r[4])) == r[4]

    def test_seed_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["sweep", "--config", str(cfg), "--out", str(out1), "--seed", "77"])
        main(["sweep", "--config", str(cfg), "--out", str(out2)])
        assert (out1 / "deviations.csv").read_bytes() != \
               (out2 / "deviations.csv").read_bytes()
        assert json.loads((out1 / "manifest.json").read_text())["seed"] == 77


class TestDeviationRow:
    @settings(max_examples=300, deadline=None)
    @given(d_r=st.floats(1e-3, 10.0), m_side=st.integers(1, MAX_M_SIDE),
           trial=st.integers(0, MAX_TRIALS - 1), antenna=st.integers(0, MAX_M_SIDE ** 2 - 1),
           phi=st.sampled_from([0.0, 2.0, 1e-05, 5e-324, 1e16])
           | st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
           ris=st.integers(0, MAX_RIS_UNITS - 1), path_len=st.integers(2, 100))
    def test_format_is_csv_row(self, d_r, m_side, trial, antenna, phi, ris, path_len):
        # sweep writes each deviations.csv line with one %-format
        cell = f"{d_r!r},{m_side},"
        record = (trial, antenna, phi, ris, path_len)
        assert (cell + _DEVIATION_ROW) % record == cell + _csv_row(record)


class TestRouteCommand:
    def _spec_path(self, tmp_path, doas):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps([[float(c) for c in d] for d in doas]))
        return path

    def test_matches_library(self, tmp_path):
        cfg = write_config(tmp_path)
        from pwesim.cli import load_config
        config = load_config(str(cfg))
        scene = build_scene(config.scene, 0.5, 2)
        graph = build_graph(scene)
        rng = np.random.default_rng(6)
        doas = []
        for _ in range(scene.rx.m):
            v = unit(rng.normal(size=3))
            if v[0] > 0:
                v = -v
            doas.append(v)
        spec = self._spec_path(tmp_path, doas)
        out = tmp_path / "routes.json"
        assert main(["route", "--config", str(cfg), "--spec", str(spec),
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        lib = get_routes(graph, WavefrontSpec(doas=tuple(doas)))
        assert len(payload["routes"]) == len(lib.routes)
        for got, want in zip(payload["routes"], lib.routes):
            assert got["antenna_index"] == want.antenna_index
            assert got["last_ris_id"] == want.last_ris_id
            assert got["path"] == list(want.path)
            assert got["phi_deg"] == pytest.approx(want.phi_deg)

    def test_output_bytes_pinned(self, tmp_path):
        # a fixed spec and config write the same JSON, byte for byte
        cfg = write_config(tmp_path, "d_r_values = [0.45]\nm_sides = [3]\n")
        rng = np.random.default_rng(17)
        doas = [unit(rng.normal(size=3)) for _ in range(9)]
        spec = self._spec_path(tmp_path, [-v if v[0] > 0 else v for v in doas])
        out = tmp_path / "routes.json"
        assert main(["route", "--config", str(cfg), "--spec", str(spec),
                     "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["routes"]) == 9
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            "66c8ba4a23e8e67088432434c8dadecd956cdba2b2c6046d8ba52382f845bb75"

    def test_zero_size_door_claims_divider_center(self, tmp_path):
        # aimed at the center of a zero-size door, the ray stops on the
        # closed divider and claims the unit there
        cfg = write_config(tmp_path, "d_r_values = [0.55]\nm_sides = [1]\n"
                                     "door_width = 0\ndoor_height = 0\n")
        from pwesim.cli import load_config
        scene = build_scene(load_config(str(cfg)).scene, 0.55, 1)
        spec = self._spec_path(tmp_path, [unit((5.0, 2.5, 1.5) - scene.rx.antennas[0])])
        out = tmp_path / "routes.json"
        assert main(["route", "--config", str(cfg), "--spec", str(spec),
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["failures"] == [] and len(payload["routes"]) == 1
        center = scene.ris_centers[payload["routes"][0]["last_ris_id"]]
        np.testing.assert_allclose(center, (5.0, 2.5, 1.5), atol=1e-12)

    def test_spec_with_bom_routes_as_without(self, tmp_path):
        cfg = write_config(tmp_path)
        spec = self._spec_path(tmp_path, [(-1.0, 0.0, 0.0)] * 4)
        outs = []
        for path in (spec, bom_copy(spec)):
            out = tmp_path / f"routes_{path.stem}.json"
            assert main(["route", "--config", str(cfg), "--spec", str(path),
                         "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert json.loads(outs[0])["routes"] and outs[0] == outs[1]

    def test_size_mismatch_exit_1(self, tmp_path):
        cfg = write_config(tmp_path)
        spec = self._spec_path(tmp_path, [(-1.0, 0.0, 0.0)])  # M is 4
        assert main(["route", "--config", str(cfg), "--spec", str(spec),
                     "--out", str(tmp_path / "r.json")]) == 1

    def test_non_unit_exit_2(self, tmp_path):
        cfg = write_config(tmp_path)
        doas = [(-1.0, 0.0, 0.0)] * 3 + [(-2.0, 0.0, 0.0)]
        spec = self._spec_path(tmp_path, doas)
        assert main(["route", "--config", str(cfg), "--spec", str(spec),
                     "--out", str(tmp_path / "r.json")]) == 2

    def test_nan_doa_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        spec = self._spec_path(tmp_path, [(-1.0, 0.0, 0.0)] * 3 + [(float("nan"), 0.0, 0.0)])
        assert main(["route", "--config", str(cfg), "--spec", str(spec),
                     "--out", str(tmp_path / "r.json")]) == 2
        assert_one_line_error(capsys, "non-unit")

    def _route_exit(self, tmp_path, spec_bytes):
        cfg = write_config(tmp_path)
        spec = tmp_path / "spec.json"
        spec.write_bytes(spec_bytes)
        return main(["route", "--config", str(cfg), "--spec", str(spec),
                     "--out", str(tmp_path / "r.json")])

    def test_int_past_float_range_exit_1(self, tmp_path, capsys):
        huge = "1" + "0" * 400
        spec = "[" + ",".join([f"[-{huge}, 0, 0]"] + ["[-1.0, 0.0, 0.0]"] * 3) + "]"
        assert self._route_exit(tmp_path, spec.encode()) == 1
        assert_one_line_error(capsys, "DoA vectors")

    def test_int_past_4300_digits_exit_1(self, tmp_path, capsys):
        spec = "[[-1" + "0" * 5000 + ", 0, 0]]"
        assert self._route_exit(tmp_path, spec.encode()) == 1
        assert_one_line_error(capsys, "cannot read spec", "4300")

    def test_spec_not_utf8_exit_1(self, tmp_path, capsys):
        assert self._route_exit(tmp_path, b"\xff\xfe[[-1.0, 0.0, 0.0]]") == 1
        assert_one_line_error(capsys, "cannot read spec", "utf-8")

    def test_spec_nested_too_deep_exit_1(self, tmp_path, capsys):
        spec = "[" * 100_000 + "]" * 100_000
        assert self._route_exit(tmp_path, spec.encode()) == 1
        assert_one_line_error(capsys, "cannot read spec", "recursion")

    def test_non_number_components_exit_1(self, tmp_path, capsys):
        spec = '[["-1","0","0"],[true,0,0],["-1",0,0],[-1,0,0]]'
        assert self._route_exit(tmp_path, spec.encode()) == 1
        assert_one_line_error(capsys, "DoA vectors")
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("bad", [[-1.0, 0.0], "x"], ids=["two_components", "text"])
    def test_malformed_doa_exit_1(self, tmp_path, capsys, bad):
        cfg = write_config(tmp_path)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps([[-1.0, 0.0, 0.0]] * 3 + [bad]))
        assert main(["route", "--config", str(cfg), "--spec", str(spec),
                     "--out", str(tmp_path / "r.json")]) == 1
        assert_one_line_error(capsys, "DoA vectors")


class TestFitCommand:
    def _data_path(self, tmp_path, values):
        path = tmp_path / "data.csv"
        lines = ["phi_deg"] + [repr(float(v)) for v in values]
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_known_rayleigh(self, tmp_path):
        rng = np.random.default_rng(8)
        values = list(rng.gamma(2.0, 2.0, size=400)) + [3.0, 4.0]
        data = self._data_path(tmp_path, values)
        out = tmp_path / "fit.json"
        assert main(["fit", "--data", str(data), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["n"] == 402
        expect_sigma = float(np.sqrt(np.sum(np.square(values)) / (2 * 402)))
        assert payload["rayleigh"]["sigma_hat"] == pytest.approx(expect_sigma,
                                                                 abs=1e-12)
        assert payload["kld_gamma"] >= 0.0
        assert payload["kld_rayleigh"] >= 0.0

    def test_two_point_sigma(self, tmp_path):
        # {3, 4} has spread, so both fits run; sigma is exactly 2.5
        data = self._data_path(tmp_path, [3.0, 4.0])
        out = tmp_path / "fit.json"
        assert main(["fit", "--data", str(data), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["rayleigh"]["sigma_hat"] == \
               pytest.approx(2.5, abs=1e-12)

    def test_negative_exit_1(self, tmp_path):
        data = self._data_path(tmp_path, [1.0, -2.0])
        assert main(["fit", "--data", str(data),
                     "--out", str(tmp_path / "f.json")]) == 1

    def test_nan_exit_1(self, tmp_path, capsys):
        data = self._data_path(tmp_path, [1.0, float("nan"), 3.0])
        assert main(["fit", "--data", str(data),
                     "--out", str(tmp_path / "f.json")]) == 1
        err = assert_one_line_error(capsys, "finite", "phi_deg")
        assert "spread" not in err

    def test_squares_past_float_range_exit_1(self, tmp_path):
        # run_cli turns a numpy overflow warning into a failure
        data = self._data_path(tmp_path, [0.0, 2.7e154])
        out = tmp_path / "f.json"
        code, err = run_cli(["fit", "--data", str(data), "--out", str(out)])
        assert code == 1
        assert len(err.splitlines()) == 1 and "too large" in err
        assert not out.exists()

    def test_short_row_exit_1(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        path.write_text("trial,phi_deg\n0,1.0\n1\n")
        assert main(["fit", "--data", str(path),
                     "--out", str(tmp_path / "f.json")]) == 1
        assert_one_line_error(capsys, "line 3", "phi_deg")

    def test_bad_value_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        path.write_text("phi_deg\n1.5\nabc\n2.0\n")
        assert main(["fit", "--data", str(path),
                     "--out", str(tmp_path / "f.json")]) == 1
        assert_one_line_error(capsys, "line 3: ", "'abc'")

    def test_path_open_rejects_exit_1(self, tmp_path, capsys):
        # open() raises ValueError before any line is read
        assert main(["fit", "--data", str(tmp_path / "a\0b"),
                     "--out", str(tmp_path / "f.json")]) == 1
        err = assert_one_line_error(capsys, "embedded null byte")
        assert "line " not in err

    def test_undecodable_bytes_keep_their_message(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        path.write_bytes(b"phi_deg\n1.5\n\xff\n")
        assert main(["fit", "--data", str(path),
                     "--out", str(tmp_path / "f.json")]) == 1
        err = assert_one_line_error(capsys, "can't decode byte 0xff")
        assert "line " not in err

    # files that exercise each csv.DictReader behaviour `fit` keeps
    PARITY_FILES = {
        "blank_lines": b"phi_deg\n\n1.5\n\n\n2.5\n3.25\n\n",
        "crlf": b"trial,phi_deg\r\n0,1.5\r\n1,2.5\r\n\r\n2,4.0\r\n",
        "quoted": b'note,phi_deg\n"a, b",1.5\n"two\nlines, and ""quotes""","2.5"\n'
                  b'x,"3.0"\r\n',
        "extra_fields": b"trial,phi_deg\n0,1.5,extra,more\n1,2.5\n2,3.0,,\n",
        "short_row_holds_phi": b"phi_deg,trial,note\n1.5,0\n2.5\n3.0,2,x\n",
        "phi_last": b"a,b,phi_deg\n1,2,1.5\n3,4,2.5\n5,6,3.0\n",
        "bom": b"\xef\xbb\xbfphi_deg,trial\n1.5,0\n2.5,1\n3.0,2\n",
        "spellings": b"phi_deg\n 1.5 \n1_0\n+2.5e0\n3E0\n.5\n",
    }

    @pytest.mark.parametrize("name", sorted(PARITY_FILES))
    def test_parse_parity_with_dictreader(self, tmp_path, name):
        path = tmp_path / "data.csv"
        path.write_bytes(self.PARITY_FILES[name])
        want = read_phi_dictreader(path)
        assert len(want) >= 3
        out = tmp_path / "f.json"
        code, _, samples = run_fit(path, out)
        assert code == 0
        assert samples.dtype == want.dtype and samples.tobytes() == want.tobytes()
        assert (0, out.read_bytes()) == fit_of_samples(tmp_path, want)

    def test_empty_exit_1(self, tmp_path):
        data = self._data_path(tmp_path, [])
        assert main(["fit", "--data", str(data),
                     "--out", str(tmp_path / "f.json")]) == 1

    @pytest.mark.parametrize("bins", ["1", "0", "-3", "10001"])
    def test_bins_out_of_range_exit_1(self, tmp_path, capsys, bins):
        data = self._data_path(tmp_path, [3.0, 4.0])
        out = tmp_path / "f.json"
        assert main(["fit", "--data", str(data), "--out", str(out), "--bins", bins]) == 1
        assert_one_line_error(capsys, "--bins")
        assert not out.exists()

    def test_field_past_csv_limit_exit_1(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        path.write_text("phi_deg\n" + "1" * 200_000 + "\n2.0\n")
        out = tmp_path / "f.json"
        assert main(["fit", "--data", str(path), "--out", str(out)]) == 1
        assert_one_line_error(capsys, "field limit")
        assert not out.exists()

    def test_repeated_phi_column_exit_1(self, tmp_path, capsys):
        # csv.DictReader would keep the last of two same-named columns
        path = tmp_path / "data.csv"
        path.write_text("phi_deg,phi_deg\n1.0,5.0\n2.0,7.0\n3.0,4.0\n")
        out = tmp_path / "f.json"
        assert main(["fit", "--data", str(path), "--out", str(out)]) == 1
        assert_one_line_error(capsys, "repeats", "phi_deg")
        assert not out.exists()

    def test_data_with_bom_fits_as_without(self, tmp_path):
        data = self._data_path(tmp_path, [3.0, 4.0, 7.5])
        outs = []
        for path in (data, bom_copy(data)):
            out = tmp_path / f"fit_{path.stem}.json"
            assert main(["fit", "--data", str(path), "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_missing_column_exit_1(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("angle\n1.0\n")
        assert main(["fit", "--data", str(path),
                     "--out", str(tmp_path / "f.json")]) == 1

    def test_round_trip_with_sweep_output(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["sweep", "--config", str(cfg), "--out", str(out)])
        fit_out = tmp_path / "fit.json"
        assert main(["fit", "--data", str(out / "deviations.csv"),
                     "--out", str(fit_out)]) == 0
        payload = json.loads(fit_out.read_text())
        with open(out / "fits.csv", newline="") as fh:
            row = next(csv.DictReader(fh))
        # single-cell sweep: the standalone fit sees the same samples
        assert payload["gamma"]["k_hat"] == pytest.approx(float(row["k_hat"]),
                                                          rel=1e-9)
        assert payload["rayleigh"]["sigma_hat"] == \
               pytest.approx(float(row["sigma_hat"]), rel=1e-9)


# JSON values of every kind, nested a few levels
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.text(max_size=4) | st.integers(-10**400, 10**400)
    | st.floats(), lambda inner: st.lists(inner, max_size=5), max_leaves=20)
# lists of unit DoAs, some of the right length for the tiny config's 4 antennas
UNIT_DOA_LISTS = st.lists(st.sampled_from([[-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0],
                                           [-0.6, 0.8, 0.0], [0.6, 0.0, 0.8]]),
                          min_size=3, max_size=5)
CSV_CELLS = st.floats().map(repr) | st.integers(-10**30, 10**30).map(str) | st.text(max_size=6)
CSV_TEXT = st.text(max_size=200) | st.tuples(
    st.sampled_from(["phi_deg", "trial,phi_deg", "angle", ""]),
    st.lists(st.lists(CSV_CELLS, min_size=1, max_size=3).map(",".join), max_size=30),
).map(lambda parts: "\n".join([parts[0]] + parts[1]) + "\n")


def run_cli(argv):
    """(exit code, stderr) of one in-process run; a warning fails the run,
    since it would print more lines on stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    return code, err.getvalue()


def run_fit(data, out):
    """(exit code, stderr, samples or None) of one in-process `fit` run on
    the CSV file `data`; samples is the array `fit` handed to fit_models."""
    seen = []

    def spy(dataset, bins):
        seen.append(dataset.samples)
        return fit_models(dataset, bins)

    with mock.patch("pwesim.cli.fit_models", spy):
        code, err = run_cli(["fit", "--data", str(data), "--out", str(out)])
    return code, err, seen[0] if seen else None


def fit_of_samples(tmp_path, samples):
    """(exit code, fit.json bytes or None) of `fit` on a plain one-column
    file of `samples`; repr round-trips each float."""
    path = tmp_path / "plain.csv"
    path.write_text("phi_deg\n" + "".join(repr(float(v)) + "\n" for v in samples))
    out = tmp_path / "plain.json"
    code, _ = run_cli(["fit", "--data", str(path), "--out", str(out)])
    return code, out.read_bytes() if code == 0 else None


class TestFuzz:
    """Arbitrary input files end in a documented exit code with at most one
    stderr line; a traceback fails the test."""

    @settings(max_examples=60, deadline=None)
    @given((JSON_VALUES.map(json.dumps) | UNIT_DOA_LISTS.map(json.dumps)
            | st.text(max_size=40)).map(str.encode) | st.binary(max_size=40))
    def test_route_any_spec(self, spec_bytes):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            cfg = write_config(tmp, "d_r_values = [0.5]\nm_sides = [2]\n")
            spec = tmp / "spec.json"
            spec.write_bytes(spec_bytes)
            code, err = run_cli(["route", "--config", str(cfg), "--spec", str(spec),
                                 "--out", str(tmp / "r.json")])
        assert code in (0, 1, 2, 3)
        assert len(err.splitlines()) <= 1

    @settings(max_examples=100, deadline=None)
    @given(CSV_TEXT)
    def test_fit_any_csv(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            data = Path(tmp) / "data.csv"
            data.write_text(text, encoding="utf-8")
            out = Path(tmp) / "f.json"
            code, err, samples = run_fit(data, out)
            assert code in (0, 1, 2, 3)
            assert len(err.splitlines()) <= 1
            # the samples fitted, the exit code and the bytes are those of
            # the one-dict-per-row reading: exit 0 exactly when it parses
            # valid samples that fit
            try:
                want = read_phi_dictreader(data)
            except (TypeError, ValueError, csv.Error):
                assert code == 1 and samples is None
                return
            if want.size and np.all(np.isfinite(want) & (want >= 0)):
                assert samples.tobytes() == want.tobytes()
            else:
                assert samples is None
            assert (code, out.read_bytes() if code == 0 else None) == \
                fit_of_samples(Path(tmp), want)


def test_cli_import_defers_csv_and_multiprocessing():
    # every benchmark call starts by importing pwesim.cli; `fit` imports csv,
    # and a sweep on worker processes multiprocessing, only when they run
    src = Path(__file__).resolve().parent.parent / "src"
    probe = ("import sys, pwesim.cli; "
             "print(sorted({'csv', 'multiprocessing'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={"PYTHONPATH": str(src)}, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
