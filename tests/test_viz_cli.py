"""Tests for repro.analysis.viz and repro.cli."""

import numpy as np
import pytest

from repro.analysis.viz import render_profile, render_profiles, render_scene, sparkline
from repro.cli import build_parser, main
from repro.em.geometry import Point
from repro.em.scene import blocker_between, shoebox_scene


class TestSparkline:
    def test_length_matches(self):
        assert len(sparkline(np.arange(10.0))) == 10

    def test_monotone_series_monotone_blocks(self):
        line = sparkline(np.arange(8.0))
        assert line == "".join(sorted(line))

    def test_empty(self):
        assert sparkline(np.array([])) == ""

    def test_constant_series(self):
        line = sparkline(np.full(5, 3.0))
        assert len(set(line)) == 1


class TestProfiles:
    def test_render_profile_contains_extremes(self):
        text = render_profile(np.array([0.0, 40.0]), lo=-5.0, hi=45.0)
        assert "min" in text and "max" in text

    def test_clamping(self):
        # Values outside [lo, hi] must not crash and map to the end glyphs.
        text = render_profile(np.array([-100.0, 100.0]), lo=0.0, hi=10.0)
        assert "|" in text

    def test_render_profiles_aligns_labels(self):
        text = render_profiles(
            [("a", np.zeros(4)), ("longer", np.ones(4))]
        )
        lines = text.split("\n")
        assert lines[0].index("|") == lines[1].index("|")

    def test_render_profiles_empty(self):
        assert render_profiles([]) == ""


class TestRenderScene:
    def test_walls_and_markers(self, rng):
        scene = shoebox_scene(8.0, 6.0, num_scatterers=2, rng=rng)
        scene = scene.with_obstacles(blocker_between(Point(2, 3), Point(6, 3)))
        text = render_scene(scene, markers={"T": Point(2, 3), "R": Point(6, 3)})
        assert "#" in text
        assert "X" in text
        assert "o" in text
        assert "T" in text and "R" in text

    def test_canvas_dimensions(self, simple_scene):
        text = render_scene(simple_scene, width=40, height=12)
        lines = text.split("\n")
        assert len(lines) == 12
        assert all(len(line) == 40 for line in lines)

    def test_too_small_rejected(self, simple_scene):
        with pytest.raises(ValueError):
            render_scene(simple_scene, width=5, height=3)


class TestCli:
    def test_parser_commands(self):
        parser = build_parser()
        for command in ("demo", "scene", "figures", "timing"):
            args = parser.parse_args([command])
            assert args.command == command

    def test_serve_trace_sample_default_matches_service_config(self):
        from repro.serve import ServiceConfig

        args = build_parser().parse_args(["serve"])
        assert args.trace_sample == ServiceConfig().trace_sample

    def test_scene_command_runs(self, capsys):
        assert main(["scene", "--placement", "1"]) == 0
        output = capsys.readouterr().out
        assert "#" in output

    def test_demo_command_runs(self, capsys):
        assert main(["demo", "--placement", "2", "--tx-power-dbm", "5"]) == 0
        output = capsys.readouterr().out
        assert "goodput" in output

    def test_timing_command_runs(self, capsys):
        assert main(["timing", "--elements", "4"]) == 0
        output = capsys.readouterr().out
        assert "wired bus" in output

    @pytest.mark.parametrize(
        "flag", ["--placements", "--repetitions", "--mimo-measurements"]
    )
    def test_figures_rejects_non_positive_counts(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["figures", flag, "0"])
        assert exit_info.value.code == 2
        error = capsys.readouterr().err
        assert f"argument {flag}: must be a positive integer, got 0" in error
        assert "Traceback" not in error

    @pytest.mark.parametrize(
        ("command", "flag"),
        [
            ("profile-sweep", "--repetitions"),
            ("control-robustness", "--rounds"),
            ("multi-user", "--elements"),
            ("timing", "--elements"),
            ("coverage", "--placements"),
        ],
    )
    def test_count_flags_reject_zero(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, flag, "0"])
        assert exit_info.value.code == 2
        error = capsys.readouterr().err
        assert error.strip().splitlines()[-1] == (
            f"repro {command}: error: argument {flag}: "
            "must be a positive integer, got 0"
        )
        assert "Traceback" not in error

    def test_figures_command_small(self, capsys):
        code = main(
            [
                "figures",
                "--placements",
                "2",
                "--repetitions",
                "2",
                "--mimo-measurements",
                "3",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "Fig 4" in output and "Fig 8" in output
