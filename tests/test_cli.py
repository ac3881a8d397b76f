import json
import math
import os
import platform
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import helibend
from helibend import HelixSpec, generate
from helibend import geometry, torsion
from helibend.cli import main
from helibend.errors import AmbiguousBranch, InputFormatError
from helibend.report import EvaluationReport, read_cloud_csv, read_truth_csv, write_cloud_csv
from helpers import count_forks


def run(*args):
    return main([str(a) for a in args])


def synth(outdir, **kwargs):
    args = ["synth", "--output-dir", outdir]
    for key, value in kwargs.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    return run(*args)


class TestSynth:
    def test_writes_cloud_and_truth(self, tmp_path):
        assert synth(tmp_path, seed=42) == 0
        pts, labels = read_cloud_csv(tmp_path / "cloud.csv")
        assert pts.shape == (40 * 48, 3)
        assert labels is not None
        phi, tx, ty, centroids = read_truth_csv(tmp_path / "truth.csv")
        assert len(phi) == 40
        assert centroids.shape == (40, 3)

    def test_deterministic_per_seed(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert synth(a, seed=42, noise_sigma=0.05) == 0
        assert synth(b, seed=42, noise_sigma=0.05) == 0
        assert (a / "cloud.csv").read_bytes() == (b / "cloud.csv").read_bytes()
        assert (a / "truth.csv").read_bytes() == (b / "truth.csv").read_bytes()

    def test_two_section_minimum(self, tmp_path):
        assert synth(tmp_path, sections=2) == 0
        pts, labels = read_cloud_csv(tmp_path / "cloud.csv")
        assert set(labels) == {0, 1}

    def test_single_section_rejected(self, tmp_path, capsys):
        assert synth(tmp_path, sections=1) == 2
        assert "sections" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            {"radius": "nan", "helix_angle_deg": 5},
            {"pitch": "nan", "helix_angle_deg": 5},
            {"radius": "inf", "helix_angle_deg": 5},
            {"twist_constant_deg": "nan"},
            {"noise_sigma": "nan"},
            {"twist_sine_cycles": "inf"},
            {"twist_ramp_deg": "inf"},
        ],
    )
    def test_non_finite_flag_is_usage_error(self, tmp_path, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            synth(tmp_path, **flags)
        assert exc.value.code == 2
        assert "must be a finite number, got " in capsys.readouterr().err
        assert not (tmp_path / "cloud.csv").exists()

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            synth(tmp_path, seed=-1)
        assert exc.value.code == 2
        assert "must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "cloud.csv").exists()

    def test_cloud_write_split_over_cpus_keeps_its_bytes(self, tmp_path, monkeypatch, capsys):
        # 21 x 401 = 8421 rows: three of the cloud writer's blocks of rows.
        outputs = {}
        for cpus, children in [(1, 0), (2, 1)]:
            forks = count_forks(monkeypatch, cpus=cpus)
            out = tmp_path / f"cpus{cpus}"
            assert synth(out, seed=11, sections=21, points_per_section=401) == 0
            assert len(forks) == children
            assert sorted(os.listdir(out)) == ["cloud.csv", "truth.csv"]
            outputs[cpus] = [(out / name).read_bytes() for name in ("cloud.csv", "truth.csv")]
        assert outputs[1] == outputs[2]

        out = tmp_path / "taken"
        (out / "cloud.csv").mkdir(parents=True)
        count_forks(monkeypatch, cpus=2)
        assert synth(out, seed=11, sections=21, points_per_section=401) == 2
        assert capsys.readouterr().err == (
            f"error: [Errno 21] Is a directory: {str(out / 'cloud.csv')!r}\n")
        assert os.listdir(out) == ["cloud.csv"]

    @pytest.mark.parametrize("flags, message", [
        # Centroid z overflows from section 1 on.
        ({"pitch": "1e308", "helix_angle_deg": 10, "extent_deg": "1e10"},
         "error: section 1 has a non-finite point: [92.81828478430614, -76.07033486080033, "
         "inf]\n"),
        # Finite centroids, but the outline pushes x past the largest double.
        ({"radius": "1.79e308", "semi_major": "1e307", "semi_minor": "1e306",
          "helix_angle_deg": 10, "extent_deg": 10},
         "error: section 0 has a non-finite point: [inf, 8.682408883346518e+305, "
         "4.9240387650610414e+306]\n"),
    ], ids=["centroid", "outline"])
    def test_overflowing_spec_is_an_input_error(self, tmp_path, capsys, flags, message):
        assert synth(tmp_path / "out", sections=3, points_per_section=6, **flags) == 2
        assert capsys.readouterr().err == message
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("sections, n", [(21, 401), (3, 5000)])
    def test_cloud_is_the_generated_arrays_written(self, tmp_path, monkeypatch, sections, n):
        # Shares of whole sections, generated where they are written, cut off
        # the writer's 4096-row blocks.
        flags = dict(seed=5, sections=sections, points_per_section=n, noise_sigma=0.02,
                     twist_constant_deg=4)
        spec = HelixSpec(radius=120.0, pitch_per_turn=60.0, semi_major=8.0, semi_minor=5.0,
                         helix_angle=math.atan2(60.0 / (2.0 * math.pi), 120.0),
                         twist_profile=lambda i: math.radians(4.0),
                         sections=sections, points_per_section=n, noise_sigma=0.02, rng_seed=5)
        part = generate(spec)
        write_cloud_csv(tmp_path / "arrays.csv", part.points, part.labels)
        expected = (tmp_path / "arrays.csv").read_bytes()
        for cpus in (1, 2, 3):
            forks = count_forks(monkeypatch, cpus=cpus)
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            out = tmp_path / f"cpus{cpus}"
            assert synth(out, **flags) == 0
            assert len(forks) == cpus - 1
            assert (out / "cloud.csv").read_bytes() == expected, cpus

    def test_one_process_holds_a_block_not_the_cloud(self, tmp_path, monkeypatch):
        count_forks(monkeypatch, cpus=1)
        array_bytes = 400 * 400 * (3 * 8 + 8)  # the points and labels of generate's part
        tracemalloc.start()
        try:
            assert synth(tmp_path, sections=400, points_per_section=400, noise_sigma=0.02) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < array_bytes / 2


class TestEvaluate:
    def test_warning_is_one_line_and_filters_still_apply(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert synth(data, twist_constant_deg=45) == 0
        capsys.readouterr()
        assert run("evaluate", "--input", data / "cloud.csv", "--output-dir", tmp_path / "o") == 0
        assert capsys.readouterr().err == (
            "warning: AmbiguousBranch: torsion branch ambiguous at sample 0; "
            "resolved toward zero\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", AmbiguousBranch)
            with pytest.raises(AmbiguousBranch):
                run("evaluate", "--input", data / "cloud.csv", "--output-dir", tmp_path / "o")

    def test_noise_free_matches_truth(self, tmp_path):
        data = tmp_path / "data"
        out = tmp_path / "out"
        assert synth(data, seed=7, helix_angle_deg=12.0, twist_constant_deg=4.0) == 0
        assert run("evaluate", "--input", data / "cloud.csv", "--output-dir", out) == 0
        report = EvaluationReport.from_text((out / "report.json").read_text())
        phi, tx, ty, _ = read_truth_csv(data / "truth.csv")
        sections = report.document["sections"]
        assert len(sections) == len(phi)
        for i, sec in enumerate(sections):
            assert abs(sec["theta_x_rad"] - tx[i]) < 1e-7
            assert abs(sec["theta_y_rect_rad"] - ty[i]) < 1e-7
            assert sec["theta_x_deg"] == pytest.approx(math.degrees(sec["theta_x_rad"]))
        arc = report.document["arcs"][0]
        assert arc["radius_mm"] == pytest.approx(120.0, abs=1e-6)
        assert arc["central_angle_deg"] == pytest.approx(180.0, abs=1e-6)

    def test_report_round_trip_byte_identical(self, tmp_path):
        data, out = tmp_path / "data", tmp_path / "out"
        synth(data, seed=3, noise_sigma=0.02)
        run("evaluate", "--input", data / "cloud.csv", "--output-dir", out)
        text = (out / "report.json").read_text()
        assert EvaluationReport.from_text(text).to_text() == text

    def test_deterministic_across_runs_and_workers(self, tmp_path):
        data = tmp_path / "data"
        synth(data, seed=9, noise_sigma=0.05)
        outputs = []
        for name, workers in (("o1", 1), ("o2", 1), ("o4", 4)):
            out = tmp_path / name
            assert run(
                "evaluate", "--input", data / "cloud.csv", "--output-dir", out,
                "--workers", workers,
            ) == 0
            outputs.append(
                (
                    (out / "report.json").read_bytes(),
                    (out / "sections.csv").read_bytes(),
                    (out / "arc.csv").read_bytes(),
                )
            )
        assert outputs[0] == outputs[1] == outputs[2]

    def test_format_selects_outputs(self, tmp_path):
        data = tmp_path / "data"
        synth(data, seed=1)
        out_csv = tmp_path / "csv"
        run("evaluate", "--input", data / "cloud.csv", "--output-dir", out_csv,
            "--format", "csv")
        assert (out_csv / "sections.csv").exists()
        assert not (out_csv / "report.json").exists()
        out_rep = tmp_path / "rep"
        run("evaluate", "--input", data / "cloud.csv", "--output-dir", out_rep,
            "--format", "report")
        assert (out_rep / "report.json").exists()
        assert not (out_rep / "sections.csv").exists()

    def test_unlabeled_requires_sections_flag(self, tmp_path, capsys):
        cloud = tmp_path / "cloud.csv"
        cloud.write_text("x,y,z\n100.0,0.0,0.0\n", encoding="utf-8")
        assert run("evaluate", "--input", cloud, "--output-dir", tmp_path / "o") == 2
        assert "--sections" in capsys.readouterr().err

    def test_truncated_csv_names_line(self, tmp_path, capsys):
        cloud = tmp_path / "cloud.csv"
        cloud.write_text("x,y,z\n1.0,2.0,3.0\n4.0,5.0\n", encoding="utf-8")
        assert run("evaluate", "--input", cloud, "--output-dir", tmp_path / "o",
                   "--sections", "1") == 2
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_byte_that_is_not_utf8_names_line(self, tmp_path, capsys, workers):
        cloud = tmp_path / "cloud.csv"
        cloud.write_bytes(b"x,y,z\n1.0,2.0,3.0\n# caf\xe9\n4.0,5.0,6.0\n")
        assert run("evaluate", "--input", cloud, "--output-dir", tmp_path / "o",
                   "--sections", "1", "--workers", workers) == 2
        assert "line 3: byte 0xe9 is not UTF-8" in capsys.readouterr().err

    def test_empty_file(self, tmp_path, capsys):
        cloud = tmp_path / "cloud.csv"
        cloud.write_text("", encoding="utf-8")
        assert run("evaluate", "--input", cloud, "--output-dir", tmp_path / "o",
                   "--sections", "1") == 2

    def test_header_only_is_empty_cloud(self, tmp_path, capsys):
        cloud = tmp_path / "cloud.csv"
        cloud.write_text("x,y,z\n", encoding="utf-8")
        assert run("evaluate", "--input", cloud, "--output-dir", tmp_path / "o",
                   "--sections", "1") == 2

    def test_missing_file(self, tmp_path):
        assert run("evaluate", "--input", tmp_path / "nope.csv",
                   "--output-dir", tmp_path / "o", "--sections", "1") == 2

    def test_analysis_error_exit_code(self, tmp_path, capsys):
        # six identical sections on the product axis: degenerate analysis
        cloud = tmp_path / "cloud.csv"
        rows = ["x,y,z"] + ["0.0,0.0,%d.0" % k for k in range(12)]
        cloud.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code = run("evaluate", "--input", cloud, "--output-dir", tmp_path / "o",
                   "--sections", "1")
        assert code == 3

    def test_analysis_error_names_its_section(self, tmp_path, capsys):
        # section labels 4 and 5 swapped: the azimuths step back from 4 to 5
        synth(tmp_path, seed=42, sections=8)
        points, labels = read_cloud_csv(tmp_path / "cloud.csv")
        write_cloud_csv(tmp_path / "swapped.csv", points, np.choose(
            labels, [0, 1, 2, 3, 5, 4, 6, 7]))
        assert run("evaluate", "--input", tmp_path / "swapped.csv",
                   "--output-dir", tmp_path / "o") == 3
        assert capsys.readouterr().err == (
            "error: NonMonotonicAzimuth: section 5: "
            "section azimuths reverse direction along the part\n")

    def test_nonconvergence_exit_code_with_partial_report(self, tmp_path, capsys):
        data = tmp_path / "data"
        synth(data, seed=11, noise_sigma=0.2, sections=6)
        out = tmp_path / "out"
        code = run(
            "evaluate", "--input", data / "cloud.csv", "--output-dir", out,
            "--fitter", "gauss-newton", "--gn-max-iterations", 1,
        )
        assert code == 4
        report = EvaluationReport.from_text((out / "report.json").read_text())
        assert any(not s["fit_converged"] for s in report.document["sections"])

    @pytest.mark.parametrize(
        "flag, labeled",
        [("--window", True), ("--gn-max-iterations", True), ("--sections", False),
         ("--workers", True)],
    )
    def test_zero_count_flag_is_usage_error(self, tmp_path, capsys, flag, labeled):
        data = tmp_path / "data"
        synth(data, seed=4, sections=6)
        cloud = data / "cloud.csv"
        if not labeled:
            lines = cloud.read_text().splitlines()
            cloud.write_text(
                "\n".join(",".join(l.split(",")[:3]) for l in lines) + "\n", encoding="utf-8"
            )
        with pytest.raises(SystemExit) as exc:
            run("evaluate", "--input", cloud, "--output-dir", tmp_path / "o",
                "--fitter", "gauss-newton", flag, 0)
        assert exc.value.code == 2
        assert f"error: argument {flag}: must be >= 1" in capsys.readouterr().err

    def test_non_numeric_count_flag_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("evaluate", "--input", tmp_path / "cloud.csv", "--output-dir", tmp_path / "o",
                "--window", "abc")
        assert exc.value.code == 2
        assert "error: argument --window: invalid int value: 'abc'" in capsys.readouterr().err

    def test_sections_flag_contradicting_labels_is_input_error(self, tmp_path, capsys):
        data = tmp_path / "data"
        synth(data, seed=5, sections=6)
        cloud = data / "cloud.csv"
        assert run("evaluate", "--input", cloud, "--output-dir", tmp_path / "ok",
                   "--sections", 6) == 0
        assert run("evaluate", "--input", cloud, "--output-dir", tmp_path / "bad",
                   "--sections", 5) == 2
        err = capsys.readouterr().err
        assert "6 sections" in err and "5 were expected" in err
        assert not (tmp_path / "bad").exists()

    def test_section_label_beyond_int64_names_line(self, tmp_path, capsys):
        data = tmp_path / "data"
        synth(data, seed=6, sections=3)
        lines = (data / "cloud.csv").read_text().splitlines()
        x, y, z, _ = lines[5].split(",")
        lines[5] = f"{x},{y},{z},99999999999999999999"
        (data / "cloud.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(InputFormatError, match="line 6") as exc:
            read_cloud_csv(data / "cloud.csv")
        assert exc.value.line_number == 6
        assert run("evaluate", "--input", data / "cloud.csv",
                   "--output-dir", tmp_path / "o") == 2
        assert "line 6" in capsys.readouterr().err

    def test_comments_and_blank_lines_ok(self, tmp_path):
        data = tmp_path / "data"
        synth(data, seed=2, sections=8)
        raw = (data / "cloud.csv").read_text().splitlines()
        raw.insert(0, "# measured 2026-08-09")
        raw.insert(3, "")
        (data / "cloud.csv").write_text("\n".join(raw) + "\n", encoding="utf-8")
        assert run("evaluate", "--input", data / "cloud.csv",
                   "--output-dir", tmp_path / "o") == 0


class TestReadTruthCsv:
    def test_header_only_names_missing_row(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text("section,phi,theta_x_true,theta_y_true,cx,cy,cz\n", encoding="utf-8")
        with pytest.raises(InputFormatError) as exc:
            read_truth_csv(path)
        assert exc.value.line_number == 2

    @pytest.mark.parametrize("mark", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    def test_byte_that_is_not_utf8_names_line(self, tmp_path, mark):
        path = tmp_path / "truth.csv"
        path.write_bytes(mark + b"section,phi,theta_x_true,theta_y_true,cx,cy,cz\n"
                         b"# caf\xe9\n0,0.0,0.1,0.0,120.0,0.0,0.0\n")
        with pytest.raises(InputFormatError, match="^line 2: byte 0xe9 is not UTF-8$") as exc:
            read_truth_csv(path)
        assert exc.value.line_number == 2

    def test_non_numeric_field_names_line(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text(
            "section,phi,theta_x_true,theta_y_true,cx,cy,cz\n"
            "0,0.0,0.1,0.0,120.0,0.0,0.0\n"
            "1,0.5,0.1,oops,105.3,57.5,4.8\n",
            encoding="utf-8",
        )
        with pytest.raises(InputFormatError, match="line 3") as exc:
            read_truth_csv(path)
        assert exc.value.line_number == 3

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_field_names_line(self, tmp_path, token):
        path = tmp_path / "truth.csv"
        path.write_text(
            "section,phi,theta_x_true,theta_y_true,cx,cy,cz\n"
            "0,0.0,0.1,0.0,120.0,0.0,0.0\n"
            f"1,{token},0.1,0.0,105.3,57.5,4.8\n",
            encoding="utf-8",
        )
        with pytest.raises(InputFormatError, match="line 3: non-finite") as exc:
            read_truth_csv(path)
        assert exc.value.line_number == 3

    def test_wrong_field_count_names_line(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text(
            "section,phi,theta_x_true,theta_y_true,cx,cy,cz\n"
            "0,0.0,0.1,0.0,120.0,0.0,0.0\n"
            "1,0.5,0.1,0.0,105.3,57.5\n",
            encoding="utf-8",
        )
        with pytest.raises(InputFormatError, match="line 3: expected 7 fields") as exc:
            read_truth_csv(path)
        assert exc.value.line_number == 3

    @pytest.mark.parametrize(
        "sections, line",
        [(("1", "0"), 2), (("0", "0"), 3), (("0", "2.5"), 3), (("0", "2"), 3)],
    )
    def test_row_must_read_its_own_section(self, tmp_path, sections, line):
        path = tmp_path / "truth.csv"
        path.write_text(
            "section,phi,theta_x_true,theta_y_true,cx,cy,cz\n"
            + "".join(f"{s},0.5,0.1,0.0,105.3,57.5,4.8\n" for s in sections),
            encoding="utf-8",
        )
        with pytest.raises(InputFormatError, match=f"line {line}:") as exc:
            read_truth_csv(path)
        assert exc.value.line_number == line

    @pytest.mark.parametrize(
        "text, message",
        [("# sidecar\n0,0.0,0.1,0.0,120.0,0.0,0.0\n", "line 2: expected header"),
         ("# sidecar\n", "line 2: expected the header, got end of file")],
    )
    def test_missing_header_names_line(self, tmp_path, text, message):
        path = tmp_path / "truth.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(InputFormatError, match=message) as exc:
            read_truth_csv(path)
        assert exc.value.line_number == 2

    def test_byte_order_mark_is_skipped(self, tmp_path):
        assert synth(tmp_path, sections=3) == 0
        plain = tmp_path / "truth.csv"
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        for want, got in zip(read_truth_csv(plain), read_truth_csv(marked)):
            assert got.tobytes() == want.tobytes()


class TestCompareFits:
    def test_noise_free_sweep_matches_truth(self, tmp_path):
        out = tmp_path / "sweep"
        assert run("compare-fits", "--output-dir", out, "--trials", 37) == 0
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert len(rows) == 37 * 3
        for row in rows:
            fitter, trial, true, raw, rect = row.split(",")
            assert abs(float(rect) - float(true)) < 1e-8
        for fitter in ("trace", "bookstein", "gauss-newton"):
            assert (out / f"compare_{fitter}.svg").exists()

    def test_summary_has_all_fitters(self, tmp_path):
        out = tmp_path / "sweep"
        run("compare-fits", "--output-dir", out, "--trials", 21,
            "--noise-sigma", 0.05, "--seed", 5)
        lines = (out / "summary.csv").read_text().splitlines()
        assert lines[0] == "fitter,trials_in_band,std_error_rad"
        assert {l.split(",")[0] for l in lines[1:]} == {"trace", "bookstein", "gauss-newton"}

    def test_noisy_partial_arc_summary_ordering(self, tmp_path):
        # the regime where the trace constraint is measurably more stable;
        # the statistically rigorous version is acceptance criterion 4
        out = tmp_path / "sweep"
        run("compare-fits", "--output-dir", out, "--trials", 150,
            "--noise-sigma", 0.1, "--arc-fraction", 0.3,
            "--min-angle-deg", -10, "--max-angle-deg", 10, "--seed", 1)
        stds = {}
        for line in (out / "summary.csv").read_text().splitlines()[1:]:
            fitter, _, std = line.split(",")
            stds[fitter] = float(std)
        assert stds["trace"] <= stds["bookstein"]

    def test_zero_trials_rejected(self, tmp_path, capsys):
        for flag, value in (
            ("--trials", 0),
            ("--semi-minor", 0),
            ("--semi-minor", -1),
            ("--semi-major", "nan"),
            ("--noise-sigma", "nan"),
            ("--points", 5),
            ("--noise-sigma", -0.1),
            ("--arc-fraction", 0),
            ("--arc-fraction", 1.5),
        ):
            try:
                code = run("compare-fits", "--output-dir", tmp_path, flag, value)
            except SystemExit as exc:  # argparse rejects a non-finite number itself
                code = exc.code
            assert code == 2, (flag, value)
            assert not (tmp_path / "sweep.csv").exists()

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("compare-fits", "--output-dir", tmp_path, "--seed", -1)
        assert exc.value.code == 2
        assert "must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_inverted_range_rejected(self, tmp_path):
        assert run("compare-fits", "--output-dir", tmp_path,
                   "--min-angle-deg", 50, "--max-angle-deg", -50) == 2

    def test_gauss_newton_trials_fitted_in_bounded_blocks(self, tmp_path, monkeypatch):
        # The trace trials too.
        stacks = {"fit_trace": [], "fit_gauss_newton": []}

        def recorder(name):
            fit = getattr(torsion, name)

            def recorded(points, *args, **kwargs):
                stacks[name].append(np.shape(points))
                return fit(points, *args, **kwargs)
            return recorded

        for name in stacks:
            monkeypatch.setattr(torsion, name, recorder(name))
        assert run("compare-fits", "--output-dir", tmp_path, "--trials", 181) == 0
        for shapes in stacks.values():
            assert len(shapes) > 1
            assert sum(shape[0] for shape in shapes) == 181
            assert all(shape[0] * shape[1] <= geometry._BLOCK_POINTS for shape in shapes)

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run("compare-fits", "--output-dir", out, "--trials", 11,
                "--noise-sigma", 0.1, "--seed", 3)
        assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()
        assert (a / "compare_trace.svg").read_bytes() == (b / "compare_trace.svg").read_bytes()


class TestMisc:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "helibend" in capsys.readouterr().out

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc" or not os.path.exists("/proc/self/statm"),
                        reason="glibc malloc, read through /proc")
    def test_freed_memory_goes_back_to_the_system(self):
        # glibc on its own cuts an 8 MiB array from the heap once a 16 MiB
        # block has been freed, and keeps the pages of freed heap arrays that
        # lie below a live one; main returns both to the system.
        script = """
import contextlib, io, os, numpy as np
from helibend.cli import main
def command():
    with contextlib.suppress(SystemExit), contextlib.redirect_stdout(io.StringIO()):
        main(["--version"])
def rss():
    return int(open("/proc/self/statm").read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
command()
big = np.ones(2 << 20)
del big
array = np.ones(1 << 20)
held = rss()
del array
print(held - rss())
small = [np.ones(1 << 16) for _ in range(64)]
above = np.ones(1 << 16)
held = rss()
del small
command()
print(held - rss())
"""
        env = dict(os.environ, PYTHONPATH=str(Path(helibend.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True).stdout
        freed_large, freed_small = map(int, out.split())
        assert freed_large >= 7 << 20
        assert freed_small >= 30 << 20
