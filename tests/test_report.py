import json
import math
import os
import re
import warnings

import numpy as np
import pytest

from helibend import GroundTruth, HelixSpec, evaluate_cloud, generate, report
from helibend.errors import InputFormatError
from helibend.report import (
    EvaluationReport,
    arc_csv_text,
    read_cloud_csv,
    read_truth_csv,
    sections_csv_text,
)
from helpers import count_forks


def _line_parse(path):
    """The reference: the line parser alone, as the bulk path must behave."""
    with open(path, "r", encoding="utf-8") as fh:
        return report._read_cloud_lines(fh)


_LABELED = "x,y,z,section\n1.5,-2.25,3.0,0\n4.0,5.0,6.125,1\n-7.0,8.0,9.0,0\n"
_UNLABELED = "x,y,z\n1.5,-2.25,3.0\n4.0,5.0,6.125\n-7.0,8.0,9.0\n"

CORPUS = {
    "labeled": _LABELED,
    "unlabeled": _UNLABELED,
    "crlf": _LABELED.replace("\n", "\r\n"),
    "blank_lines": "x,y,z\n\n1.0,2.0,3.0\n\n\n4.0,5.0,6.0\n   \n",
    "empty_lines": "x,y,z\n1.0,2.0,3.0\n\n\n4.0,5.0,6.0\n\n",
    "no_final_newline": "x,y,z\n1.0,2.0,3.0\n4.0,5.0,6.0",
    "comment_before_header": "# scan 7\nx,y,z\n1.0,2.0,3.0\n",
    "comment_inside_data": "x,y,z,section\n1.0,2.0,3.0,0\n# pause\n4.0,5.0,6.0,1\n",
    "inline_comment": "x,y,z\n1.0,2.0,3.0 # probe 2\n",
    "blank_line_before_header": "\nx,y,z\n1.0,2.0,3.0\n",
    "header_only": "x,y,z\n",
    "header_only_labeled": "x,y,z,section\n",
    "empty": "",
    "single_row": "x,y,z,section\n1.0,2.0,3.0,4\n",
    "padded_header": " x , y , z \n1.0,2.0,3.0\n",
    "three_fields_labeled": "x,y,z,section\n1.0,2.0,3.0,0\n4.0,5.0,6.0\n",
    "five_fields_labeled": "x,y,z,section\n1.0,2.0,3.0,0\n4.0,5.0,6.0,1,7\n",
    "four_fields_unlabeled": "x,y,z\n1.0,2.0,3.0\n4.0,5.0,6.0,1\n",
    "five_fields_unlabeled": "x,y,z\n1.0,2.0,3.0,4,5\n",
    "mixed_widths_same_commas": "x,y,z\n1.0,2.0\n4.0,5.0,6.0,7.0\n",
    "trailing_comma": "x,y,z\n1.0,2.0,3.0,\n",
    "empty_field": "x,y,z\n1.0,,3.0\n",
    "underscore_coordinate": "x,y,z\n1_0,2.0,3.0\n",
    "underscore_label": "x,y,z,section\n1.0,2.0,3.0,1_0\n",
    "plus_sign": "x,y,z,section\n+5,+2.5e-3,-0.0,+5\n",
    "padded_fields": "x,y,z,section\n 1.0 ,\t2.0, 3.0 , 7 \n",
    "float_label": "x,y,z,section\n1.0,2.0,3.0,3.0\n",
    "label_beyond_int64": "x,y,z,section\n1.0,2.0,3.0,99999999999999999999\n",
    "inf": "x,y,z\n1.0,inf,3.0\n",
    "nan": "x,y,z\nnan,2.0,3.0\n",
    "overflowing_float": "x,y,z\n1e400,2.0,3.0\n",
    "non_ascii_digits": "x,y,z\n١.٥,2.0,3.0\n",
    "repeated_header": "x,y,z\n1.0,2.0,3.0\nx,y,z\n",
    "wrong_header": "a,b,c\n1.0,2.0,3.0\n",
    "header_past_first_read": "x,y,z" + " " * 8192 + "1.0,2.0,3.0\n4.0,5.0,6.0\n",
    "precise_decimals": "x,y,z\n0.1000000000000000055511151231257827,5e-324,"
                        "1.7976931348623157e308\n2.2250738585072014e-308,-1e-320,123456789.123456789\n",
}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_matches_line_parser(tmp_path, name):
    path = tmp_path / "cloud.csv"
    path.write_bytes(CORPUS[name].encode("utf-8"))
    try:
        expected = _line_parse(path)
    except InputFormatError as want:
        with pytest.raises(InputFormatError) as got:
            read_cloud_csv(path)
        assert str(got.value) == str(want)
        assert got.value.line_number == want.line_number
        return
    pts, labels = read_cloud_csv(path)
    assert pts.dtype == expected[0].dtype and pts.shape == expected[0].shape
    assert pts.tobytes() == expected[0].tobytes()
    if expected[1] is None:
        assert labels is None
    else:
        assert labels.dtype == expected[1].dtype
        assert np.array_equal(labels, expected[1])


@pytest.mark.parametrize("name", ["labeled", "unlabeled", "crlf", "empty_lines",
                                  "padded_fields", "plus_sign", "precise_decimals"])
def test_well_formed_file_skips_line_parser(tmp_path, monkeypatch, name):
    path = tmp_path / "cloud.csv"
    path.write_bytes(CORPUS[name].encode("utf-8"))
    expected = _line_parse(path)

    def fail(fh):
        raise AssertionError("line parser used on a well-formed file")

    monkeypatch.setattr(report, "_read_cloud_lines", fail)
    pts, labels = read_cloud_csv(path)
    assert pts.tobytes() == expected[0].tobytes()
    assert (labels is None) == (expected[1] is None)


_BOM = "\ufeff"


def test_byte_order_mark_is_skipped_by_the_bulk_reader(tmp_path, monkeypatch):
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(CORPUS["labeled"], encoding="utf-8")
    marked.write_text(_BOM + CORPUS["labeled"], encoding="utf-8")
    expected = read_cloud_csv(plain)

    def fail(fh):
        raise AssertionError("line parser used on a well-formed file")

    monkeypatch.setattr(report, "_read_cloud_lines", fail)
    pts, labels = read_cloud_csv(marked)
    assert pts.tobytes() == expected[0].tobytes()
    assert labels.tobytes() == expected[1].tobytes()


def test_byte_order_mark_keeps_error_line_numbers(tmp_path):
    text = CORPUS["labeled"] + "1.0,oops,3.0,2\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(_BOM + text, encoding="utf-8")
    with pytest.raises(InputFormatError) as want:
        read_cloud_csv(plain)
    with pytest.raises(InputFormatError) as got:
        read_cloud_csv(marked)
    assert want.value.line_number == 5
    assert str(got.value) == str(want.value)
    assert got.value.line_number == want.value.line_number


def _rows(count, labeled, bad=None, bad_row=None):
    """``count`` data lines of a cloud CSV, line ``bad_row`` replaced by ``bad``."""
    rows = [f"{i * 1.25 - 3.1},{-i / 7},{i * 0.3}" + (f",{i % 3}" if labeled else "")
            for i in range(count)]
    if bad is not None:
        rows[bad_row] = bad
    return rows


# Each file and the number of children a two-process read forks for it. The
# data is cut only after a "\n", so a file with none after its header, or
# whose data cut falls in its last line, is read by one process.
SPLIT_READS = {
    "bom": (_BOM + "x,y,z,section\n" + "\n".join(_rows(20, True)) + "\n", 1),
    "crlf": ("x,y,z\r\n" + "\r\n".join(_rows(20, False)) + "\r\n", 1),
    "bare_cr": ("x,y,z,section\r" + "\r".join(_rows(20, True)) + "\r", 0),
    "cr_after_header": ("x,y,z\r" + "\n".join(_rows(20, False)) + "\n", 1),
    "one_row": ("x,y,z,section\n1.0,2.0,3.0,4\n", 0),
    "cut_in_last_line": ("x,y,z\n1.0,2.0,3.0\n4." + "0" * 200 + ",5.0,6.0\n", 0),
    "malformed_early": ("x,y,z,section\n" + "\n".join(_rows(20, True, "1.0,oops,3.0,2", 3))
                        + "\n", 1),
    "malformed_late": ("x,y,z,section\n" + "\n".join(_rows(20, True, "1.0,oops,3.0,2", 16))
                       + "\n", 1),
    "nan_late": ("x,y,z\n" + "\n".join(_rows(20, False, "nan,2.0,3.0", 16)) + "\n", 1),
    "four_wide_late": ("x,y,z\n" + "\n".join(_rows(20, False, "1.0,2.0,3.0,4", 16)) + "\n",
                       1),
}


def _read_outcome(path, workers):
    """What read_cloud_csv gives or raises, as comparable values."""
    try:
        pts, labels = read_cloud_csv(path, workers=workers)
    except InputFormatError as exc:
        return type(exc), str(exc), exc.line_number
    return (pts.dtype, pts.shape, pts.tobytes(),
            None if labels is None else (labels.dtype, labels.tobytes()))


@pytest.mark.parametrize("name", sorted(SPLIT_READS))
def test_split_read_matches_one_process(tmp_path, monkeypatch, name):
    text, children = SPLIT_READS[name]
    path = tmp_path / "cloud.csv"
    path.write_bytes(text.encode("utf-8"))
    expected = _read_outcome(path, 1)
    if name.endswith("_late"):
        assert expected[0] is InputFormatError and expected[2] == 18
    forks = count_forks(monkeypatch)
    assert _read_outcome(path, 2) == expected
    assert len(forks) == children


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_split_read_of_the_corpus_matches_one_process(tmp_path, monkeypatch, name):
    path = tmp_path / "cloud.csv"
    path.write_bytes(CORPUS[name].encode("utf-8"))
    expected = _read_outcome(path, 1)
    count_forks(monkeypatch, cpus=3)
    assert _read_outcome(path, 3) == expected


READER_EDGES = {**CORPUS, **{f"split-{name}": text for name, (text, _) in SPLIT_READS.items()}}


@pytest.mark.parametrize("name", sorted(READER_EDGES))
def test_chunked_parse_matches_loadtxt(tmp_path, monkeypatch, name):
    # numpy's C reader fed by read() in chunks, and np.loadtxt fed line by
    # line, accept the same files with the same arrays, whole or in two ranges.
    path = tmp_path / "cloud.csv"
    path.write_bytes(READER_EDGES[name].encode("utf-8"))
    count_forks(monkeypatch, cpus=2)
    for workers in (1, 2):
        chunked = report._read_cloud_bulk(path, workers)
        with monkeypatch.context() as patch:
            patch.setattr(report, "_load_from_filelike", None)
            by_line = report._read_cloud_bulk(path, workers)
        assert (chunked is None) == (by_line is None), workers
        for got, want in zip(chunked or (), by_line or ()):
            assert (got is None) == (want is None)
            if got is not None:
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", ["bare_cr", "cr_after_header", "crlf", "bom"])
def test_line_ends_of_a_text_read_keep_the_bulk_read(tmp_path, monkeypatch, name, workers):
    path = tmp_path / "cloud.csv"
    path.write_bytes(SPLIT_READS[name][0].encode("utf-8"))
    expected = _read_outcome(path, 1)

    def fail(fh):
        raise AssertionError("line parser used on a well-formed file")

    monkeypatch.setattr(report, "_read_cloud_lines", fail)
    count_forks(monkeypatch)
    assert _read_outcome(path, workers) == expected


def _spy_range_reads(monkeypatch, tmp_path):
    """Record every report._range_rows call in a file, so that a forked
    child's calls show too; the returned function gives them as
    (pid, span, rejected) tuples, in the order they returned."""
    log = tmp_path / "range_reads.txt"
    real = report._range_rows

    def spy(path, span, has_labels):
        rows = real(path, span, has_labels)
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {span[0]} {span[1]} {rows is None}\n")
        return rows

    def calls():
        return [(int(pid), (int(start), None if stop == "None" else int(stop)), rejected == "True")
                for pid, start, stop, rejected in map(str.split, log.read_text().splitlines())]

    monkeypatch.setattr(report, "_range_rows", spy)
    return calls


def test_the_caller_streams_the_range_that_ends_the_file(tmp_path, monkeypatch):
    path = tmp_path / "cloud.csv"
    path.write_bytes(SPLIT_READS["bom"][0].encode("utf-8"))
    header_end = len((_BOM + "x,y,z,section\n").encode("utf-8"))
    calls = _spy_range_reads(monkeypatch, tmp_path)
    read_cloud_csv(path, workers=1)
    assert calls() == [(os.getpid(), (header_end, None), False)]
    forks = count_forks(monkeypatch)
    read_cloud_csv(path, workers=2)
    assert len(forks) == 1
    split = calls()[1:]
    here = [span for pid, span, _ in split if pid == os.getpid()]
    child = [span for pid, span, _ in split if pid != os.getpid()]
    assert len(here) == 1 and len(child) == 1
    assert here[0][1] is None
    assert child[0] == (header_end, here[0][0])
    assert child[0][1] < path.stat().st_size


@pytest.mark.parametrize(("name", "lineno", "in_child"),
                         [("malformed_early", 5, True), ("malformed_late", 18, False)])
def test_a_failing_range_on_either_side_matches_one_process(tmp_path, monkeypatch, name,
                                                           lineno, in_child):
    path = tmp_path / "cloud.csv"
    path.write_bytes(SPLIT_READS[name][0].encode("utf-8"))
    expected = _read_outcome(path, 1)
    assert expected[0] is InputFormatError and expected[2] == lineno
    calls = _spy_range_reads(monkeypatch, tmp_path)
    forks = count_forks(monkeypatch)
    assert _read_outcome(path, 2) == expected
    assert len(forks) == 1
    rejected = [pid != os.getpid() for pid, _, rejected in calls() if rejected]
    assert rejected == [in_child]


def test_a_range_that_cannot_be_forked_is_read_in_bulk_here(tmp_path, monkeypatch):
    path = tmp_path / "cloud.csv"
    path.write_bytes(SPLIT_READS["bom"][0].encode("utf-8"))
    expected = _read_outcome(path, 1)
    tries = []

    def fork():
        tries.append(None)
        raise BlockingIOError("no process to spare")

    def fail(fh):
        raise AssertionError("line parser used on a well-formed file")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(report, "_read_cloud_lines", fail)
    assert _read_outcome(path, 2) == expected
    assert len(tries) == 1


# Each file holding a byte that is not UTF-8, and the line that holds it.
NOT_UTF8 = {
    "in_header": (b"x,y,z\xe9\n1.0,2.0,3.0\n", 1),
    "in_comment": (b"x,y,z\n1.0,2.0,3.0\n# caf\xe9\n4.0,5.0,6.0\n", 3),
    "in_last_row": (b"x,y,z,section\n" + "\n".join(_rows(20, True)).encode()
                    + b"\n1.0,2.0,3.0,\xff\n", 22),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("mark", [False, True], ids=["plain", "bom"])
@pytest.mark.parametrize("name", sorted(NOT_UTF8))
def test_byte_that_is_not_utf8_names_line(tmp_path, monkeypatch, name, mark, workers):
    data, lineno = NOT_UTF8[name]
    path = tmp_path / "cloud.csv"
    path.write_bytes(_BOM.encode("utf-8") * mark + data)
    count_forks(monkeypatch)
    with pytest.raises(InputFormatError, match=f"^line {lineno}: byte 0x(e9|ff) is not UTF-8$") as exc:
        read_cloud_csv(path, workers=workers)
    assert exc.value.line_number == lineno


@pytest.mark.parametrize("header", ["x,y,z\n", "x,y,z,section\n"])
def test_header_only_file_warns_nothing(tmp_path, header):
    path = tmp_path / "cloud.csv"
    path.write_text(header, encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pts, labels = read_cloud_csv(path)
    assert caught == []
    assert pts.shape == (0, 3)


_TRUTH_HEADER = b"section,phi,theta_x_true,theta_y_true,cx,cy,cz\n"
_TRUTH_ROW = b"0,0.0,0.1,0.0,120.0,0.0,0.0\n"

# Every error of the two readers: (reader, file bytes, exact message, line).
READER_ERRORS = {
    "cloud-bad-header": (read_cloud_csv, b"a,b,c\n1.0,2.0,3.0\n",
                         "line 1: expected header 'x,y,z[,section]', got 'a,b,c'", 1),
    "cloud-three-fields-labeled": (read_cloud_csv, b"x,y,z,section\n1.0,2.0,3.0,0\n4.0,5.0,6.0\n",
                                   "line 3: expected 4 fields, got 3", 3),
    "cloud-not-a-number": (read_cloud_csv, b"x,y,z\n1.0,n/a,3.0\n",
                           "line 2: could not convert string to float: 'n/a'", 2),
    "cloud-float-label": (read_cloud_csv, b"x,y,z,section\n1.0,2.0,3.0,1.5\n",
                          "line 2: invalid literal for int() with base 10: '1.5'", 2),
    "cloud-label-beyond-int64": (
        read_cloud_csv, b"x,y,z,section\n1.0,2.0,3.0,9223372036854775808\n",
        "line 2: section label 9223372036854775808 is outside the int64 range", 2),
    "cloud-inf": (read_cloud_csv, b"x,y,z\n1.0,2.0,inf\n", "line 2: non-finite coordinate", 2),
    "cloud-not-utf8": (read_cloud_csv, b"x,y,z\n1.0,2.0,3.0\n4.0,\xff,6.0\n",
                       "line 3: byte 0xff is not UTF-8", 3),
    "cloud-empty": (read_cloud_csv, b"", "no header line found (empty input?)", None),
    "cloud-comments-before-header": (read_cloud_csv, b"# scan 7\n# operator A\nx,y,z\n1.0,2.0\n",
                                     "line 4: expected 3 fields, got 2", 4),
    "truth-bad-header": (
        read_truth_csv, b"section,phi\n" + _TRUTH_ROW,
        "line 1: expected header 'section,phi,theta_x_true,theta_y_true,cx,cy,cz', "
        "got 'section,phi'", 1),
    "truth-six-fields": (read_truth_csv, _TRUTH_HEADER + b"0,0.0,0.1,0.0,120.0,0.0\n",
                         "line 2: expected 7 fields", 2),
    "truth-not-a-number": (read_truth_csv, _TRUTH_HEADER + b"0,0.0,0.1,oops,120.0,0.0,0.0\n",
                           "line 2: could not convert string to float: 'oops'", 2),
    "truth-section-out-of-order": (
        read_truth_csv, _TRUTH_HEADER + _TRUTH_ROW + b"2,0.5,0.1,0.0,105.3,57.5,4.8\n",
        "line 3: expected section 1, got 2", 3),
    "truth-nan": (read_truth_csv, _TRUTH_HEADER + b"0,nan,0.1,0.0,120.0,0.0,0.0\n",
                  "line 2: non-finite value", 2),
    "truth-header-only": (read_truth_csv, _TRUTH_HEADER,
                          "line 2: expected a data row, got end of file", 2),
    "truth-not-utf8": (read_truth_csv, _TRUTH_HEADER + b"0,0.0,0.1,0.0,\xff,0.0,0.0\n",
                       "line 2: byte 0xff is not UTF-8", 2),
    # The end of file is the line after the last one, blank or comment.
    "truth-header-then-comment-and-blank": (read_truth_csv, _TRUTH_HEADER + b"# note\n\n",
                                            "line 4: expected a data row, got end of file", 4),
}


@pytest.mark.parametrize("name", sorted(READER_ERRORS))
def test_reader_error_message_and_line(tmp_path, name):
    reader, data, message, lineno = READER_ERRORS[name]
    path = tmp_path / "input.csv"
    path.write_bytes(data)
    with pytest.raises(InputFormatError) as exc:
        reader(path)
    assert (str(exc.value), exc.value.args, exc.value.line_number) == (
        message, (message,), lineno)


def test_random_doubles_round_trip_exactly(tmp_path):
    rng = np.random.default_rng(0)
    pts = rng.normal(scale=rng.choice([1e-300, 1e-3, 1.0, 1e5, 1e300], size=(2000, 1)),
                     size=(2000, 3))
    labels = rng.integers(-(2**62), 2**62, size=2000)
    path = tmp_path / "cloud.csv"
    report.write_cloud_csv(path, pts, labels)
    got_pts, got_labels = read_cloud_csv(path)
    assert got_pts.tobytes() == pts.tobytes()
    assert np.array_equal(got_labels, labels)


def test_unlabeled_random_doubles_round_trip_exactly(tmp_path):
    rng = np.random.default_rng(1)
    pts = rng.normal(scale=rng.choice([1e-300, 1e-3, 1.0, 1e5, 1e300], size=(2000, 1)),
                     size=(2000, 3))
    path = tmp_path / "cloud.csv"
    report.write_cloud_csv(path, pts)
    got_pts, got_labels = read_cloud_csv(path)
    assert got_pts.tobytes() == pts.tobytes()
    assert got_labels is None


BLOCK = report._BLOCK_ROWS
EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1e16, -1e16, 1e-05, 1.7976931348623157e308,
               -1.7976931348623157e308, 0.1, 2.5, 123456.789]


def _reference_cloud(points, labels=None) -> str:
    """The per-row writer: one f-string per row, each value through float()
    or int()."""
    if labels is None:
        return "x,y,z\n" + "".join(
            f"{float(x)!r},{float(y)!r},{float(z)!r}\n" for x, y, z in points)
    return "x,y,z,section\n" + "".join(
        f"{float(x)!r},{float(y)!r},{float(z)!r},{int(s)}\n"
        for (x, y, z), s in zip(points, labels, strict=True))


def _edge_cloud(rows: int, seed: int):
    """Random points of widely spread magnitude with EDGE_VALUES spread through
    every block, and labels in [-2**62, 2**62] holding both ends."""
    rng = np.random.default_rng(seed)
    points = rng.normal(scale=rng.choice([1e-300, 1e-3, 1.0, 1e5, 1e300], size=(rows, 1)),
                        size=(rows, 3))
    flat = points.reshape(-1)
    flat[::7] = np.resize(EDGE_VALUES, flat[::7].size)
    labels = rng.integers(-(2**62), 2**62, size=rows, endpoint=True)
    labels[:2] = [2**62, -(2**62)][:rows]
    return points, labels


def _fork_fails():
    raise OSError("no process to spare")


class TestCloudWriterBytes:
    """write_cloud_csv writes, byte for byte, what the per-row reference writes,
    for every worker count, and leaves no temporary file behind."""

    @pytest.mark.parametrize("labeled", [True, False], ids=["labeled", "unlabeled"])
    @pytest.mark.parametrize("rows", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    def test_matches_the_per_row_reference(self, tmp_path, monkeypatch, rows, labeled):
        points, labels = _edge_cloud(rows, seed=rows)
        labels = labels if labeled else None
        path = tmp_path / "cloud.csv"

        def check(workers):
            report.write_cloud_csv(path, points, labels, workers=workers)
            text = path.read_text(encoding="utf-8")
            assert text == _reference_cloud(points, labels), workers
            assert text.count("\n") == rows + 1
            assert "np." not in text
            assert os.listdir(tmp_path) == ["cloud.csv"]

        forks = count_forks(monkeypatch, cpus=2)
        for workers, children in [(1, 0), (2, int(rows > BLOCK))]:
            forks.clear()
            check(workers)
            assert len(forks) == children, workers
        monkeypatch.setattr(os, "fork", _fork_fails)  # the caller writes every share
        check(2)

    def test_a_failed_child_share_is_written_again_by_the_caller(self, tmp_path, monkeypatch):
        # Two shares of two blocks each; the child fails on its second block,
        # after its first reached its temporary file.
        points, labels = _edge_cloud(3 * BLOCK + 1, seed=3)
        caller = os.getpid()
        concatenate = np.concatenate

        def fail_in_child(blocks, **kwargs):
            if os.getpid() != caller and len(blocks[0]) == 1:
                raise RuntimeError("child failed")
            return concatenate(blocks, **kwargs)

        monkeypatch.setattr(report.np, "concatenate", fail_in_child)
        forks = count_forks(monkeypatch, cpus=2)
        path = tmp_path / "cloud.csv"
        report.write_cloud_csv(path, points, labels, workers=2)
        assert len(forks) == 1
        assert path.read_text(encoding="utf-8") == _reference_cloud(points, labels)
        assert os.listdir(tmp_path) == ["cloud.csv"]

    @pytest.mark.parametrize("labeled", [True, False], ids=["labeled", "unlabeled"])
    def test_float32_and_list_inputs(self, tmp_path, labeled):
        points, labels = _edge_cloud(BLOCK + 3, seed=7)
        small = np.clip(points, -1e30, 1e30).astype(np.float32)
        labels = labels if labeled else None
        cases = {
            "float32": (small, labels, _reference_cloud(small, labels)),
            "lists": (points.tolist(), None if labels is None else labels.tolist(),
                      _reference_cloud(points, labels)),
        }
        for name, (pts, labs, expected) in cases.items():
            path = tmp_path / f"{name}.csv"
            report.write_cloud_csv(path, pts, labs)
            text = path.read_text(encoding="utf-8")
            assert text == expected, name
            assert "np." not in text, name


class TestPartWriterBytes:
    """write_cloud_csv of a SyntheticPart, generated section by section in the
    writing processes, writes the bytes of its materialized arrays."""

    # 21 x 401: blocks of 10 sections (4010 rows), cut at row 8020 into two
    # shares and at rows 4010 and 8020 into three; 3 x 5000: blocks of one
    # section, each over _BLOCK_ROWS rows.
    SIZES = [(21, 401), (3, 5000), (5, BLOCK)]

    @pytest.mark.parametrize("sections, n", SIZES)
    def test_matches_the_array_writer(self, tmp_path, monkeypatch, sections, n):
        part = generate(HelixSpec(sections=sections, points_per_section=n, noise_sigma=0.02,
                                  rng_seed=sections, twist_profile=lambda i: 0.01 * i))
        expected = tmp_path / "arrays.csv"
        report.write_cloud_csv(expected, generate(part.spec).points, part.labels)
        path = tmp_path / "cloud.csv"
        for workers in (1, 2, 3):
            forks = count_forks(monkeypatch, cpus=3)
            report.write_cloud_csv(path, part, workers=workers)
            assert len(forks) == workers - 1
            assert path.read_bytes() == expected.read_bytes(), workers
            assert sorted(os.listdir(tmp_path)) == ["arrays.csv", "cloud.csv"]
        monkeypatch.setattr(os, "fork", _fork_fails)  # the caller writes every share
        report.write_cloud_csv(path, part, workers=3)
        assert path.read_bytes() == expected.read_bytes()
        assert "points" not in vars(part)  # never materialized

    def test_a_failed_child_share_is_written_again_by_the_caller(self, tmp_path, monkeypatch):
        part = generate(HelixSpec(sections=21, points_per_section=401, noise_sigma=0.02))
        expected = tmp_path / "arrays.csv"
        report.write_cloud_csv(expected, part.points, part.labels)
        caller = os.getpid()
        stream = type(part).sections

        def fail_in_child(self, first=0, stop=None):
            for k, section in enumerate(stream(self, first, stop)):
                if os.getpid() != caller and k == 1:
                    raise RuntimeError("child failed")
                yield section

        monkeypatch.setattr(type(part), "sections", fail_in_child)
        forks = count_forks(monkeypatch, cpus=2)
        path = tmp_path / "cloud.csv"
        report.write_cloud_csv(path, part, workers=2)
        assert len(forks) == 1
        assert path.read_bytes() == expected.read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["arrays.csv", "cloud.csv"]

    def test_labels_beside_a_part_are_refused(self, tmp_path):
        part = generate(HelixSpec(sections=3))
        path = tmp_path / "cloud.csv"
        with pytest.raises(ValueError, match="own labels"):
            report.write_cloud_csv(path, part, part.labels)
        assert not path.exists()


class TestCloudWriterRejects:
    """A cloud the reader would refuse, or that would lose rows, is not
    written: ValueError, and no file is made."""

    @pytest.mark.parametrize("labels, shape", [
        ([1, 2], "(2,)"),
        ([1, 2, 3, 4, 5], "(5,)"),
        ([[1], [2], [3], [4]], "(4, 1)"),
        (3, "()"),
    ], ids=["shorter", "longer", "column", "scalar"])
    def test_labels_not_one_per_point(self, tmp_path, labels, shape):
        path = tmp_path / "cloud.csv"
        with pytest.raises(ValueError, match=rf"labels have shape {re.escape(shape)}.*\(4,\)"):
            report.write_cloud_csv(path, np.zeros((4, 3)), labels)
        assert not path.exists()

    @pytest.mark.parametrize("shape", [(5, 2), (5, 4), (3,), (2, 3, 1)],
                             ids=lambda shape: "x".join(map(str, shape)))
    @pytest.mark.parametrize("labeled", [True, False], ids=["labeled", "unlabeled"])
    def test_points_not_n_by_3(self, tmp_path, shape, labeled):
        path = tmp_path / "cloud.csv"
        with pytest.raises(ValueError, match=re.escape(f"points have shape {shape}")):
            report.write_cloud_csv(path, np.zeros(shape), np.zeros(5, int) if labeled else None)
        assert not path.exists()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("labeled", [True, False], ids=["labeled", "unlabeled"])
    def test_non_finite_coordinate(self, tmp_path, bad, labeled):
        points = np.ones((BLOCK + 2, 3))
        points[BLOCK + 1, 2] = bad
        path = tmp_path / "cloud.csv"
        with pytest.raises(ValueError, match=f"point {BLOCK + 1} has a non-finite coordinate"):
            report.write_cloud_csv(path, points, np.zeros(BLOCK + 2, int) if labeled else None)
        assert not path.exists()


    @pytest.mark.parametrize("labels, bad, value", [
        (np.r_[np.zeros(4500), math.nan, np.zeros(499)], 4500, "nan"),
        ([0.7, 1.2, 2.9], 0, "0.7"),
        ([0, 1, 2**70], 2, str(2**70)),
        ([0.0, -math.inf, 1.0], 1, "-inf"),
        (np.array([0, 2**63, 1], dtype=np.uint64), 1, str(2**63)),
        (["0", "1", "2"], 0, "'0'"),
    ], ids=["nan", "fractions", "beyond_int64", "inf", "uint64_beyond_int64", "strings"])
    def test_label_not_an_int64(self, tmp_path, labels, bad, value):
        path = tmp_path / "cloud.csv"
        with pytest.raises(ValueError, match=re.escape(
                f"label {bad} is not an integer in the int64 range: {value}")):
            report.write_cloud_csv(path, np.zeros((len(labels), 3)), labels)
        assert not path.exists()

    @pytest.mark.parametrize("labels", [
        [0.0, -3.0, 2.0**62],
        np.array([0, 2**63 - 1, 7], dtype=np.uint64),
        np.array([-(2**31), 5, 2**31 - 1], dtype=np.int32),
        np.array([0, -(2**63), 2**63 - 1], dtype=object),
        [True, False, True],
    ], ids=["whole_floats", "uint64", "int32", "python_ints", "bools"])
    def test_whole_labels_of_any_type_are_written_and_read_back(self, tmp_path, labels):
        points = np.arange(9.0).reshape(3, 3)
        path = tmp_path / "cloud.csv"
        report.write_cloud_csv(path, points, labels)
        assert path.read_text(encoding="utf-8") == _reference_cloud(points, labels)
        assert read_cloud_csv(path)[1].tolist() == [int(s) for s in labels]


class TestTruthWriterBytes:
    @staticmethod
    def _reference(truth) -> str:
        rows = [f"{i},{float(truth.phi[i])!r},{float(truth.theta_x[i])!r},"
                f"{float(truth.theta_y[i])!r},{float(c[0])!r},{float(c[1])!r},{float(c[2])!r}\n"
                for i, c in enumerate(truth.centroids)]
        return "section,phi,theta_x_true,theta_y_true,cx,cy,cz\n" + "".join(rows)

    @pytest.mark.parametrize("rows", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    def test_matches_the_per_row_reference(self, tmp_path, rows):
        values, _ = _edge_cloud(2 * rows, seed=rows)
        truth = GroundTruth(phi=values[:rows, 0], theta_x=values[:rows, 1],
                            theta_y=values[:rows, 2], centroids=values[rows:])
        path = tmp_path / "truth.csv"
        report.write_truth_csv(path, truth)
        text = path.read_text(encoding="utf-8")
        assert text == self._reference(truth)
        assert "np." not in text

    @pytest.mark.parametrize("field", ["phi", "theta_x", "theta_y", "centroids"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_value_is_not_written(self, tmp_path, field, bad):
        truth = generate(HelixSpec(sections=7, rng_seed=3)).truth
        values = {name: getattr(truth, name).copy() for name in ("phi", "theta_x", "theta_y",
                                                                 "centroids")}
        values[field][5] = bad
        path = tmp_path / "truth.csv"
        with pytest.raises(ValueError, match="^section 5 has a non-finite truth value: "):
            report.write_truth_csv(path, GroundTruth(**values))
        assert not path.exists()

    def test_generated_part(self, tmp_path):
        truth = generate(HelixSpec(sections=7, noise_sigma=0.02, rng_seed=3)).truth
        path = tmp_path / "truth.csv"
        report.write_truth_csv(path, truth)
        assert path.read_text(encoding="utf-8") == self._reference(truth)
        phi, theta_x, theta_y, centroids = report.read_truth_csv(path)
        assert phi.tobytes() == truth.phi.tobytes()
        assert centroids.tobytes() == truth.centroids.tobytes()


class TestEvaluationCsv:
    SECTIONS_HEADER = (
        "index,azimuth_rad,azimuth_deg,centroid_radius_mm,theta_x_rad,theta_x_deg,"
        "theta_y_raw_rad,theta_y_raw_deg,theta_y_rect_rad,theta_y_rect_deg,"
        "circle_degenerate,line_rms_mm,algebraic_rms,geometric_rms_mm,"
        "fit_iterations,fit_converged"
    )
    ARC_HEADER = (
        "radius_mm,central_angle_rad,central_angle_deg,arc_length_mm,"
        "helical_arc_length_mm,pitch_mm_per_rad,sections"
    )

    @staticmethod
    def _result():
        part = generate(HelixSpec(sections=5, noise_sigma=0.02, rng_seed=3))
        return evaluate_cloud(part.points, labels=part.labels, fitter="gauss-newton")

    @classmethod
    def _report(cls, result=None):
        return EvaluationReport.from_result(
            cls._result() if result is None else result,
            fitter="gauss-newton", input_digest="sha256:0",
        )

    def test_headers_and_row_widths(self):
        rep = self._report()
        sections = sections_csv_text(rep).splitlines()
        arc = arc_csv_text(rep).splitlines()
        assert sections[0] == self.SECTIONS_HEADER
        assert len(sections) == 6
        assert all(line.count(",") == 15 for line in sections)
        assert arc[0] == self.ARC_HEADER
        assert len(arc) == 2 and arc[1].count(",") == 6

    def test_rows_hold_the_arc_columns_and_fits(self):
        result = self._result()
        document = self._report(result).document
        rows = document["sections"]
        assert len(rows) == len(result.fits) == 5
        for i, (row, fit) in enumerate(zip(rows, result.fits)):
            assert row["index"] == i
            assert row["azimuth_rad"] == result.azimuth_phi[i]
            assert row["theta_x_rad"] == result.theta_x[i]
            assert row["line_rms_mm"] == result.line_rms[i]
            assert row["theta_y_rect_rad"] == result.theta_y_rectified[i]
            assert row["theta_y_raw_rad"] == fit.params.orientation
            assert row["geometric_rms_mm"] == fit.rms_geometric_residual
            assert row["fit_iterations"] == fit.iterations
            assert row["fit_converged"] is fit.converged
        for record in [*rows, *document["arcs"]]:
            for value in record.values():
                assert value is None or type(value) in (float, int, bool), value

    def test_parsed_report_writes_the_same_csv(self):
        rep = self._report()
        parsed = EvaluationReport.from_text(rep.to_text())
        assert sections_csv_text(parsed) == sections_csv_text(rep)
        assert arc_csv_text(parsed) == arc_csv_text(rep)

    def test_arc_without_a_pitch_writes_empty_cells_and_null(self, tmp_path):
        # A central angle below 1e-9 rad gives no pitch and no helical length.
        part = generate(HelixSpec(sections=5, extent=1e-12))
        result = evaluate_cloud(part.points, labels=part.labels)
        assert result.arc.helical_arc_length is None
        assert result.arc.pitch_per_radian is None
        rep = self._report(result)
        header, row = arc_csv_text(rep).splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["helical_arc_length_mm"] == cells["pitch_mm_per_rad"] == ""
        rep.write(tmp_path / "report.json")
        text = (tmp_path / "report.json").read_text(encoding="utf-8")
        assert '"helical_arc_length_mm": null,\n' in text
        assert '"pitch_mm_per_rad": null,\n' in text
        assert text == json.dumps(rep.document, indent=2) + "\n"


class TestReportText:
    """to_text writes its tables column by column; json is the reference."""

    @staticmethod
    def reference(document):
        return json.dumps(document, indent=2, allow_nan=False) + "\n"

    def test_equals_json_on_an_evaluated_part(self):
        part = generate(HelixSpec(sections=6, noise_sigma=0.02, rng_seed=4))
        result = evaluate_cloud(part.points, labels=part.labels)
        rep = EvaluationReport.from_result(result, fitter="trace", input_digest="sha256:1")
        assert rep.to_text() == self.reference(rep.document)
        # the cells kept for the tables give the same text again
        assert rep.to_text() == self.reference(rep.document)

    @pytest.mark.parametrize("document", [
        {},
        {"sections": []},
        {"sections": [{}]},
        {"a": 1, "sections": [{"x": 1.5, "y": None}, {"x": None, "y": "s\u00e9"}], "z": [1, 2]},
        {"t%s": [{"%d": 1, "k\"q": True}, {"%d": 2, "k\"q": False}]},
        {"rows": [{"a": 1.0, "b": 2}, {"b": 2, "a": 1.0}]},
        {"rows": [{"a": [1.0, 2.0]}, {"a": {"b": -0.0}}]},
        {"rows": [{"a": 1}, {"a": 2.5}, {"a": True}]},
        {"rows": [{"a": np.float64(0.1), "b": 1e300}]},
        [{"a": 1.0}],
    ], ids=lambda d: json.dumps(d, default=float)[:40])
    def test_equals_json_on_any_document(self, document):
        assert EvaluationReport(document).to_text() == self.reference(document)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_cell_raises_as_json_does(self, bad):
        rep = self._evaluated()
        rep.to_text()
        rep.document["sections"][2]["line_rms_mm"] = bad
        with pytest.raises(ValueError) as want:
            self.reference(rep.document)
        with pytest.raises(ValueError) as got:
            rep.to_text()
        assert str(got.value) == str(want.value)

    def test_edited_cell_is_written_again(self):
        rep = self._evaluated()
        before = sections_csv_text(rep)
        rep.to_text()
        rep.document["sections"][1]["theta_x_rad"] = -0.0
        after = sections_csv_text(rep)
        assert after != before
        assert after.splitlines()[2].split(",")[4] == "-0.0"
        assert rep.to_text() == self.reference(rep.document)

    @staticmethod
    def _evaluated():
        part = generate(HelixSpec(sections=4, rng_seed=5))
        return EvaluationReport.from_result(evaluate_cloud(part.points, labels=part.labels),
                                            fitter="trace", input_digest="sha256:2")
