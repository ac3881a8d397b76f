#!/bin/sh
# Byte-identity check for changes that must leave every output unchanged.
#
# Usage: tools/compare_outputs.sh PARENT CHANGE
#
# Each argument is a checkout of this repository (a directory holding
# src/helibend) or a git revision of the repository this script lives in,
# whose src is exported with `git archive` into a temporary directory; for
# example `tools/compare_outputs.sh HEAD .` checks the working tree against
# the last commit. The same fixed set of synth, evaluate and compare-fits
# runs is made against each checkout, and the two output trees, exit codes
# and each run's stderr (as NAME.stderr, run-specific paths replaced by
# fixed tokens) included, are compared with `diff -r`. Exits 0 when they are
# identical.
#
# The set: criterion 8's part (synth --seed 42 --noise-sigma 0.05
# --twist-sine-amp-deg 3) evaluated with each fitter, with gauss-newton at
# --gn-max-iterations 2, with each fitter after every 7th data row of its
# cloud is dropped (34 sections of 41 points and 6 of 42, so blocks of two
# sizes), with each fitter at --workers 1 and 2 after section s drops s of
# its 48 rows, spread evenly around its outline (40 sections of 48 down to 9
# points, so every block is a stack of one), with each fitter after section
# 30's rows are moved onto one point and section 5's onto a line (both fail
# in one block, section 30 at an earlier check; each run exits 3 with
# section 5's error), with section
# labels 4 and 5 swapped, at --workers 1 and 2 (the azimuths step back from
# section 4 to 5; each run exits 3 with NonMonotonicAzimuth naming section
# 5), unlabeled with --sections 40, with every line ended by a bare "\r"
# and with only the header so ended, each at --workers 1 and 2 (a text
# read ends a line at a "\r", so the bulk reader ends the header there and
# both files are read in bulk, the second cut after its "\n"s), with a
# "# operator note" line before data row 1500, with data row 1600's y set
# to "n/a" and with data row 300's y set to "n/a", each at --workers 1 and
# 2 (the first two rows
# lie in the range that ends the file, which the caller streams, and the
# third in the range a forked child reads whole; each such range needs the
# line parser: the first file is read by it, the second exits 2 naming line
# 1601 and the third naming line 301), with data row 700 cut to three fields
# (in the child's range; exit 2, "line 701: expected 4 fields, got 3") and
# with data row 1700's z set to "inf" (in the caller's range; exit 2, "line
# 1701: non-finite coordinate"), each at --workers 1 and 2, and with
# --window 1, --window 4 (an even window pools window + 1 sections, so it
# takes the interior path at width 5) and --window 9 (four windows of
# widths 5 to 8 clamped at each end of the part); a 3-section part at the
# default window 5, whose every direction window is clamped at the ends of
# the part; a 21 x 401
# part (--seed 11, 8421 rows) whose cloud.csv, over three of the cloud
# writer's blocks of rows (which a 2-CPU host cuts into two shares, one
# written by a forked child), is diffed directly, and the same part again
# pinned to CPU 0 by taskset, when there is one, so that its cloud is
# written as one share; a noisy 3 x 5000 part (--seed 13), whose every
# block of the cloud writer is one section, larger than the writer's 4096
# rows, and whose second share skips the first share's noise draws; a
# noise-free 1001 x 48 part (48048 rows in blocks of 85 sections, the last
# of 66, which a 2-CPU host cuts into shares of 24480 and 23568 rows, with
# no noise draws to skip); a 1000 x 400
# labeled part with trace and gauss-newton; the ragged, failing and
# 1000 x 400 runs again with --workers 2 (a checkout that ignores the flag
# gives its sequential outputs, so these show that the forked CSV read and
# torsion fits of the other change neither outputs nor stderr); the
# 1000 x 400 part with its data rows reversed, so its labels descend, at
# --workers 1 and 2 (the only runs that group an unordered labeled cloud and
# exit 0; the swapped-label runs above exit 3); a
# --twist-constant-deg 45 part, whose stderr holds the CLI's one-line
# AmbiguousBranch warning;
# a --twist-constant-deg 90 part, whose major axes the ZY projection drops;
# a noise-free planar part (--pitch 0 --helix-angle-deg 0, whose pitch
# estimate is exactly 0.0, so a sign-of-zero change shows in report.json);
# a noise-free part of central angle 1e-8 degrees (--extent-deg 1e-8, whose
# helical arc length and pitch are null in report.json and empty in arc.csv:
# the only arcs table that is not written column by column; with noise its
# azimuths jitter and evaluate exits 3 with NonMonotonicAzimuth);
# a noise-free circular part (--seed 5 --semi-major 5 --semi-minor 5, the
# only part whose rows report "circle_degenerate": true); and compare-fits
# at --arc-fraction 1 and at --arc-fraction 0.3 --noise-sigma 0.1.
#
# When the trees differ, the largest absolute change in each column of every
# differing evaluate table (sections.csv, arc.csv) and compare-fits table
# (sweep.csv, summary.csv) is printed after the diff.
set -u

if [ $# -ne 2 ]; then
    echo "usage: $0 PARENT CHANGE" >&2
    exit 2
fi

repo=$(cd "$(dirname "$0")/.." && pwd)
pin=  # a command that hb runs the CLI under, such as taskset
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# checkout ARG NAME: print a directory holding src/helibend for ARG, exporting
# a git revision's src to $work/NAME.
checkout() {
    if [ -d "$1/src/helibend" ]; then
        cd "$1" && pwd
    elif git -C "$repo" rev-parse --quiet --verify "$1^{commit}" > /dev/null; then
        mkdir "$work/$2" && git -C "$repo" archive "$1" src | tar -x -C "$work/$2" \
            && echo "$work/$2"
    else
        echo "$0: $1 is neither a checkout holding src/helibend nor a git revision" >&2
        return 1
    fi
}

run_set() {
    src=$1/src
    out=$2
    mkdir -p "$out"
    codes=$out/exit_codes.txt
    : > "$codes"

    # hb NAME ARGS...: run the CLI from $src, record its exit code under NAME
    # and keep its stderr as NAME.stderr, with the paths of this checkout, of
    # the output tree and of this script's temporary directory replaced by
    # fixed tokens (in that order: an exported checkout's path starts with
    # the output tree's), so that the text of warnings and errors is compared
    # too.
    hb() {
        name=$1
        shift
        PYTHONPATH="$src" $pin python3 -m helibend.cli "$@" 2> "$work/stderr.raw"
        echo "$name $?" >> "$codes"
        sed -e "s|$src|<src>|g" -e "s|$out|<out>|g" -e "s|$work|<work>|g" \
            "$work/stderr.raw" > "$out/$name.stderr"
    }

    hb synth-c8 synth --output-dir "$out/c8" --seed 42 --noise-sigma 0.05 \
        --twist-sine-amp-deg 3
    for fitter in trace bookstein gauss-newton; do
        hb "c8-$fitter" evaluate --input "$out/c8/cloud.csv" \
            --output-dir "$out/c8-$fitter" --fitter "$fitter"
    done
    hb c8-gn2 evaluate --input "$out/c8/cloud.csv" --output-dir "$out/c8-gn2" \
        --fitter gauss-newton --gn-max-iterations 2
    awk 'NR == 1 || (NR - 1) % 7 != 0' "$out/c8/cloud.csv" > "$work/ragged.csv"
    hb c8-ragged-trace evaluate --input "$work/ragged.csv" --output-dir "$out/c8-ragged-trace" \
        --fitter trace
    hb c8-ragged-gn evaluate --input "$work/ragged.csv" --output-dir "$out/c8-ragged-gn" \
        --fitter gauss-newton
    hb c8-ragged-bookstein evaluate --input "$work/ragged.csv" \
        --output-dir "$out/c8-ragged-bookstein" --fitter bookstein
    for fitter in trace bookstein gauss-newton; do
        hb "c8-ragged-$fitter-w2" evaluate --input "$work/ragged.csv" \
            --output-dir "$out/c8-ragged-$fitter-w2" --fitter "$fitter" --workers 2
    done
    # Section s keeps 48 - s of its rows, the s it drops spread evenly around
    # its outline: no two sections share a point count, so every block of
    # canonicalization, direction moments and fits is a stack of one.
    awk -F, 'NR > 1 { s = $4; j = seen[s]++; if (int((j + 1) * s / 48) > int(j * s / 48)) next }
        { print }' "$out/c8/cloud.csv" > "$work/distinct.csv"
    for fitter in trace bookstein gauss-newton; do
        hb "c8-distinct-$fitter" evaluate --input "$work/distinct.csv" \
            --output-dir "$out/c8-distinct-$fitter" --fitter "$fitter"
        hb "c8-distinct-$fitter-w2" evaluate --input "$work/distinct.csv" \
            --output-dir "$out/c8-distinct-$fitter-w2" --fitter "$fitter" --workers 2
    done
    # Two failing sections in one block: every row of section 30 moved onto
    # one point at azimuth 0 (its first row turned about the product axis),
    # whose canonical points are exactly zero, so it fails "all points
    # coincide"; and section 5's rows spaced 0.01 mm along x from its first
    # row, collinear, so it fails the later rank check. A loop over the
    # sections raises section 5's error.
    awk -F, -v OFS=, '
        NR > 1 && $4 == 30 {
            if (!n30++) { x30 = sprintf("%.17g", sqrt($1 * $1 + $2 * $2)); z30 = $3 }
            $1 = x30; $2 = 0; $3 = z30 }
        NR > 1 && $4 == 5 {
            if (!k5) { x5 = $1; y5 = $2; z5 = $3 }
            $1 = sprintf("%.17g", x5 + 0.01 * k5++); $2 = y5; $3 = z5 }
        { print }' "$out/c8/cloud.csv" > "$work/failing.csv"
    for fitter in trace bookstein gauss-newton; do
        hb "c8-failing-$fitter" evaluate --input "$work/failing.csv" \
            --output-dir "$out/c8-failing-$fitter" --fitter "$fitter"
        hb "c8-failing-$fitter-w2" evaluate --input "$work/failing.csv" \
            --output-dir "$out/c8-failing-$fitter-w2" --fitter "$fitter" --workers 2
    done
    awk -F, -v OFS=, 'NR > 1 && ($4 == 4 || $4 == 5) { $4 = 9 - $4 } { print }' \
        "$out/c8/cloud.csv" > "$work/swapped.csv"
    hb c8-swapped evaluate --input "$work/swapped.csv" --output-dir "$out/c8-swapped"
    hb c8-swapped-w2 evaluate --input "$work/swapped.csv" --output-dir "$out/c8-swapped-w2" \
        --workers 2
    cut -d, -f1-3 "$out/c8/cloud.csv" > "$work/unlabeled.csv"
    hb c8-unlabeled evaluate --input "$work/unlabeled.csv" \
        --output-dir "$out/c8-unlabeled" --sections 40
    tr '\n' '\r' < "$out/c8/cloud.csv" > "$work/cr.csv"
    awk 'NR == 1 { printf "%s\r", $0; next } { print }' "$out/c8/cloud.csv" \
        > "$work/cr-header.csv"
    for ends in cr cr-header; do  # not "name", which hb sets
        hb "c8-$ends" evaluate --input "$work/$ends.csv" --output-dir "$out/c8-$ends"
        hb "c8-$ends-w2" evaluate --input "$work/$ends.csv" \
            --output-dir "$out/c8-$ends-w2" --workers 2
    done
    # Data row 1500 preceded by a comment line, and data row 1600's y set to
    # "n/a": both lie in the second byte range of a two-process read. Data
    # row 300's y set to "n/a" lies in the first.
    awk 'NR == 1501 { print "# operator note" } { print }' "$out/c8/cloud.csv" \
        > "$work/comment.csv"
    awk -F, -v OFS=, 'NR == 1601 { $2 = "n/a" } { print }' "$out/c8/cloud.csv" \
        > "$work/bad-row.csv"
    awk -F, -v OFS=, 'NR == 301 { $2 = "n/a" } { print }' "$out/c8/cloud.csv" \
        > "$work/bad-early-row.csv"
    # Data row 700 cut to three fields lies in the first range; data row
    # 1700's z set to "inf" lies in the second.
    awk -F, -v OFS=, 'NR == 701 { $0 = $1 OFS $2 OFS $3 } { print }' "$out/c8/cloud.csv" \
        > "$work/three-fields.csv"
    awk -F, -v OFS=, 'NR == 1701 { $3 = "inf" } { print }' "$out/c8/cloud.csv" \
        > "$work/inf-z.csv"
    for edit in comment bad-row bad-early-row three-fields inf-z; do
        hb "c8-$edit" evaluate --input "$work/$edit.csv" --output-dir "$out/c8-$edit"
        hb "c8-$edit-w2" evaluate --input "$work/$edit.csv" \
            --output-dir "$out/c8-$edit-w2" --workers 2
    done
    for window in 1 4 9; do
        hb "c8-window$window" evaluate --input "$out/c8/cloud.csv" \
            --output-dir "$out/c8-window$window" --window "$window"
    done

    hb synth-short synth --output-dir "$out/short" --seed 3 --sections 3 \
        --noise-sigma 0.05 --twist-constant-deg 10
    hb short evaluate --input "$out/short/cloud.csv" --output-dir "$out/short-trace"

    # 8421 rows, over three of the writer's blocks of rows and not a multiple
    # of one, so a change of the writer shows as a line diff of cloud.csv.
    # Pinned to one CPU, the writer runs one share and forks nothing.
    hb synth-blocks synth --output-dir "$out/blocks" --seed 11 --sections 21 \
        --points-per-section 401
    if command -v taskset > /dev/null 2>&1; then
        pin="taskset -c 0"
        hb synth-blocks-1cpu synth --output-dir "$out/blocks-1cpu" --seed 11 --sections 21 \
            --points-per-section 401
        pin=
    fi

    # Blocks of one section each, 5000 rows, and a noisy second share that
    # skips the first share's noise draws.
    hb synth-wide synth --output-dir "$out/wide" --seed 13 --sections 3 \
        --points-per-section 5000 --noise-sigma 0.02
    # Blocks of 85 sections, the last of 66, cut off the middle row, with no
    # noise draws to skip.
    hb synth-long synth --output-dir "$out/long" --sections 1001

    # The large part's cloud is diffed through its digest in report.json.
    hb synth-big synth --output-dir "$work/big" --seed 7 --sections 1000 \
        --points-per-section 400 --noise-sigma 0.02 --twist-sine-amp-deg 3 \
        --extent-deg 171.88733853924697
    cp "$work/big/truth.csv" "$out/big-truth.csv"
    for fitter in trace gauss-newton; do
        hb "big-$fitter" evaluate --input "$work/big/cloud.csv" \
            --output-dir "$out/big-$fitter" --fitter "$fitter"
        hb "big-$fitter-w2" evaluate --input "$work/big/cloud.csv" \
            --output-dir "$out/big-$fitter-w2" --fitter "$fitter" --workers 2
    done
    # The same data rows in reverse order: descending labels, which
    # segment_sections gathers by one stable sort, not cuts into views.
    { head -n 1 "$work/big/cloud.csv"; tail -n +2 "$work/big/cloud.csv" | tac; } \
        > "$work/big/reversed.csv"
    hb big-reversed evaluate --input "$work/big/reversed.csv" --output-dir "$out/big-reversed"
    hb big-reversed-w2 evaluate --input "$work/big/reversed.csv" \
        --output-dir "$out/big-reversed-w2" --workers 2
    rm -rf "$work/big"

    hb synth-45 synth --output-dir "$out/t45" --twist-constant-deg 45
    hb t45 evaluate --input "$out/t45/cloud.csv" --output-dir "$out/t45-trace"

    hb synth-90 synth --output-dir "$out/t90" --twist-constant-deg 90
    hb t90 evaluate --input "$out/t90/cloud.csv" --output-dir "$out/t90-trace" \
        --fitter trace

    hb synth-planar synth --output-dir "$out/planar" --pitch 0 --helix-angle-deg 0
    hb planar evaluate --input "$out/planar/cloud.csv" --output-dir "$out/planar-trace" \
        --fitter trace

    hb synth-flat synth --output-dir "$out/flat" --extent-deg 1e-8
    hb flat evaluate --input "$out/flat/cloud.csv" --output-dir "$out/flat-trace" \
        --fitter trace

    hb synth-circle synth --output-dir "$out/circle" --seed 5 --semi-major 5 \
        --semi-minor 5
    hb circle evaluate --input "$out/circle/cloud.csv" --output-dir "$out/circle-trace" \
        --fitter trace

    hb sweep-full compare-fits --output-dir "$out/sweep-full" --arc-fraction 1
    hb sweep-arc compare-fits --output-dir "$out/sweep-arc" --arc-fraction 0.3 \
        --noise-sigma 0.1
}

# column_changes PARENT_OUT CHANGE_OUT: largest absolute change per column of
# each table that differs between the two output trees.
column_changes() {
    python3 - "$1" "$2" <<'EOF'
import csv
import sys
from pathlib import Path

TABLES = ("sections.csv", "arc.csv", "sweep.csv", "summary.csv")
parent, change = map(Path, sys.argv[1:])
for old in sorted(parent.rglob("*.csv")):
    new = change / old.relative_to(parent)
    if old.name not in TABLES or not new.exists():
        continue
    if old.read_bytes() == new.read_bytes():
        continue
    with old.open(newline="") as fa, new.open(newline="") as fb:
        rows_a, rows_b = list(csv.DictReader(fa)), list(csv.DictReader(fb))
    print(f"{old.relative_to(parent)}: largest absolute change per column")
    if len(rows_a) != len(rows_b) or (rows_a and rows_a[0].keys() != rows_b[0].keys()):
        print("  header or row count differs")
        continue
    for col in rows_a[0] if rows_a else ():
        changed = [(a[col], b[col]) for a, b in zip(rows_a, rows_b) if a[col] != b[col]]
        if not changed:
            continue
        try:
            print(f"  {col}: {max(abs(float(b) - float(a)) for a, b in changed):.3g}")
        except ValueError:
            print(f"  {col}: non-numeric values differ")
EOF
}

parent=$(checkout "$1" parent-src) || exit 2
change=$(checkout "$2" change-src) || exit 2
run_set "$parent" "$work/parent"
run_set "$change" "$work/change"

if diff -r "$work/parent" "$work/change"; then
    echo "identical: $(find "$work/parent" -type f | wc -l) files"
else
    column_changes "$work/parent" "$work/change"
    echo "outputs differ" >&2
    exit 1
fi
