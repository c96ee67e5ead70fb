#!/usr/bin/env bash
# Smoke test of the installed `lpstats` console script: each command must
# print the bytes of its golden, the refusals must exit 2 or 3, and copies
# of a table, read whole or walked row by row, must give the same bytes.
# One column named twice must reach depend as two equal columns; that
# check passed too when ingest returned its columns by name, not in order.
# Run from the repository root: bash -eo pipefail tests/smoke.sh
set -eo pipefail

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
# golden FILE COMMAND...: the command must print FILE's bytes and write
# nothing to stderr, as output with no warnings does
golden() {
    local want=$1
    shift
    "$@" 2> "$tmp/golden.err" | cmp - "$want"
    if test -s "$tmp/golden.err"; then
        cat "$tmp/golden.err" >&2
        return 1
    fi
}
golden tests/golden/describe.json lpstats describe --col GAG
golden tests/golden/describe.csv lpstats describe --col GAG --format csv
golden tests/golden/depend.json lpstats depend --x Age --y GAG
golden tests/golden/regress.json lpstats regress --x Age --y GAG
golden tests/golden/cquantile.json lpstats cquantile --x Age --y GAG
golden tests/golden/fit.json lpstats fit --col GAG --g normal
golden tests/golden/bayes_update.json lpstats bayes-update --prior-n 4 \
    --prior-mean 0 --prior-var 1 --n 4 --mean 2 --var 1
# the golden echoes --data as given, so run from tests/
(cd tests && golden golden/twosample.json lpstats twosample --y response \
    --group group --data data/clinic.csv)
test "$(lpstats depend --x GAG --y GAG --format csv | sed -n 2p)" = 1,1,1,true
# spearman_mid is LP(1, 1), the first comoment: depend prints one text
dep=$(lpstats depend --x Age --y GAG)
sm=$(printf '%s' "$dep" | sed -n 's/.*"spearman_mid":\([^,]*\),.*/\1/p')
lp11=$(printf '%s' "$dep" | sed -n 's/.*"entries":\[\[\([^],]*\)[],].*/\1/p')
test -n "$sm" && test "$sm" = "$lp11"
lpstats cquantile --x Age --y GAG --order 30 --select none > /dev/null
lpstats fit --col GAG --g normal --order 8 > /dev/null
# Order 1 is the lowest, and only the score basis sets an order: every
# command that takes --order must run there.
for cmd in "describe --col GAG" "depend --x Age --y GAG" \
    "regress --x Age --y GAG" "cquantile --x Age --y GAG" \
    "fit --col GAG --g normal"; do
    lpstats $cmd --order 1 > /dev/null
done
# c is the slice of the one two-sample LP row, c_k = LP(1, k) T_1(1), so
# order 1 prints order 4's first c; w is LP(1, 1), the row's first comoment
ts1=$(cd tests && lpstats twosample --y response --group group \
    --data data/clinic.csv --order 1)
ts4=$(cd tests && lpstats twosample --y response --group group \
    --data data/clinic.csv --order 4)
c0='s/.*"high_order":{"c":\[\([^],]*\)[],].*/\1/p'
c1=$(printf '%s' "$ts1" | sed -n "$c0")
c4=$(printf '%s' "$ts4" | sed -n "$c0")
test -n "$c1" && test "$c1" = "$c4"
w=$(printf '%s' "$ts4" | sed -n 's/.*"wilcoxon":{"w":\([^,]*\),.*/\1/p')
lp1=$(printf '%s' "$ts4" | sed -n 's/.*"lp1k":\[\([^],]*\)[],].*/\1/p')
test -n "$w" && test "$w" = "$lp1"
code=0
lpstats fit --col GAG --g normal --order 51 || code=$?
test "$code" -eq 2
code=0
lpstats describe --col GAG --seed 1 || code=$?
test "$code" -eq 2
# Eight 1s and two 2s cannot carry six moments: the maxent density does
# not integrate to 1, and fit must refuse it.
printf 'y\n1\n1\n1\n1\n1\n1\n1\n1\n2\n2\n' > "$tmp/two.csv"
code=0
lpstats fit --col y --g normal --order 6 --data "$tmp/two.csv" || code=$?
test "$code" -eq 3
# 814 zeros, then 1, 2, 3 and 4: the score basis holds every order up to
# r - 1, however heavy the tie, so describe prints four LP moments and no
# warning.
python3 -c 'print("v", *[0] * 814, 1, 2, 3, 4, sep="\n")' > "$tmp/zeros.csv"
lpstats describe --col v --order 4 --data "$tmp/zeros.csv" > "$tmp/zeros.json"
grep -q '"warnings":\[\]' "$tmp/zeros.json"
python3 -c 'import json, sys
assert len(json.load(sys.stdin)["payload"]["lp_moments"]) == 4' \
    < "$tmp/zeros.json"
# A clean 20000-row table is read whole by one np.loadtxt, and so are its
# copy with one interior and two trailing blank lines, its copy with one
# interior and one trailing blank line, its CRLF copy and its copy with a
# column g of A/B labels, which np.loadtxt skips as no command here reads
# it. All must give the same bytes: the empty lines are counted in the
# scan that counts the lines.
# Its copy with an NA cell in row 10000 is walked by csv.reader, and
# describe, depend and regress must give for it the bytes of the copy
# without that row, and write its dropped row to stderr as a warning.
# A table of unsigned integers in LF-ended lines is parsed whole by the
# integral reader, with no np.loadtxt call, into int64 columns; its CRLF
# copy and its copy with one cell written as 7.0 are read whole by the
# float np.loadtxt, as is its copy with one interior and one trailing
# blank line, whose blank line ends the integral parse. All four must
# give the same bytes. The int64
# columns are counted by make_sample with no float round trip; depend,
# regress and cquantile sum over their atoms and cells, fit over its
# atoms, and twosample over the (atom, group) cells of y and the 0/1
# column g. So must the negated copies of the first and the third, where
# each 0 is written as -0: both are read by the float np.loadtxt, the
# signed integers and the copy with one cell written as -7.0, and each
# zero of either is read as +0.0. The clean
# table with a 0/1 column g taken from the row index, and its CRLF copy,
# must give the same twosample bytes: its untied x sums over the
# (atom, group) cells as tied columns do. That table's rows in reverse
# order, under the same file name in a sibling directory, must give the
# same full twosample JSON (means, r, t and w included), with untied x or
# 33-valued y as the response: every number is summed over the (atom,
# group) count table. The per-row group sums this replaced gave the same
# bytes on this table too, so the check guards the count table rather
# than proving it. The clean table's rows in reverse order must give the
# same depend bytes, with x and y either way round: the comoments and
# correlations of untied x and 33-valued y are summed per atom of x,
# which row order cannot reach. The integral table with its g written as
# 11-digit labels, and its copy with each label ending in .0, must give
# the same twosample JSON: the labels print by %.10g from either.
python3 - "$tmp" <<'PY'
import os
import random
import sys

for sub in ("rev", "lab", "labdot"):
    os.mkdir(f"{sys.argv[1]}/{sub}")
rng = random.Random(16)
rows = [f"{rng.gauss(0, 1)!r},{rng.randrange(33)}" for _ in range(20000)]
blank = rows[:10000] + [""] + rows[10000:] + ["", ""]
blank1 = rows[:10000] + [""] + rows[10000:] + [""]
na = rows[:9999] + ["NA," + rows[9999].split(",")[1]] + rows[10000:]
ints = [f"{rng.randrange(34)},{rng.randrange(37)},{rng.randrange(2)}"
        for _ in range(20000)]
ints[10000] = "7," + ints[10000].split(",", 1)[1]
dot = ints[:10000] + ["7.0," + ints[10000].split(",", 1)[1]] + ints[10001:]
intblank = ints[:10000] + [""] + ints[10000:] + [""]
neg = [",".join("-" + f for f in row.split(",")) for row in ints]
negdot = neg[:10000] + ["-7.0," + neg[10000].split(",", 1)[1]] + neg[10001:]
grp = [f"{row},{i % 3 == 0:d}" for i, row in enumerate(rows)]
text = [f"{row},{'AB'[i % 2]}" for i, row in enumerate(rows)]
lab = [row[:-1] + ("98765432109" if row[-1] == "1" else "12345678901")
       for row in ints]
for name, lines, end in (("lf.csv", rows, "\n"), ("crlf.csv", rows, "\r\n"),
                         ("blank.csv", blank, "\n"),
                         ("blank1.csv", blank1, "\n"), ("na.csv", na, "\n"),
                         ("text.csv", text, "\n"),
                         ("drop.csv", rows[:9999] + rows[10000:], "\n"),
                         ("int.csv", ints, "\n"), ("dot.csv", dot, "\n"),
                         ("intblank.csv", intblank, "\n"),
                         ("intcrlf.csv", ints, "\r\n"),
                         ("neg.csv", neg, "\n"),
                         ("negdot.csv", negdot, "\n"),
                         ("grp.csv", grp, "\n"), ("grpcrlf.csv", grp, "\r\n"),
                         ("rev/grp.csv", grp[::-1], "\n"),
                         ("rev.csv", rows[::-1], "\n"),
                         ("lab/t.csv", lab, "\n"),
                         ("labdot/t.csv", [f"{row}.0" for row in lab], "\n")):
    head = "x,y" if name in ("lf.csv", "crlf.csv", "blank.csv", "blank1.csv",
                             "na.csv", "drop.csv", "rev.csv") else "x,y,g"
    with open(f"{sys.argv[1]}/{name}", "w", newline="") as fh:
        fh.write(end.join([head, *lines]) + end)
PY
for cmd in "describe --col x" "depend --x x --y y"; do
    lpstats $cmd --format csv --data "$tmp/lf.csv" > "$tmp/lf.out"
    for copy in crlf blank blank1 text; do
        lpstats $cmd --format csv --data "$tmp/$copy.csv" | cmp - "$tmp/lf.out"
    done
done
for cmd in "describe --col x" "depend --x x --y y" "regress --x x --y y"; do
    lpstats $cmd --format csv --data "$tmp/drop.csv" > "$tmp/drop.out"
    lpstats $cmd --format csv --data "$tmp/na.csv" 2> "$tmp/na.err" \
        | cmp - "$tmp/drop.out"
    test "$(cat "$tmp/na.err")" = "warning: dropped 1 rows (non_numeric: 1)"
done
for cmd in "describe --col x" "depend --x x --y y" "regress --x x --y y" \
    "cquantile --x x --y y" "fit --col x --g normal" \
    "twosample --y y --group g"; do
    for pair in "int dot" "int intcrlf" "int intblank" "neg negdot"; do
        set -- $pair
        lpstats $cmd --format csv --data "$tmp/$1.csv" > "$tmp/$1.out"
        lpstats $cmd --format csv --data "$tmp/$2.csv" | cmp - "$tmp/$1.out"
    done
done
lpstats twosample --y x --group g --format csv --data "$tmp/grp.csv" \
    > "$tmp/grp.out"
lpstats twosample --y x --group g --format csv --data "$tmp/grpcrlf.csv" \
    | cmp - "$tmp/grp.out"
for col in x y; do
    (cd "$tmp" && lpstats twosample --y $col --group g --data grp.csv) \
        > "$tmp/fwd.json"
    (cd "$tmp/rev" && lpstats twosample --y $col --group g --data grp.csv) \
        | cmp - "$tmp/fwd.json"
done
for cmd in "depend --x x --y y" "depend --x y --y x"; do
    lpstats $cmd --format csv --data "$tmp/lf.csv" > "$tmp/fwd.out"
    lpstats $cmd --format csv --data "$tmp/rev.csv" | cmp - "$tmp/fwd.out"
done
(cd "$tmp/lab" && lpstats twosample --y y --group g --data t.csv) \
    > "$tmp/lab.json"
grep -q '"labels":\[1.23456789e+10,9.876543211e+10\]' "$tmp/lab.json"
(cd "$tmp/labdot" && lpstats twosample --y y --group g --data t.csv) \
    | cmp - "$tmp/lab.json"
# A constant response has no spread, whatever round-off its mean carries:
# regress prints y_sd 0 and +0 coefficients and selects no cell, and
# twosample refuses a response constant in each group (7 * a / 7 != a for
# the first group).
python3 -c 'print("x,y", *[f"{i % 50},-0.005227484414807474"
                          for i in range(335)], sep="\n")' > "$tmp/creg.csv"
lpstats regress --x x --y y --data "$tmp/creg.csv" > "$tmp/creg.json"
grep -q '"y_sd":0,' "$tmp/creg.json"
grep -q '"coefficients":\[0,0,0,0\]' "$tmp/creg.json"
grep -q '"selected":\[false,false,false,false\]' "$tmp/creg.json"
python3 -c 'print("y,g", *["-0.2924567509650886,0"] * 7,
                 "-0.007819084623568421,1", sep="\n")' > "$tmp/ctwo.csv"
code=0
lpstats twosample --y y --group g --data "$tmp/ctwo.csv" || code=$?
test "$code" -eq 3
# An integral table with one unrequested field of 70000 digits, a line
# longer than a 64 KiB read, must give the bytes of the same table
# without that column.
python3 - "$tmp" <<'PY'
import random
import sys

rng = random.Random(38)
rows = [(rng.randrange(31), rng.randrange(33), rng.randrange(9))
        for _ in range(20000)]
for name, wide in (("wide.csv", True), ("narrow.csv", False)):
    with open(f"{sys.argv[1]}/{name}", "w", newline="") as fh:
        fh.write("x,y,z\n" if wide else "x,y\n")
        for i, (x, y, z) in enumerate(rows):
            big = "9" * 70000 if i == 10000 else str(z)
            fh.write(f"{x},{y},{big}\n" if wide else f"{x},{y}\n")
PY
for cmd in "describe --col x" "depend --x x --y y"; do
    lpstats $cmd --format csv --data "$tmp/narrow.csv" > "$tmp/narrow.out"
    lpstats $cmd --format csv --data "$tmp/wide.csv" | cmp - "$tmp/narrow.out"
done
