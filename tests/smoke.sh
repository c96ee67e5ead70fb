#!/usr/bin/env bash
# Smoke test of the installed `lpstats` console script: each command must
# print the bytes of its golden, and the refusals must exit 2.
# Run from the repository root: bash -eo pipefail tests/smoke.sh
set -eo pipefail

lpstats describe --col GAG | cmp - tests/golden/describe.json
lpstats describe --col GAG --format csv | cmp - tests/golden/describe.csv
lpstats depend --x Age --y GAG | cmp - tests/golden/depend.json
lpstats regress --x Age --y GAG | cmp - tests/golden/regress.json
lpstats cquantile --x Age --y GAG | cmp - tests/golden/cquantile.json
# the golden echoes --data as given, so run from tests/
(cd tests && lpstats twosample --y response --group group \
    --data data/clinic.csv | cmp - golden/twosample.json)
lpstats cquantile --x Age --y GAG --order 30 --select none > /dev/null
code=0
lpstats fit --col GAG --g normal --order 9 || code=$?
test "$code" -eq 2
code=0
lpstats describe --col GAG --seed 1 || code=$?
test "$code" -eq 2
