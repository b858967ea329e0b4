#!/usr/bin/env bash
# The end-to-end shell checks that CI runs after the tier-1 tests: pipelines
# of `python -m impurity_stream run` processes compared with cmp, the rows
# and errors of its writer process, and the shape of a `bench` report.
# Run from anywhere, with the package not installed:
#
#     bash -e -o pipefail ci/checks.sh
#
# Files go to $RUNNER_TEMP, or to a new temporary directory that is removed
# at the end.
set -e -o pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src
if [ -z "$RUNNER_TEMP" ]; then
  RUNNER_TEMP=$(mktemp -d)
  trap 'rm -rf "$RUNNER_TEMP"' EXIT
fi

echo "Rows do not depend on --emit-every"
# Both cadences read the pipe through run_stream's block loop; every
# 1000th row at --emit-every 1 is a row at --emit-every 1000. The
# fading estimator counts down to each row it writes.
LABELS="import random; r = random.Random(9); print('\\n'.join('c%d' % min(int(r.paretovariate(1.1)), 5000) for _ in range(300000)))"
for mode in "window --window-size 1000 --refresh-every 10000" "fading --alpha 0.999"; do
  run="python -m impurity_stream run --mode $mode"
  python -c "$LABELS" | $run --emit-every 1 | awk 'NR % 1000 == 0' > "$RUNNER_TEMP/every-1.tsv"
  python -c "$LABELS" | $run --emit-every 1000 > "$RUNNER_TEMP/every-1000.tsv"
  test "$(wc -l < "$RUNNER_TEMP/every-1000.tsv")" -eq 300
  cmp "$RUNNER_TEMP/every-1.tsv" "$RUNNER_TEMP/every-1000.tsv"
done

echo "Rows written to a pipe survive the exit"
# The command flushes stdout and stderr and ends with os._exit, with
# no interpreter teardown to flush what is left. The rows that reach
# a pipe must be every row that the same run writes to --output.
python -c "$LABELS" > "$RUNNER_TEMP/labels.txt"
run="python -m impurity_stream run --mode fading --alpha 0.999 --emit-every 1"
python -c "$LABELS" | $run | cat > "$RUNNER_TEMP/piped.tsv"
test "$(wc -l < "$RUNNER_TEMP/piped.tsv")" -eq 300000
$run --input "$RUNNER_TEMP/labels.txt" --output "$RUNNER_TEMP/written.tsv"
cmp "$RUNNER_TEMP/piped.tsv" "$RUNNER_TEMP/written.tsv"

echo "A resumed run writes the rows of an uninterrupted one"
# Each state is saved after line 123456. The fading state holds
# d = n²·G, u = n·H and the counts; loading it recomputes n·log2(n)
# and each c·log2(c) as the run computes them. The window state holds
# the window's ids; loading it rebuilds the counts and the exact sums.
# At w=1000 the split falls inside a refresh period; at w=200000 the
# loaded window is not yet full, so the fill path runs after the load.
# Exact metrics take O(classes) per row, so exact writes a row per
# 1000 events; the first part's last row, at line 123456, is written
# only because its input ends there, and is dropped. Every mode's
# list of ints goes through a resume as version 5 hex. Either way the
# rows from line 123457 on are unchanged.
python -c "$LABELS" > "$RUNNER_TEMP/labels.txt"
for case in "1 fading --alpha 0.999" "1 window --window-size 1000 --refresh-every 10000" \
    "1 window --window-size 200000" "1000 exact"; do
  every=${case%% *}
  run="python -m impurity_stream run --emit-every $every --mode ${case#* }"
  $run --input "$RUNNER_TEMP/labels.txt" > "$RUNNER_TEMP/whole.tsv"
  head -n 123456 "$RUNNER_TEMP/labels.txt" | $run --save-state "$RUNNER_TEMP/state.snap" \
    | awk -v every="$every" '($1 + 1) % every == 0' > "$RUNNER_TEMP/split.tsv"
  tail -n +123457 "$RUNNER_TEMP/labels.txt" | $run --load-state "$RUNNER_TEMP/state.snap" >> "$RUNNER_TEMP/split.tsv"
  test "$(wc -l < "$RUNNER_TEMP/whole.tsv")" -eq $((300000 / every))
  cmp "$RUNNER_TEMP/split.tsv" "$RUNNER_TEMP/whole.tsv"
done

echo "A window run split over two processes writes the rows of one"
# A window run over a regular file that emits at most one row every 4
# events observes the lines past its middle in a second process, which
# first reads the window's 1000 lines before them; a pipe, and a row per
# event, are read in one process. The rows and the saved states of a
# file and a pipe must be the same bytes, at a row per 1000 events, per
# 4, past the writer handoff, and per event. With line 250000 left
# empty, in the second half, both end in the same error line with exit
# code 2.
python -c "$LABELS" > "$RUNNER_TEMP/labels.txt"
sed '250000s/.*//' "$RUNNER_TEMP/labels.txt" > "$RUNNER_TEMP/bad.txt"
run="python -m impurity_stream run --mode window --window-size 1000 --refresh-every 10000"
for every in 1000 4 1; do
  $run --emit-every $every --input "$RUNNER_TEMP/labels.txt" --save-state "$RUNNER_TEMP/file.snap" \
    > "$RUNNER_TEMP/file.tsv"
  cat "$RUNNER_TEMP/labels.txt" | $run --emit-every $every --save-state "$RUNNER_TEMP/pipe.snap" \
    > "$RUNNER_TEMP/pipe.tsv"
  test "$(wc -l < "$RUNNER_TEMP/file.tsv")" -eq $((300000 / every))
  cmp "$RUNNER_TEMP/file.tsv" "$RUNNER_TEMP/pipe.tsv"
  cmp "$RUNNER_TEMP/file.snap" "$RUNNER_TEMP/pipe.snap"
  given=0; $run --emit-every $every --input "$RUNNER_TEMP/bad.txt" > "$RUNNER_TEMP/file.tsv" \
    2> "$RUNNER_TEMP/file.err" || given=$?
  piped=0; cat "$RUNNER_TEMP/bad.txt" | $run --emit-every $every > "$RUNNER_TEMP/pipe.tsv" \
    2> "$RUNNER_TEMP/pipe.err" || piped=$?
  test "$given" -eq 2
  test "$piped" -eq 2
  test "$(cat "$RUNNER_TEMP/file.err")" = "impurity-stream: error: line 250000: empty label"
  cmp "$RUNNER_TEMP/file.err" "$RUNNER_TEMP/pipe.err"
  test "$(wc -l < "$RUNNER_TEMP/file.tsv")" -eq $((249999 / every))
  cmp "$RUNNER_TEMP/file.tsv" "$RUNNER_TEMP/pipe.tsv"
done

echo "A state saved after a load with no new events is the file it came from"
# load_snapshot and write_snapshot each hold about one copy of a state,
# and the labels and each uW field are written a slice at a time. A state
# resumed over empty input and saved again must give the same bytes, in
# every mode. 123456 labels over 5000 classes give thousands of labels,
# several slices.
LABELS="import random; r = random.Random(9); print('\\n'.join('c%d' % r.randrange(5000) for _ in range(123456)))"
python -c "$LABELS" > "$RUNNER_TEMP/labels.txt"
for mode in "window --window-size 1000 --refresh-every 10000" "window --window-size 200000" \
    "fading --alpha 0.999" "exact"; do
  run="python -m impurity_stream run --emit-every 1000 --mode $mode"
  $run --input "$RUNNER_TEMP/labels.txt" --save-state "$RUNNER_TEMP/saved.snap" > /dev/null
  $run --load-state "$RUNNER_TEMP/saved.snap" --save-state "$RUNNER_TEMP/resaved.snap" \
    < /dev/null > "$RUNNER_TEMP/rows.tsv"
  test ! -s "$RUNNER_TEMP/rows.tsv"
  test "$(sed -n 3p "$RUNNER_TEMP/saved.snap" | tr -cd , | wc -c)" -ge 2048
  cmp "$RUNNER_TEMP/saved.snap" "$RUNNER_TEMP/resaved.snap"
done

echo "Stdin and --input read the same bytes alike"
# Labels end in \r\n, \r or \n. Each estimator reads them once from a
# pipe and once from the file, both through run_stream's one byte
# reader, and a lone \r ends a line in both. A stream of multi-byte
# labels with a bad byte past the first 8 KiB read, under the 64 KiB
# a pipe holds, gives the same rows and error from both.
LABELS="import random, sys; r = random.Random(5); sys.stdout.buffer.write(b''.join(b'c%d%s' % (r.randrange(50), r.choice([b'\\r\\n', b'\\r', b'\\n'])) for _ in range(20000)))"
BAD="import sys; sys.stdout.buffer.write(''.join('\\u00e9%d\\n' % (k % 1000) for k in range(2000)).encode() + b'\\xff\\n\\u00e90\\n')"
python -c "$BAD" > "$RUNNER_TEMP/bad.txt"
run="python -m impurity_stream run --mode fading --alpha 0.999"
piped=0; cat "$RUNNER_TEMP/bad.txt" | $run > "$RUNNER_TEMP/stdin.tsv" 2> "$RUNNER_TEMP/stdin.err" || piped=$?
given=0; $run --input "$RUNNER_TEMP/bad.txt" > "$RUNNER_TEMP/input.tsv" 2> "$RUNNER_TEMP/input.err" || given=$?
test "$piped" -eq 2
test "$given" -eq 2
test "$(wc -l < "$RUNNER_TEMP/input.tsv")" -gt 1000
cmp "$RUNNER_TEMP/stdin.tsv" "$RUNNER_TEMP/input.tsv"
cmp "$RUNNER_TEMP/stdin.err" "$RUNNER_TEMP/input.err"
python -c "$LABELS" > "$RUNNER_TEMP/labels.txt"
for mode in "window --window-size 1000" "fading --alpha 0.999" "exact"; do
  for every in 1 16 1000; do
    run="python -m impurity_stream run --mode $mode --emit-every $every"
    cat "$RUNNER_TEMP/labels.txt" | $run > "$RUNNER_TEMP/stdin.tsv"
    $run --input "$RUNNER_TEMP/labels.txt" > "$RUNNER_TEMP/input.tsv"
    test "$(wc -l < "$RUNNER_TEMP/stdin.tsv")" -eq $((20000 / every))
    cmp "$RUNNER_TEMP/stdin.tsv" "$RUNNER_TEMP/input.tsv"
  done
done

echo "CSV rows read through stdin, --input and a resume alike"
# Rows i,x,label end in \r\n, \r or \n, so a line end follows each
# label. Each estimator reads them from a pipe, through --input, and
# split after row 12345, its state saved and loaded; the rows of all
# three must be those of the uninterrupted --input run. head cannot
# split at a lone \r, so the program writes rows [start, stop) of one
# seeded list. As in the resume step above, the first part's last row
# is dropped unless it falls on the cadence.
CSV="import random, sys; r = random.Random(11); rows = [b'%d,x,c%d%s' % (i, r.randrange(300), r.choice([b'\\r\\n', b'\\r', b'\\n'])) for i in range(40000)]; sys.stdout.buffer.write(b''.join(rows[int(sys.argv[1]):int(sys.argv[2])]))"
python -c "$CSV" 0 40000 > "$RUNNER_TEMP/rows.csv"
python -c "$CSV" 0 12345 > "$RUNNER_TEMP/head.csv"
python -c "$CSV" 12345 40000 > "$RUNNER_TEMP/tail.csv"
for case in "1 window --window-size 1000 --refresh-every 10000" "1 fading --alpha 0.999" "16 exact"; do
  every=${case%% *}
  run="python -m impurity_stream run --format csv --column 2 --emit-every $every --mode ${case#* }"
  $run --input "$RUNNER_TEMP/rows.csv" > "$RUNNER_TEMP/whole.tsv"
  test "$(wc -l < "$RUNNER_TEMP/whole.tsv")" -eq $((40000 / every))
  cat "$RUNNER_TEMP/rows.csv" | $run > "$RUNNER_TEMP/stdin.tsv"
  cmp "$RUNNER_TEMP/stdin.tsv" "$RUNNER_TEMP/whole.tsv"
  cat "$RUNNER_TEMP/head.csv" | $run --save-state "$RUNNER_TEMP/state.snap" \
    | awk -v every="$every" '($1 + 1) % every == 0' > "$RUNNER_TEMP/split.tsv"
  $run --input "$RUNNER_TEMP/tail.csv" --load-state "$RUNNER_TEMP/state.snap" >> "$RUNNER_TEMP/split.tsv"
  cmp "$RUNNER_TEMP/split.tsv" "$RUNNER_TEMP/whole.tsv"
done

echo "Rows past the writer handoff are the rows of runs that write their own"
# A run writes its first 16384 rows itself and forks a writer process for
# the rest. Four resumed parts of 10000 labels each stay below the handoff,
# so their rows are formatted in process; --output, a stdout pipe, and a
# split after label 23456 and resumed must write the same bytes. A failed
# write ends in one error line and exit code 2: >/dev/full and head -c 10
# fail before the handoff, head -c 1000000 in the writer.
LABELS="import random, sys; r = random.Random(24); labels = ['c%d\n' % r.randrange(300) for _ in range(40000)]; sys.stdout.write(''.join(labels[int(sys.argv[1]):int(sys.argv[2])]))"
for mode in "fading --alpha 0.999" "window --window-size 1000 --refresh-every 10000"; do
  run="python -m impurity_stream run --emit-every 1 --mode $mode"
  state="$RUNNER_TEMP/state.snap"
  : > "$RUNNER_TEMP/parts.tsv"
  python -c "$LABELS" 0 10000 | $run --save-state "$state" >> "$RUNNER_TEMP/parts.tsv"
  for start in 10000 20000 30000; do
    python -c "$LABELS" $start $((start + 10000)) | $run --load-state "$state" --save-state "$state" >> "$RUNNER_TEMP/parts.tsv"
  done
  test "$(wc -l < "$RUNNER_TEMP/parts.tsv")" -eq 40000
  python -c "$LABELS" 0 40000 > "$RUNNER_TEMP/labels.txt"
  $run --input "$RUNNER_TEMP/labels.txt" --output "$RUNNER_TEMP/written.tsv"
  cmp "$RUNNER_TEMP/written.tsv" "$RUNNER_TEMP/parts.tsv"
  python -c "$LABELS" 0 40000 | $run | cat > "$RUNNER_TEMP/piped.tsv"
  cmp "$RUNNER_TEMP/piped.tsv" "$RUNNER_TEMP/parts.tsv"
  python -c "$LABELS" 0 23456 | $run --save-state "$state" > "$RUNNER_TEMP/split.tsv"
  python -c "$LABELS" 23456 40000 | $run --load-state "$state" >> "$RUNNER_TEMP/split.tsv"
  cmp "$RUNNER_TEMP/split.tsv" "$RUNNER_TEMP/parts.tsv"
  code=0
  $run --input "$RUNNER_TEMP/labels.txt" > /dev/full 2> "$RUNNER_TEMP/err.txt" || code=$?
  test "$code" -eq 2
  test "$(wc -l < "$RUNNER_TEMP/err.txt")" -eq 1
  for keep in 10 1000000; do
    code=0
    $run --input "$RUNNER_TEMP/labels.txt" 2> "$RUNNER_TEMP/err.txt" | head -c $keep > /dev/null || code=$?
    test "$code" -eq 2
    test "$(wc -l < "$RUNNER_TEMP/err.txt")" -eq 1
  done
done

echo "bench prints one row per mode, and refuses an unknown mode in one line"
# Each mode times its estimator's observe_block at a row per event. The
# report is a header and a row for each of window, fading and recompute,
# 5 tab-separated fields each. An unknown mode is run_bench's error: exit
# 1, one line on stderr and nothing on stdout.
python -m impurity_stream bench --classes 10 --events 10000 --repeat 1 | cat > "$RUNNER_TEMP/bench.tsv"
test "$(wc -l < "$RUNNER_TEMP/bench.tsv")" -eq 4
test "$(awk -F '\t' 'NF == 5' "$RUNNER_TEMP/bench.tsv" | wc -l)" -eq 4
code=0
python -m impurity_stream bench --classes 10 --events 10000 --modes nope \
  > "$RUNNER_TEMP/bench.out" 2> "$RUNNER_TEMP/bench.err" || code=$?
test "$code" -eq 1
test ! -s "$RUNNER_TEMP/bench.out"
test "$(wc -l < "$RUNNER_TEMP/bench.err")" -eq 1

echo "All checks passed"
