#!/usr/bin/env bash
# Compare the benchmark at a parent revision with the working tree, in
# alternating pairs, and say which side is better on each metric:
#
#   ci/ab.sh <parent-rev> [--workload W]... [--pairs N] [--seed S] [--out FILE]
#            [--seconds S] [--trace 0|1] [--label TEXT]
#
# Both trees are exported in turn to one source path (two checkouts at
# different paths differ by 15-30 % on their own): the parent with
# `git archive`, the working tree with `git ls-files -co --exclude-standard`.
# Each tree's `benchmark/` is built offline into a fresh CARGO_TARGET_DIR of
# its own. The two binaries then run directly from that one directory, never
# through benchmark/run.sh (which mounts a tmpfs): the temp root is a
# directory on a tmpfs that is already mounted (on disk where there is
# none, and the record says so), emptied before each run, and
# MALLOC_ARENA_MAX=1 as run.sh sets it. Pairs alternate, and the side
# that runs first swaps every pair. Defaults: every workload of
# BENCHMARK.json, 10 pairs, seed 1, 14 s, untraced.
#
# Every run is written to FILE (default: pairs.json in the work directory)
# in the schema of docs/perf/PR*_pairs.json: a description and one batch
# per workload, named after the workload, seed, pairs, seconds, trace and
# temp root (after TEXT, with --label). Each run has its workload, seed,
# trace, pair, side, exit code, its JSON record (the run's last stdout
# line, null when it printed none) and, after a failure, the last line of
# its stderr. A FILE this script wrote before gains the new batches at its
# end.
#
# Then, per workload and metric of BENCHMARK.json in the records (the
# end-to-end ones untraced, the per-layer ones traced), it prints each
# side's median, q1 and q3, the pairs the change won, and a verdict: better
# when the change won at least nine pairs in ten and its median beats the
# parent's by more than the parent's quartile distance (q3 - q1), worse for
# the mirror image, unresolved otherwise.
#
# Environment: AB_DIR, the work directory (default ${TMPDIR:-/tmp}/convgpu-ab;
# emptied of its trees and targets at every call); AB_TMPFS, the tmpfs to
# hold the temp root (default /dev/shm).
set -euo pipefail
repo="$(cd "$(dirname "$0")/.." && pwd)"

usage() {
    sed -n '5,6p' "$0" | sed 's/^#/usage:/' >&2
    exit 2
}

[[ $# -ge 1 && $1 != --* ]] || usage
rev="$(git -C "$repo" rev-parse --verify --quiet "$1^{commit}")" || {
    echo "ab.sh: no commit '$1'" >&2
    exit 2
}
shift
workloads=() pairs=10 seed=1 seconds=14 trace=0 out="" label=""
while [[ $# -gt 0 ]]; do
    [[ $# -ge 2 ]] || usage
    case "$1" in
        --workload) workloads+=("$2") ;;
        --pairs) pairs="$2" ;;
        --seed) seed="$2" ;;
        --seconds) seconds="$2" ;;
        --trace) trace="$2" ;;
        --out) out="$2" ;;
        --label) label="$2: " ;;
        *) usage ;;
    esac
    shift 2
done
[[ $pairs =~ ^[1-9][0-9]*$ && $seed =~ ^[0-9]+$ && $trace =~ ^[01]$ ]] || usage
if [[ ${#workloads[@]} -eq 0 ]]; then
    mapfile -t workloads < <(sed -n 's/.*{"name": *"\([a-z_]*\)", *"why".*/\1/p' "$repo/BENCHMARK.json")
fi

work="${AB_DIR:-${TMPDIR:-/tmp}/convgpu-ab}"
src="$work/src"
out="${out:-$work/pairs.json}"
[[ $out == /* ]] || out="$PWD/$out"
mkdir -p "$work"
tmpfs="${AB_TMPFS:-/dev/shm}"
fs="$(stat -f -c %T "$tmpfs" 2>/dev/null || echo missing)"
if [[ $fs == tmpfs ]]; then
    regime="--tmp-dir on an existing tmpfs ($tmpfs, emptied before each run; nothing mounted)"
else
    echo "ab.sh: $tmpfs is not a tmpfs ($fs): the temp root goes on disk" >&2
    tmpfs="$work"
    regime="--tmp-dir on $(stat -f -c %T "$work") under $work, not a tmpfs (emptied before each run)"
fi
tmp="$tmpfs/convgpu-ab-$$"

# Put one tree at $src: `parent` or `change`.
export_tree() {
    rm -rf "$src"
    mkdir -p "$src"
    if [[ $1 == parent ]]; then
        git -C "$repo" archive "$rev" | tar -x -C "$src"
    else
        (cd "$repo" && git ls-files -co --exclude-standard -z |
            while IFS= read -r -d '' f; do
                if [[ -e $f ]]; then printf '%s\0' "$f"; fi
            done | tar --null -T - -c) | tar -x -C "$src"
    fi
}

for side in parent change; do
    echo "ab.sh: building the $side" >&2
    export_tree "$side"
    rm -rf "$work/target-$side"
    (cd "$src" && CARGO_TARGET_DIR="$work/target-$side" cargo build --release \
        --offline --quiet --manifest-path benchmark/Cargo.toml)
done

# One line per run: workload, seed, trace, pair, side, exit, record, error.
runs="$work/runs.tsv"
: >"$runs"
trap 'rm -rf "$tmp"' EXIT
for w in "${workloads[@]}"; do
    for ((p = 1; p <= pairs; p++)); do
        order=(parent change)
        ((p % 2)) || order=(change parent)
        for side in "${order[@]}"; do
            rm -rf "$tmp"
            mkdir -p "$tmp"
            code=0
            (cd "$src" && MALLOC_ARENA_MAX=1 "$work/target-$side/release/convgpu-benchmark" \
                --out-dir benchmark/out --tmp-dir "$tmp" --workload "$w" --seed "$seed" \
                --seconds "$seconds" --trace "$trace") >"$work/run.out" 2>"$work/run.err" || code=$?
            record="$(tail -n 1 "$work/run.out" | tr -d '\t')"
            [[ $record == '{'* ]] || record=null
            error=""
            [[ $code -eq 0 ]] || error="$(tail -n 1 "$work/run.err" | tr -d '\t')"
            printf '%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n' \
                "$w" "$seed" "$trace" "$p" "$side" "$code" "$record" "$error" >>"$runs"
            echo "ab.sh: $w seed $seed pair $p $side: exit $code" >&2
        done
    done
done

# The batches, as JSON.
batches="$(awk -F'\t' -v pairs="$pairs" -v seconds="$seconds" -v label="$label" -v regime="$regime" '
    function str(s) { gsub(/\\/, "\\\\", s); gsub(/"/, "\\\"", s); return "\"" s "\"" }
    $1 != last {
        if (NR > 1) printf "\n   ]\n  },\n"
        printf "  {\n   \"name\": %s,\n   \"runs\": [\n", str(label $1 " seed " $2 ", " pairs " pairs, --seconds " seconds ", --trace " $3 ", " regime)
        last = $1; first = 1
    }
    {
        if (!first) printf ",\n"
        first = 0
        printf "    {\"workload\": %s, \"seed\": %d, \"trace\": %d, \"pair\": %d, \"side\": %s, \"exit\": %d, \"record\": %s",
            str($1), $2, $3, $4, str($5), $6, $7
        if ($8 != "") printf ", \"error\": %s", str($8)
        printf "}"
    }
    END { if (NR) printf "\n   ]\n  }" }
' "$runs")"
if [[ -s $out ]] && grep -q '"batches"' "$out"; then
    # Reopen the batches array: drop its closing `]` and the object's `}`.
    add="$batches" awk '
        { text = text $0 "\n" }
        END { sub(/[[:space:]]*\][[:space:]]*\}[[:space:]]*$/, "", text); printf "%s,\n%s\n ]\n}\n", text, ENVIRON["add"] }
    ' "$out" >"$out.new"
    mv "$out.new" "$out"
else
    cpu="$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo | head -n 1)"
    desc="Runs of ci/ab.sh. Parent = $(git -C "$repo" rev-parse --short "$rev"); change = the working tree on $(git -C "$repo" rev-parse --short HEAD). Both trees exported in turn to one source path, each built into its own fresh CARGO_TARGET_DIR; the two binaries run directly and alternately from that path, the side that runs first swapped every pair. Regime: MALLOC_ARENA_MAX=1, $(nproc)-CPU host (${cpu:-unknown CPU}); the benchmark pins itself to one CPU. 'record' is the run's last stdout line, null when it printed none; 'error' is the last stderr line of a run that failed."
    desc="${desc//\\/\\\\}"
    printf '{\n "description": "%s",\n "batches": [\n%s\n ]\n}\n' "${desc//\"/\\\"}" "$batches" >"$out"
fi
echo "ab.sh: runs written to $out" >&2

# The verdicts.
metrics="$(sed -n 's/.*{"name": *"\([a-z0-9_.]*\)", *"unit": *"[^"]*", *"better": *"\([a-z]*\)".*/\1 \2/p' \
    "$repo/BENCHMARK.json")"
awk -F'\t' -v metrics="$metrics" '
    function sort(a, n,    i, j, v) {
        for (i = 2; i <= n; i++) {
            v = a[i]
            for (j = i - 1; j >= 1 && a[j] > v; j--) a[j + 1] = a[j]
            a[j + 1] = v
        }
    }
    # The q-quantile of the sorted a[1..n], interpolated linearly.
    function quantile(a, n, q,    h, lo) {
        h = (n - 1) * q + 1
        lo = int(h)
        return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
    }
    function value(record, name,    at) {
        at = index(record, "\"" name "\":")
        if (!at) return ""
        record = substr(record, at)
        if (!match(record, /"value": *-?[0-9.eE+-]+/)) return ""
        record = substr(record, RSTART, RLENGTH)
        sub(/"value": */, "", record)
        return record + 0
    }
    BEGIN {
        m = split(metrics, words, /[ \n]/)
        for (i = 1; i < m; i += 2) { name[++k] = words[i]; lower[k] = words[i + 1] == "lower" }
    }
    {
        if (!($1 in seen)) { seen[$1] = 1; order[++w] = $1 }
        if ($6 != 0 || $7 !~ /"correct": *true/) failed[$1, $5]++
        for (i = 1; i <= k; i++) {
            v = value($7, name[i])
            if (v != "") val[$1, name[i], $5, $4] = v
        }
        if ($4 > maxpair[$1]) maxpair[$1] = $4
    }
    END {
        for (x = 1; x <= w; x++) {
            wl = order[x]
            printf "\n%s: failed or incorrect runs: parent %d, change %d\n", wl, failed[wl, "parent"], failed[wl, "change"]
            printf "%-20s %-32s %-32s %8s %6s  %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "delta", "won", "verdict"
            for (i = 1; i <= k; i++) {
                n = 0; won = 0; lost = 0; nonzero = 0
                for (p = 1; p <= maxpair[wl]; p++) {
                    if (!((wl, name[i], "parent", p) in val) || !((wl, name[i], "change", p) in val)) continue
                    a = val[wl, name[i], "parent", p]; b = val[wl, name[i], "change", p]
                    n++; pa[n] = a; ch[n] = b
                    if (a != 0 || b != 0) nonzero = 1
                    if (lower[i] ? b < a : b > a) won++
                    if (lower[i] ? b > a : b < a) lost++
                }
                if (!nonzero) continue
                sort(pa, n); sort(ch, n)
                pm = quantile(pa, n, 0.5); pq1 = quantile(pa, n, 0.25); pq3 = quantile(pa, n, 0.75)
                cm = quantile(ch, n, 0.5); cq1 = quantile(ch, n, 0.25); cq3 = quantile(ch, n, 0.75)
                gain = lower[i] ? pm - cm : cm - pm
                need = n * 0.9
                verdict = "unresolved"
                if (won >= need && gain > pq3 - pq1) verdict = "better"
                if (lost >= need && -gain > pq3 - pq1) verdict = "worse"
                delta = pm != 0 ? sprintf("%+.1f%%", 100 * (cm - pm) / pm) : "n/a"
                printf "%-20s %-32s %-32s %8s %6s  %s\n", name[i],
                    sprintf("%.4g [%.4g, %.4g]", pm, pq1, pq3),
                    sprintf("%.4g [%.4g, %.4g]", cm, cq1, cq3),
                    delta, won "/" n, verdict
            }
        }
    }
' "$runs"
