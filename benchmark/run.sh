#!/usr/bin/env bash
# Build the benchmark offline, then run it with the given arguments:
#
#   bash benchmark/run.sh --workload node_json --seed 1 --seconds 14 --trace 0
#   bash benchmark/run.sh --check
#   bash benchmark/run.sh --aa --json-out benchmark/results/BENCH_<pr>.json
#
# Build output goes to $CARGO_TARGET_DIR when the caller sets one, else to
# the repo's shared target/. Run from the repo root: everything the run
# writes goes under benchmark/out (a relative path, which keeps UNIX
# socket paths short wherever the checkout lives).
#
# The run's temp root (sockets, container dirs, journal files) is a tmpfs
# mounted on benchmark/out/ram in a private mount namespace, because the
# disk filesystem's inode allocator, not the program, set the pace of
# container churn (3x) and its spread (+-20 %; README, "Noise facts").
# Where the tool or the privilege is missing the mount is skipped with a
# note on stderr; the run then works on the plain directory, noisier, and
# says so as `tmp_fs` in its output. (The program pins itself to the CPUs
# its workload is defined on.)
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
bin="$target/release/convgpu-benchmark"
mkdir -p "$here/out/ram"
# One malloc arena: with several, peak RSS depends on which thread touched
# which first (node_json: 19-27 MiB with the default, 14.5-14.9 MiB with
# one), and all workloads but one run on one CPU, where there is no
# contention for more arenas to avoid.
export MALLOC_ARENA_MAX=1

run=("$bin" --out-dir "$here/out" --tmp-dir "$here/out/ram" "$@")
no_tmpfs="run.sh: temp root on the checkout's filesystem (cannot mount a tmpfs)"
if command -v unshare >/dev/null 2>&1 && unshare -m true 2>/dev/null; then
    # The mount lives and dies with this private namespace.
    exec unshare -m sh -c \
        'mount -t tmpfs -o size=1g tmpfs "$0" 2>/dev/null || echo "$1" >&2; shift; exec "$@"' \
        "$here/out/ram" "$no_tmpfs" "${run[@]}"
fi
echo "$no_tmpfs" >&2
exec "${run[@]}"
