#!/usr/bin/env bash
# Count the non-test Rust lines of the program: every `.rs` file under
# `crates/*/src` and `src/`, each cut at its unit-test module (a
# `#[cfg(test)]` line directly followed by `mod tests`). Blank and comment
# lines count; nothing after the cut does. Prints one line per file
# (`lines path`), then the total. Not a gate: a size report for change
# descriptions.
#
#   ./ci/loc.sh            # every file, then the total
#   ./ci/loc.sh FILE...    # only the named files, then their total
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -gt 0 ]]; then
  files=("$@")
else
  mapfile -t files < <(find crates/*/src src -name '*.rs' | LC_ALL=C sort)
fi

awk '
  FNR == 1 { cut = 0; held = 0; n[FILENAME] += 0 }
  cut { next }
  held {
    if ($0 ~ /^[[:space:]]*mod tests[[:space:]]*(\{|$)/) { cut = 1; next }
    n[FILENAME]++; held = 0
  }
  /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { held = 1; next }
  { n[FILENAME]++ }
  END {
    for (f in n) total += n[f]
    for (i = 1; i < ARGC; i++) if (ARGV[i] in n) printf "%6d %s\n", n[ARGV[i]], ARGV[i]
    printf "%6d total\n", total
  }
' "${files[@]}"
