#!/usr/bin/env bash
# Same-host perf regression check. Builds perfbench twice, at the change and
# at a base revision, then alternates `--workload all` runs of the two
# builds on this host. Prints both sides' medians of every end-to-end metric
# per workload, then for sim_kreq_per_s the pairs the change won and the
# base's quartiles, which perfbench/README.md's rule for claiming a gain
# reads. Fails when any run fails its correctness checks, or when a
# workload's median sim_kreq_per_s for the change is more than MAX_DROP
# below the base's, or its median peak_rss_mb more than MAX_RSS_RISE above.
#
#   .github/perf-pairs.sh <base-revision>
#
# The change is HEAD plus any uncommitted edits to tracked files. Both sides
# run on one host in alternation, so host speed and drift cancel out of the
# comparison. Both are built in the same directory, because a path
# dependency's directory feeds its symbol hashes and so the code layout: in
# an A/A test, two builds of one commit from two directories ran 4-12%
# apart, all one way. Everything goes to target/perf-pairs.
set -euo pipefail

# Set from A/A runs (HEAD as its own base) on a 2-vCPU host.
PAIRS=5
RUN_SECONDS=3
# Within BENCHMARK.json's bound of 0.25 for sim_kreq_per_s.
MAX_DROP=0.15
# BENCHMARK.json's bound for peak_rss_mb.
MAX_RSS_RISE=0.15
# setup_s is printed, not gated: ring_mcf's set-up reads in one of two bands
# about 25% apart from run to run on either side, so a gate at its bound of
# 0.25 could fail five runs a side by chance.

base=${1:?usage: .github/perf-pairs.sh <base-revision>}
root=$(git rev-parse --show-toplevel)
work=$root/target/perf-pairs
change=$(git -C "$root" stash create)
change=${change:-HEAD}
rm -rf "$work"
mkdir -p "$work"

# Builds <revision> in $work/tree and keeps the binary as $work/<side>.
build() {
  local side=$1 rev
  rev=$(git -C "$root" rev-parse --verify "$2^{commit}")
  rm -rf "$work/tree"
  mkdir "$work/tree"
  # Fresh mtimes (-m), so cargo rebuilds whatever differs from the last side.
  git -C "$root" archive "$rev" | tar -x -m -C "$work/tree"
  cargo build --release --quiet --offline --manifest-path "$work/tree/perfbench/Cargo.toml" \
    --target-dir "$work/target"
  cp "$work/target/release/palermo-perfbench" "$work/$side"
  echo "$side: $rev"
}
build base "$base"
build change "$change"

status=0
# Runs one side once and keeps its "<workload> <metric> <value>" lines in
# $work/<side>-<pair>.metrics.
run() {
  local side=$1 pair=$2 out=$work/$1-$2.out
  if ! "$work/$side" --workload all --seconds "$RUN_SECONDS" --trace 0 >"$out" ||
    ! tail -n 1 "$out" | grep -q '"correct": true, "attempted": [0-9]*, "failed": 0,'; then
    echo "FAIL: $side run $pair failed its checks (see $out)"
    status=1
  fi
  tail -n 1 "$out" |
    grep -o '"[a-z0-9_]*\.\(sim_kreq_per_s\|setup_s\|peak_rss_mb\)": {"value": [0-9.e+-]*' |
    sed 's/^"\([a-z0-9_]*\)\.\([a-z_]*\)": {"value": /\1 \2 /' >"$work/$side-$pair.metrics" || true
  echo "$side run $pair:" $(awk '$2 == "sim_kreq_per_s" { print $1, $3 }' "$work/$side-$pair.metrics")
}

# Alternates which side goes first, so drift over the job hits both alike.
for pair in $(seq "$PAIRS"); do
  if ((pair % 2)); then order="base change"; else order="change base"; fi
  for side in $order; do run "$side" "$pair"; done
done

# The median of <side>'s runs of metric <metric> on workload <workload>.
median() {
  cat "$work/$1"-*.metrics | awk -v w="$2" -v m="$3" '$1 == w && $2 == m { print $3 }' | sort -g |
    awk '{ v[NR] = $1 } END { print NR ? (NR % 2 ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2) : 0 }'
}

printf '%-20s %-15s %12s %12s %8s\n' workload metric base change ratio
for w in $(cat "$work"/*.metrics | awk '{ print $1 }' | sort -u); do
  for m in sim_kreq_per_s setup_s peak_rss_mb; do
    b=$(median base "$w" "$m")
    c=$(median change "$w" "$m")
    read -r ratio regressed < <(awk -v b="$b" -v c="$c" -v m="$m" -v d="$MAX_DROP" \
      -v r="$MAX_RSS_RISE" 'BEGIN {
        bad = (m == "sim_kreq_per_s" && c < b * (1 - d)) || (m == "peak_rss_mb" && c > b * (1 + r))
        print (b > 0 ? c / b : 0), bad
      }')
    verdict=ok
    if [[ $m == setup_s ]]; then verdict="not gated"; fi
    if ((regressed)); then
      verdict=REGRESSED
      status=1
    fi
    printf '%-20s %-15s %12.6g %12.6g %8.3f %s\n' "$w" "$m" "$b" "$c" "$ratio" "$verdict"
  done
done
echo "Medians over $PAIRS runs a side at --seconds $RUN_SECONDS. A change regressed when its" \
  "sim_kreq_per_s is more than $MAX_DROP below the base's or its peak_rss_mb more than" \
  "$MAX_RSS_RISE above; setup_s is not gated."

# What perfbench/README.md's rule for claiming a gain reads: the pairs whose
# sim_kreq_per_s the change won, and the base's nearest-rank quartiles
# (perfbench's stats::percentile) against the gap between the medians.
echo
printf '%-20s %9s %23s %12s\n' workload "pairs won" "base q1-q3" "median gap"
for w in $(cat "$work"/*.metrics | awk '{ print $1 }' | sort -u); do
  won=0
  pairs=0
  for pair in $(seq "$PAIRS"); do
    read -r b c < <(awk -v w="$w" '$1 == w && $2 == "sim_kreq_per_s" { printf "%s ", $3 } END { print "" }' \
      "$work/base-$pair.metrics" "$work/change-$pair.metrics")
    if [[ -n ${c:-} ]]; then
      pairs=$((pairs + 1))
      won=$((won + $(awk -v b="$b" -v c="$c" 'BEGIN { print (c > b) }')))
    fi
  done
  read -r q1 q3 < <(cat "$work"/base-*.metrics |
    awk -v w="$w" '$1 == w && $2 == "sim_kreq_per_s" { print $3 }' | sort -g |
    awk 'function at(p,  r) { r = int(NR * p); if (r < NR * p) r++; return v[r < 1 ? 1 : r] }
      { v[NR] = $1 } END { print at(0.25), at(0.75) }')
  gap=$(awk -v b="$(median base "$w" sim_kreq_per_s)" -v c="$(median change "$w" sim_kreq_per_s)" \
    'BEGIN { print c - b }')
  printf '%-20s %9s %11.6g-%-11.6g %12.6g\n' "$w" "$won/$pairs" "$q1" "$q3" "$gap"
done
echo "sim_kreq_per_s. A gain may be claimed only from ten or more pairs at the fixed run_seconds" \
  "that the change wins nine in ten, with a median gap wider than the base's q1-q3."
exit $status
