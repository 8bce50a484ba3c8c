#!/usr/bin/env bash
# Same-host perf regression check. Builds perfbench twice, at the change and
# at a base revision, then alternates `--workload all` runs of the two
# builds on this host. Fails when any run fails its correctness checks, or
# when a workload's median sim_kreq_per_s for the change is more than
# MAX_DROP below the base's.
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
# Runs one side once and keeps its "<workload> <kreq/s>" lines in
# $work/<side>-<pair>.kreq.
run() {
  local side=$1 pair=$2 out=$work/$1-$2.out
  if ! "$work/$side" --workload all --seconds "$RUN_SECONDS" --trace 0 >"$out" ||
    ! tail -n 1 "$out" | grep -q '"correct": true, "attempted": [0-9]*, "failed": 0,'; then
    echo "FAIL: $side run $pair failed its checks (see $out)"
    status=1
  fi
  tail -n 1 "$out" | grep -o '"[a-z0-9_]*\.sim_kreq_per_s": {"value": [0-9.e+-]*' |
    sed 's/^"\([a-z0-9_]*\)\.sim_kreq_per_s": {"value": /\1 /' >"$work/$side-$pair.kreq" || true
  echo "$side run $pair:" $(cat "$work/$side-$pair.kreq")
}

# Alternates which side goes first, so drift over the job hits both alike.
for pair in $(seq "$PAIRS"); do
  if ((pair % 2)); then order="base change"; else order="change base"; fi
  for side in $order; do run "$side" "$pair"; done
done

median() {
  cat "$work/$1"-*.kreq | awk -v w="$2" '$1 == w { print $2 }' | sort -g |
    awk '{ v[NR] = $1 } END { print NR ? (NR % 2 ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2) : 0 }'
}

printf '%-20s %10s %10s %8s\n' workload base change ratio
for w in $(cat "$work"/*.kreq | awk '{ print $1 }' | sort -u); do
  b=$(median base "$w")
  c=$(median change "$w")
  read -r ratio regressed < <(awk -v b="$b" -v c="$c" -v d="$MAX_DROP" \
    'BEGIN { print (b > 0 ? c / b : 0), (c < b * (1 - d)) }')
  verdict=ok
  if ((regressed)); then
    verdict=REGRESSED
    status=1
  fi
  printf '%-20s %10.3f %10.3f %8.3f %s\n' "$w" "$b" "$c" "$ratio" "$verdict"
done
echo "Medians of sim_kreq_per_s (kreq/s) over $PAIRS runs a side at --seconds $RUN_SECONDS." \
  "A change more than $MAX_DROP below the base regressed."
exit $status
