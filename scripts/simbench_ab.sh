#!/usr/bin/env bash
# Alternating A/B pairs of simbench: a git revision against the working tree.
#
# Builds simbench at <rev> in a temporary `git worktree` and at the working
# tree, then runs 10 alternating pairs per workload (the revision first in
# odd pairs, the working tree first in even ones, so a host that drifts
# between speed states penalises both sides alike). Each run lasts
# BENCHMARK.json's `run_seconds`. For each pair it prints both sides'
# sim_mips, their ratio (working tree / revision) and both sides'
# `correct`/`failed` gate fields; then the median ratio per workload. Only
# the untraced (`--trace 0`) end-to-end run is timed. Last, it prints a
# row for BENCH_simbench.json (fill in "pr"; "commit" is the working
# tree's `git describe --always --dirty`).
#
# Usage: scripts/simbench_ab.sh <rev> [workload...]
#   workloads default to stream_4k graph_replay os_mix2 campaign_grid
# Environment:
#   AB_SEED     simbench --seed (default 1)
#
# Exits 1 when any run reports `correct: false` or `failed` > 0.

set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ]; then
    sed -n '2,/^$/s/^# \{0,1\}//p' "$0" >&2
    exit 2
fi
REV="$1"
shift
WORKLOADS=("$@")
if [ ${#WORKLOADS[@]} -eq 0 ]; then
    WORKLOADS=(stream_4k graph_replay os_mix2 campaign_grid)
fi
PAIRS=10
RUN_SECONDS="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
SEED="${AB_SEED:-1}"

SCRATCH="$(mktemp -d)"
cleanup() {
    git worktree remove --force "$SCRATCH/base" 2>/dev/null || true
    rm -rf "$SCRATCH"
}
trap cleanup EXIT

git worktree add --quiet --detach "$SCRATCH/base" "$REV"
build() {
    cargo build --release --offline --quiet --manifest-path "$1/simbench/Cargo.toml"
}
echo "building simbench at $REV and at the working tree" >&2
build "$SCRATCH/base"
build .
A="$SCRATCH/base/simbench/target/release/simbench"
B="$PWD/simbench/target/release/simbench"

# Runs one side; prints "sim_mips correct failed" from simbench's last line.
run() {
    "$1" --workload "$2" --seed "$SEED" --seconds "$RUN_SECONDS" --trace 0 | tail -n 1 |
        python3 -c 'import json, sys
r = json.loads(sys.stdin.read())
print(r["metrics"]["sim_mips"]["value"], str(r["correct"]).lower(), r["failed"])'
}

PAIRS_LOG="$SCRATCH/pairs"
bad=0
for w in "${WORKLOADS[@]}"; do
    echo "== $w: $PAIRS pairs, ${RUN_SECONDS}s each, seed $SEED (ratio = working tree / $REV)"
    ratios=()
    for i in $(seq 1 "$PAIRS"); do
        if [ $((i % 2)) -eq 1 ]; then
            read -r a ac af <<<"$(run "$A" "$w")"
            read -r b bc bf <<<"$(run "$B" "$w")"
        else
            read -r b bc bf <<<"$(run "$B" "$w")"
            read -r a ac af <<<"$(run "$A" "$w")"
        fi
        r="$(python3 -c "print(f'{$b / $a:.4f}')")"
        ratios+=("$r")
        echo "$w $r $ac $af $bc $bf" >>"$PAIRS_LOG"
        printf 'pair %d: %s %.4f (correct %s, failed %s)  working tree %.4f (correct %s, failed %s)  ratio %s\n' \
            "$i" "$REV" "$a" "$ac" "$af" "$b" "$bc" "$bf" "$r"
        if [ "$ac" != true ] || [ "$bc" != true ] || [ "$af" != 0 ] || [ "$bf" != 0 ]; then
            bad=1
        fi
    done
    python3 -c 'import statistics, sys
print(f"median ratio {statistics.median(float(x) for x in sys.argv[1:]):.4f}")' "${ratios[@]}"
done

python3 - "$PAIRS_LOG" "$(git describe --always --dirty)" "$(git rev-parse --short "$REV")" \
    "$SEED" "$RUN_SECONDS" <<'EOF'
import json, statistics, sys
log, commit, parent, seed, seconds = sys.argv[1:]
pairs = {}
for line in open(log):
    w, r, ac, af, bc, bf = line.split()
    pairs.setdefault(w, []).append((float(r), ac == bc == "true", int(af) + int(bf)))
row = {"pr": None, "commit": commit, "parent": parent, "seed": int(seed),
       "run_seconds": int(seconds), "statistic": "median_of_pair_ratios",
       "workloads": {w: {"ratio": round(statistics.median(r for r, _, _ in p), 3),
                         "pairs": len(p), "better": sum(r > 1 for r, _, _ in p),
                         "correct": all(c for _, c, _ in p), "failed": sum(f for _, _, f in p)}
                     for w, p in pairs.items()}}
print("BENCH_simbench.json row:")
print(json.dumps(row))
EOF
exit "$bad"
