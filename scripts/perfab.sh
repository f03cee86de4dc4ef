#!/usr/bin/env bash
# perfab.sh — interleaved A/B runs of the repository benchmark
# (perfbench/) between a base revision and HEAD.
#
# Usage:
#   scripts/perfab.sh <rev> <workload> [pairs=10]
#
# Both sides are checked out as detached git worktrees under
# .bench_build/perfab and run through their own perfbench/run.sh, so
# each side measures its committed source (uncommitted edits are not
# measured). Pair i runs seed i on both sides; odd pairs run the base
# first, even pairs HEAD first, so drift on a shared box lands on both
# sides alike. The report gives, per metric, each side's median and
# quartiles, the change of the medians, how many pairs HEAD won, and
# whether the median gap exceeds the base's interquartile range; then
# correct runs and failed requests per side. Every run's full output is
# kept under .bench_build/perfab/logs.
#
# Environment:
#   PERFAB_SECONDS  --seconds per run (default 28, BENCHMARK.json's run_seconds)
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: scripts/perfab.sh <rev> <workload> [pairs=10]" >&2
    exit 2
fi
rev=$1 workload=$2 pairs=${3:-10}
seconds=${PERFAB_SECONDS:-28}
case "$pairs" in '' | *[!0-9]*) echo "perfab: pairs must be a positive integer" >&2; exit 2 ;; esac
[ "$pairs" -gt 0 ] || { echo "perfab: pairs must be a positive integer" >&2; exit 2; }

root=$(git rev-parse --show-toplevel)
cd "$root"
base_sha=$(git rev-parse --verify "$rev^{commit}")
head_sha=$(git rev-parse --verify HEAD)
work="$root/.bench_build/perfab"
logs="$work/logs/$workload"
results="$work/results.tsv"
mkdir -p "$logs" "$root/.bench_build/gocache"
: >"$results"

cleanup() {
    for side in base head; do
        git worktree remove --force "$work/wt-$side" >/dev/null 2>&1 || true
    done
    git worktree prune
}
trap cleanup EXIT

for side in base head; do
    sha=$base_sha
    [ "$side" = head ] && sha=$head_sha
    git worktree remove --force "$work/wt-$side" >/dev/null 2>&1 || true
    rm -rf "$work/wt-$side"
    git worktree add --quiet --detach "$work/wt-$side" "$sha"
    # One Go build cache for both sides (it is content-addressed), shared
    # with a plain perfbench/run.sh in the main checkout.
    mkdir -p "$work/out-$side"
    [ -e "$work/out-$side/gocache" ] || ln -s "$root/.bench_build/gocache" "$work/out-$side/gocache"
done
echo "== perfab: $workload, $pairs pairs, --seconds $seconds"
echo "   base $(git log -1 --format='%h %s' "$base_sha")"
echo "   head $(git log -1 --format='%h %s' "$head_sha")"

# run SIDE SEED — one benchmark run; appends its JSON result line's
# fields to $results as "side seed key value" rows.
run() {
    local side=$1 seed=$2 log="$logs/$1-seed$2.txt" status=0
    (cd "$work/wt-$side" && CARGO_TARGET_DIR="$work/out-$side" \
        bash perfbench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0) \
        >"$log" 2>&1 || status=$?
    tail -n 1 "$log" | awk -v side="$side" -v seed="$seed" -v status="$status" '
    {
        line = $0
        if (line !~ /^\{"correct"/) { print side, seed, "correct", 0; print side, seed, "failed", 0; exit }
        print side, seed, "correct", (line ~ /"correct":true/ && status == 0) ? 1 : 0
        match(line, /"failed":[0-9]+/); print side, seed, "failed", substr(line, RSTART + 9, RLENGTH - 9)
        match(line, /"attempted":[0-9]+/); print side, seed, "attempted", substr(line, RSTART + 12, RLENGTH - 12)
        while (match(line, /"[a-z0-9_.]+":\{"value":[-0-9.eE+]+/)) {
            m = substr(line, RSTART, RLENGTH); line = substr(line, RSTART + RLENGTH)
            name = m; sub(/^"/, "", name); sub(/".*/, "", name)
            val = m; sub(/.*"value":/, "", val)
            print side, seed, "m:" name, val
        }
    }' >>"$results"
    printf '   pair %d/%d %s: %s\n' "$seed" "$pairs" "$side" "$(grep -c "^$side $seed m:" "$results") metrics, exit $status"
}

for ((i = 1; i <= pairs; i++)); do
    if ((i % 2 == 1)); then run base "$i"; run head "$i"; else run head "$i"; run base "$i"; fi
done

# Metric directions come from HEAD's BENCHMARK.json; a metric it does
# not list counts as lower-is-better.
higher=$(tr -d '\n ' <BENCHMARK.json | grep -o '"name":"[^"]*","unit":"[^"]*","better":"higher"' |
    sed 's/"name":"\([^"]*\)".*/\1/' | tr '\n' ' ')

echo
awk -v pairs="$pairs" -v higher="$higher" '
function sortn(a, n,   i, j, t) {
    for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j] < a[j-1]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
}
# q: linear-interpolated quantile p of the n sorted values in a.
function q(a, n, p,   h, lo) {
    if (n == 0) return ""
    h = (n - 1) * p; lo = int(h)
    return lo + 1 >= n ? a[n] : a[lo+1] + (h - lo) * (a[lo+2] - a[lo+1])
}
BEGIN { split(higher, hs, " "); for (k in hs) hi[hs[k]] = 1 }
{
    v[$1, $2, $3] = $4
    if ($3 ~ /^m:/ && !(($3) in seen)) { seen[$3] = 1; names[++nn] = $3 }
}
END {
    sortn(names, nn)
    printf "%-36s %24s %24s %8s %6s %s\n", "metric", "base median [q1 q3]", "head median [q1 q3]", "change", "wins", "gap>IQR"
    for (k = 1; k <= nn; k++) {
        m = names[k]; nb = nh = wins = n2 = 0
        for (s = 1; s <= pairs; s++) {
            hb = (("base", s, m) in v); hh = (("head", s, m) in v)
            if (hb) b[++nb] = v["base", s, m] + 0
            if (hh) h[++nh] = v["head", s, m] + 0
            if (hb && hh) {
                n2++
                d = v["head", s, m] - v["base", s, m]
                better = (substr(m, 3) in hi) ? (d > 0) : (d < 0)
                if (better) wins++
            }
        }
        sortn(b, nb); sortn(h, nh)
        mb = q(b, nb, .5); mh = q(h, nh, .5)
        chg = mb != 0 ? sprintf("%+.1f%%", (mh - mb) / mb * 100) : "-"
        iqr = q(b, nb, .75) - q(b, nb, .25)
        gap = mh - mb; if (gap < 0) gap = -gap
        printf "%-36s %24s %24s %8s %6s %s\n", substr(m, 3),
            sprintf("%.4g [%.4g %.4g]", mb, q(b, nb, .25), q(b, nb, .75)),
            sprintf("%.4g [%.4g %.4g]", mh, q(h, nh, .25), q(h, nh, .75)),
            chg, wins "/" n2, (gap > iqr ? "yes" : "no")
        delete b; delete h
    }
    print ""
    for (i = 1; i <= 2; i++) {
        side = i == 1 ? "base" : "head"; ok = failed = att = 0
        for (s = 1; s <= pairs; s++) {
            ok += v[side, s, "correct"]; failed += v[side, s, "failed"]; att += v[side, s, "attempted"]
        }
        printf "%s: correct %d/%d runs, failed %d of %d attempted\n", side, ok, pairs, failed, att
    }
}' "$results"
