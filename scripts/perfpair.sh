#!/usr/bin/env bash
# Paired perfbench runs: a git revision against the working tree.
#
#   scripts/perfpair.sh <git-rev> <workload> [pairs=10] [seconds=30] [seed=1]
#
# Builds perfbench from the files committed at <git-rev> (exported with
# `git archive` into a temporary directory) and from the working tree,
# then runs `pairs` alternating pairs of `--trace 0` runs, the revision
# first in odd pairs and the working tree first in even ones. It prints
# each run's round count and end-to-end metrics, then per metric each
# side's median and q1-q3, the ratio of the medians (working tree over
# revision), the pairs the working tree won, and whether the medians
# differ by more than the revision's q1-q3 spread. A metric worse than
# its BENCHMARK.json bound is flagged, and the script exits 1 if any run
# is not correct.
#
# A run's peak_rss_mb grows with its round count, and a faster side runs
# more rounds in the same seconds. So the script also fits each side's
# peak_rss_mb against its round count (least squares: slope and
# intercept) and prints the change's difference from the revision at
# the pooled median round count: a memory rise that only follows the
# round count shows up as a small difference there.
#
# Nothing under perfbench/ changes: cargo rewrites perfbench/Cargo.lock
# on every build, so the script saves that file and restores it.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ]; then
    echo "usage: $0 <git-rev> <workload> [pairs=10] [seconds=30] [seed=1]" >&2
    exit 2
fi
rev=$1 workload=$2 pairs=${3:-10} seconds=${4:-30} seed=${5:-1}
base_commit=$(git rev-parse --verify "$rev^{commit}")

tmp=$(mktemp -d)
cp perfbench/Cargo.lock "$tmp/Cargo.lock.saved"
cleanup() {
    cp "$tmp/Cargo.lock.saved" perfbench/Cargo.lock
    rm -rf "$tmp"
}
trap cleanup EXIT

echo "# base: $rev ($base_commit); change: working tree"
mkdir "$tmp/base" "$tmp/out"
git archive "$base_commit" | tar -x -C "$tmp/base"
cargo build --release --quiet --manifest-path "$tmp/base/perfbench/Cargo.toml"
cargo build --release --quiet --manifest-path perfbench/Cargo.toml
cp "$tmp/Cargo.lock.saved" perfbench/Cargo.lock
declare -A bin=(
    [base]="$tmp/base/perfbench/target/release/perfbench"
    [change]="$PWD/perfbench/target/release/perfbench"
)

for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then order="base change"; else order="change base"; fi
    for side in $order; do
        out="$tmp/out/$side.$i"
        "${bin[$side]}" --workload "$workload" --seed "$seed" --seconds "$seconds" \
            --trace 0 >"$out"
        python3 - "$out" "$side" "$i" <<'EOF'
import json, re, sys
path, side, pair = sys.argv[1:]
text = open(path).read()
rounds = re.search(r"^# rounds=(\d+)", text, re.M).group(1)
res = json.loads(text.strip().splitlines()[-1])
metrics = " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items())
print(f"pair {pair:>2} {side:<6} rounds={rounds} correct={res['correct']} {metrics}")
EOF
    done
done

python3 - "$tmp/out" "$pairs" <<'EOF'
import json, re, statistics, sys
outdir, pairs = sys.argv[1], int(sys.argv[2])
bench = json.load(open("BENCHMARK.json"))

def load(side, i):
    text = open(f"{outdir}/{side}.{i}").read()
    res = json.loads(text.strip().splitlines()[-1])
    res["rounds"] = int(re.search(r"^# rounds=(\d+)", text, re.M).group(1))
    return res

runs = {s: [load(s, i) for i in range(1, pairs + 1)] for s in ("base", "change")}
for side, rs in runs.items():
    rounds = [r["rounds"] for r in rs]
    print(f"{side:<6} rounds: median {statistics.median(rounds)}, {min(rounds)}-{max(rounds)}")
ok = all(r["correct"] and r["failed"] == 0 for rs in runs.values() for r in rs)

def stats(xs):
    q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
    return statistics.median(xs), q[0], q[2]

print(f"{'metric':<16} {'base median (q1-q3)':>36} {'change median (q1-q3)':>36} "
      f"{'ratio':>7} {'wins':>6}  verdict")
for m in bench["end_to_end"]:
    name, lower, bound = m["name"], m["better"] == "lower", m["bound"]
    b = [r["metrics"][name]["value"] for r in runs["base"]]
    c = [r["metrics"][name]["value"] for r in runs["change"]]
    (bm, bq1, bq3), (cm, cq1, cq3) = stats(b), stats(c)
    wins = sum((y < x) if lower else (y > x) for x, y in zip(b, c))
    ratio = cm / bm if bm else float("nan")
    worse = (ratio - 1) if lower else (1 - ratio)
    verdict = []
    if abs(cm - bm) > bq3 - bq1:
        verdict.append(("worse" if worse > 0 else "better") + " beyond base q1-q3")
    if worse > bound:
        verdict.append(f"WORSE than its bound {bound}")
    base_s, change_s = f"{bm:.6g} ({bq1:.6g}-{bq3:.6g})", f"{cm:.6g} ({cq1:.6g}-{cq3:.6g})"
    print(f"{name:<16} {base_s:>36} {change_s:>36} "
          f"{ratio:>7.3f} {wins:>3}/{pairs}  {', '.join(verdict)}")

def fit(xs, ys):
    """Least-squares (intercept, slope) of ys against xs."""
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx if sxx else 0.0
    return my - slope * mx, slope

if all("peak_rss_mb" in r["metrics"] for rs in runs.values() for r in rs):
    pooled = statistics.median(r["rounds"] for rs in runs.values() for r in rs)
    print(f"peak_rss_mb against rounds (least squares), compared at the pooled "
          f"median of {pooled:g} rounds:")
    at = {}
    for side, rs in runs.items():
        a, b = fit([r["rounds"] for r in rs], [r["metrics"]["peak_rss_mb"]["value"] for r in rs])
        at[side] = a + b * pooled
        print(f"{side:<6} intercept {a:.4g} MB, slope {b:.4g} MB/round, "
              f"{at[side]:.4g} MB at {pooled:g} rounds")
    d = at["change"] - at["base"]
    pct = 100 * d / at["base"] if at["base"] else float("nan")
    print(f"change - base at {pooled:g} rounds: {d:+.4g} MB ({pct:+.2f}%)")
print(f"all runs correct: {ok}")
sys.exit(0 if ok else 1)
EOF
