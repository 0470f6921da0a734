#!/bin/sh
# pairs.sh — compare one benchmark workload between a parent revision
# and the working tree, the way every claim in EXPERIMENTS.md is made.
#
# Usage:
#   scripts/pairs.sh <parent-rev> <workload> [n] [seconds] [seed]
#
# Builds bench once from a git worktree of <parent-rev> and once from
# the working tree, then runs n (default 10) pairs of
# `bench --workload <workload> --seconds <seconds> --seed <seed>`
# (defaults 8 and 1), each binary from its own checkout: odd pairs run
# the parent first, even pairs the change first. Every run's last JSON
# line is kept in a temporary directory, whose path is printed; the
# worktree and both binaries are removed on exit. Then,
# for every end-to-end metric of BENCHMARK.json, it prints:
#   - the EXPERIMENTS.md verdict row: median (q1 – q3) of each side, the
#     change in the median, how many pairs the change is ahead in, and
#     the verdict;
#   - the LEDGER.md line listing every run, parent / change.
# Direction and bound come from BENCHMARK.json. Quartiles are Python's
# statistics.quantiles (the (n+1) method bench uses). Verdicts: a
# spread (inter-quartile range over median, the wider side) above the
# bound is "unresolved" unless every change run is ahead of (or behind)
# every parent run; else worse than the bound is "REGRESSION", better
# than it "better", and anything between "inside bound". Any row whose
# change median is ahead, whatever the bound, also gets the claim test:
# ahead in at least 9 of 10 pairs with a median gap wider than the
# parent's inter-quartile range.
set -eu

if [ $# -lt 2 ]; then
  echo "usage: $0 <parent-rev> <workload> [n] [seconds] [seed]" >&2
  exit 2
fi
REV=$1
WORKLOAD=$2
N=${3:-10}
SECONDS_PER_RUN=${4:-8}
SEED=${5:-1}

ROOT=$(git rev-parse --show-toplevel)
cd "$ROOT"
TMP=$(mktemp -d)
PARENT="$TMP/parent"
git worktree add --quiet --detach "$PARENT" "$REV"
trap 'git -C "$ROOT" worktree remove --force "$PARENT"; rm -f "$TMP/bench-parent" "$TMP/bench-change"' EXIT

(cd "$PARENT" && go build -o "$TMP/bench-parent" ./bench)
go build -o "$TMP/bench-change" ./bench
mkdir -p "$TMP/runs"

# run <side> <pair>: one run from the side's own checkout.
run() {
  dir=$ROOT
  [ "$1" = parent ] && dir=$PARENT
  out="$TMP/runs/$1-$2.json"
  (cd "$dir" && "$TMP/bench-$1" --workload "$WORKLOAD" --seconds "$SECONDS_PER_RUN" --seed "$SEED") 2>&1 | tail -n 1 > "$out"
  grep -q '"correct":true' "$out" || echo "pair $2, $1: not correct: $(cat "$out")" >&2
}

i=1
while [ "$i" -le "$N" ]; do
  if [ $((i % 2)) -eq 1 ]; then
    run parent "$i"
    run change "$i"
  else
    run change "$i"
    run parent "$i"
  fi
  i=$((i + 1))
done

echo "runs: $TMP/runs"
python3 - "$ROOT/BENCHMARK.json" "$TMP/runs" "$N" "$WORKLOAD" "$SEED" <<'EOF'
import json, math, statistics, sys

spec_path, runs, n, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4], sys.argv[5]
spec = json.load(open(spec_path))
res = {side: [json.load(open(f"{runs}/{side}-{i}.json")) for i in range(1, n + 1)]
       for side in ("parent", "change")}

def fmt(v):
    """Four significant digits; thousands grouped with spaces."""
    if abs(v) >= 1000:
        return f"{round(v):,}".replace(",", " ")
    if v == 0:
        return "0"
    return f"{v:.{max(3 - math.floor(math.log10(abs(v))), 0)}f}"

def quart(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3

def ops(side):
    a = [int(r["attempted"]) for r in res[side]]
    return "–".join(f"{v:,}".replace(",", " ") for v in (min(a), max(a)))

failed = sum(r["failed"] for side in res for r in res[side])
correct = all(r["correct"] for side in res for r in res[side])
label = f"`{workload}`" + ("" if seed == "1" else f", seed {seed}")
print(f"\n**{label}** ({n} pairs; attempted ops per run {ops('parent')} / {ops('change')}, "
      f"{failed} failed, `correct: {str(correct).lower()}` in every run; "
      "odd pairs parent first, even pairs change first)\n")

rows, ledger = [], []
for m in spec["end_to_end"]:
    name, bound, higher = m["name"], m["bound"], m["better"] == "higher"
    p = [r["metrics"][name]["value"] for r in res["parent"]]
    c = [r["metrics"][name]["value"] for r in res["change"]]
    ahead = lambda a, b: a > b if higher else a < b
    pq, cq = quart(p), quart(c)
    delta = (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0
    worse = -delta if higher else delta
    spread = max((q[2] - q[0]) / q[1] if q[1] else 0.0 for q in (pq, cq))
    k = sum(ahead(b, a) for a, b in zip(p, c))
    if spread > bound and not (all(ahead(b, a) for a in p for b in c) or all(ahead(a, b) for a in p for b in c)):
        verdict = "unresolved"
    elif worse > bound:
        verdict = "REGRESSION"
    else:
        verdict = "better" if worse < -bound else "inside bound"
        if worse < 0 and k >= math.ceil(0.9 * n) and abs(cq[1] - pq[1]) > pq[2] - pq[0]:
            verdict += f" (claim test met: {k}/{n}, gap > parent IQR)"
    rows.append(f"| {label} | `{name}` | {fmt(pq[1])} ({fmt(pq[0])} – {fmt(pq[2])}) | "
                f"{fmt(cq[1])} ({fmt(cq[0])} – {fmt(cq[2])}) | {delta * 100:+.1f} % | {k} / {n} | {verdict} |")
    ledger.append(f"Every `{name}`, {m['unit']} (parent / change): "
                  + ", ".join(f"{fmt(a)} / {fmt(b)}" for a, b in zip(p, c)) + ".")

print("\n".join(ledger))
print("\n| workload | metric | parent | change | Δ median | change ahead | verdict |")
print("|---|---|---|---|---|---|---|")
print("\n".join(rows))
EOF
