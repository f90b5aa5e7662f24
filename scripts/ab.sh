#!/bin/sh
# A/B of the repo benchmark: a parent revision against a change.
#
#   scripts/ab.sh [PAIRS] [PARENT_REV] [CHANGE_REV]
#
# PAIRS (default 6) alternating runs of each side; PARENT_REV (default
# HEAD) and CHANGE_REV (default: the working tree, tracked and untracked
# files that git does not ignore) are exported into two directories under
# $AB_DIR (default ${TMPDIR:-/tmp}/looplynx-ab), each building into its own
# target directory. Every run is BENCHMARK.json's `command`, unmodified,
# from that side's root. Each side first runs once and the run is
# discarded (a fresh checkout's first run synthesizes the fixture, which
# inflates its peak RSS); then pair i runs the parent first when i is odd
# and the change first when it is even. Each run's output is kept in
# $AB_DIR/runs. The summary first names every timed run that exited
# non-zero or lacks a workload; then it prints, for each workload and
# end-to-end metric, over the pairs where both runs have it: the parent's
# and the change's medians, the change against the parent in percent, the
# pairs the change won (by the metric's `better` direction), and the
# parent's interquartile range in percent of its median; then whether
# every run read "correct", with the count of incomplete runs. Needs git,
# cargo and python3.
set -eu
cd "$(dirname "$0")/.." || exit 1
pairs=${1:-6}
parent_rev=${2:-HEAD}
change_rev=${3:-}
ab=${AB_DIR:-${TMPDIR:-/tmp}/looplynx-ab}
root=$(pwd)

rm -rf "$ab/parent" "$ab/change" "$ab/runs"
mkdir -p "$ab/parent" "$ab/change" "$ab/runs"
git archive "$parent_rev" | tar -x -C "$ab/parent"
if [ -n "$change_rev" ]; then
    git archive "$change_rev" | tar -x -C "$ab/change"
else
    git ls-files --cached --others --exclude-standard |
        while IFS= read -r f; do if [ -e "$f" ]; then printf '%s\n' "$f"; fi; done |
        tar -cf - -T - | tar -x -C "$ab/change"
fi

# The command, one argument a line, from the root BENCHMARK.json.
command=$(python3 -c 'import json, sys; print("\n".join(json.load(open(sys.argv[1]))["command"]))' \
    "$root/BENCHMARK.json")

run() { # side, label
    (
        cd "$ab/$1"
        # Word-split the command on newlines only.
        IFS='
'
        # shellcheck disable=SC2086
        set -- $command
        "$@"
    ) >"$ab/runs/$2.txt" 2>&1 || {
        echo "ab: $2 exited non-zero (kept in $ab/runs/$2.txt)" >&2
        echo "$2" >>"$ab/runs/failed"
    }
}

# Build both sides before the first timed run.
for side in parent change; do
    (cd "$ab/$side" && cargo build --release --quiet \
        --manifest-path crates/bench/src/bin/benchmark/Cargo.toml)
done

for side in parent change; do
    echo "ab: warm-up run of $side, discarded" >&2
    run "$side" "warm-up-$side"
done

i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then first=parent second=change; else first=change second=parent; fi
    echo "ab: pair $i/$pairs: $first, then $second" >&2
    run "$first" "$first-$i"
    run "$second" "$second-$i"
    i=$((i + 1))
done

python3 - "$root/BENCHMARK.json" "$ab/runs" "$pairs" <<'EOF'
import json, os, statistics, sys

spec = json.load(open(sys.argv[1]))
runs, pairs = sys.argv[2], int(sys.argv[3])
better = {m["name"]: m["better"] for m in spec["end_to_end"]}
workloads = [w["name"] for w in spec["workloads"]]
failed = set(open(f"{runs}/failed").read().split()) if os.path.exists(f"{runs}/failed") else set()

def read(label):
    """Workload name -> (result object, digest), pairing the `== name:`
    headers and their gate lines with the result lines printed at the
    end, in the same order."""
    names, digests, results = [], [], []
    for line in open(f"{runs}/{label}.txt"):
        if line.startswith("== "):
            names.append(line[3:].split(":")[0])
        elif line.strip().startswith("gate:") and " digest " in line:
            digests.append(line.split(" digest ")[1].split()[0])
        elif line.startswith('{"correct"'):
            results.append(json.loads(line))
    return {n: (r, d) for n, r, d in zip(names, results, digests)}

sides = {s: [read(f"{s}-{i}") for i in range(1, pairs + 1)] for s in ("parent", "change")}

incomplete = 0
for s, rs in sides.items():
    for i, r in enumerate(rs, 1):
        why = ["exited non-zero"] if f"{s}-{i}" in failed else []
        missing = [w for w in workloads if w not in r]
        if missing:
            why.append("lacks " + ", ".join(missing))
        if why:
            incomplete += 1
            print(f"incomplete run {s}-{i}: {'; '.join(why)} (kept in {runs}/{s}-{i}.txt)")

def quartiles(xs):
    xs = sorted(xs)
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

def value(r, w, m):
    return r[w][0]["metrics"].get(m, {}).get("value") if w in r else None

print(f"{'workload':<14} {'metric':<19} {'parent':>10} {'change':>10} {'delta':>8} {'won':>6} {'par IQR':>8}")
for w in workloads:
    for m, direction in better.items():
        both = [(value(p, w, m), value(c, w, m)) for p, c in zip(sides["parent"], sides["change"])]
        both = [(pv, cv) for pv, cv in both if pv is not None and cv is not None]
        if not both:
            print(f"{w:<14} {m:<19} in no complete pair")
            continue
        par = [pv for pv, _ in both]
        p, c = statistics.median(par), statistics.median(cv for _, cv in both)
        won = sum((cv < pv) if direction == "lower" else (cv > pv) for pv, cv in both)
        lo, hi = quartiles(par)
        delta = (c - p) / p * 100 if p else 0.0
        iqr = (hi - lo) / p * 100 if p else 0.0
        print(f"{w:<14} {m:<19} {p:>10.4g} {c:>10.4g} {delta:>+7.1f}% {won:>3}/{len(both):<2} {iqr:>7.1f}%")
correct = incomplete == 0 and all(r[w][0]["correct"] for rs in sides.values() for r in rs for w in workloads)
digests = {w: {r[w][1] for rs in sides.values() for r in rs if w in r} for w in workloads}
print(f"every run correct: {correct} ({incomplete} of {2 * pairs} runs incomplete)")
print("one digest a workload on both sides:", all(len(d) == 1 for d in digests.values()),
      {w: sorted(d) for w, d in digests.items()})
EOF
