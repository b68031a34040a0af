#!/bin/sh
# bench-pairs.sh — interleaved parent/change pairs of one benchmark
# workload, the way a performance claim has to be measured here
# (bench/README.md, "Comparing"): build the parent's bench and this
# tree's, run the driver form `--workload W --seed i --seconds S --trace T`
# once a side for seeds 1..PAIRS, alternating which side goes first, and
# print per metric both medians with their quartiles, the ratio with its
# base, the pairs the change won, whether the medians differ by more than
# the parent's own quartile spread, and whether every run of the change
# beats every run of the parent. Every run made is listed.
#
#   scripts/bench-pairs.sh PARENT WORKLOAD [PAIRS=10] [SECONDS=10] [TRACE=0]
#   make bench-pairs PARENT=HEAD~1 WORKLOAD=caps-perm-sweep PAIRS=10
#
# PARENT is any commit-ish; it is unpacked with `git archive` into a
# scratch directory (no worktree is registered, nothing is left behind).
# The change is the working tree as it stands, uncommitted edits included.
# POSIX sh and awk only.
set -eu

parent=${1:?usage: bench-pairs.sh PARENT WORKLOAD [PAIRS] [SECONDS] [TRACE]}
workload=${2:?usage: bench-pairs.sh PARENT WORKLOAD [PAIRS] [SECONDS] [TRACE]}
pairs=${3:-10}
seconds=${4:-10}
trace=${5:-0}
go=${GO:-go}

root=$(git rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/bench-pairs.XXXXXX")
trap 'rm -rf "$work"' EXIT
trap 'exit 130' INT TERM

mkdir "$work/src" "$work/parent" "$work/change"
git -C "$root" archive "$parent" | tar -x -C "$work/src"
(cd "$work/src" && "$go" build -o "$work/bench-parent" ./bench)
(cd "$root" && "$go" build -o "$work/bench-change" ./bench)

# one SIDE SEED: a driver-form run in the side's own directory (bench
# keeps its scratch files under the directory it is started from); the
# JSON object that ends its standard output is the run's record.
one() {
	(cd "$work/$1" && "$work/bench-$1" --workload "$workload" --seed "$2" \
		--seconds "$seconds" --trace "$trace") >"$work/out" 2>"$work/err" || {
		echo "bench-pairs: the $1 run at seed $2 failed:" >&2
		cat "$work/err" >&2
		exit 1
	}
	tail -n 1 "$work/out" >>"$work/$1.jsonl"
}

echo "bench-pairs: $workload, parent $parent ($(git -C "$root" rev-parse --short "$parent")) against the working tree," \
	"$pairs pairs at seeds 1-$pairs, --seconds $seconds --trace $trace" >&2
seed=1
while [ "$seed" -le "$pairs" ]; do
	if [ $((seed % 2)) -eq 1 ]; then first=parent second=change; else first=change second=parent; fi
	echo "bench-pairs: seed $seed: $first, then $second" >&2
	one "$first" "$seed"
	one "$second" "$seed"
	seed=$((seed + 1))
done

awk -v workload="$workload" '
# better[] comes from BENCHMARK.json: each metric entry names itself
# before it says which direction is better.
FILENAME ~ /BENCHMARK\.json$/ {
	if (match($0, /"name": *"[^"]*"/)) { last = $0; sub(/.*"name": *"/, "", last); sub(/".*/, "", last) }
	if (match($0, /"better": *"[^"]*"/)) { b = $0; sub(/.*"better": *"/, "", b); sub(/".*/, "", b); better[last] = b }
	next
}
{
	side = (FILENAME ~ /parent\.jsonl$/) ? "p" : "c"
	run = ++runs[side]
	s = $0
	if (match(s, /"failed":[0-9]+/)) failed[side] += substr(s, RSTART + 9, RLENGTH - 9)
	if (match(s, /"attempted":[0-9]+/)) attempted[side] += substr(s, RSTART + 12, RLENGTH - 12)
	while (match(s, /"[A-Za-z0-9_.]+":\{"value":[-+0-9.eE]+,"unit":"[^"]*"\}/)) {
		m = substr(s, RSTART, RLENGTH); s = substr(s, RSTART + RLENGTH)
		name = m; sub(/^"/, "", name); sub(/".*/, "", name)
		v = m; sub(/.*"value":/, "", v); sub(/,.*/, "", v)
		u = m; sub(/.*"unit":"/, "", u); sub(/".*/, "", u)
		if (!(name in unit)) order[++nm] = name
		unit[name] = u; val[side, name, run] = v + 0
	}
}
function sorted(side, name, n,    i, j, t) {
	for (i = 1; i <= n; i++) d[i] = val[side, name, i]
	for (i = 2; i <= n; i++) { t = d[i]; for (j = i - 1; j >= 1 && d[j] > t; j--) d[j + 1] = d[j]; d[j + 1] = t }
}
function median(n) { return n % 2 ? d[(n + 1) / 2] : (d[n / 2] + d[n / 2 + 1]) / 2 }
# the quartiles of Python statistics.quantiles(n=4), which bench -compare uses too
function quartile(i, n,    j, delta) {
	if (n < 2) return d[1]
	j = int(i * (n + 1) / 4); if (j < 1) j = 1; else if (j > n - 1) j = n - 1
	delta = i * (n + 1) - j * 4
	return (d[j] * (4 - delta) + d[j + 1] * delta) / 4
}
function fmt(x) { return sprintf(x >= 1000 ? "%.0f" : x >= 10 ? "%.2f" : "%.4g", x) }
END {
	n = runs["p"]
	if (n == 0 || n != runs["c"]) { print "bench-pairs: no complete pairs" > "/dev/stderr"; exit 1 }
	printf "%s: %d pairs; failed operations: parent %d of %d, change %d of %d\n\n", workload, n, failed["p"], attempted["p"], failed["c"], attempted["c"]
	printf "%-34s %-6s %-30s %-30s %-22s %-6s %-11s %s\n", "metric", "better", "parent median [q1-q3]", "change median [q1-q3]", "change / parent", "won", "beyond IQR", "every run better"
	for (k = 1; k <= nm; k++) {
		name = order[k]; hi = (better[name] == "higher")
		sorted("p", name, n); pm = median(n); p1 = quartile(1, n); p3 = quartile(3, n); pmin = d[1]; pmax = d[n]
		sorted("c", name, n); cm = median(n); c1 = quartile(1, n); c3 = quartile(3, n); cmin = d[1]; cmax = d[n]
		won = 0
		for (i = 1; i <= n; i++) {
			p = val["p", name, i]; c = val["c", name, i]
			if (hi ? c > p : c < p) won++
		}
		gain = hi ? cm - pm : pm - cm
		printf "%-34s %-6s %-30s %-30s %-22s %-6s %-11s %s\n", name " (" unit[name] ")", (name in better) ? better[name] : "?", \
			fmt(pm) " [" fmt(p1) "-" fmt(p3) "]", fmt(cm) " [" fmt(c1) "-" fmt(c3) "]", \
			(pm != 0 ? sprintf("%.3fx of %s", cm / pm, fmt(pm)) : "-"), won "/" n, \
			(gain > p3 - p1 ? "yes" : "no"), ((hi ? cmin > pmax : cmax < pmin) ? "yes" : "no")
	}
	print "\nevery run, by seed (parent | change):"
	for (k = 1; k <= nm; k++) {
		name = order[k]; line = sprintf("%-34s", name)
		for (i = 1; i <= n; i++) line = line " " fmt(val["p", name, i])
		line = line "  |"
		for (i = 1; i <= n; i++) line = line " " fmt(val["c", name, i])
		print line
	}
}
' "$root/BENCHMARK.json" "$work/parent.jsonl" "$work/change.jsonl"
