#!/bin/sh
# Non-test, non-blank Go lines per top-level package, for this tree and
# against a reference commit — the one way ROADMAP's "net LoC goes down"
# is counted (`make loc`).
#
#   scripts/loc.sh [REF]
#
# REF defaults to the merge-base of HEAD with main (origin/main when
# there is no local main), so on a branch it is where the branch left
# main and on main itself it is HEAD: the delta of the uncommitted tree.
# A package is cmd/<x>, internal/<x> or examples/<x> (sub-packages count
# towards their parent), `bench`, or `.` for the module root. Comment
# lines count: a line somebody has to read is a line. POSIX sh + awk.
set -eu

cd "$(git rev-parse --show-toplevel)"
ref=${1:-}
if [ -z "$ref" ]; then
	base=main
	git rev-parse -q --verify "$base" >/dev/null || base=origin/main
	ref=$(git merge-base HEAD "$base" 2>/dev/null || git rev-parse HEAD)
fi

# count DIR: "<package> <lines>" for every package under DIR.
count() {
	(cd "$1" && find . -name '*.go' ! -name '*_test.go' -type f -exec awk '
		FNR == 1 {
			n = split(substr(FILENAME, 3), p, "/")
			pkg = "."
			if (n > 1) pkg = p[1]
			if (n > 2 && (p[1] == "cmd" || p[1] == "internal" || p[1] == "examples")) pkg = p[1] "/" p[2]
		}
		NF { lines[pkg]++ }
		END { for (k in lines) print k, lines[k] }' {} +) |
		awk '{ n[$1] += $2 } END { for (p in n) print p, n[p] }'
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/ref"
git archive "$ref" | tar -x -C "$tmp/ref"
count "$tmp/ref" >"$tmp/before"
count . >"$tmp/after"

printf 'non-test, non-blank Go lines; reference %s\n' "$(git rev-parse --short "$ref")"
awk 'FNR == NR { before[$1] = $2; seen[$1]; next } { after[$1] = $2; seen[$1] }
END {
	for (p in seen) printf "%s %d %d %d\n", p, before[p], after[p], after[p] - before[p]
}' "$tmp/before" "$tmp/after" | sort | awk '
BEGIN { printf "%-28s %8s %8s %8s\n", "package", "ref", "tree", "delta" }
{ printf "%-28s %8d %8d %+8d\n", $1, $2, $3, $4; b += $2; a += $3 }
END { printf "%-28s %8d %8d %+8d\n", "total", b, a, a - b }'
