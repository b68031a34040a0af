#!/bin/sh
# capture-mutants.sh — the capture-mutant sweep (`make capture-mutants`):
# how much of each model's state capture, restore and digest the
# state-coverage lint holds. For each assignment and each call statement
# in the SnapshotState, RestoreState and HashState bodies of caps.System,
# can.Bus, tlm.Memory and the ECU slot, and in the ECU helpers the
# capture and restore call, in turn, it comments the line out in a copy
# of the tree and runs that package's TestStateCoverage*. A dropped fold
# in a HashState is a wrong verdict, not just a missed early exit: runs
# stop where their digest equals one a finished run passed. A deletion the tests fail on is caught;
# one they pass is a survivor; one that does not build is not
# compiling. Every deletion is listed.
#
#   scripts/capture-mutants.sh
#
# Exits 1 on a survivor the allow-list below does not name, or on an
# allow-list entry that no longer survives. The checkout is never
# written: the copy lives in a temp directory. POSIX sh and awk only.
set -eu

go=${GO:-go}
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/capture-mutants.XXXXXX")
trap 'rm -rf "$work"' EXIT
trap 'exit 130' INT TERM

# The four captures, restores and digests and the ECU's per-component
# capture helpers: FILE, then the function's receiver and name.
targets='internal/caps/system.go (s *System) SnapshotState
internal/caps/system.go (s *System) RestoreState
internal/caps/system.go (s *System) HashState
internal/can/bus.go (b *Bus) SnapshotState
internal/can/bus.go (b *Bus) RestoreState
internal/can/bus.go (b *Bus) HashState
internal/tlm/memory.go (m *Memory) SnapshotState
internal/tlm/memory.go (m *Memory) RestoreState
internal/tlm/memory.go (m *Memory) HashState
internal/ecu/snapshot.go (s *ecuSlot) SnapshotState
internal/ecu/snapshot.go (s *ecuSlot) RestoreState
internal/ecu/snapshot.go (s *ecuSlot) HashState
internal/ecu/snapshot.go (m *ECCMemory) captureInto
internal/ecu/snapshot.go (m *ECCMemory) restoreFrom
internal/ecu/snapshot.go (ls *Lockstep) captureInto
internal/ecu/snapshot.go (ls *Lockstep) restoreFrom'

# Survivors that are no omission: FILE<TAB>STATEMENT<TAB>REASON.
allow='internal/can/bus.go	st.nodes = st.nodes[:len(b.nodes)]	a bus'"'"'s node list is fixed once elaborated, so a buffer it captured before already has that length
internal/caps/system.go	h.Bool(false)	framing: a sensor'"'"'s not-installed override folds this word, an installed one a word and the value'"'"'s word; without either bit the branches still fold streams of different widths, which realistic offsets (zero, or the universe'"'"'s 0.5) never line up
internal/caps/system.go	h.Bool(true)	framing, as h.Bool(false) above: the branches fold one word and two
internal/tlm/memory.go	h.Int(len(m.stuckMask))	framing: each defect adds three words (cell, mask, value) ahead of the access counters, so memories with different defect counts fold streams of different lengths; TestStateCoverageStuckDefects holds each part of a defect'

cp -R "$root/go.mod" "$root/internal" "$work/"
report=$work/report
: >"$report"

echo "$targets" | while read -r file fn; do
	pkg=./$(dirname "$file")
	src=$work/$file
	cp "$src" "$work/orig.go"
	# LINE<TAB>STATEMENT for every assignment and call statement in the
	# body.
	awk -v head="func $fn(" '
		index($0, head) == 1 { in_body = 1; next }
		in_body && /^}/ { exit }
		in_body {
			s = $0
			sub(/^[ \t]+/, "", s)
			if (s ~ /^(if|for|switch|return|\/\/|})/) next
			if (s ~ /^[A-Za-z_][][A-Za-z0-9_., ]*[ \t]:?=[ \t]/ || s ~ /^[A-Za-z_][A-Za-z0-9_.]*\(.*\)$/) print NR "\t" s
		}' "$work/orig.go" >"$work/sites"
	if [ ! -s "$work/sites" ]; then
		echo "capture-mutants: no assignments or calls found in $file's $fn" >&2
		exit 1
	fi
	while IFS='	' read -r line stmt; do
		sed "${line}s,^,//," "$work/orig.go" >"$src"
		if (cd "$work" && "$go" test -count=1 -run '^TestStateCoverage' "$pkg" </dev/null >"$work/log" 2>&1); then
			verdict=survived
		elif grep -Eq 'build failed|setup failed' "$work/log"; then
			verdict="not compiling"
		else
			verdict=caught
		fi
		printf '%s\t%s:%s\t%s\n' "$verdict" "$file" "$line" "$stmt" >>"$report"
	done <"$work/sites"
	cp "$work/orig.go" "$src"
done

awk -F '\t' -v allow="$allow" '
	BEGIN {
		n = split(allow, rows, "\n")
		for (i = 1; i <= n; i++) {
			split(rows[i], f, "\t")
			reason[f[1] "\t" f[2]] = f[3]
		}
	}
	{
		printf "%-14s %-32s %s\n", $1, $2, $3
		count[$1]++
		if ($1 != "survived") next
		file = $2
		sub(/:[0-9]+$/, "", file)
		key = file "\t" $3
		if (key in reason) { seen[key] = 1; allowed[++nallowed] = key } else bad = bad "\n  " $2 "  " $3
	}
	END {
		printf "\ncaught %d, survived %d (allowed %d), not compiling %d\n",
			count["caught"], count["survived"], nallowed, count["not compiling"]
		for (i = 1; i <= nallowed; i++) {
			split(allowed[i], f, "\t")
			printf "allowed: %s  %s — %s\n", f[1], f[2], reason[allowed[i]]
		}
		for (k in reason) if (!(k in seen)) {
			split(k, f, "\t")
			bad = bad "\n  " f[1] "  " f[2] " (allow-listed, but it no longer survives)"
		}
		if (bad != "") {
			print "capture-mutants: unexplained results:" bad
			exit 1
		}
	}' "$report"
