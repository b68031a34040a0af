package experiments

import (
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite EXPERIMENTS.md's transcript block with a fresh run")

// experimentsDoc is the record of every experiment's numbers.
const experimentsDoc = "../../EXPERIMENTS.md"

// wallClock names, per experiment, the table columns that hold
// wall-clock values and whether its shape line quotes one. These are
// the only cells the doc check masks, and the only experiments whose
// summary row may carry figures marked "(host-dependent …)".
var wallClock = map[string]struct {
	columns []string
	shape   bool
}{
	"E1": {[]string{"wall", "ns/txn", "speedup"}, true},
	"E6": {[]string{"wall"}, false},
	"E9": {[]string{"schemata", "rebuild", "speedup"}, true},
	"X3": {[]string{"wall"}, false},
}

var (
	cellSep    = regexp.MustCompile(`\s{2,}`)
	speedup    = regexp.MustCompile(`\d+(\.\d+)?x`)
	number     = regexp.MustCompile(`\d+(\.\d+)?`)
	summaryRow = regexp.MustCompile(`^\| ([EFX]\d+) \|`)
	hostDep    = regexp.MustCompile(`\(host-dependent[^)]*\)`)
)

// TestExperimentsDoc holds EXPERIMENTS.md to a fresh run of every
// experiment: its transcript block must be what `vpsafety -exp all`
// prints now, wall-clock cells aside, and every number in a summary
// row's "measured" cell must occur in that experiment's output.
// `go test ./internal/experiments -run TestExperimentsDoc -update`
// rewrites the transcript block; the summary rows are written by hand.
func TestExperimentsDoc(t *testing.T) {
	var fresh strings.Builder
	renders := map[string]string{}
	for _, e := range All() {
		res, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		renders[e.ID] = res.Render()
		fresh.WriteString(res.Render() + "\n") // as vpsafety prints it
	}

	raw, err := os.ReadFile(experimentsDoc)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	start, end := transcriptBlock(t, doc)
	if *update {
		doc = doc[:start] + fresh.String() + doc[end:]
		if err := os.WriteFile(experimentsDoc, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("transcript", func(t *testing.T) {
		got := strings.Split(maskWallClock(fresh.String()), "\n")
		want := strings.Split(maskWallClock(doc[start:end]), "\n")
		for i := 0; i < len(got) || i < len(want); i++ {
			var g, w string
			if i < len(got) {
				g = got[i]
			}
			if i < len(want) {
				w = want[i]
			}
			if g != w {
				t.Fatalf("EXPERIMENTS.md transcript line %d (wall-clock masked as …):\n  run: %q\n  doc: %q\nregenerate with `go test ./internal/experiments -run TestExperimentsDoc -update`", i+1, g, w)
			}
		}
	})

	t.Run("summary", func(t *testing.T) {
		rows := map[string]bool{}
		for _, line := range strings.Split(doc, "\n") {
			m := summaryRow.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			id, cells := m[1], strings.Split(line, "|")
			render, ok := renders[id]
			if !ok || len(cells) != 7 {
				t.Errorf("summary row %q: no such experiment, or not 5 cells", line)
				continue
			}
			rows[id] = true
			measured := cells[4]
			if _, ok := wallClock[id]; ok {
				measured = hostDep.ReplaceAllString(measured, "")
			}
			have := map[string]bool{}
			for _, n := range number.FindAllString(maskWallClock(render), -1) {
				have[n] = true
			}
			for _, n := range number.FindAllString(measured, -1) {
				if !have[n] {
					t.Errorf("%s summary row quotes %s, which a fresh %s run does not print", id, n, id)
				}
			}
			if shape := strings.TrimSpace(cells[5]); !strings.Contains(render, "\nShape "+shape+":") {
				t.Errorf("%s summary row says %s, a fresh run does not", id, shape)
			}
		}
		for id := range renders {
			if !rows[id] {
				t.Errorf("%s has no summary row", id)
			}
		}
	})
}

// transcriptBlock locates the fenced block after "## Raw output of one
// full run": doc[start:end] is its content, fences excluded.
func transcriptBlock(t *testing.T, doc string) (start, end int) {
	t.Helper()
	head := strings.Index(doc, "## Raw output of one full run")
	if head < 0 {
		t.Fatal("EXPERIMENTS.md has no raw-output section")
	}
	fence := strings.Index(doc[head:], "\n```\n")
	if fence < 0 {
		t.Fatal("EXPERIMENTS.md's raw-output section has no fenced block")
	}
	start = head + fence + len("\n```\n")
	n := strings.Index(doc[start:], "```\n")
	if n < 0 {
		t.Fatal("EXPERIMENTS.md's transcript block is not closed")
	}
	return start, start + n
}

// maskWallClock replaces the wallClock cells of rendered experiments
// with "…". A table with such a column has its cells re-joined with
// " | ", since the width of a wall-clock value moves the alignment of
// the whole table; every other line is left byte for byte.
func maskWallClock(out string) string {
	lines := strings.Split(out, "\n")
	var id string
	var masked []bool // per column of the current table; nil: leave the line alone
	isRule := func(l string) bool { return l != "" && strings.Trim(l, "- ") == "" }
	for i, l := range lines {
		switch {
		case strings.HasPrefix(l, "### "):
			id, _, _ = strings.Cut(l[len("### "):], ":")
			masked = nil
		case l == "":
			masked = nil
		case i+1 < len(lines) && isRule(lines[i+1]): // a table's header
			masked = nil
			cols := cellSep.Split(strings.TrimSpace(l), -1)
			for c, name := range cols {
				for _, w := range wallClock[id].columns {
					if name == w {
						if masked == nil {
							masked = make([]bool, len(cols))
						}
						masked[c] = true
					}
				}
			}
			if masked != nil {
				lines[i] = strings.Join(cols, " | ")
			}
		case masked != nil && isRule(l):
			lines[i] = "-"
		case masked != nil:
			cells := cellSep.Split(strings.TrimSpace(l), -1)
			for c := range cells {
				if c < len(masked) && masked[c] {
					cells[c] = "…"
				}
			}
			lines[i] = strings.Join(cells, " | ")
		case strings.HasPrefix(l, "Shape ") && wallClock[id].shape:
			lines[i] = speedup.ReplaceAllString(l, "…x")
		}
	}
	return strings.Join(lines, "\n")
}
