package caps

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/journal"
	"repro/internal/sim"
	"repro/internal/stressor"
)

// killSink appends through a journal writer and keeps the journal file
// as it stands on disk after append number at — the bytes a SIGKILL
// then leaves, the writer's buffer lost — and the file sizes seen up to
// then, one per write of the buffer.
type killSink struct {
	w     *journal.Writer
	path  string
	at, n int
	disk  []byte
	sizes []int64
}

func (k *killSink) Append(e journal.Entry) error {
	if err := k.w.Append(e); err != nil {
		return err
	}
	if k.n++; k.n > k.at {
		return nil
	}
	fi, err := os.Stat(k.path)
	if err != nil {
		return err
	}
	if len(k.sizes) == 0 || fi.Size() != k.sizes[len(k.sizes)-1] {
		k.sizes = append(k.sizes, fi.Size())
	}
	if k.n == k.at {
		k.disk, err = os.ReadFile(k.path)
	}
	return err
}

// renderResult is a campaign result as text: the tally, then every
// outcome in universe order.
func renderResult(res *stressor.Result) string {
	var b strings.Builder
	fmt.Fprintln(&b, res.Tally.String())
	for _, o := range res.Outcomes {
		fmt.Fprintf(&b, "%s %s %q\n", o.Scenario.ID, o.Class, o.Detail)
	}
	return b.String()
}

// TestResumeAfterAKillWithEntriesBuffered is the journal's durability
// contract on real campaigns, a whole one and one shard of two: the file
// taken mid-campaign with entries still in the writer's buffer, and that
// file cut at offsets inside the last batch written, each resume through
// AppendTo to the fresh run's rendered result and, on one worker, to the
// fresh run's journal bytes.
func TestResumeAfterAKillWithEntriesBuffered(t *testing.T) {
	r, err := NewRunner(Protected(), NormalDriving(), sim.MS(80))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var at []sim.Time
	for ms := uint64(1); ms < 80; ms += 2 {
		at = append(at, sim.MS(ms))
	}
	scs := permanentSweep(r, at...)
	for _, sh := range []stressor.Shard{{}, {Index: 1, Count: 2}} {
		t.Run(fmt.Sprintf("shard=%d/%d", sh.Index, max(sh.Count, 1)), func(t *testing.T) {
			dir := t.TempDir()
			header := (&stressor.Campaign{Name: "kill", Shard: sh}).JournalHeader(scs)
			// run executes the campaign into w through sink, resuming j when
			// it is not nil, closes w and renders the result.
			run := func(j *journal.Journal, w *journal.Writer, sink stressor.JournalSink) string {
				t.Helper()
				c := &stressor.Campaign{Name: "kill", Checkpointer: r, Workers: 1, Shard: sh, Journal: sink, Resume: j}
				res, err := c.Execute(scs)
				if cerr := w.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					t.Fatal(err)
				}
				return renderResult(res)
			}
			create := func(name string) (string, *journal.Writer) {
				path := filepath.Join(dir, name)
				w, err := journal.Create(path, header)
				if err != nil {
					t.Fatal(err)
				}
				return path, w
			}

			path, w := create("fresh")
			want := run(nil, w, w)
			wantBytes, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			fj, err := journal.DecodeBytes(wantBytes)
			if err != nil {
				t.Fatal(err)
			}
			path, w = create("killed")
			k := &killSink{w: w, path: path, at: len(fj.Entries) * 2 / 3}
			run(nil, w, k)
			kj, err := journal.DecodeBytes(k.disk)
			if err != nil {
				t.Fatal(err)
			}
			if len(k.sizes) < 3 || len(kj.Entries) >= k.at || kj.Truncated {
				t.Fatalf("%d of %d entries on disk after %d writes at append %d: the kill would leave no buffered entries or no batch to cut", len(kj.Entries), len(fj.Entries), len(k.sizes)-1, k.at)
			}
			// The file as the kill left it, then cut inside the last batch
			// written: at its first bytes, its last ones, mid-way and at the
			// frame boundary before mid-way.
			from, to := k.sizes[len(k.sizes)-2], int64(len(k.disk))
			mid, err := journal.DecodeBytes(k.disk[:(from+to)/2])
			if err != nil {
				t.Fatal(err)
			}
			cuts := []int64{to, from + 1, from + 9, mid.ValidBytes, (from + to) / 2, to - 5, to - 1}
			t.Logf("%d entries; the kill at append %d leaves %d, the last batch is bytes %d..%d", len(fj.Entries), k.at, len(kj.Entries), from, to)
			for _, cut := range cuts {
				path := filepath.Join(dir, fmt.Sprintf("cut%d", cut))
				if err := os.WriteFile(path, k.disk[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				j, w, err := journal.AppendTo(path, header)
				if err != nil {
					t.Fatalf("cut at %d: %v", cut, err)
				}
				if got := run(j, w, w); got != want {
					t.Errorf("cut at %d (%d entries kept): the resumed result differs from the fresh run:\n%s\nwant:\n%s", cut, len(j.Entries), got, want)
				}
				if got, _ := os.ReadFile(path); !bytes.Equal(got, wantBytes) {
					t.Errorf("cut at %d (%d entries kept): the resumed journal differs from the fresh run's", cut, len(j.Entries))
				}
			}
		})
	}
}
