package clitest

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaignd"
	"repro/internal/journal"
)

// The capsim campaign command line every daemon test mirrors: the
// E2E spec {"campaign":"e2e","universe":{"kind":"caps-single-fault",
// "horizon":"30ms"},"workers":2} must produce byte-identical text.
var capsimCampaignArgs = []string{"-campaign", "e2e", "-horizon", "30ms", "-workers", "2"}

// goldenCampaign is the goldenfile shared by the capsim CLI and the
// capsimd daemon result tests.
const goldenCampaign = "capsim_campaign"

func TestCapsimScenarioGolden(t *testing.T) {
	r := Run(t, nil, Binary(t, "capsim"), "-faults", "open @caps.accel0.harness from 5ms")
	if r.Code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", r.Code, r.Stderr)
	}
	Golden(t, "capsim_scenario", r.Stdout)
}

func TestCapsimSitesGolden(t *testing.T) {
	r := Run(t, nil, Binary(t, "capsim"), "-sites")
	if r.Code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", r.Code, r.Stderr)
	}
	Golden(t, "capsim_sites", r.Stdout)
}

func TestCapsimCampaignGolden(t *testing.T) {
	r := Run(t, nil, Binary(t, "capsim"), capsimCampaignArgs...)
	if r.Code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", r.Code, r.Stderr)
	}
	Golden(t, goldenCampaign, r.Stdout)
}

// TestCapsimCampaignModesIdentical pins the engine's core promise at
// the CLI surface: early-exit and journaled executions of the same
// campaign print the same bytes (against the same golden) as the run
// without them. The journal holds every outcome, in binary.
func TestCapsimCampaignModesIdentical(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "run.journal")
	for _, extra := range [][]string{
		{"-early-exit"},
		{"-early-exit", "-hash-stride", "5ms"},
		{"-journal", jpath},
	} {
		r := Run(t, nil, Binary(t, "capsim"), append(append([]string{}, capsimCampaignArgs...), extra...)...)
		if r.Code != 0 {
			t.Fatalf("capsim %v: exit %d, stderr:\n%s", extra, r.Code, r.Stderr)
		}
		Golden(t, goldenCampaign, r.Stdout)
	}
	j, err := journal.Read(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if j.Codec != journal.Binary || len(j.Entries) != 21 {
		t.Errorf("capsim -journal wrote %d %s entries, want 21 binary", len(j.Entries), j.Codec)
	}
}

// TestCapsimForksWithoutAFlag: a campaign needs no flag to fork from the
// checkpoint tree: its metrics count the golden prefixes its sessions
// extended or simulated from time zero.
func TestCapsimForksWithoutAFlag(t *testing.T) {
	mpath := filepath.Join(t.TempDir(), "m.json")
	r := Run(t, nil, Binary(t, "capsim"), "-campaign", "e8", "-metrics", mpath)
	if r.Code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", r.Code, r.Stderr)
	}
	data, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if n := m.Counters["campaign.tree_extends{campaign=e8}"] + m.Counters["campaign.tree_rebuilds{campaign=e8}"]; n == 0 {
		t.Errorf("capsim -campaign e8 established no golden prefix: %v", m.Counters)
	}
}

// TestCampmergeGolden runs the campaign as two shard subprocesses and
// merges the journals: the shard tallies must reassemble into the
// goldenfiled merge summary.
func TestCampmergeGolden(t *testing.T) {
	dir := t.TempDir()
	capsim := Binary(t, "capsim")
	var journals []string
	for _, shard := range []string{"0/2", "1/2"} {
		jpath := filepath.Join(dir, "shard"+shard[:1]+".journal")
		journals = append(journals, jpath)
		args := append(append([]string{}, capsimCampaignArgs...), "-shard", shard, "-journal", jpath)
		if r := Run(t, nil, capsim, args...); r.Code != 0 {
			t.Fatalf("capsim -shard %s: exit %d, stderr:\n%s", shard, r.Code, r.Stderr)
		}
	}
	r := Run(t, nil, Binary(t, "campmerge"), append([]string{"-horizon", "30ms"}, journals...)...)
	if r.Code != 0 {
		t.Fatalf("campmerge: exit %d, stderr:\n%s", r.Code, r.Stderr)
	}
	Golden(t, "campmerge", r.Stdout)
}

func TestMutateDemoGolden(t *testing.T) {
	r := Run(t, nil, Binary(t, "mutate"), "-demo")
	if r.Code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", r.Code, r.Stderr)
	}
	Golden(t, "mutate_demo", r.Stdout)

	// The parallel path must print the identical report.
	rp := Run(t, nil, Binary(t, "mutate"), "-demo", "-workers", "-1")
	if rp.Stdout != r.Stdout {
		t.Errorf("mutate -demo -workers -1 diverges from the sequential output")
	}
}

func TestVpsafetyGolden(t *testing.T) {
	r := Run(t, nil, Binary(t, "vpsafety"), "-exp", "E7")
	if r.Code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", r.Code, r.Stderr)
	}
	Golden(t, "vpsafety_e7", r.Stdout)
}

// TestCapsimJournalFailureExitsNonZero pins the exit-code contract: a
// campaign whose journal stops persisting mid-run must exit non-zero
// — success over an unresumable, unmergeable journal is a lie. The
// CAPSIM_FAIL_JOURNAL_AFTER knob injects the write failure after N
// appends, modeling a volume that fills up mid-campaign.
func TestCapsimJournalFailureExitsNonZero(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "run.journal")
	args := append(append([]string{}, capsimCampaignArgs...), "-journal", jpath)
	r := Run(t, []string{"CAPSIM_FAIL_JOURNAL_AFTER=3"}, Binary(t, "capsim"), args...)
	if r.Code == 0 {
		t.Fatalf("capsim exited 0 with a failing journal; stdout:\n%s", r.Stdout)
	}
	if !strings.Contains(r.Stderr, "injected write failure") {
		t.Errorf("stderr lacks the journal failure cause:\n%s", r.Stderr)
	}
	// The journal keeps the appends that succeeded: 3 entries.
	j, err := journal.Read(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(j.Entries); n != 3 {
		t.Errorf("journal has %d entries, want 3", n)
	}
}

// The adaptive campaign both front-ends must turn into the same bytes:
// adaptiveSpec mirrors capsimAdaptiveArgs knob for knob. The goldenfile
// was recorded from capsim at the commit before the two campaign
// engines were merged, so it also pins the merged engine to the
// adaptive stream its predecessor produced.
var capsimAdaptiveArgs = []string{"-campaign", "ad", "-adaptive", "-novelty-budget", "64", "-novelty-seed", "1", "-workers", "2"}

const (
	adaptiveSpec   = `{"campaign":"ad","adaptive":true,"novelty_budget":64,"novelty_seed":1,"workers":2}`
	goldenAdaptive = "capsim_adaptive"
)

func TestCapsimAdaptiveGolden(t *testing.T) {
	r := Run(t, nil, Binary(t, "capsim"), capsimAdaptiveArgs...)
	if r.Code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", r.Code, r.Stderr)
	}
	Golden(t, goldenAdaptive, r.Stdout)
	if r.Stderr != "" {
		t.Errorf("stderr without -progress:\n%s", r.Stderr)
	}

	// -progress reaches the adaptive path: a live line per update on
	// stderr, the final one at the full simulated-run budget, stdout
	// untouched.
	p := Run(t, nil, Binary(t, "capsim"), append(append([]string{}, capsimAdaptiveArgs...), "-progress")...)
	if p.Code != 0 || p.Stdout != r.Stdout {
		t.Fatalf("-progress changed the run: exit %d, stdout:\n%s", p.Code, p.Stdout)
	}
	if !strings.Contains(p.Stderr, "ad: 64/64 (100.0%)") {
		t.Errorf("-adaptive -progress streamed no progress to stderr:\n%q", p.Stderr)
	}
}

// TestCapsimAdaptiveRefusals: every flag an adaptive campaign cannot
// compose with is a usage error — exit 2, nothing simulated, nothing on
// stdout — never a silent no-op. capsim keeps no refusal table of its
// own: each flag lands in its spec field and Spec.Validate refuses the
// combination with the one message the daemon answers a POST with
// (TestSpecAdaptiveRefusals), so this proves each flag reaches its
// field. The set is the one stressor.Campaign refuses next to a Source
// (capsim has no stop-on-first flag) plus an explicit -dedup; what the
// shared run shell serves (-scenario-timeout, -trace-events) is
// accepted.
func TestCapsimAdaptiveRefusals(t *testing.T) {
	base := []string{"-campaign", "ad", "-adaptive", "-novelty-budget", "4", "-horizon", "30ms"}
	for knob, args := range map[string][]string{
		"shard":       {"-shard", "0/2"},
		"early_exit":  {"-early-exit"},
		"hash_stride": {"-early-exit", "-hash-stride", "5ms"},
		"dedup":       {"-dedup"},
	} {
		r := Run(t, nil, Binary(t, "capsim"), append(append([]string{}, base...), args...)...)
		if r.Code != 2 || r.Stdout != "" || !strings.Contains(r.Stderr, knob+" cannot be combined with adaptive") {
			t.Errorf("capsim -adaptive %v: exit %d, stdout %q, stderr %q; want usage error 2 naming %s", args, r.Code, r.Stdout, r.Stderr, knob)
		}
	}
	trace := filepath.Join(t.TempDir(), "trace.json")
	r := Run(t, nil, Binary(t, "capsim"), append(append([]string{}, base...), "-scenario-timeout", "1m", "-trace-events", trace)...)
	if r.Code != 0 {
		t.Fatalf("-scenario-timeout -trace-events: exit %d, stderr:\n%s", r.Code, r.Stderr)
	}
	if data, err := os.ReadFile(trace); err != nil || !strings.Contains(string(data), `"cat":"campaign"`) {
		t.Errorf("-adaptive -trace-events wrote no campaign spans (err %v)", err)
	}
}

// TestCapsimRefusesWhatTheSpecRefuses: a command line and the spec JSON
// that sets the same knobs are refused alike — capsim with a usage
// error (exit 2, empty stdout, nothing simulated), ParseSpec with the
// same message — because the CLI validates the very Spec value its
// flags bind to. A CLI that runs one of these reports on a campaign
// that was never injected: `-campaign -horizon 5ms` is 21 faults whose
// 10 ms injection instant lies past the horizon, an all-clear
// `tally: masked=21` if simulated.
func TestCapsimRefusesWhatTheSpecRefuses(t *testing.T) {
	for _, tc := range []struct {
		argv []string
		spec string
	}{
		{[]string{"-campaign", "-horizon", "5ms"}, `{"universe":{"horizon":"5ms"}}`},
		{[]string{"-campaign", "-workers", "-7"}, `{"workers":-7}`},
		{[]string{"-campaign", "-scenario-timeout", "-1s"}, `{"scenario_timeout":"-1s"}`},
		{[]string{"-campaign", "-early-exit", "-hash-stride", "200ms", "-horizon", "30ms"},
			`{"universe":{"horizon":"30ms"},"early_exit":true,"hash_stride":"200ms"}`},
		{[]string{"-campaign", "-shard", "0/5000"}, `{"shard":"0/5000"}`},
		{[]string{"-campaign", "-horizon", "20s"}, `{"universe":{"horizon":"20s"}}`},
		{[]string{"-campaign", "-hash-stride", "5ms"}, `{"hash_stride":"5ms"}`},
		// Novelty knobs without -adaptive are refused, as in a spec.
		{[]string{"-campaign", "-novelty-budget", "8"}, `{"novelty_budget":8}`},
		// -sites and -faults answer to the prototype half alone.
		{[]string{"-sites", "-horizon", "20s"}, `{"universe":{"horizon":"20s"}}`},
		{[]string{"-faults", "open @caps.accel0.harness from 5ms", "-world", "mars"}, `{"universe":{"world":"mars"}}`},
	} {
		_, err := campaignd.ParseSpec([]byte(tc.spec))
		if err == nil {
			t.Errorf("ParseSpec accepts %s", tc.spec)
			continue
		}
		r := Run(t, nil, Binary(t, "capsim"), tc.argv...)
		if r.Code != 2 || r.Stdout != "" || r.Stderr != err.Error()+"\n" {
			t.Errorf("capsim %v: exit %d, stdout %q, stderr %q; want exit 2, no stdout and the spec's refusal %q",
				tc.argv, r.Code, r.Stdout, r.Stderr, err)
		}
	}
	// The campaign half does not bind a mode that describes no campaign:
	// a 5 ms horizon has no room for the campaign's 10 ms injection
	// instant and every room for listing sites.
	if r := Run(t, nil, Binary(t, "capsim"), "-sites", "-horizon", "5ms"); r.Code != 0 {
		t.Errorf("capsim -sites -horizon 5ms: exit %d, stderr %q", r.Code, r.Stderr)
	}
	// campmerge binds its flags to the same spec.
	if r := Run(t, nil, Binary(t, "campmerge"), "-horizon", "5ms", "none.jsonl"); r.Code != 2 || !strings.Contains(r.Stderr, "inject 10ms out of range") {
		t.Errorf("campmerge -horizon 5ms: exit %d, stderr %q", r.Code, r.Stderr)
	}
}
