package main

import (
	"encoding/json"
	"io"
	"testing"

	"repro/internal/campaignd"
)

// TestFlagsDenoteSpec pins capsim's one remaining job for a campaign:
// which flag lands in which spec field. Each row is a command line and
// the spec JSON it denotes, before validation fills in defaults —
// everything else (what combines, what is in range, what the campaign
// does) is the spec's, shared with the daemon and the fabric.
func TestFlagsDenoteSpec(t *testing.T) {
	for _, tc := range []struct {
		name string
		argv []string
		want string
	}{
		{"defaults", []string{"-campaign"},
			`{"campaign":"capsim","universe":{"world":"normal","horizon":"80ms"}}`},
		{"named", []string{"-campaign", "e8", "-workers", "-1"},
			`{"campaign":"e8","universe":{"world":"normal","horizon":"80ms"},"workers":-1}`},
		{"prototype", []string{"-campaign", "-world", "crash", "-unprotected", "-horizon", "30ms"},
			`{"campaign":"capsim","universe":{"world":"crash","unprotected":true,"horizon":"30ms"}}`},
		{"engine", []string{"-campaign", "e8", "-dedup"},
			`{"campaign":"e8","universe":{"world":"normal","horizon":"80ms"},"dedup":true}`},
		{"shard", []string{"-campaign", "e8", "-shard", "1/4", "-scenario-timeout", "2s"},
			`{"campaign":"e8","universe":{"world":"normal","horizon":"80ms"},"shard":"1/4","scenario_timeout":"2s"}`},
		{"adaptive", []string{"-campaign", "nv", "-adaptive", "-novelty-budget", "100", "-novelty-seed", "7"},
			`{"campaign":"nv","universe":{"world":"normal","horizon":"80ms"},"adaptive":true,"novelty_budget":100,"novelty_seed":7}`},
		// The sinks a caller attaches describe no campaign: none of them
		// reaches the spec.
		{"sinks", []string{"-campaign", "e8", "-journal", "j", "-resume", "-interrupt-after", "3",
			"-metrics", "m", "-trace-events", "t", "-progress", "-log-format", "json"},
			`{"campaign":"e8","universe":{"world":"normal","horizon":"80ms"}}`},
		// Without -campaign the positional is not a name.
		{"one scenario", []string{"-faults", "open @caps.accel0.harness from 5ms", "-horizon", "20ms"},
			`{"campaign":"capsim","universe":{"world":"normal","horizon":"20ms"}}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o, err := parseArgs(tc.argv, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(&o.spec)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != tc.want {
				t.Errorf("capsim %v denotes\n  %s\nwant\n  %s", tc.argv, got, tc.want)
			}
			// What the flags denote is a spec the daemon would take: the
			// JSON parses to the campaign the flag-built value validates to.
			parsed, err := campaignd.ParseSpec(got)
			if err != nil {
				t.Fatalf("the daemon refuses %s: %v", got, err)
			}
			if err := o.spec.Validate(); err != nil {
				t.Fatal(err)
			}
			a, _ := json.Marshal(parsed)
			b, _ := json.Marshal(&o.spec)
			if string(a) != string(b) {
				t.Errorf("validated from flags %s, parsed from JSON %s", b, a)
			}
		})
	}
}

// TestParseArgsSinks: the switches that are not campaign description
// land in the options beside the spec.
func TestParseArgsSinks(t *testing.T) {
	o, err := parseArgs([]string{"-campaign", "e8", "-journal", "j.journal", "-resume",
		"-interrupt-after", "3", "-metrics", "m.json", "-trace-events", "t.json", "-progress", "-log-format", "json"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !o.campaign || o.journalPath != "j.journal" || !o.resume ||
		o.interruptAfter != 3 || o.metricsPath != "m.json" || o.tracePath != "t.json" || !o.progress || o.logFormat != "json" {
		t.Errorf("options = %+v", o)
	}
	if o, err = parseArgs([]string{"-sites"}, io.Discard); err != nil || !o.listSites || o.campaign {
		t.Errorf("-sites: %+v, %v", o, err)
	}
	// -journal-codec is gone: every fresh journal is binary.
	for _, argv := range [][]string{{"-no-such-flag"}, {"-campaign", "-journal", "j", "-journal-codec", "binary"}} {
		if _, err := parseArgs(argv, io.Discard); err == nil {
			t.Errorf("capsim %v parsed; want a usage error", argv)
		}
	}
}
