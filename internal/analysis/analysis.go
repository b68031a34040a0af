// Package analysis implements the monitoring side of the error-effect
// simulation loop (Sec. 3.3: "methodologies for fault/error
// classification and fault-error-failure analysis are required at the
// monitoring side of the testbench"): golden-vs-faulty run
// classification into the fault→error→failure outcome classes, error
// propagation tracing, and synthesis of fault trees from campaign
// outcomes (the implicit FTA support of [8], reproduced by
// experiment E7).
package analysis

import (
	"fmt"
	"hash/maphash"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/safety"
	"repro/internal/sim"
)

// Observation is what a monitor extracted from one simulation run.
// Outputs is the run's externally visible results as one comparable
// value; the classifier compares it against the golden run's.
type Observation struct {
	// Outputs are the externally visible results: model-canonical bytes,
	// equal exactly when the results are (the model's accessor reads them
	// back). A model hands a run whose results equal golden's golden's own
	// string, so Classify's == sees one pointer and reads no byte.
	Outputs string
	// GoalViolated marks a stated safety-goal violation (worst class).
	GoalViolated bool
	// GoalDetail explains the violation.
	GoalDetail string
	// Detected marks safety-mechanism activation with a safe outcome.
	Detected bool
	// DetectedBy names the mechanisms that fired.
	DetectedBy []string
	// DeadlineMissed marks a timing requirement violation with
	// otherwise correct values.
	DeadlineMissed bool
	// LatentState marks corrupted internal state that has not become
	// visible (found by end-of-run state comparison).
	LatentState bool
	// Activated marks that the fault actually perturbed something
	// (injected into exercised logic).
	Activated bool
}

// Classify derives the outcome class of a faulty run relative to the
// golden run, in strict severity order.
func Classify(golden, faulty Observation) fault.Classification {
	switch {
	case faulty.GoalViolated:
		return fault.SafetyCritical
	case faulty.DeadlineMissed:
		return fault.TimingViolation
	case golden.Outputs != faulty.Outputs:
		if faulty.Detected {
			return fault.DetectedSafe
		}
		return fault.SDC
	case faulty.Detected:
		return fault.DetectedSafe
	case faulty.LatentState:
		return fault.Latent
	case faulty.Activated:
		return fault.Masked
	default:
		return fault.NoEffect
	}
}

// Describe renders a one-line outcome detail from an observation. A
// detected run's detail is interned (detectedBy): a campaign's runs are
// detected by a handful of mechanism sequences, each rendered once.
func Describe(o Observation) string {
	switch {
	case o.GoalViolated:
		return "goal violated: " + o.GoalDetail
	case o.DeadlineMissed:
		return "deadline missed"
	case o.Detected:
		return detectedBy(o.DetectedBy)
	default:
		return ""
	}
}

// details interns the details detectedBy renders: an open-addressed table
// of immutable entries, each published by compare-and-swap, so concurrent
// campaigns read and fill it without a lock. It is bounded: a sequence
// whose probes all find other sequences is rendered afresh, every time.
var details [detailSlots]atomic.Pointer[detail]

const (
	detailSlots  = 1024 // a power of two
	detailProbes = 16
)

// detail is one interned rendering of a mechanism sequence.
type detail struct {
	by   []string // a copy: a caller's list may be a reused buffer
	text string
}

var detailSeed = maphash.MakeSeed()

// detectedBy is "detected by " and the mechanisms of by, comma-separated:
// the interned string when by was rendered before.
func detectedBy(by []string) string {
	h := uint64(len(by))
	for _, m := range by {
		h = sim.Mix64(h, maphash.String(detailSeed, m))
	}
	for p := uint64(0); p < detailProbes; p++ {
		slot := &details[(h+p)&(detailSlots-1)]
		d := slot.Load()
		if d == nil {
			d = &detail{by: slices.Clone(by), text: renderDetectedBy(by)}
			if slot.CompareAndSwap(nil, d) {
				return d.text
			}
			d = slot.Load()
		}
		if slices.Equal(d.by, by) {
			return d.text
		}
	}
	return renderDetectedBy(by)
}

func renderDetectedBy(by []string) string { return "detected by " + strings.Join(by, ",") }

// Hop is one step of an error propagation trace.
type Hop struct {
	At     sim.Time
	Site   string
	Detail string
}

// Trace records error propagation through the system — the "track the
// error propagation" capability the paper credits virtual prototypes
// with (Sec. 1). Model code calls Record at each place a corrupted
// value passes; the resulting hop sequence shows the path from fault
// to failure.
type Trace struct {
	hops []Hop
}

// Record appends a hop.
func (t *Trace) Record(at sim.Time, site, detail string) {
	t.hops = append(t.hops, Hop{At: at, Site: site, Detail: detail})
}

// CopyFrom overwrites the trace with the hops of src, reusing the hop
// buffer's capacity. Checkpoint-restoring runners use it to rewind a
// prototype's live trace to its golden-prefix contents.
func (t *Trace) CopyFrom(src *Trace) {
	t.hops = append(t.hops[:0], src.hops...)
}

// SitesVisited lists distinct sites on the path, in first-visit order.
func (t *Trace) SitesVisited() []string {
	seen := map[string]bool{}
	var out []string
	for _, h := range t.hops {
		if !seen[h.Site] {
			seen[h.Site] = true
			out = append(out, h.Site)
		}
	}
	return out
}

// String renders the path.
func (t *Trace) String() string {
	var b strings.Builder
	for i, h := range t.hops {
		if i > 0 {
			b.WriteString(" -> ")
		}
		fmt.Fprintf(&b, "%s@%s", h.Site, h.At)
		if h.Detail != "" {
			fmt.Fprintf(&b, "(%s)", h.Detail)
		}
	}
	return b.String()
}

// SynthesizeFaultTree builds a fault tree from campaign outcomes: each
// scenario whose class matches the failure predicate contributes its
// fault set as a cut set; cut sets are minimized and assembled as an
// OR of ANDs over basic events named by fault target and model.
// probs supplies basic-event probabilities (per target/model key);
// missing entries default to defaultProb.
//
// This realizes the "implicit FTA support through error effect
// simulation" of reference [8]: the tree falls out of simulation
// rather than expert judgement, and experiment E7 checks it against
// the analytic tree.
func SynthesizeFaultTree(name string, outcomes []fault.Outcome, isFailure func(fault.Classification) bool, probs map[string]float64, defaultProb float64) *safety.Node {
	var raw []safety.CutSet
	events := map[string]float64{}
	for _, o := range outcomes {
		if !isFailure(o.Class) {
			continue
		}
		cs := make(safety.CutSet, 0, len(o.Scenario.Faults))
		seen := map[string]bool{}
		for _, d := range o.Scenario.Faults {
			key := EventKey(d)
			if seen[key] {
				continue
			}
			seen[key] = true
			cs = append(cs, key)
			p, ok := probs[key]
			if !ok {
				p = defaultProb
			}
			events[key] = p
		}
		sort.Strings(cs)
		raw = append(raw, cs)
	}
	mcs := safety.MinimizeCutSets(raw)
	children := make([]*safety.Node, 0, len(mcs))
	for i, cs := range mcs {
		if len(cs) == 1 {
			children = append(children, safety.BasicEvent(cs[0], events[cs[0]]))
			continue
		}
		leaves := make([]*safety.Node, 0, len(cs))
		for _, e := range cs {
			leaves = append(leaves, safety.BasicEvent(e, events[e]))
		}
		children = append(children, safety.And(fmt.Sprintf("%s-mcs%d", name, i), leaves...))
	}
	if len(children) == 0 {
		// No observed failure: an empty OR is invalid, so return a
		// never-occurring basic event.
		return safety.BasicEvent(name+"-no-failure-observed", 0)
	}
	return safety.Or(name, children...)
}

// EventKey names a descriptor's basic event in synthesized trees:
// scenario-instance suffixes (after '#' or '+') are stripped so the
// same physical fault maps to one event.
func EventKey(d fault.Descriptor) string {
	name := d.Name
	if i := strings.IndexAny(name, "#+"); i >= 0 {
		name = name[:i]
	}
	return name
}
