package fault

import "fmt"

// Classification is the outcome of one fault-injected simulation run,
// following the fault→error→failure chain: a fault may never activate,
// activate but be masked, be caught by a safety mechanism, corrupt an
// output silently, break timing, or violate a safety goal outright.
// DESIGN.md §5 defines the exact semantics; every campaign in this
// repository reports these classes.
type Classification uint8

const (
	// NoEffect: the fault was never activated (site not exercised).
	NoEffect Classification = iota
	// Masked: activated, but the error never reached an observed
	// output (logical/architectural masking).
	Masked
	// Latent: an error is stored in state but has not become visible.
	Latent
	// DetectedSafe: a safety mechanism detected and handled the error;
	// the system reached or stayed in a safe state.
	DetectedSafe
	// SDC: silent data corruption — a wrong value at an observed
	// output with no detection.
	SDC
	// TimingViolation: correct values, but a deadline was missed
	// ("the right value at the wrong time can still be an error").
	TimingViolation
	// SafetyCritical: a stated safety goal was violated (e.g.
	// inadvertent airbag deployment).
	SafetyCritical
	// Timeout: the simulation run itself exceeded its wall-clock
	// budget and was abandoned — an infrastructure outcome, not a DUT
	// classification. A campaign records it and continues
	// (StopOnFirst ignores it), but Severity ranks it worst: a run
	// that could not be classified must be treated conservatively.
	Timeout
)

var classificationNames = [...]string{
	NoEffect:        "no-effect",
	Masked:          "masked",
	Latent:          "latent",
	DetectedSafe:    "detected-safe",
	SDC:             "sdc",
	TimingViolation: "timing-violation",
	SafetyCritical:  "safety-critical",
	Timeout:         "timeout",
}

// ParseClassification resolves a classification name as printed by
// String — the journal's on-disk outcome encoding.
func ParseClassification(name string) (Classification, bool) {
	for c, s := range classificationNames {
		if s == name {
			return Classification(c), true
		}
	}
	return 0, false
}

// String names the classification.
func (c Classification) String() string {
	if int(c) < len(classificationNames) {
		return classificationNames[c]
	}
	return fmt.Sprintf("Classification(%d)", uint8(c))
}

// Severity orders classifications by how bad they are for the safety
// case (higher is worse). DetectedSafe ranks below Latent: a detected
// and handled error is the design working as intended.
func (c Classification) Severity() int {
	switch c {
	case NoEffect:
		return 0
	case Masked:
		return 1
	case DetectedSafe:
		return 2
	case Latent:
		return 3
	case SDC:
		return 4
	case TimingViolation:
		return 5
	case SafetyCritical:
		return 6
	case Timeout:
		return 7
	default:
		return -1
	}
}

// IsFailure reports whether the run ended in an unhandled failure
// (SDC, timing violation or safety-goal violation).
func (c Classification) IsFailure() bool {
	return c == SDC || c == TimingViolation || c == SafetyCritical
}

// Outcome is the record of one injected scenario.
type Outcome struct {
	// Scenario is the injected fault set.
	Scenario Scenario
	// Class is the resulting classification.
	Class Classification
	// Detail is a human-readable explanation (first detection site,
	// mismatching output, violated goal).
	Detail string
	// Signature is the outcome's 64-bit equivalence-class fingerprint:
	// the final-state digest of the run (sim.StateSignature at the
	// horizon) folded with the classification. Zero means "not
	// computed" — plain RunFuncs leave it unset; the signature-aware
	// runners and the adaptive campaign engine populate it. Two
	// outcomes with equal non-zero signatures are behaviorally
	// equivalent: same classification, same final state.
	Signature uint64
}

// Tally counts outcomes per classification — the row format of most
// experiment tables.
type Tally map[Classification]int

// Add increments the count for an outcome's class.
func (t Tally) Add(o Outcome) { t[o.Class]++ }

// Total sums all counts.
func (t Tally) Total() int {
	n := 0
	for _, v := range t {
		n += v
	}
	return n
}

// Failures sums the unhandled-failure classes.
func (t Tally) Failures() int {
	return t[SDC] + t[TimingViolation] + t[SafetyCritical]
}

// String renders the tally in severity order.
func (t Tally) String() string {
	out := ""
	for c := NoEffect; c <= Timeout; c++ {
		if n, ok := t[c]; ok && n > 0 {
			if out != "" {
				out += " "
			}
			out += fmt.Sprintf("%s=%d", c, n)
		}
	}
	if out == "" {
		return "empty"
	}
	return out
}
