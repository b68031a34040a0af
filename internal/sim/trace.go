package sim

import (
	"fmt"
	"io"
	"sort"
)

// Tracer writes a Value Change Dump (VCD) of registered probes. Probes
// are sampled at the end of every delta cycle; only changes are
// emitted, so idle signals cost nothing in the output. The VCD output
// lets error-propagation traces from fault campaigns be inspected with
// standard waveform viewers.
type Tracer struct {
	w        io.Writer
	vars     []*traceVar
	started  bool
	lastTime Time
	haveTime bool
	err      error
}

type traceVar struct {
	name   string
	width  int
	sample func() string
	last   string
	code   string
}

// NewTracer creates a tracer emitting VCD to w with a 1 ps timescale.
func NewTracer(w io.Writer) *Tracer {
	return &Tracer{w: w}
}

// AttachTracer registers the tracer for end-of-delta sampling.
func (k *Kernel) AttachTracer(t *Tracer) {
	k.tracers = append(k.tracers, t)
}

// AddProbe registers a probe. width is the bit width used in the VCD
// declaration (1 emits scalar changes, >1 vector changes); sample must
// return the value as a binary string ("0", "1", "x", or "b0101"-style
// without the leading 'b').
func (t *Tracer) AddProbe(name string, width int, sample func() string) {
	if t.started {
		panic("sim: AddProbe after tracing started")
	}
	t.vars = append(t.vars, &traceVar{name: name, width: width, sample: sample})
}

// TraceSignal registers a probe on a signal using fmt %v rendering of
// its value as an ASCII "real" VCD variable is overkill; bool signals
// trace as scalars, everything else as a string variable.
func TraceSignal[T comparable](t *Tracer, s *Signal[T]) {
	var zero T
	if _, isBool := any(zero).(bool); isBool {
		t.AddProbe(s.Name(), 1, func() string {
			if any(s.Read()).(bool) {
				return "1"
			}
			return "0"
		})
		return
	}
	t.AddProbe(s.Name(), 64, func() string { return fmt.Sprintf("%v", s.Read()) })
}

func vcdCode(i int) string {
	// Printable identifier codes ! through ~ in a base-94 encoding.
	const lo, hi = 33, 126
	n := hi - lo + 1
	code := ""
	for {
		code += string(rune(lo + i%n))
		i /= n
		if i == 0 {
			return code
		}
	}
}

// writeHeader emits the VCD declarations. Like sampleDelta it stores
// the first write error so a full disk or closed pipe surfaces via Err
// instead of silently truncating the dump.
func (t *Tracer) writeHeader() {
	t.started = true
	if _, err := fmt.Fprintf(t.w, "$timescale 1ps $end\n$scope module top $end\n"); err != nil {
		t.err = err
		return
	}
	sort.SliceStable(t.vars, func(i, j int) bool { return t.vars[i].name < t.vars[j].name })
	for i, v := range t.vars {
		v.code = vcdCode(i)
		if _, err := fmt.Fprintf(t.w, "$var wire %d %s %s $end\n", v.width, v.code, v.name); err != nil {
			t.err = err
			return
		}
	}
	if _, err := fmt.Fprintf(t.w, "$upscope $end\n$enddefinitions $end\n"); err != nil {
		t.err = err
	}
}

// sampleDelta is called by the kernel at the end of every delta cycle.
func (t *Tracer) sampleDelta(now Time) {
	if t.err != nil {
		return
	}
	if !t.started {
		t.writeHeader()
		if t.err != nil {
			return
		}
	}
	wroteTime := t.haveTime && t.lastTime == now
	for _, v := range t.vars {
		s := v.sample()
		if s == v.last {
			continue
		}
		v.last = s
		if !wroteTime {
			if _, err := fmt.Fprintf(t.w, "#%d\n", uint64(now)); err != nil {
				t.err = err
				return
			}
			wroteTime = true
			t.haveTime = true
			t.lastTime = now
		}
		var err error
		if v.width == 1 {
			_, err = fmt.Fprintf(t.w, "%s%s\n", s, v.code)
		} else {
			_, err = fmt.Fprintf(t.w, "b%s %s\n", toBinary(s), v.code)
		}
		if err != nil {
			t.err = err
			return
		}
	}
}

// toBinary renders a sampled value as a VCD binary vector string. Values
// already consisting of 0/1/x/z pass through; anything else is hashed to
// its byte representation so arbitrary values remain traceable.
func toBinary(s string) string {
	ok := len(s) > 0
	for _, r := range s {
		if r != '0' && r != '1' && r != 'x' && r != 'z' {
			ok = false
			break
		}
	}
	if ok {
		return s
	}
	// Render as the binary of a 64-bit FNV-1a hash: stable, unique-ish.
	// An output format, not a state digest: its bytes are in traces.
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return fmt.Sprintf("%064b", h)
}

// Err reports the first write error encountered, if any.
func (t *Tracer) Err() error { return t.err }
