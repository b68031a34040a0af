package stressor

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
)

// RootCase is one toy prototype of this package's tests as the external
// tests hand it to stressortest.CheckRoot: the signed run paths of a
// ReuseOff host and of a pooled one, a universe of faulty scenarios and
// the hosts' horizon.
type RootCase struct {
	Name           string
	Rebuild, Reuse RunFunc
	Universe       []fault.Scenario
	Horizon        sim.Time
}

// RootCases builds a RootCase for each toy with injection sites that
// return: the fork-window toy and the fan-out toy.
func RootCases(t *testing.T) []RootCase {
	var window []fault.Scenario
	for _, at := range []sim.Time{12, 35} {
		for _, f := range []struct {
			site  string
			model fault.Model
		}{{"toy.reg", fault.StuckAt1}, {"toy.line", fault.StuckAt1}, {"toy.late", fault.Delay},
			{"toy.clock", fault.Omission}, {"toy.spawn", fault.Babbling}, {"toy.err", fault.Open}} {
			name := fmt.Sprintf("%s@%d", f.site, uint64(at))
			window = append(window, fault.Single(permanent(name, f.site, f.model, at)))
		}
		d := permanent(fmt.Sprintf("toy.reg2+t@%d", uint64(at)), "toy.reg2", fault.StuckAt1, at)
		d.Class, d.Duration = fault.Transient, 17
		window = append(window, fault.Single(d))
	}
	var fan []fault.Scenario
	for _, at := range []sim.Time{5, fanPeriod, 2*fanPeriod + 5} {
		fan = append(fan, fault.Single(permanent(fmt.Sprintf("fan.quiet@%d", uint64(at)), "fan.quiet", fault.Open, at)))
	}
	rebuild, reuse := newWindowHost(t), newWindowHost(t)
	rebuild.ReuseOff = true
	fanRebuild, fanReuse := newFanHost(t), newFanHost(t)
	fanRebuild.ReuseOff = true
	return []RootCase{
		{"window", rebuild.RunScenarioSigned, reuse.RunScenarioSigned, window, windowHorizon},
		{"fan", fanRebuild.RunScenarioSigned, fanReuse.RunScenarioSigned, fan, fanHorizon},
	}
}

// LiveNodes reports the golden-prefix nodes the host retains.
func (h *Host[S, G]) LiveNodes() int {
	h.tree.mu.RLock()
	defer h.tree.mu.RUnlock()
	return len(h.tree.nodes)
}
