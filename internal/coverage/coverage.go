// Package coverage implements the "intelligent coverage models"
// requirement of Sec. 3.4 and Fig. 3: a fault-space coverage model over
// (injection site × fault model) pairs that measures "the completeness
// of the error effect simulation" and exposes the holes that the next
// error-injection scenarios should target (coverage closure).
package coverage

import (
	"sort"
)

// SiteModelKey identifies one cell of the fault-space coverage model.
type SiteModelKey struct {
	Site  string
	Model string
}

// FaultSpace is the fault-space coverage model of the Fig. 3 loop: it
// tracks which (site, model) combinations have been injected and the
// worst outcome class observed per combination. Coverage closure means
// Holes() is empty.
type FaultSpace struct {
	cells    map[SiteModelKey]bool // declared space
	injected map[SiteModelKey]int  // injection counts
	worst    map[SiteModelKey]int  // worst observed severity
}

// NewFaultSpace declares the space from site and model name lists.
func NewFaultSpace(sites, models []string) *FaultSpace {
	fs := &FaultSpace{
		cells:    make(map[SiteModelKey]bool),
		injected: make(map[SiteModelKey]int),
		worst:    make(map[SiteModelKey]int),
	}
	for _, s := range sites {
		for _, m := range models {
			fs.cells[SiteModelKey{s, m}] = true
		}
	}
	return fs
}

// Declare adds one cell to the space (for heterogeneous sites that
// support different models).
func (fs *FaultSpace) Declare(site, model string) {
	fs.cells[SiteModelKey{site, model}] = true
}

// Record notes an injection and its outcome severity (use
// fault.Classification.Severity()). Unknown cells are auto-declared.
func (fs *FaultSpace) Record(site, model string, severity int) {
	k := SiteModelKey{site, model}
	fs.cells[k] = true
	fs.injected[k]++
	if severity > fs.worst[k] {
		fs.worst[k] = severity
	}
}

// Coverage is the fraction of declared cells injected at least once.
func (fs *FaultSpace) Coverage() float64 {
	if len(fs.cells) == 0 {
		return 1
	}
	return float64(len(fs.injected)) / float64(len(fs.cells))
}

// Holes lists uninjected cells, sorted — the closure work list.
func (fs *FaultSpace) Holes() []SiteModelKey {
	var out []SiteModelKey
	for k := range fs.cells {
		if fs.injected[k] == 0 {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Site != out[j].Site {
			return out[i].Site < out[j].Site
		}
		return out[i].Model < out[j].Model
	})
	return out
}

// WorstBySite aggregates the worst severity observed per site,
// descending — the simulated weak-spot ranking that guided injection
// feeds on.
func (fs *FaultSpace) WorstBySite() []SiteSeverity {
	agg := map[string]int{}
	for k, sev := range fs.worst {
		if sev > agg[k.Site] {
			agg[k.Site] = sev
		}
	}
	out := make([]SiteSeverity, 0, len(agg))
	for s, sev := range agg {
		out = append(out, SiteSeverity{Site: s, Severity: sev})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Severity != out[j].Severity {
			return out[i].Severity > out[j].Severity
		}
		return out[i].Site < out[j].Site
	})
	return out
}

// SiteSeverity is one row of the weak-spot ranking.
type SiteSeverity struct {
	Site     string
	Severity int
}
