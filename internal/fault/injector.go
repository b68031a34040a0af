package fault

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/sim"
)

// Injector executes fault descriptors at one injection site. The
// paper's requirement (Sec. 3.3): injectors "provide an interface to
// change the stimuli in the testbench or modify the state or state
// transitions at different positions in the DUT" while "the design
// should not be changed" — implementations wrap Force/Release hooks,
// memory backdoors or stimulus filters rather than editing models.
//
// Inject and Revert are functions of model state and of the
// descriptor's content — model, class, domain, target, bit, address,
// param, duration, period, rate — never of its Start or Name, nor of
// kernel time: when a fault strikes is the stressor's business. That is
// what lets a campaign treat two injections of the same content into
// the same model state as one experiment (a tree session's fork-window
// memo, stressor.Host).
// An injector that schedules kernel activity — notifies an event,
// forces a signal a process is sensitive to — is within the contract;
// such an injection is simply never merged with another.
type Injector interface {
	// Site is the hierarchical injection-site name this injector
	// serves.
	Site() string
	// Supports reports whether the injector can realize the model.
	Supports(m Model) bool
	// Inject activates the fault described by d.
	Inject(d Descriptor) error
	// Revert deactivates the fault (end of a transient window).
	// Reverting an inactive fault is a no-op.
	Revert(d Descriptor) error
}

// FuncInjector adapts closures to the Injector interface.
type FuncInjector struct {
	SiteName string
	Models   []Model
	InjectFn func(d Descriptor) error
	RevertFn func(d Descriptor) error
}

// Site implements Injector.
func (f *FuncInjector) Site() string { return f.SiteName }

// Supports implements Injector.
func (f *FuncInjector) Supports(m Model) bool {
	for _, s := range f.Models {
		if s == m {
			return true
		}
	}
	return false
}

// Inject implements Injector.
func (f *FuncInjector) Inject(d Descriptor) error {
	if !f.Supports(d.Model) {
		return fmt.Errorf("fault: site %s does not support %s", f.SiteName, d.Model)
	}
	return f.InjectFn(d)
}

// Revert implements Injector.
func (f *FuncInjector) Revert(d Descriptor) error {
	if f.RevertFn == nil {
		return nil
	}
	return f.RevertFn(d)
}

// Registry resolves descriptor targets to injectors — the wiring the
// stressor uses. Sites are unique; registering a duplicate site is an
// elaboration bug.
type Registry struct {
	sites map[string]Injector
	// sorted holds the site names in order, maintained by Register, so
	// enumerating the fault space never sorts (and concurrent Universe
	// calls on an elaborated registry only read).
	sorted []string
	// table is every site's supported models, named, in site order:
	// built by the first Universe after the last Register, then shared
	// by every later one. Concurrent first calls each build an equal
	// table and keep whichever is stored last.
	table atomic.Pointer[[]siteModels]
}

// siteModels is one site's row of the table: the "site/model" name of
// each model it supports, "" for each it does not.
type siteModels struct {
	site  string
	inj   Injector
	names [Babbling + 1]string
}

// name is the descriptor name of model m at the row's site; "" when the
// site does not support m. A model past the row's names is asked for
// directly.
func (s *siteModels) name(m Model) string {
	switch {
	case int(m) < len(s.names):
		return s.names[m]
	case s.inj.Supports(m):
		return s.site + "/" + m.String()
	}
	return ""
}

// models is the registry's table, built when there is none.
func (r *Registry) models() []siteModels {
	if t := r.table.Load(); t != nil {
		return *t
	}
	t := make([]siteModels, len(r.sorted))
	for i, site := range r.sorted {
		row := &t[i]
		row.site, row.inj = site, r.sites[site]
		for m := range row.names {
			if row.inj.Supports(Model(m)) {
				row.names[m] = site + "/" + Model(m).String()
			}
		}
	}
	r.table.Store(&t)
	return t
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{sites: make(map[string]Injector)}
}

// Register adds an injector.
func (r *Registry) Register(inj Injector) error {
	site := inj.Site()
	if _, dup := r.sites[site]; dup {
		return fmt.Errorf("fault: duplicate injection site %q", site)
	}
	r.sites[site] = inj
	at, _ := slices.BinarySearch(r.sorted, site)
	r.sorted = slices.Insert(r.sorted, at, site)
	r.table.Store(nil)
	return nil
}

// MustRegister is Register that panics (elaboration-time use).
func (r *Registry) MustRegister(inj Injector) {
	if err := r.Register(inj); err != nil {
		panic(err)
	}
}

// Sites lists registered site names, sorted (deterministic fault-space
// enumeration).
func (r *Registry) Sites() []string {
	return append([]string(nil), r.sorted...)
}

// Inject resolves and executes a descriptor.
func (r *Registry) Inject(d Descriptor) error {
	inj, ok := r.sites[d.Target]
	if !ok {
		return fmt.Errorf("fault: no injector for site %q (fault %s)", d.Target, d.Name)
	}
	return inj.Inject(d)
}

// Revert resolves and deactivates a descriptor.
func (r *Registry) Revert(d Descriptor) error {
	inj, ok := r.sites[d.Target]
	if !ok {
		return fmt.Errorf("fault: no injector for site %q (fault %s)", d.Target, d.Name)
	}
	return inj.Revert(d)
}

// Universe enumerates the full single-fault space over the registry:
// for every site, every supported model from the given list, one
// descriptor. It is the exhaustive fault list of experiment E8. The
// names come from the registry's table and the list is allocated at its
// length, so a call costs that one allocation.
func (r *Registry) Universe(models []Model, class Class, start, duration, period sim.Time) []Descriptor {
	table := r.models()
	n := 0
	for i := range table {
		for _, m := range models {
			if table[i].name(m) != "" {
				n++
			}
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]Descriptor, 0, n)
	for i := range table {
		row := &table[i]
		for _, m := range models {
			name := row.name(m)
			if name == "" {
				continue
			}
			out = append(out, Descriptor{
				Name:     name,
				Model:    m,
				Class:    class,
				Target:   row.site,
				Start:    start,
				Duration: duration,
				Period:   period,
			})
		}
	}
	return out
}
