// Package uvm implements a Go rendition of the Universal Verification
// Methodology testbench library: a phased component hierarchy,
// scoreboards, environments and an objection-based end-of-test
// mechanism.
//
// The paper (Sec. 2.3, 3.3) argues that UVM's reuse concepts should be
// carried beyond SystemVerilog — it cites SystemC-UVM and SVM as
// language ports — and that fault/error evaluation should slot into
// such testbenches as an additional stressor component with injector
// interfaces. This package is that port for Go: the stressor package
// implements a uvm.Component, and its failures are scored the way
// functional verification scores a mismatch.
package uvm

import (
	"fmt"

	"repro/internal/sim"
)

// Component is one node of the testbench hierarchy. Embed *Comp to get
// the wiring for free and override the phase hooks you need.
type Component interface {
	// Name is the leaf instance name.
	Name() string
	// FullName is the dot-separated hierarchical path.
	FullName() string
	// Parent is the enclosing component (nil for the top).
	Parent() Component
	// Children lists sub-components in creation order.
	Children() []Component

	// Build runs top-down before simulation; create late children here.
	Build()
	// Connect runs bottom-up after Build; bind ports here.
	Connect()
	// Run is the run-phase body, executed as a kernel thread process.
	// Components with nothing to do leave the default no-op.
	Run(ctx *sim.ThreadCtx)
	// Extract runs after simulation, bottom-up (gather results).
	Extract()
	// Check runs after Extract; return an error to fail the test.
	Check() error

	base() *Comp
}

// Comp is the embeddable base component.
type Comp struct {
	name   string
	parent Component
	kids   []Component
	env    *Env
}

// NewComp initializes an embedded base and registers it with its
// parent. self must be the embedding component (Go embedding has no
// virtual dispatch, so the base keeps an interface back-pointer).
func NewComp(self Component, parent Component, name string) *Comp {
	c := self.base()
	c.name = name
	c.parent = parent
	if parent != nil {
		pb := parent.base()
		pb.kids = append(pb.kids, self)
		c.env = pb.env
	}
	return c
}

// Name implements Component.
func (c *Comp) Name() string { return c.name }

// Parent implements Component.
func (c *Comp) Parent() Component { return c.parent }

// Children implements Component.
func (c *Comp) Children() []Component { return c.kids }

// FullName implements Component.
func (c *Comp) FullName() string {
	if c.parent == nil {
		return c.name
	}
	return c.parent.FullName() + "." + c.name
}

// Build implements Component (no-op default).
func (c *Comp) Build() {}

// Connect implements Component (no-op default).
func (c *Comp) Connect() {}

// Run implements Component (no-op default).
func (c *Comp) Run(ctx *sim.ThreadCtx) {}

// Extract implements Component (no-op default).
func (c *Comp) Extract() {}

// Check implements Component (no-op default).
func (c *Comp) Check() error { return nil }

func (c *Comp) base() *Comp { return c }

// Env returns the test environment the component runs under (valid
// from the build phase onward).
func (c *Comp) Env() *Env { return c.env }

// Env orchestrates the phased execution of a component tree on a kernel
// and collects its errors. It is the uvm_root/uvm_test_top analogue.
type Env struct {
	Kernel *sim.Kernel

	top        Component
	errors     []string
	objections int
	objRaised  bool
	objEv      *sim.Event
}

// NewEnv creates an environment on a kernel.
func NewEnv(k *sim.Kernel) *Env {
	return &Env{
		Kernel: k,
		objEv:  k.NewEvent("uvm.objections"),
	}
}

func (e *Env) recordError(msg string) { e.errors = append(e.errors, msg) }

// RaiseObjection keeps the run phase alive (drop it when done).
func (e *Env) RaiseObjection() {
	e.objections++
	e.objRaised = true
}

// DropObjection releases one objection; when all raised objections are
// dropped the run phase ends.
func (e *Env) DropObjection() {
	if e.objections == 0 {
		panic("uvm: DropObjection without matching Raise")
	}
	e.objections--
	if e.objections == 0 {
		e.objEv.Notify(0)
	}
}

// visit walks the tree; Build may append children mid-walk, so the
// walker re-reads child slices.
func visitTopDown(c Component, f func(Component)) {
	f(c)
	for i := 0; i < len(c.Children()); i++ {
		visitTopDown(c.Children()[i], f)
	}
}

func visitBottomUp(c Component, f func(Component)) {
	for i := 0; i < len(c.Children()); i++ {
		visitBottomUp(c.Children()[i], f)
	}
	f(c)
}

// Elaborate runs the build and connect phases for the tree rooted at
// top.
func (e *Env) Elaborate(top Component) {
	e.top = top
	top.base().env = e
	visitTopDown(top, func(c Component) {
		c.base().env = e
		c.Build()
	})
	visitBottomUp(top, func(c Component) { c.Connect() })
}

// Run executes the run phase: every component's Run body is spawned as
// a kernel thread, then the kernel advances until the horizon, until
// no events remain, or — when objections were raised — until the last
// objection drops.
func (e *Env) Run(until sim.Time) error {
	if e.top == nil {
		return fmt.Errorf("uvm: Run before Elaborate")
	}
	visitTopDown(e.top, func(c Component) {
		cc := c
		e.Kernel.Thread(cc.FullName()+".run", func(ctx *sim.ThreadCtx) {
			cc.Run(ctx)
		})
	})
	e.Kernel.MethodNoInit("uvm.end_of_test", func() {
		if e.objRaised && e.objections == 0 {
			e.Kernel.Stop()
		}
	}, e.objEv)
	return e.Kernel.Run(until)
}

// Finish runs extract and check phases and returns the accumulated
// test errors (check failures are appended).
func (e *Env) Finish() []string {
	visitBottomUp(e.top, func(c Component) { c.Extract() })
	visitBottomUp(e.top, func(c Component) {
		if err := c.Check(); err != nil {
			e.recordError(fmt.Sprintf("%s: check: %v", c.FullName(), err))
		}
	})
	return e.errors
}

// RunTest is the convenience one-shot: elaborate, run, finish,
// shutdown. It returns the collected errors.
func (e *Env) RunTest(top Component, until sim.Time) []string {
	e.Elaborate(top)
	if err := e.Run(until); err != nil {
		e.recordError("kernel: " + err.Error())
	}
	errs := e.Finish()
	e.Kernel.Shutdown()
	return errs
}
