// Package symex implements concolic (concrete + symbolic) execution
// for MDL models: it runs a function on concrete inputs while shadowing
// every value with a symbolic expression, collects the path condition,
// and generates new inputs by negating branch decisions and solving
// the resulting constraints (linear constraints exactly, everything
// else by directed fallback).
//
// This realizes the paper's Sec. 3.4 research challenge: "For errors
// that are hard to propagate, formal approaches such as symbolic
// execution [41, 42] might be necessary to generate stimuli to bypass
// the protection mechanisms", and reference [20]'s constraint-based
// automatic test generation from surviving mutants.
package symex

import (
	"fmt"

	"repro/internal/mdl"
)

// Sym is a symbolic expression over the function's inputs.
type Sym interface {
	sym()
	String() string
}

// SConst is a literal.
type SConst struct{ V int64 }

// SInput is the i-th function input.
type SInput struct {
	Name string
	Idx  int
}

// SBin is an operator application.
type SBin struct {
	Op   mdl.TokKind
	L, R Sym
}

// SUn is a unary operator application.
type SUn struct {
	Op mdl.TokKind
	X  Sym
}

func (*SConst) sym() {}
func (*SInput) sym() {}
func (*SBin) sym()   {}
func (*SUn) sym()    {}

// String renders the expression.
func (s *SConst) String() string { return fmt.Sprint(s.V) }

// String renders the expression.
func (s *SInput) String() string { return s.Name }

// String renders the expression.
func (s *SBin) String() string {
	return "(" + s.L.String() + " " + s.Op.String() + " " + s.R.String() + ")"
}

// String renders the expression.
func (s *SUn) String() string { return s.Op.String() + s.X.String() }

// Branch is one recorded path decision.
type Branch struct {
	// Cond is the symbolic condition (of the un-negated source text).
	Cond Sym
	// Taken is the concrete direction.
	Taken bool
}

// PathResult is one concolic run.
type PathResult struct {
	Output   int64
	Err      error
	Branches []Branch
	// Covered lists executed statement IDs.
	Covered map[mdl.NodeID]bool
}

// value pairs a concrete value with its symbolic shadow.
type value struct {
	c int64
	s Sym
}

// interp is the concolic interpreter (mirrors mdl's semantics).
type interp struct {
	prog     *mdl.Program
	res      *PathResult
	steps    int
	maxSteps int
}

type runtimeErr struct{ error }

type returned struct{ v value }

func (returned) Error() string { return "return" }

// Run executes fn concolically on the given inputs.
func Run(p *mdl.Program, fn string, inputs []int64) (*PathResult, error) {
	f, ok := p.Funcs[fn]
	if !ok {
		return nil, fmt.Errorf("symex: no function %q", fn)
	}
	if len(inputs) != len(f.Params) {
		return nil, fmt.Errorf("symex: %s expects %d inputs, got %d", fn, len(f.Params), len(inputs))
	}
	res := &PathResult{Covered: map[mdl.NodeID]bool{}}
	in := &interp{prog: p, res: res, maxSteps: mdl.DefaultMaxSteps}
	env := map[string]value{}
	for i, name := range f.Params {
		env[name] = value{c: inputs[i], s: &SInput{Name: name, Idx: i}}
	}
	out, err := in.runFunc(f, env)
	if err != nil {
		res.Err = err
	} else {
		res.Output = out.c
	}
	return res, nil
}

func (in *interp) tick() error {
	in.steps++
	if in.steps > in.maxSteps {
		return runtimeErr{fmt.Errorf("symex: step budget exceeded")}
	}
	return nil
}

func (in *interp) runFunc(f *mdl.Func, env map[string]value) (value, error) {
	err := in.block(f.Body, env)
	if r, ok := err.(returned); ok {
		return r.v, nil
	}
	if err != nil {
		return value{}, err
	}
	return value{c: 0, s: &SConst{V: 0}}, nil
}

func (in *interp) block(stmts []mdl.Stmt, env map[string]value) error {
	for _, s := range stmts {
		if err := in.stmt(s, env); err != nil {
			return err
		}
	}
	return nil
}

func (in *interp) stmt(s mdl.Stmt, env map[string]value) error {
	if err := in.tick(); err != nil {
		return err
	}
	in.res.Covered[s.ID()] = true
	switch st := s.(type) {
	case *mdl.Let:
		v, err := in.eval(st.E, env)
		if err != nil {
			return err
		}
		env[st.Name] = v
		return nil
	case *mdl.Assign:
		if _, ok := env[st.Name]; !ok {
			return runtimeErr{fmt.Errorf("symex: assignment to undeclared %q", st.Name)}
		}
		v, err := in.eval(st.E, env)
		if err != nil {
			return err
		}
		env[st.Name] = v
		return nil
	case *mdl.If:
		c, err := in.branch(st.Cond, env)
		if err != nil {
			return err
		}
		if c {
			return in.block(st.Then, env)
		}
		return in.block(st.Else, env)
	case *mdl.While:
		for {
			c, err := in.branch(st.Cond, env)
			if err != nil {
				return err
			}
			if !c {
				return nil
			}
			if err := in.block(st.Body, env); err != nil {
				return err
			}
			if err := in.tick(); err != nil {
				return err
			}
		}
	case *mdl.Return:
		v, err := in.eval(st.E, env)
		if err != nil {
			return err
		}
		return returned{v: v}
	default:
		return runtimeErr{fmt.Errorf("symex: unknown statement %T", s)}
	}
}

// branch evaluates a condition and records the decision.
func (in *interp) branch(cond mdl.Expr, env map[string]value) (bool, error) {
	v, err := in.eval(cond, env)
	if err != nil {
		return false, err
	}
	taken := v.c != 0
	in.res.Branches = append(in.res.Branches, Branch{Cond: v.s, Taken: taken})
	return taken, nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func (in *interp) eval(x mdl.Expr, env map[string]value) (value, error) {
	if err := in.tick(); err != nil {
		return value{}, err
	}
	switch ex := x.(type) {
	case *mdl.IntLit:
		return value{c: ex.Val, s: &SConst{V: ex.Val}}, nil
	case *mdl.BoolLit:
		return value{c: b2i(ex.Val), s: &SConst{V: b2i(ex.Val)}}, nil
	case *mdl.VarRef:
		v, ok := env[ex.Name]
		if !ok {
			return value{}, runtimeErr{fmt.Errorf("symex: undefined %q", ex.Name)}
		}
		return v, nil
	case *mdl.Unary:
		v, err := in.eval(ex.X, env)
		if err != nil {
			return value{}, err
		}
		switch ex.Op {
		case mdl.TokNot:
			return value{c: b2i(v.c == 0), s: &SUn{Op: mdl.TokNot, X: v.s}}, nil
		case mdl.TokMinus:
			return value{c: -v.c, s: &SUn{Op: mdl.TokMinus, X: v.s}}, nil
		}
		return value{}, runtimeErr{fmt.Errorf("symex: bad unary %s", ex.Op)}
	case *mdl.Call:
		f, ok := in.prog.Funcs[ex.Name]
		if !ok {
			return value{}, runtimeErr{fmt.Errorf("symex: no function %q", ex.Name)}
		}
		if len(ex.Args) != len(f.Params) {
			return value{}, runtimeErr{fmt.Errorf("symex: arity mismatch calling %q", ex.Name)}
		}
		callEnv := map[string]value{}
		for i, a := range ex.Args {
			v, err := in.eval(a, env)
			if err != nil {
				return value{}, err
			}
			callEnv[f.Params[i]] = v
		}
		return in.runFunc(f, callEnv)
	case *mdl.Binary:
		// Short-circuit logicals keep path conditions precise.
		if ex.Op == mdl.TokAndAnd || ex.Op == mdl.TokOrOr {
			l, err := in.eval(ex.L, env)
			if err != nil {
				return value{}, err
			}
			if ex.Op == mdl.TokAndAnd && l.c == 0 {
				return value{c: 0, s: &SBin{Op: ex.Op, L: l.s, R: &SConst{V: 0}}}, nil
			}
			if ex.Op == mdl.TokOrOr && l.c != 0 {
				return value{c: 1, s: &SBin{Op: ex.Op, L: l.s, R: &SConst{V: 1}}}, nil
			}
			r, err := in.eval(ex.R, env)
			if err != nil {
				return value{}, err
			}
			return value{c: b2i(r.c != 0), s: &SBin{Op: ex.Op, L: l.s, R: r.s}}, nil
		}
		l, err := in.eval(ex.L, env)
		if err != nil {
			return value{}, err
		}
		r, err := in.eval(ex.R, env)
		if err != nil {
			return value{}, err
		}
		var c int64
		switch ex.Op {
		case mdl.TokPlus:
			c = l.c + r.c
		case mdl.TokMinus:
			c = l.c - r.c
		case mdl.TokStar:
			c = l.c * r.c
		case mdl.TokSlash:
			if r.c == 0 {
				return value{}, runtimeErr{fmt.Errorf("symex: division by zero")}
			}
			c = l.c / r.c
		case mdl.TokPercent:
			if r.c == 0 {
				return value{}, runtimeErr{fmt.Errorf("symex: modulo by zero")}
			}
			c = l.c % r.c
		case mdl.TokLT:
			c = b2i(l.c < r.c)
		case mdl.TokLE:
			c = b2i(l.c <= r.c)
		case mdl.TokGT:
			c = b2i(l.c > r.c)
		case mdl.TokGE:
			c = b2i(l.c >= r.c)
		case mdl.TokEQ:
			c = b2i(l.c == r.c)
		case mdl.TokNE:
			c = b2i(l.c != r.c)
		default:
			return value{}, runtimeErr{fmt.Errorf("symex: bad op %s", ex.Op)}
		}
		return value{c: c, s: &SBin{Op: ex.Op, L: l.s, R: r.s}}, nil
	default:
		return value{}, runtimeErr{fmt.Errorf("symex: unknown expr %T", x)}
	}
}
