package mdl

import (
	"errors"
	"fmt"
)

// MutOp enumerates the mutation kinds the interpreter can apply via
// schemata (the mutation package decides where to apply them).
type MutOp uint8

const (
	// MutReplaceBinOp swaps a binary operator (AOR/ROR/LCR classes).
	MutReplaceBinOp MutOp = iota
	// MutReplaceConst replaces an integer literal's value (CRP).
	MutReplaceConst
	// MutNegateCond inverts an if/while condition (NC).
	MutNegateCond
	// MutDeleteStmt removes a let/assign statement (SDL).
	MutDeleteStmt
)

// String names the mutation kind.
func (m MutOp) String() string {
	switch m {
	case MutReplaceBinOp:
		return "replace-binop"
	case MutReplaceConst:
		return "replace-const"
	case MutNegateCond:
		return "negate-cond"
	case MutDeleteStmt:
		return "delete-stmt"
	default:
		return fmt.Sprintf("MutOp(%d)", uint8(m))
	}
}

// SchemataMut selects one mutant inside an unmodified program: the
// interpreter consults it at the addressed node and applies the
// mutated semantics. This is the "mutation schema" technique
// (Sec. 2.4 [21]) — one compiled artifact, any mutant, no re-parse.
type SchemataMut struct {
	Node   NodeID
	Op     MutOp
	NewTok TokKind // MutReplaceBinOp
	NewVal int64   // MutReplaceConst
}

// ErrStepBudget reports a (probably mutant-induced) runaway loop.
var ErrStepBudget = errors.New("mdl: step budget exceeded")

// DefaultMaxSteps bounds interpretation so mutants that break loop
// exits terminate (they count as killed-by-timeout).
const DefaultMaxSteps = 1_000_000

// Interp executes a program. It tracks statement coverage and honours
// an optional schemata mutation.
type Interp struct {
	prog     *Program
	mut      *SchemataMut
	covered  map[NodeID]bool
	steps    int
	MaxSteps int
}

// NewInterp creates an interpreter for the program.
func NewInterp(p *Program) *Interp {
	return &Interp{prog: p, covered: make(map[NodeID]bool), MaxSteps: DefaultMaxSteps}
}

// SetMutation activates a schemata mutant (nil deactivates).
func (in *Interp) SetMutation(m *SchemataMut) { in.mut = m }

// CoverageFraction reports covered statements over all statements.
func (in *Interp) CoverageFraction() float64 {
	all := CollectStmtIDs(in.prog)
	if len(all) == 0 {
		return 1
	}
	n := 0
	for _, id := range all {
		if in.covered[id] {
			n++
		}
	}
	return float64(n) / float64(len(all))
}

// env is a function-call scope.
type env struct {
	vars map[string]int64
}

// errReturn carries a return value up the statement walk.
type errReturn struct {
	val int64
}

func (errReturn) Error() string { return "return" }

// Call executes a named function with integer arguments (booleans are
// 0/1) and returns its result. A function that falls off the end
// returns 0.
func (in *Interp) Call(fn string, args ...int64) (int64, error) {
	f, ok := in.prog.Funcs[fn]
	if !ok {
		return 0, fmt.Errorf("mdl: no function %q", fn)
	}
	if len(args) != len(f.Params) {
		return 0, fmt.Errorf("mdl: %s expects %d args, got %d", fn, len(f.Params), len(args))
	}
	in.steps = 0
	return in.call(f, args)
}

func (in *Interp) call(f *Func, args []int64) (int64, error) {
	e := &env{vars: make(map[string]int64, len(f.Params)+4)}
	for i, p := range f.Params {
		e.vars[p] = args[i]
	}
	err := in.execBlock(f.Body, e)
	var ret errReturn
	if errors.As(err, &ret) {
		return ret.val, nil
	}
	if err != nil {
		return 0, err
	}
	return 0, nil
}

func (in *Interp) tick() error {
	in.steps++
	if in.steps > in.MaxSteps {
		return ErrStepBudget
	}
	return nil
}

func (in *Interp) execBlock(stmts []Stmt, e *env) error {
	for _, s := range stmts {
		if err := in.exec(s, e); err != nil {
			return err
		}
	}
	return nil
}

func (in *Interp) exec(s Stmt, e *env) error {
	if err := in.tick(); err != nil {
		return err
	}
	in.covered[s.ID()] = true
	deleted := in.mut != nil && in.mut.Op == MutDeleteStmt && in.mut.Node == s.ID()
	switch st := s.(type) {
	case *Let:
		if deleted {
			// A deleted let still declares (as zero) so later reads
			// don't fault — mirroring "statement deletion" semantics.
			e.vars[st.Name] = 0
			return nil
		}
		v, err := in.eval(st.E, e)
		if err != nil {
			return err
		}
		e.vars[st.Name] = v
		return nil
	case *Assign:
		if deleted {
			return nil
		}
		if _, ok := e.vars[st.Name]; !ok {
			return fmt.Errorf("mdl: assignment to undeclared variable %q", st.Name)
		}
		v, err := in.eval(st.E, e)
		if err != nil {
			return err
		}
		e.vars[st.Name] = v
		return nil
	case *If:
		c, err := in.cond(st.NID, st.Cond, e)
		if err != nil {
			return err
		}
		if c {
			return in.execBlock(st.Then, e)
		}
		return in.execBlock(st.Else, e)
	case *While:
		for {
			c, err := in.cond(st.NID, st.Cond, e)
			if err != nil {
				return err
			}
			if !c {
				return nil
			}
			if err := in.execBlock(st.Body, e); err != nil {
				return err
			}
			if err := in.tick(); err != nil {
				return err
			}
		}
	case *Return:
		v, err := in.eval(st.E, e)
		if err != nil {
			return err
		}
		return errReturn{val: v}
	default:
		return fmt.Errorf("mdl: unknown statement %T", s)
	}
}

// cond evaluates a condition, applying a NegateCond mutation addressed
// at the owning statement.
func (in *Interp) cond(stmtID NodeID, c Expr, e *env) (bool, error) {
	v, err := in.eval(c, e)
	if err != nil {
		return false, err
	}
	b := v != 0
	if in.mut != nil && in.mut.Op == MutNegateCond && in.mut.Node == stmtID {
		b = !b
	}
	return b, nil
}

func boolVal(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func (in *Interp) eval(x Expr, e *env) (int64, error) {
	if err := in.tick(); err != nil {
		return 0, err
	}
	switch ex := x.(type) {
	case *IntLit:
		if in.mut != nil && in.mut.Op == MutReplaceConst && in.mut.Node == ex.NID {
			return in.mut.NewVal, nil
		}
		return ex.Val, nil
	case *BoolLit:
		return boolVal(ex.Val), nil
	case *VarRef:
		v, ok := e.vars[ex.Name]
		if !ok {
			return 0, fmt.Errorf("mdl: undefined variable %q", ex.Name)
		}
		return v, nil
	case *Unary:
		v, err := in.eval(ex.X, e)
		if err != nil {
			return 0, err
		}
		switch ex.Op {
		case TokNot:
			return boolVal(v == 0), nil
		case TokMinus:
			return -v, nil
		default:
			return 0, fmt.Errorf("mdl: bad unary op %s", ex.Op)
		}
	case *Call:
		f, ok := in.prog.Funcs[ex.Name]
		if !ok {
			return 0, fmt.Errorf("mdl: no function %q", ex.Name)
		}
		if len(ex.Args) != len(f.Params) {
			return 0, fmt.Errorf("mdl: %s expects %d args, got %d", ex.Name, len(f.Params), len(ex.Args))
		}
		args := make([]int64, len(ex.Args))
		for i, a := range ex.Args {
			v, err := in.eval(a, e)
			if err != nil {
				return 0, err
			}
			args[i] = v
		}
		return in.call(f, args)
	case *Binary:
		op := ex.Op
		if in.mut != nil && in.mut.Op == MutReplaceBinOp && in.mut.Node == ex.NID {
			op = in.mut.NewTok
		}
		// Short-circuit logicals.
		if op == TokAndAnd || op == TokOrOr {
			l, err := in.eval(ex.L, e)
			if err != nil {
				return 0, err
			}
			if op == TokAndAnd && l == 0 {
				return 0, nil
			}
			if op == TokOrOr && l != 0 {
				return 1, nil
			}
			r, err := in.eval(ex.R, e)
			if err != nil {
				return 0, err
			}
			return boolVal(r != 0), nil
		}
		l, err := in.eval(ex.L, e)
		if err != nil {
			return 0, err
		}
		r, err := in.eval(ex.R, e)
		if err != nil {
			return 0, err
		}
		switch op {
		case TokPlus:
			return l + r, nil
		case TokMinus:
			return l - r, nil
		case TokStar:
			return l * r, nil
		case TokSlash:
			if r == 0 {
				return 0, fmt.Errorf("mdl: division by zero")
			}
			return l / r, nil
		case TokPercent:
			if r == 0 {
				return 0, fmt.Errorf("mdl: modulo by zero")
			}
			return l % r, nil
		case TokLT:
			return boolVal(l < r), nil
		case TokLE:
			return boolVal(l <= r), nil
		case TokGT:
			return boolVal(l > r), nil
		case TokGE:
			return boolVal(l >= r), nil
		case TokEQ:
			return boolVal(l == r), nil
		case TokNE:
			return boolVal(l != r), nil
		default:
			return 0, fmt.Errorf("mdl: bad binary op %s", op)
		}
	default:
		return 0, fmt.Errorf("mdl: unknown expression %T", x)
	}
}

// Walk visits every node of the program (statements and expressions)
// in deterministic order.
func Walk(p *Program, visit func(n any)) {
	var walkExpr func(e Expr)
	walkExpr = func(e Expr) {
		visit(e)
		switch ex := e.(type) {
		case *Binary:
			walkExpr(ex.L)
			walkExpr(ex.R)
		case *Unary:
			walkExpr(ex.X)
		case *Call:
			for _, a := range ex.Args {
				walkExpr(a)
			}
		}
	}
	var walkStmts func(ss []Stmt)
	walkStmts = func(ss []Stmt) {
		for _, s := range ss {
			visit(s)
			switch st := s.(type) {
			case *Let:
				walkExpr(st.E)
			case *Assign:
				walkExpr(st.E)
			case *If:
				walkExpr(st.Cond)
				walkStmts(st.Then)
				walkStmts(st.Else)
			case *While:
				walkExpr(st.Cond)
				walkStmts(st.Body)
			case *Return:
				walkExpr(st.E)
			}
		}
	}
	for _, name := range p.Order {
		walkStmts(p.Funcs[name].Body)
	}
}

// CollectStmtIDs lists every statement node ID (coverage denominator).
func CollectStmtIDs(p *Program) []NodeID {
	var out []NodeID
	Walk(p, func(n any) {
		if s, ok := n.(Stmt); ok {
			out = append(out, s.ID())
		}
	})
	return out
}
