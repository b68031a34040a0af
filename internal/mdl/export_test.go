package mdl

import (
	"fmt"
	"strings"
)

// Print renders the program back to parseable MDL source: the
// parser's round-trip oracle.
func (p *Program) Print() string {
	var b strings.Builder
	for _, name := range p.Order {
		f := p.Funcs[name]
		fmt.Fprintf(&b, "func %s(%s) {\n", f.Name, strings.Join(f.Params, ", "))
		printBlock(&b, f.Body, 1)
		b.WriteString("}\n")
	}
	return b.String()
}

func printExpr(b *strings.Builder, e Expr) {
	switch e := e.(type) {
	case *IntLit:
		fmt.Fprintf(b, "%d", e.Val)
	case *BoolLit:
		fmt.Fprintf(b, "%v", e.Val)
	case *VarRef:
		b.WriteString(e.Name)
	case *Binary:
		b.WriteByte('(')
		printExpr(b, e.L)
		fmt.Fprintf(b, " %s ", e.Op)
		printExpr(b, e.R)
		b.WriteByte(')')
	case *Unary:
		b.WriteString(e.Op.String())
		b.WriteByte('(')
		printExpr(b, e.X)
		b.WriteByte(')')
	case *Call:
		b.WriteString(e.Name)
		b.WriteByte('(')
		for i, a := range e.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			printExpr(b, a)
		}
		b.WriteByte(')')
	}
}

func printBlock(b *strings.Builder, stmts []Stmt, indent int) {
	for _, s := range stmts {
		b.WriteString(strings.Repeat("  ", indent))
		switch s := s.(type) {
		case *Let:
			fmt.Fprintf(b, "let %s = ", s.Name)
			printExpr(b, s.E)
		case *Assign:
			fmt.Fprintf(b, "%s = ", s.Name)
			printExpr(b, s.E)
		case *If:
			b.WriteString("if ")
			printExpr(b, s.Cond)
			b.WriteString(" {\n")
			printBlock(b, s.Then, indent+1)
			b.WriteString(strings.Repeat("  ", indent) + "}")
			if len(s.Else) > 0 {
				b.WriteString(" else {\n")
				printBlock(b, s.Else, indent+1)
				b.WriteString(strings.Repeat("  ", indent) + "}")
			}
		case *While:
			b.WriteString("while ")
			printExpr(b, s.Cond)
			b.WriteString(" {\n")
			printBlock(b, s.Body, indent+1)
			b.WriteString(strings.Repeat("  ", indent) + "}")
		case *Return:
			b.WriteString("return ")
			printExpr(b, s.E)
		}
		b.WriteByte('\n')
	}
}

// ResetCoverage clears the statement coverage map.
func (in *Interp) ResetCoverage() { clear(in.covered) }

// Covered reports the covered statement IDs.
func (in *Interp) Covered() map[NodeID]bool { return in.covered }
