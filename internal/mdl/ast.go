package mdl

// NodeID addresses one AST node for mutation schemata: the parser
// assigns dense IDs in visitation order, so a (program, NodeID) pair
// uniquely names a mutation site.
type NodeID int32

// Expr is an expression node.
type Expr interface {
	exprNode()
	// ID reports the node's mutation address.
	ID() NodeID
}

// Stmt is a statement node.
type Stmt interface {
	stmtNode()
	ID() NodeID
}

// IntLit is an integer literal.
type IntLit struct {
	NID NodeID
	Val int64
}

// BoolLit is a boolean literal.
type BoolLit struct {
	NID NodeID
	Val bool
}

// VarRef reads a variable.
type VarRef struct {
	NID  NodeID
	Name string
}

// Binary applies an infix operator.
type Binary struct {
	NID  NodeID
	Op   TokKind
	L, R Expr
}

// Unary applies '!' or unary '-'.
type Unary struct {
	NID NodeID
	Op  TokKind
	X   Expr
}

// Call invokes another function in the same program.
type Call struct {
	NID  NodeID
	Name string
	Args []Expr
}

func (*IntLit) exprNode()  {}
func (*BoolLit) exprNode() {}
func (*VarRef) exprNode()  {}
func (*Binary) exprNode()  {}
func (*Unary) exprNode()   {}
func (*Call) exprNode()    {}

// ID implements Expr.
func (e *IntLit) ID() NodeID { return e.NID }

// ID implements Expr.
func (e *BoolLit) ID() NodeID { return e.NID }

// ID implements Expr.
func (e *VarRef) ID() NodeID { return e.NID }

// ID implements Expr.
func (e *Binary) ID() NodeID { return e.NID }

// ID implements Expr.
func (e *Unary) ID() NodeID { return e.NID }

// ID implements Expr.
func (e *Call) ID() NodeID { return e.NID }

// Let declares and initializes a variable.
type Let struct {
	NID  NodeID
	Name string
	E    Expr
}

// Assign updates a variable.
type Assign struct {
	NID  NodeID
	Name string
	E    Expr
}

// If branches on a condition.
type If struct {
	NID  NodeID
	Cond Expr
	Then []Stmt
	Else []Stmt
}

// While loops on a condition.
type While struct {
	NID  NodeID
	Cond Expr
	Body []Stmt
}

// Return exits the function with a value.
type Return struct {
	NID NodeID
	E   Expr
}

func (*Let) stmtNode()    {}
func (*Assign) stmtNode() {}
func (*If) stmtNode()     {}
func (*While) stmtNode()  {}
func (*Return) stmtNode() {}

// ID implements Stmt.
func (s *Let) ID() NodeID { return s.NID }

// ID implements Stmt.
func (s *Assign) ID() NodeID { return s.NID }

// ID implements Stmt.
func (s *If) ID() NodeID { return s.NID }

// ID implements Stmt.
func (s *While) ID() NodeID { return s.NID }

// ID implements Stmt.
func (s *Return) ID() NodeID { return s.NID }

// Func is one function definition.
type Func struct {
	Name   string
	Params []string
	Body   []Stmt
}

// Program is a parsed MDL source file.
type Program struct {
	Funcs map[string]*Func
	// Order preserves declaration order.
	Order []string
	// NumNodes is the number of AST nodes (IDs are 0..NumNodes-1).
	NumNodes int
	// Source is the original text (for error messages and reports).
	Source string
}
