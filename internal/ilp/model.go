// Package ilp is a self-contained linear and 0/1 integer programming
// solver, the reproduction's stand-in for the commercial CPLEX solver the
// paper uses [5] (Go has no mature ILP library, so this substrate is built
// from scratch).
//
// It provides:
//
//   - a modeling layer (Model, Var, LinExpr, constraints, objective);
//   - a dense two-phase primal simplex for linear relaxations, with
//     Dantzig pricing and a Bland's-rule fallback for anti-cycling;
//   - branch & bound over integer/binary variables with LP-relaxation
//     bounds, most-fractional branching and incumbent pruning;
//   - a reader/writer for a practical subset of the CPLEX LP file format.
//
// The solver targets the problem sizes CASA produces (a few hundred to a
// few thousand variables) and is validated against exhaustive enumeration
// on small instances.
package ilp

import (
	"fmt"
	"math"
)

// Sense is the optimization direction.
type Sense int

const (
	// Minimize seeks the smallest objective value.
	Minimize Sense = iota
	// Maximize seeks the largest objective value.
	Maximize
)

// String returns the sense name.
func (s Sense) String() string {
	if s == Maximize {
		return "maximize"
	}
	return "minimize"
}

// VarKind classifies a decision variable.
type VarKind int

const (
	// Continuous variables take any value within their bounds.
	Continuous VarKind = iota
	// Binary variables take values in {0, 1}.
	Binary
	// Integer variables take integral values within their bounds.
	Integer
)

// String returns the kind name.
func (k VarKind) String() string {
	switch k {
	case Binary:
		return "binary"
	case Integer:
		return "integer"
	default:
		return "continuous"
	}
}

// Var identifies a variable within its model.
type Var int

// Term is one coefficient–variable product.
type Term struct {
	Var  Var
	Coef float64
}

// LinExpr is a linear expression: a constant plus a sum of terms. The zero
// value is the expression 0.
type LinExpr struct {
	Terms []Term
	Const float64
}

// Expr builds a linear expression from alternating coefficient, variable
// pairs: Expr(2, x, -1, y) == 2x - y.
func Expr(pairs ...any) LinExpr {
	if len(pairs)%2 != 0 {
		panic("ilp.Expr: need coefficient/variable pairs")
	}
	var e LinExpr
	for i := 0; i < len(pairs); i += 2 {
		c, ok := toFloat(pairs[i])
		if !ok {
			panic(fmt.Sprintf("ilp.Expr: pair %d: coefficient %T", i/2, pairs[i]))
		}
		v, ok := pairs[i+1].(Var)
		if !ok {
			panic(fmt.Sprintf("ilp.Expr: pair %d: variable %T", i/2, pairs[i+1]))
		}
		e.Terms = append(e.Terms, Term{Var: v, Coef: c})
	}
	return e
}

func toFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case float32:
		return float64(x), true
	case int:
		return float64(x), true
	case int64:
		return float64(x), true
	}
	return 0, false
}

// Add appends a term and returns the extended expression (builder style).
func (e LinExpr) Add(c float64, v Var) LinExpr {
	e.Terms = append(e.Terms, Term{Var: v, Coef: c})
	return e
}

// AddConst adds a constant offset.
func (e LinExpr) AddConst(c float64) LinExpr {
	e.Const += c
	return e
}

// Rel is a constraint relation.
type Rel int

const (
	// LE is ≤.
	LE Rel = iota
	// GE is ≥.
	GE
	// EQ is =.
	EQ
)

// String returns the relation symbol.
func (r Rel) String() string {
	switch r {
	case GE:
		return ">="
	case EQ:
		return "="
	default:
		return "<="
	}
}

// Constraint is a linear constraint Expr Rel RHS. Expr.Const is folded
// into the RHS at solve time.
type Constraint struct {
	Name string
	Expr LinExpr
	Rel  Rel
	RHS  float64
}

// Model is a mixed 0/1-integer linear program under construction.
type Model struct {
	names []string
	kinds []VarKind
	lo    []float64
	hi    []float64
	prio  []int

	cons []Constraint

	obj    LinExpr
	sense  Sense
	hasObj bool
}

// NewModel returns an empty model.
func NewModel() *Model { return &Model{} }

// NumVars returns the number of variables.
func (m *Model) NumVars() int { return len(m.names) }

// NumConstraints returns the number of constraints.
func (m *Model) NumConstraints() int { return len(m.cons) }

// AddVar adds a variable with the given bounds. Use math.Inf for free
// bounds. Binary variables may pass any bounds; they are clamped to [0,1].
func (m *Model) AddVar(name string, kind VarKind, lo, hi float64) Var {
	if name == "" {
		name = fmt.Sprintf("x%d", len(m.names))
	}
	if kind == Binary {
		lo, hi = math.Max(lo, 0), math.Min(hi, 1)
	}
	m.names = append(m.names, name)
	m.kinds = append(m.kinds, kind)
	m.lo = append(m.lo, lo)
	m.hi = append(m.hi, hi)
	m.prio = append(m.prio, 0)
	return Var(len(m.names) - 1)
}

// SetBranchPriority assigns a branch & bound priority to an integer
// variable: among fractional variables, the solver always branches within
// the highest priority class present (default 0). Use it to steer
// branching toward genuine decision variables instead of derived ones
// (e.g. linearization products, which are implied once the decisions are
// fixed).
func (m *Model) SetBranchPriority(v Var, p int) { m.prio[v] = p }

// BranchPriority returns the variable's branch priority.
func (m *Model) BranchPriority(v Var) int { return m.prio[v] }

// AddBinary adds a {0,1} variable.
func (m *Model) AddBinary(name string) Var { return m.AddVar(name, Binary, 0, 1) }

// AddContinuous adds a continuous variable with the given bounds.
func (m *Model) AddContinuous(name string, lo, hi float64) Var {
	return m.AddVar(name, Continuous, lo, hi)
}

// VarName returns the variable's name.
func (m *Model) VarName(v Var) string { return m.names[v] }

// Bounds returns the variable's bounds.
func (m *Model) Bounds(v Var) (lo, hi float64) { return m.lo[v], m.hi[v] }

// SetBounds replaces the variable's bounds.
func (m *Model) SetBounds(v Var, lo, hi float64) {
	m.lo[v], m.hi[v] = lo, hi
}

// AddConstraint appends expr rel rhs. The name may be empty.
func (m *Model) AddConstraint(name string, expr LinExpr, rel Rel, rhs float64) {
	if name == "" {
		name = fmt.Sprintf("c%d", len(m.cons))
	}
	m.cons = append(m.cons, Constraint{Name: name, Expr: expr, Rel: rel, RHS: rhs})
}

// Constraints returns the constraint slice (not a copy; do not mutate).
func (m *Model) Constraints() []Constraint { return m.cons }

// SetObjective installs the objective expression and direction.
func (m *Model) SetObjective(expr LinExpr, sense Sense) {
	m.obj = expr
	m.sense = sense
	m.hasObj = true
}

// Objective returns the objective expression and sense.
func (m *Model) Objective() (LinExpr, Sense) { return m.obj, m.sense }

// Validate reports structural problems: variables out of range, inverted
// bounds, NaN coefficients, or a missing objective.
func (m *Model) Validate() error {
	if !m.hasObj {
		return fmt.Errorf("ilp: model has no objective")
	}
	if len(m.names) == 0 {
		return fmt.Errorf("ilp: model has no variables")
	}
	for i := range m.names {
		if m.lo[i] > m.hi[i] {
			return fmt.Errorf("ilp: variable %s has inverted bounds [%g,%g]",
				m.names[i], m.lo[i], m.hi[i])
		}
		if math.IsInf(m.lo[i], 1) || math.IsInf(m.hi[i], -1) {
			return fmt.Errorf("ilp: variable %s has impossible bounds", m.names[i])
		}
	}
	check := func(e LinExpr, where string) error {
		for _, t := range e.Terms {
			if int(t.Var) < 0 || int(t.Var) >= len(m.names) {
				return fmt.Errorf("ilp: %s references unknown variable %d", where, t.Var)
			}
			if math.IsNaN(t.Coef) || math.IsInf(t.Coef, 0) {
				return fmt.Errorf("ilp: %s has non-finite coefficient on %s",
					where, m.names[t.Var])
			}
		}
		return nil
	}
	if err := check(m.obj, "objective"); err != nil {
		return err
	}
	for _, c := range m.cons {
		if err := check(c.Expr, "constraint "+c.Name); err != nil {
			return err
		}
		if math.IsNaN(c.RHS) || math.IsInf(c.RHS, 0) {
			return fmt.Errorf("ilp: constraint %s has non-finite RHS", c.Name)
		}
	}
	return nil
}

// integerVars lists the indices of Binary and Integer variables.
func (m *Model) integerVars() []int {
	var ids []int
	for i, k := range m.kinds {
		if k == Binary || k == Integer {
			ids = append(ids, i)
		}
	}
	return ids
}

// Eval computes the value of expr under the assignment x.
func Eval(expr LinExpr, x []float64) float64 {
	v := expr.Const
	for _, t := range expr.Terms {
		v += t.Coef * x[t.Var]
	}
	return v
}
