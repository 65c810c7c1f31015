package exec

import (
	"fmt"
	"strings"

	"repro/internal/qlang"
	"repro/internal/relation"
)

// program is an expression compiled against one input schema. Column
// references are bound to ordinals when the query starts, so evaluating
// a program over a row laid out by that schema reads row[i] directly and
// resolves no names. calls maps resolved human invocations (keyed by
// call key) to their reduced values; a call missing from it is an error,
// since the operator must resolve calls first. Programs hold no mutable
// state and are safe for concurrent use.
type program func(row []relation.Value, calls map[string]relation.Value) (relation.Value, error)

// predicate is an expression compiled for a boolean context (filter
// conjuncts, join residuals): it reports the expression's truthiness.
// AND and OR short-circuit on the left operand.
type predicate func(row []relation.Value, calls map[string]relation.Value) (bool, error)

// compiler lowers expressions over the schema of a plan node's input.
// Every operator emits tuples under its plan node's Schema(), so an
// ordinal bound here addresses the same column in every row it sees.
//
// Errors that the expression can only raise per row (an unknown column,
// a call left unresolved, division by zero) compile into programs that
// return them when evaluated, so a bad expression fails row by row, in
// the order the short-circuit rules reach it.
type compiler struct{ schema *relation.Schema }

func compileValue(e qlang.Expr, s *relation.Schema) program {
	return compiler{s}.value(e)
}

func compileValues(es []qlang.Expr, s *relation.Schema) []program {
	return compiler{s}.values(es)
}

func compilePredicate(e qlang.Expr, s *relation.Schema) predicate {
	return compiler{s}.predicate(e)
}

// compileConjuncts compiles a conjunct list into one predicate that
// passes when every conjunct does, stopping at the first that fails or
// errors.
func compileConjuncts(cs []qlang.Expr, s *relation.Schema) predicate {
	if len(cs) == 0 {
		return func([]relation.Value, map[string]relation.Value) (bool, error) { return true, nil }
	}
	p := compilePredicate(cs[len(cs)-1], s)
	for i := len(cs) - 2; i >= 0; i-- {
		p = and(compilePredicate(cs[i], s), p)
	}
	return p
}

func and(l, r predicate) predicate {
	return func(row []relation.Value, calls map[string]relation.Value) (bool, error) {
		if ok, err := l(row, calls); err != nil || !ok {
			return false, err
		}
		return r(row, calls)
	}
}

func or(l, r predicate) predicate {
	return func(row []relation.Value, calls map[string]relation.Value) (bool, error) {
		ok, err := l(row, calls)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
		return r(row, calls)
	}
}

// fail compiles to a program that returns err for every row.
func fail(err error) program {
	return func([]relation.Value, map[string]relation.Value) (relation.Value, error) {
		return relation.Null, err
	}
}

func (c compiler) unknownColumn(v *qlang.ColumnRef) error {
	return fmt.Errorf("exec: unknown column %q in %v", v.QualifiedName(), c.schema)
}

func (c compiler) value(e qlang.Expr) program {
	switch v := e.(type) {
	case *qlang.Literal:
		lit := v.Value
		return func([]relation.Value, map[string]relation.Value) (relation.Value, error) { return lit, nil }
	case *qlang.ColumnRef:
		i, ok := c.schema.Lookup(v.QualifiedName())
		if !ok {
			return fail(c.unknownColumn(v))
		}
		return func(row []relation.Value, _ map[string]relation.Value) (relation.Value, error) {
			return row[i], nil
		}
	case *qlang.Call:
		bc := c.call(v)
		return func(row []relation.Value, calls map[string]relation.Value) (relation.Value, error) {
			key, _, err := bc.eval(row)
			if err != nil {
				return relation.Null, err
			}
			val, ok := calls[key]
			if !ok {
				return relation.Null, fmt.Errorf("exec: unresolved call %s", v)
			}
			if v.Field != "" {
				return val.Field(v.Field), nil
			}
			return val, nil
		}
	case *qlang.Binary:
		if _, isCmp := cmpMasks[v.Op]; isCmp || v.Op == "AND" || v.Op == "OR" {
			return boolean(c.predicate(v))
		}
		l, r := c.value(v.L), c.value(v.R)
		op := v.Op
		return func(row []relation.Value, calls map[string]relation.Value) (relation.Value, error) {
			lv, err := l(row, calls)
			if err != nil {
				return relation.Null, err
			}
			rv, err := r(row, calls)
			if err != nil {
				return relation.Null, err
			}
			return evalArith(op, lv, rv)
		}
	case *qlang.Unary:
		if v.Op == "NOT" || v.Op == "POSSIBLY" {
			return boolean(c.predicate(v))
		}
		x := c.value(v.X)
		if v.Op != "-" {
			bad := fmt.Errorf("exec: unknown unary op %q", v.Op)
			return func(row []relation.Value, calls map[string]relation.Value) (relation.Value, error) {
				if _, err := x(row, calls); err != nil {
					return relation.Null, err
				}
				return relation.Null, bad
			}
		}
		return func(row []relation.Value, calls map[string]relation.Value) (relation.Value, error) {
			xv, err := x(row, calls)
			if err != nil {
				return relation.Null, err
			}
			if xv.Kind() == relation.KindInt {
				return relation.NewInt(-xv.Int()), nil
			}
			return relation.NewFloat(-xv.Float()), nil
		}
	case *qlang.Star:
		return fail(fmt.Errorf("exec: * cannot be evaluated"))
	default:
		return fail(fmt.Errorf("exec: unsupported expression %T", e))
	}
}

// boolean lifts a predicate into a value program yielding a Bool.
func boolean(p predicate) program {
	return func(row []relation.Value, calls map[string]relation.Value) (relation.Value, error) {
		ok, err := p(row, calls)
		if err != nil {
			return relation.Null, err
		}
		return relation.NewBool(ok), nil
	}
}

func (c compiler) predicate(e qlang.Expr) predicate {
	switch v := e.(type) {
	case *qlang.Binary:
		switch v.Op {
		case "AND":
			return and(c.predicate(v.L), c.predicate(v.R))
		case "OR":
			return or(c.predicate(v.L), c.predicate(v.R))
		}
		if mask, ok := cmpMasks[v.Op]; ok {
			return c.compare(mask, v.L, v.R)
		}
	case *qlang.Unary:
		switch v.Op {
		case "NOT":
			x := c.predicate(v.X)
			return func(row []relation.Value, calls map[string]relation.Value) (bool, error) {
				ok, err := x(row, calls)
				if err != nil {
					return false, err
				}
				return !ok, nil
			}
		case "POSSIBLY":
			return c.predicate(v.X)
		}
	case *qlang.ColumnRef:
		if i, ok := c.schema.Lookup(v.QualifiedName()); ok {
			return func(row []relation.Value, _ map[string]relation.Value) (bool, error) {
				return row[i].Truthy(), nil
			}
		}
	}
	p := c.value(e)
	return func(row []relation.Value, calls map[string]relation.Value) (bool, error) {
		v, err := p(row, calls)
		if err != nil {
			return false, err
		}
		return v.Truthy(), nil
	}
}

// cmpMasks maps each comparison operator to the relation.Compare results
// that satisfy it: bit c+1 is set when result c passes.
var cmpMasks = map[string]uint8{
	"<": 0b001, "<=": 0b011, "=": 0b010, "!=": 0b101, ">": 0b100, ">=": 0b110,
}

func holds(mask uint8, cmp int) bool { return mask>>(cmp+1)&1 != 0 }

// operand is one side of a comparison. Columns and literals are compared
// in place, through pointers into the row or to the constant; other
// operands are evaluated to a value first.
type operand struct {
	col  int             // >= 0: the operand is row[col]
	lit  *relation.Value // non-nil: the operand is this constant
	eval program
}

func (c compiler) operand(e qlang.Expr) operand {
	o := operand{col: -1, eval: c.value(e)}
	switch v := e.(type) {
	case *qlang.ColumnRef:
		if i, ok := c.schema.Lookup(v.QualifiedName()); ok {
			o.col = i
		}
	case *qlang.Literal:
		lit := v.Value
		o.lit = &lit
	}
	return o
}

func (c compiler) compare(mask uint8, le, re qlang.Expr) predicate {
	l, r := c.operand(le), c.operand(re)
	switch {
	case l.col >= 0 && r.lit != nil:
		i, lit := l.col, r.lit
		return func(row []relation.Value, _ map[string]relation.Value) (bool, error) {
			return holds(mask, relation.Compare(&row[i], lit)), nil
		}
	case l.lit != nil && r.col >= 0:
		lit, i := l.lit, r.col
		return func(row []relation.Value, _ map[string]relation.Value) (bool, error) {
			return holds(mask, relation.Compare(lit, &row[i])), nil
		}
	case l.col >= 0 && r.col >= 0:
		i, j := l.col, r.col
		return func(row []relation.Value, _ map[string]relation.Value) (bool, error) {
			return holds(mask, relation.Compare(&row[i], &row[j])), nil
		}
	}
	return func(row []relation.Value, calls map[string]relation.Value) (bool, error) {
		lv, err := l.eval(row, calls)
		if err != nil {
			return false, err
		}
		rv, err := r.eval(row, calls)
		if err != nil {
			return false, err
		}
		return holds(mask, relation.Compare(&lv, &rv)), nil
	}
}

func evalArith(op string, l, r relation.Value) (relation.Value, error) {
	bothInt := l.Kind() == relation.KindInt && r.Kind() == relation.KindInt
	if bothInt && op != "/" {
		a, b := l.Int(), r.Int()
		switch op {
		case "+":
			return relation.NewInt(a + b), nil
		case "-":
			return relation.NewInt(a - b), nil
		case "*":
			return relation.NewInt(a * b), nil
		}
	}
	a, b := l.Float(), r.Float()
	switch op {
	case "+":
		return relation.NewFloat(a + b), nil
	case "-":
		return relation.NewFloat(a - b), nil
	case "*":
		return relation.NewFloat(a * b), nil
	case "/":
		if b == 0 {
			return relation.Null, fmt.Errorf("exec: division by zero")
		}
		return relation.NewFloat(a / b), nil
	}
	return relation.Null, fmt.Errorf("exec: unknown operator %q", op)
}

// boundCall is a human task call compiled against an input schema.
type boundCall struct {
	call *qlang.Call
	name string // lower-cased: call keys ignore the name's case
	args []program
}

func (c compiler) call(v *qlang.Call) *boundCall {
	return &boundCall{call: v, name: strings.ToLower(v.Name), args: c.values(v.Args)}
}

func (c compiler) values(es []qlang.Expr) []program {
	out := make([]program, len(es))
	for i, e := range es {
		out[i] = c.value(e)
	}
	return out
}

// eval evaluates the call's arguments over a row and returns them with
// the call key, the canonical identity under which the resolved value is
// substituted. Field projections share the key of the underlying
// invocation (the paper runs findCEO once per company even though
// Query 1 mentions it twice). Arguments are evaluated without call
// results: they may not themselves contain human calls.
func (b *boundCall) eval(row []relation.Value) (string, []relation.Value, error) {
	args := make([]relation.Value, len(b.args))
	key := append(make([]byte, 0, 16*len(b.args)+len(b.name)+2), b.name...)
	key = append(key, '(')
	for i, a := range b.args {
		v, err := a(row, nil)
		if err != nil {
			return "", nil, err
		}
		args[i] = v
		key = v.Encode(key)
	}
	key = append(key, ')')
	return string(key), args, nil
}

// compileCalls binds the distinct human task calls of exprs, in
// first-appearance order; field projections of one invocation count
// once.
func compileCalls(exprs []qlang.Expr, s *relation.Schema, script *qlang.Script) []*boundCall {
	var out []*boundCall
	seen := map[string]bool{}
	for _, e := range exprs {
		for _, call := range CollectCalls(e, script) {
			base := (&qlang.Call{Name: call.Name, Args: call.Args}).String()
			if !seen[base] {
				seen[base] = true
				out = append(out, compiler{s}.call(call))
			}
		}
	}
	return out
}
