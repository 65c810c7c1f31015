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
// resolves no names. Human task calls are bound to slots the same way:
// calls holds the reduced value of each of the operator's distinct calls
// by slot, filled by resolveCallsN, and a call reads calls[slot]. A call
// with no slot, or evaluated before calls were resolved, is an error,
// since the operator must resolve calls first. Programs hold no mutable state
// and are safe for concurrent use.
type program func(row []relation.Value, calls []relation.Value) (relation.Value, error)

// predicate is an expression compiled for a boolean context (filter
// conjuncts, join residuals): it reports the expression's truthiness.
// AND and OR short-circuit on the left operand.
type predicate func(row []relation.Value, calls []relation.Value) (bool, error)

// compiler lowers expressions over the schema of a plan node's input.
// Every operator emits tuples under its plan node's Schema(), so an
// ordinal bound here addresses the same column in every row it sees.
//
// Errors that the expression can only raise per row (an unknown column,
// a call left unresolved, division by zero) compile into programs that
// return them when evaluated, so a bad expression fails row by row, in
// the order the short-circuit rules reach it.
//
// slots binds the operator's distinct human calls (by callBase) to their
// slot in the calls slice; a compiler without slots compiles every call
// as unresolved.
type compiler struct {
	schema *relation.Schema
	slots  map[string]int
}

func compileValue(e qlang.Expr, s *relation.Schema) program {
	return compiler{schema: s}.value(e)
}

func compileValues(es []qlang.Expr, s *relation.Schema) []program {
	return compiler{schema: s}.values(es)
}

func compilePredicate(e qlang.Expr, s *relation.Schema) predicate {
	return compiler{schema: s}.predicate(e)
}

// compileConjuncts compiles a conjunct list into one predicate that
// passes when every conjunct does, stopping at the first that fails or
// errors.
func compileConjuncts(cs []qlang.Expr, s *relation.Schema) predicate {
	if len(cs) == 0 {
		return func([]relation.Value, []relation.Value) (bool, error) { return true, nil }
	}
	p := compilePredicate(cs[len(cs)-1], s)
	for i := len(cs) - 2; i >= 0; i-- {
		p = and(compilePredicate(cs[i], s), p)
	}
	return p
}

func and(l, r predicate) predicate {
	return func(row []relation.Value, calls []relation.Value) (bool, error) {
		if ok, err := l(row, calls); err != nil || !ok {
			return false, err
		}
		return r(row, calls)
	}
}

func or(l, r predicate) predicate {
	return func(row []relation.Value, calls []relation.Value) (bool, error) {
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
	return func([]relation.Value, []relation.Value) (relation.Value, error) {
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
		return func([]relation.Value, []relation.Value) (relation.Value, error) { return lit, nil }
	case *qlang.ColumnRef:
		i, ok := c.schema.Lookup(v.QualifiedName())
		if !ok {
			return fail(c.unknownColumn(v))
		}
		return func(row []relation.Value, _ []relation.Value) (relation.Value, error) {
			return row[i], nil
		}
	case *qlang.Call:
		unresolved := fmt.Errorf("exec: unresolved call %s", v)
		slot, ok := c.slots[callBase(v)]
		if !ok {
			// Not one of the operator's calls: an argument error still
			// comes first, as when the call is evaluated.
			args := c.values(v.Args)
			return func(row []relation.Value, _ []relation.Value) (relation.Value, error) {
				for _, a := range args {
					if _, err := a(row, nil); err != nil {
						return relation.Null, err
					}
				}
				return relation.Null, unresolved
			}
		}
		field := v.Field
		return func(_ []relation.Value, calls []relation.Value) (relation.Value, error) {
			if slot >= len(calls) {
				return relation.Null, unresolved
			}
			if field != "" {
				return calls[slot].Field(field), nil
			}
			return calls[slot], nil
		}
	case *qlang.Binary:
		if _, isCmp := cmpMasks[v.Op]; isCmp || v.Op == "AND" || v.Op == "OR" {
			return boolean(c.predicate(v))
		}
		l, r := c.value(v.L), c.value(v.R)
		op := v.Op
		return func(row []relation.Value, calls []relation.Value) (relation.Value, error) {
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
			return func(row []relation.Value, calls []relation.Value) (relation.Value, error) {
				if _, err := x(row, calls); err != nil {
					return relation.Null, err
				}
				return relation.Null, bad
			}
		}
		return func(row []relation.Value, calls []relation.Value) (relation.Value, error) {
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
	return func(row []relation.Value, calls []relation.Value) (relation.Value, error) {
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
			return func(row []relation.Value, calls []relation.Value) (bool, error) {
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
			return func(row []relation.Value, _ []relation.Value) (bool, error) {
				return row[i].Truthy(), nil
			}
		}
	}
	p := c.value(e)
	return func(row []relation.Value, calls []relation.Value) (bool, error) {
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
		return func(row []relation.Value, _ []relation.Value) (bool, error) {
			return holds(mask, relation.Compare(&row[i], lit)), nil
		}
	case l.lit != nil && r.col >= 0:
		lit, i := l.lit, r.col
		return func(row []relation.Value, _ []relation.Value) (bool, error) {
			return holds(mask, relation.Compare(lit, &row[i])), nil
		}
	case l.col >= 0 && r.col >= 0:
		i, j := l.col, r.col
		return func(row []relation.Value, _ []relation.Value) (bool, error) {
			return holds(mask, relation.Compare(&row[i], &row[j])), nil
		}
	}
	return func(row []relation.Value, calls []relation.Value) (bool, error) {
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

// boundCall is a human task call compiled against an input schema: its
// task, its argument programs and the slot its reduced value fills.
type boundCall struct {
	call *qlang.Call
	def  *qlang.TaskDef
	args []program
	slot int
}

func (c compiler) values(es []qlang.Expr) []program {
	out := make([]program, len(es))
	for i, e := range es {
		out[i] = c.value(e)
	}
	return out
}

// evalArgs evaluates the call's arguments over a row. Arguments are
// evaluated without call results: they may not themselves contain human
// calls.
func (b *boundCall) evalArgs(row []relation.Value) ([]relation.Value, error) {
	args := make([]relation.Value, len(b.args))
	for i, a := range b.args {
		v, err := a(row, nil)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	return args, nil
}

// callKey is the canonical identity of one invocation: the lower-cased
// task name and the encoded argument values. Grouped filters use it to
// ask each distinct question once per tuple.
func callKey(name string, args []relation.Value) string {
	key := append(make([]byte, 0, 16*len(args)+len(name)+2), strings.ToLower(name)...)
	key = append(key, '(')
	for _, v := range args {
		key = v.Encode(key)
	}
	return string(append(key, ')'))
}

// callBase names an invocation without its field projection: field
// projections of one invocation share it (the paper runs findCEO once
// per company even though Query 1 mentions it twice).
func callBase(v *qlang.Call) string {
	return (&qlang.Call{Name: v.Name, Args: v.Args}).String()
}

// bindCalls binds the distinct human task calls of exprs to slots in
// first-appearance order (field projections of one invocation count
// once) and returns them with a compiler whose programs read each
// call's value from its slot.
func bindCalls(exprs []qlang.Expr, s *relation.Schema, script *qlang.Script) (compiler, []*boundCall) {
	c := compiler{schema: s, slots: map[string]int{}}
	var calls []*boundCall
	for _, e := range exprs {
		for _, call := range CollectCalls(e, script) {
			base := callBase(call)
			if _, seen := c.slots[base]; seen {
				continue
			}
			def, _ := script.Task(call.Name)
			c.slots[base] = len(calls)
			calls = append(calls, &boundCall{call: call, def: def, args: c.values(call.Args), slot: len(calls)})
		}
	}
	return c, calls
}
