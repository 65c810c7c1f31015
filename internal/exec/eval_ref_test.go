package exec

import (
	"fmt"
	"strings"

	"repro/internal/qlang"
	"repro/internal/relation"
)

// refEval is the tree-walking evaluator the executor used before
// expressions were compiled: it resolves every column by name on every
// row. It stays only as the reference that FuzzCompile checks compiled
// programs against, so it must not be changed to match the compiler.
func refEval(e qlang.Expr, t relation.Tuple, calls map[string]relation.Value) (relation.Value, error) {
	switch v := e.(type) {
	case *qlang.Literal:
		return v.Value, nil
	case *qlang.ColumnRef:
		if !t.Has(v.QualifiedName()) {
			return relation.Null, fmt.Errorf("exec: unknown column %q in %v", v.QualifiedName(), t.Schema)
		}
		return t.Get(v.QualifiedName()), nil
	case *qlang.Call:
		key, err := refCallKey(v, t)
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
	case *qlang.Binary:
		return refEvalBinary(v, t, calls)
	case *qlang.Unary:
		x, err := refEval(v.X, t, calls)
		if err != nil {
			return relation.Null, err
		}
		switch v.Op {
		case "NOT":
			return relation.NewBool(!x.Truthy()), nil
		case "POSSIBLY":
			return relation.NewBool(x.Truthy()), nil
		case "-":
			if x.Kind() == relation.KindInt {
				return relation.NewInt(-x.Int()), nil
			}
			return relation.NewFloat(-x.Float()), nil
		default:
			return relation.Null, fmt.Errorf("exec: unknown unary op %q", v.Op)
		}
	case *qlang.Star:
		return relation.Null, fmt.Errorf("exec: * cannot be evaluated")
	default:
		return relation.Null, fmt.Errorf("exec: unsupported expression %T", e)
	}
}

func refCallKey(c *qlang.Call, t relation.Tuple) (string, error) {
	b := []byte(strings.ToLower(c.Name) + "(")
	for _, a := range c.Args {
		v, err := refEval(a, t, nil)
		if err != nil {
			return "", err
		}
		b = v.Encode(b)
	}
	return string(append(b, ')')), nil
}

func refEvalBinary(v *qlang.Binary, t relation.Tuple, calls map[string]relation.Value) (relation.Value, error) {
	// AND/OR short-circuit on the left operand.
	if v.Op == "AND" || v.Op == "OR" {
		l, err := refEval(v.L, t, calls)
		if err != nil {
			return relation.Null, err
		}
		lt := l.Truthy()
		if v.Op == "AND" && !lt {
			return relation.NewBool(false), nil
		}
		if v.Op == "OR" && lt {
			return relation.NewBool(true), nil
		}
		r, err := refEval(v.R, t, calls)
		if err != nil {
			return relation.Null, err
		}
		return relation.NewBool(r.Truthy()), nil
	}
	l, err := refEval(v.L, t, calls)
	if err != nil {
		return relation.Null, err
	}
	r, err := refEval(v.R, t, calls)
	if err != nil {
		return relation.Null, err
	}
	switch v.Op {
	case "=":
		return relation.NewBool(l.Compare(r) == 0), nil
	case "!=":
		return relation.NewBool(l.Compare(r) != 0), nil
	case "<":
		return relation.NewBool(l.Compare(r) < 0), nil
	case "<=":
		return relation.NewBool(l.Compare(r) <= 0), nil
	case ">":
		return relation.NewBool(l.Compare(r) > 0), nil
	case ">=":
		return relation.NewBool(l.Compare(r) >= 0), nil
	case "+", "-", "*", "/":
		return refArith(v.Op, l, r)
	default:
		return relation.Null, fmt.Errorf("exec: unknown operator %q", v.Op)
	}
}

func refArith(op string, l, r relation.Value) (relation.Value, error) {
	if l.Kind() == relation.KindInt && r.Kind() == relation.KindInt && op != "/" {
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
