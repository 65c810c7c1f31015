// Package exec is Qurk's Query Executor (paper §2): every plan node runs
// as a goroutine, operators communicate asynchronously through input
// queues (as in Volcano), and results are pushed from the top-most
// operator into a results table the user polls. Human-powered operators
// route their questions through the Task Manager.
package exec

import "repro/internal/qlang"

// CollectCalls returns the distinct human task calls in an expression,
// in first-appearance order. Aggregate functions are not tasks.
func CollectCalls(e qlang.Expr, script *qlang.Script) []*qlang.Call {
	var out []*qlang.Call
	seen := map[string]bool{}
	var walk func(qlang.Expr)
	walk = func(e qlang.Expr) {
		switch v := e.(type) {
		case *qlang.Call:
			if _, ok := script.Task(v.Name); ok {
				// Field projections share one invocation; key by the
				// call without the field.
				base := (&qlang.Call{Name: v.Name, Args: v.Args}).String()
				if !seen[base] {
					seen[base] = true
					out = append(out, v)
				}
			}
			for _, a := range v.Args {
				walk(a)
			}
		case *qlang.Binary:
			walk(v.L)
			walk(v.R)
		case *qlang.Unary:
			walk(v.X)
		}
	}
	walk(e)
	return out
}

// HasCalls reports whether an expression contains any human task call.
func HasCalls(e qlang.Expr, script *qlang.Script) bool {
	return len(CollectCalls(e, script)) > 0
}
