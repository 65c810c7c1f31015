package taskmgr

import (
	"fmt"

	"repro/internal/hit"
	"repro/internal/qlang"
	"repro/internal/relation"
)

// JoinItem is one row shown in a column of the two-column join interface
// (Figure 3). Key is the operator's routing key; Args the rendered
// values (typically one image).
type JoinItem struct {
	Key  string
	Args []relation.Value
}

// JoinBlock evaluates the cross product of left×right through the
// two-column JoinColumns interface: one HIT answers |left|·|right| pair
// questions at once, the batching that makes human joins affordable.
// done fires exactly once per pair with PairKey(left.Key, right.Key).
//
// Cached pairs are answered for free; if every pair is cached no HIT is
// posted. Otherwise the grid shrinks to the rows/columns still needed
// (workers answer all shown pairs; fresh answers refresh the cache).
func (m *Manager) JoinBlock(def *qlang.TaskDef, left, right []JoinItem, done func(pairKey string, out Outcome)) {
	m.JoinBlockIn(nil, def, left, right, done)
}

// JoinBlockIn is JoinBlock bound to a query scope: a canceled scope
// resolves every pair immediately with the cause, and the posted grid
// HIT is registered for expiry/refund should the scope cancel mid-HIT.
func (m *Manager) JoinBlockIn(scope *Scope, def *qlang.TaskDef, left, right []JoinItem, done func(pairKey string, out Outcome)) {
	if len(left) == 0 || len(right) == 0 {
		return
	}
	if cause := scope.Err(); cause != nil {
		for _, l := range left {
			for _, r := range right {
				done(hit.PairKey(l.Key, r.Key), Outcome{Err: fmt.Errorf("taskmgr: %s: %w", def.Name, cause)})
			}
		}
		return
	}
	st := m.state(def.Name, def)
	pol := st.policyIn(m.basePolicy(), scope, len(left)*len(right))
	pairArgs := func(l, r JoinItem) []relation.Value {
		return append(append([]relation.Value{}, l.Args...), r.Args...)
	}
	pairDone := func(key string) func(Outcome) {
		return func(out Outcome) { done(key, out) }
	}

	// Resolve what we can from cache and model; the grid shrinks to the
	// rows and columns (in first-seen order) still needed. Every pair of
	// the shrunk grid is asked (and its fresh answer cached), row-major;
	// only the unresolved ones call back.
	var free []resolution
	var neededLeft, neededRight []JoinItem
	seenL, seenR, need := make(map[string]bool), make(map[string]bool), make(map[string]bool)
	for _, l := range left {
		for _, r := range right {
			key := hit.PairKey(l.Key, r.Key)
			if out, ok := m.answerFree(st, pol, def, pairArgs(l, r), "", nil); ok {
				free = append(free, resolution{done: pairDone(key), out: out})
				continue
			}
			need[key] = true
			if !seenL[l.Key] {
				seenL[l.Key] = true
				neededLeft = append(neededLeft, l)
			}
			if !seenR[r.Key] {
				seenR[r.Key] = true
				neededRight = append(neededRight, r)
			}
		}
	}
	if len(need) == 0 {
		resolveAll(free)
		return
	}
	items := make([]pendingItem, 0, len(neededLeft)*len(neededRight))
	for _, l := range neededLeft {
		for _, r := range neededRight {
			it := pendingItem{key: hit.PairKey(l.Key, r.Key), args: pairArgs(l, r), def: def, scope: scope}
			if need[it.key] {
				it.done = pairDone(it.key)
			}
			items = append(items, it)
		}
	}
	m.launch(m.newFlight(st, def, pol, pol.Assignments, items), free, func([]pendingItem) *hit.HIT {
		h := taskHIT(def, "Match the items in the left column with the items in the right column.")
		h.Response = joinResponse(def)
		for _, l := range neededLeft {
			h.Left = append(h.Left, hit.Item{Key: l.Key, Args: l.Args})
		}
		for _, r := range neededRight {
			h.Right = append(h.Right, hit.Item{Key: r.Key, Args: r.Args})
		}
		return h
	})
}

// taskHIT starts a whole-group HIT (grid or comparison) of def's task:
// its rendered text, or fallback when the definition has none.
func taskHIT(def *qlang.TaskDef, fallback string) *hit.HIT {
	h := &hit.HIT{Task: def.Name, Type: def.Type, Title: def.Name,
		Question: hit.RenderText(def.Text, def.TextArgs, def.Params, nil)}
	if h.Question == "" {
		h.Question = fallback
	}
	return h
}

// joinResponse derives the JoinColumns response for a join task,
// defaulting labels when the definition used YesNo.
func joinResponse(def *qlang.TaskDef) qlang.Response {
	if def.Response.Kind == qlang.ResponseJoinColumns {
		return def.Response
	}
	return qlang.Response{
		Kind:      qlang.ResponseJoinColumns,
		LeftLabel: "Left", RightLabel: "Right",
	}
}
