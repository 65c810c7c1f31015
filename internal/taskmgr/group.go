package taskmgr

import (
	"fmt"

	"repro/internal/hit"
	"repro/internal/qlang"
)

// SubmitGroup posts several *different* boolean tasks about (typically)
// one tuple as a single HIT — the paper's operator-grouping optimization:
// "It can also generate HITs from a set of operators (e.g., grouping
// multiple filter operations over the same tuple)." Every request's Done
// fires exactly once. Requests answerable from cache or model are
// resolved without joining the HIT.
func (m *Manager) SubmitGroup(reqs []Request) error {
	if len(reqs) == 0 {
		return nil
	}
	for _, r := range reqs {
		if r.Def == nil || r.Done == nil {
			return fmt.Errorf("taskmgr: group request needs a task definition and Done callback")
		}
		if !isBooleanTask(r.Def) {
			return fmt.Errorf("taskmgr: grouped HITs require boolean tasks; %s is %v", r.Def.Name, r.Def.Type)
		}
	}

	// Grouped requests come from one operator over one tuple, so they
	// share a scope; a HIT still belongs to exactly one scope.
	scope := reqs[0].Scope
	if cause := scope.Err(); cause != nil {
		for _, r := range reqs {
			r.Done(Outcome{Err: fmt.Errorf("taskmgr: %s: %w", r.Def.Name, cause)})
		}
		return nil
	}

	// Every item's cache/model decision follows the first request's
	// policy, as do the HIT's price and redundancy.
	pol := m.state(reqs[0].Def.Name, reqs[0].Def).policyIn(m.basePolicy(), scope, 0)
	var free []resolution
	var items []pendingItem
	for _, r := range reqs {
		st := m.state(r.Def.Name, r.Def)
		st.mu.Lock()
		st.submitted++
		st.mu.Unlock()
		if out, ok := m.answerFree(st, pol, r.Def, r.Args, r.StatSide, r.Trace); ok {
			free = append(free, resolution{done: r.Done, out: out})
			continue
		}
		items = append(items, pendingItem{key: m.newKey(), args: r.Args, prompt: r.Prompt, def: r.Def,
			side: r.StatSide, scope: scope, done: r.Done, span: r.Trace})
	}
	if len(items) == 0 {
		resolveAll(free)
		return nil
	}

	// The HIT belongs to the first task still asked (the lead): it
	// counts the HIT, its cost and latency, and sets the finalize-time
	// policy; each question counts under its own task.
	lead := items[0].def
	fl := m.newFlight(m.state(lead.Name, lead), lead, pol, pol.Assignments, items)
	m.launch(fl, free, func(items []pendingItem) *hit.HIT {
		h := &hit.HIT{Task: lead.Name, Type: qlang.TaskFilter, Title: "Answer a few questions",
			Question: fmt.Sprintf("Answer the following %d questions about the data shown.", len(items)),
			Response: qlang.Response{Kind: qlang.ResponseYesNo}}
		for _, it := range items {
			prompt := it.prompt
			if prompt == "" {
				prompt = hit.RenderText(it.def.Text, it.def.TextArgs, it.def.Params, it.args)
			}
			h.Items = append(h.Items, hit.Item{Key: it.key, Args: it.args, Task: it.def.Name, Prompt: prompt})
			h.GroupKeys = append(h.GroupKeys, it.def.Name)
		}
		return h
	})
	return nil
}
