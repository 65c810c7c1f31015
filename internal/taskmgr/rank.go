package taskmgr

import (
	"fmt"

	"repro/internal/hit"
	"repro/internal/qlang"
	"repro/internal/relation"
	"repro/internal/store"
)

// RankItem is one row shown in an S-way comparison (Order) HIT. Key is
// the sort operator's routing key; Args the rendered values.
type RankItem struct {
	Key  string
	Args []relation.Value
}

// Ranking is one assignment's complete ordering of a comparison HIT:
// Rank maps item key → position (0 = first).
type Ranking struct {
	WorkerID string
	Rank     map[string]int
}

// RankBlockIn posts one S-way comparison HIT over exactly these items
// through the Order response and calls done exactly once with every
// assignment's full ranking (fewer than the policy's redundancy when
// assignments failed terminally; none plus an error when the HIT could
// not complete at all).
//
// Unlike Submit, comparison items are never answered from the Task
// Cache or a Task Model: an Order answer is a position *within this
// group* and is meaningless outside it, so caching per-item ranks would
// poison later groups. The group composition is the caller's sorting
// strategy — the manager posts exactly what it is given.
func (m *Manager) RankBlockIn(scope *Scope, def *qlang.TaskDef, items []RankItem, done func(rankings []Ranking, err error)) {
	if len(items) == 0 {
		done(nil, fmt.Errorf("taskmgr: %s: empty comparison group", def.Name))
		return
	}
	if cause := scope.Err(); cause != nil {
		done(nil, fmt.Errorf("taskmgr: %s: %w", def.Name, cause))
		return
	}
	st := m.state(def.Name, def)
	pol := st.policyIn(m.basePolicy(), scope, len(items))
	flItems := make([]pendingItem, len(items))
	for i, it := range items {
		flItems[i] = pendingItem{key: it.Key, args: it.Args, def: def, scope: scope}
	}
	fl := m.newFlight(st, def, pol, pol.Assignments, flItems)
	fl.ranked = done
	m.launch(fl, nil, func([]pendingItem) *hit.HIT {
		h := taskHIT(def, "Order the shown items.")
		h.Response = rankResponse(def)
		for _, it := range items {
			h.Items = append(h.Items, hit.Item{Key: it.Key, Args: it.Args})
		}
		return h
	})
}

// finalizeRanking resolves a comparison HIT's ordering shape: the
// collected assignments become per-assignment rankings, which feed the
// comparison agreement estimator (and the journal, so warm-started
// engines seed ChooseRankStrategy with real evidence) before the caller
// receives them.
func (m *Manager) finalizeRanking(fl *flight, latencyMin float64, j Journal) {
	st := fl.state
	keys := make([]string, len(fl.hit.Items))
	for i, it := range fl.hit.Items {
		keys[i] = it.Key
	}
	rankings := make([]Ranking, 0, len(fl.byWorker))
	for _, ans := range fl.byWorker {
		if len(ans.Values) < len(keys) {
			continue // incomplete sheet: not a ranking
		}
		r := Ranking{WorkerID: ans.WorkerID, Rank: make(map[string]int, len(keys))}
		for i, key := range keys {
			r.Rank[key] = int(ans.Values[i].Int())
		}
		rankings = append(rankings, r)
	}

	// Pairwise agreement across assignments: for every item pair, the
	// majority share of assignments placing them in the same relative
	// order. 1.0 = unanimous orderings; 0.5 = coin-flip (heavy
	// inversions). The complement is the inversion rate the optimizer's
	// hybrid window model uses.
	m.noteWorkerRankings(keys, rankings)
	if share, pairs := pairAgreement(keys, rankings); pairs > 0 {
		st.rankAgreementEstimator().Observe(share)
		st.agreement.Observe(share)
		if j != nil {
			j.Append(store.Record{Kind: store.KindRankPair, Task: fl.hit.Task, X: share, N: int64(pairs)})
		}
		m.observeBackend(fl.backend, fl.hit.Type, fl.reward, latencyMin, share)
	}
	fl.ranked(rankings, nil)
}

// pairAgreement computes the mean majority share over all item pairs of
// a comparison HIT, given the complete rankings that arrived.
func pairAgreement(keys []string, rankings []Ranking) (share float64, pairs int) {
	if len(rankings) == 0 || len(keys) < 2 {
		return 0, 0
	}
	total := 0.0
	for i := 0; i < len(keys); i++ {
		for k := i + 1; k < len(keys); k++ {
			before := 0
			for _, r := range rankings {
				if r.Rank[keys[i]] < r.Rank[keys[k]] {
					before++
				}
			}
			maj := before
			if other := len(rankings) - before; other > maj {
				maj = other
			}
			total += float64(maj) / float64(len(rankings))
			pairs++
		}
	}
	return total / float64(pairs), pairs
}

// RankAgreement reports the task's comparison-agreement estimate (mean
// pairwise majority share across finalized comparison HITs, live or
// replayed from the knowledge store) and how many HITs contributed.
func (m *Manager) RankAgreement(task string) (estimate float64, n int) {
	st := m.state(task, nil)
	st.mu.Lock()
	est := st.rankAgr
	st.mu.Unlock()
	if est == nil {
		return 0, 0
	}
	return est.Value(), est.Count()
}

// rankResponse derives the Order response for a comparison task,
// defaulting when the definition carries something else.
func rankResponse(def *qlang.TaskDef) qlang.Response {
	if def.Response.Kind == qlang.ResponseOrder {
		return def.Response
	}
	return qlang.Response{Kind: qlang.ResponseOrder}
}
