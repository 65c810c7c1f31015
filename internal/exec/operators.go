package exec

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/hit"
	"repro/internal/plan"
	"repro/internal/qlang"
	"repro/internal/rank"
	"repro/internal/relation"
	"repro/internal/taskmgr"
)

// runFilter evaluates local conjuncts immediately and human conjuncts as
// a short-circuiting cascade (or one grouped HIT when GroupFilters is
// set). Tuples flow out as soon as their last predicate passes.
func (q *Query) runFilter(op *operator, v *plan.Filter, in Iterator) {
	defer op.finish()
	s := v.Input.Schema()
	var local, human []qlang.Expr
	var humanPass []predicate
	var humanCalls [][]*boundCall
	taskNames := map[string]bool{}
	for _, c := range v.Conjuncts {
		calls := compileCalls([]qlang.Expr{c}, s, q.cfg.Script)
		if len(calls) == 0 {
			local = append(local, c)
			continue
		}
		human = append(human, c)
		humanPass = append(humanPass, compilePredicate(c, s))
		humanCalls = append(humanCalls, calls)
		for _, bc := range calls {
			taskNames[bc.call.Name] = true
		}
	}
	localPass := compileConjuncts(local, s)

	var wg sync.WaitGroup
	var sem chan struct{}
	if q.cfg.FilterWindow > 0 && len(human) > 0 && !q.cfg.GroupFilters {
		sem = make(chan struct{}, q.cfg.FilterWindow)
	}
	finish := func() {
		if sem != nil {
			<-sem
		}
		wg.Done()
	}
	process := func(t relation.Tuple) {
		if !q.passes(localPass, t) {
			return
		}
		if len(human) == 0 {
			op.push(t)
			return
		}
		wg.Add(1)
		if q.cfg.GroupFilters && len(human) > 1 {
			q.groupFilter(op, t, humanPass, humanCalls, &wg)
			return
		}
		if sem != nil {
			sem <- struct{}{}
			// The window is open: flush whatever the previous tuples
			// queued so their results (and selectivity updates) arrive
			// while later tuples wait here.
			q.flushTasks(taskNames)
		}
		// Order is chosen when the tuple enters its cascade, so the
		// optimizer's live selectivity estimates steer later tuples.
		order := q.filterOrder(human)
		var step func(k int)
		step = func(k int) {
			if k == len(order) {
				op.push(t)
				finish()
				return
			}
			h := order[k]
			asg := 0
			if u, ok := human[h].(*qlang.Unary); ok && u.Op == "POSSIBLY" {
				asg = 1 // approximate predicate: no redundancy
			}
			q.resolveCallsN(op, t, humanCalls[h], asg, func(calls map[string]relation.Value, err error) {
				if err != nil {
					q.reportError(err)
					finish()
					return
				}
				pass, err := humanPass[h](t.Values, calls)
				if err != nil {
					q.reportError(err)
					finish()
					return
				}
				if !pass {
					finish()
					return
				}
				step(k + 1)
			})
		}
		step(0)
	}

	for {
		t, ok := in.Next()
		if !ok {
			break
		}
		atomic.AddInt64(&op.in, 1)
		process(t)
	}
	q.flushTasks(taskNames)
	wg.Wait()
}

func (q *Query) filterOrder(human []qlang.Expr) []int {
	if q.cfg.FilterOrder != nil {
		order := q.cfg.FilterOrder(human)
		if len(order) == len(human) {
			return order
		}
	}
	order := make([]int, len(human))
	for i := range order {
		order[i] = i
	}
	return order
}

// groupFilter asks all human conjuncts about one tuple in a single HIT:
// pass holds each conjunct's predicate and calls its task calls.
func (q *Query) groupFilter(op *operator, t relation.Tuple, pass []predicate, calls [][]*boundCall, wg *sync.WaitGroup) {
	// Each conjunct must be a bare boolean task call to group.
	var reqs []taskmgr.Request
	results := make(map[string]relation.Value)
	var mu sync.Mutex
	remaining := 0
	var firstErr error
	finish := func() {
		defer wg.Done()
		if firstErr != nil {
			q.reportError(firstErr)
			return
		}
		for _, p := range pass {
			ok, err := p(t.Values, results)
			if err != nil {
				q.reportError(err)
				return
			}
			if !ok {
				return
			}
		}
		op.push(t)
	}
	for _, cs := range calls {
		for _, bc := range cs {
			def, ok := q.cfg.Script.Task(bc.call.Name)
			if !ok {
				q.reportError(fmt.Errorf("exec: unknown task %q", bc.call.Name))
				wg.Done()
				return
			}
			key, args, err := bc.eval(t.Values)
			if err != nil {
				q.reportError(err)
				wg.Done()
				return
			}
			mu.Lock()
			if _, dup := results[key]; dup {
				mu.Unlock()
				continue
			}
			results[key] = relation.Null // placeholder marks membership
			remaining++
			mu.Unlock()
			reqs = append(reqs, taskmgr.Request{
				Def:   def,
				Args:  args,
				Scope: q.cfg.Scope,
				Trace: op.span,
				Done: func(out taskmgr.Outcome) {
					mu.Lock()
					if out.Err != nil && firstErr == nil {
						firstErr = out.Err
					}
					results[key] = out.Value
					remaining--
					done := remaining == 0
					mu.Unlock()
					if done {
						finish()
					}
				},
			})
		}
	}
	if len(reqs) == 0 {
		finish()
		return
	}
	if err := q.cfg.Mgr.SubmitGroup(reqs); err != nil {
		q.reportError(err)
		wg.Done()
	}
}

// runProject resolves each tuple's human calls, then computes outputs.
func (q *Query) runProject(op *operator, v *plan.Project, in Iterator) {
	defer op.finish()
	s := v.Input.Schema()
	items := compileItems(v.Items, s)
	exprs := make([]qlang.Expr, len(v.Items))
	for i, it := range v.Items {
		exprs[i] = it.Expr
	}
	calls := compileCalls(exprs, s, q.cfg.Script)
	taskNames := callTaskNames(calls)
	var wg sync.WaitGroup
	for {
		t, ok := in.Next()
		if !ok {
			break
		}
		atomic.AddInt64(&op.in, 1)
		wg.Add(1)
		q.resolveCalls(op, t, calls, func(results map[string]relation.Value, err error) {
			defer wg.Done()
			if err != nil {
				q.reportError(err)
				return
			}
			vals := make([]relation.Value, 0, v.Schema().Len())
			for _, item := range items {
				if item == nil {
					vals = append(vals, t.Values...)
					continue
				}
				val, err := item(t.Values, results)
				if err != nil {
					q.reportError(err)
					return
				}
				vals = append(vals, val)
			}
			op.push(relation.Tuple{Schema: v.Schema(), Values: vals})
		})
	}
	q.flushTasks(taskNames)
	wg.Wait()
}

// joinSide is one buffered input of a join with its evaluated argument.
type joinSide struct {
	tuple relation.Tuple
	arg   relation.Value
}

// runJoin drives the human join interface: both inputs drain
// concurrently (each side's iterator chain runs in its drain
// goroutine), then block pairs walk through the join HITs. Call-free
// joins never reach here — they fuse into localJoinIter, which streams
// the probe side.
func (q *Query) runJoin(op *operator, v *plan.Join, left, right Iterator) {
	defer op.finish()
	var lbuf, rbuf []relation.Tuple
	var dw sync.WaitGroup
	dw.Add(2)
	go func() {
		defer dw.Done()
		for {
			t, ok := left.Next()
			if !ok {
				return
			}
			atomic.AddInt64(&op.in, 1)
			lbuf = append(lbuf, t)
		}
	}()
	go func() {
		defer dw.Done()
		for {
			t, ok := right.Next()
			if !ok {
				return
			}
			atomic.AddInt64(&op.in, 1)
			rbuf = append(rbuf, t)
		}
	}()
	dw.Wait()
	q.noteResident(int64(len(lbuf) + len(rbuf)))

	ls := q.evalSide(lbuf, compileValue(v.LeftArg, v.Left.Schema()))
	rs := q.evalSide(rbuf, compileValue(v.RightArg, v.Right.Schema()))
	residual := compileConjuncts(v.Residual, v.Schema())
	if q.cfg.JoinPairwise {
		q.joinPairwise(op, v, residual, ls, rs)
		return
	}
	q.joinTwoColumn(op, v, residual, ls, rs)
}

func (q *Query) evalSide(buf []relation.Tuple, arg program) []joinSide {
	out := make([]joinSide, 0, len(buf))
	for _, t := range buf {
		val, err := arg(t.Values, nil)
		if err != nil {
			q.reportError(err)
			continue
		}
		out = append(out, joinSide{tuple: t, arg: val})
	}
	return out
}

func concatValues(l, r relation.Tuple) []relation.Value {
	vals := make([]relation.Value, 0, len(l.Values)+len(r.Values))
	vals = append(vals, l.Values...)
	return append(vals, r.Values...)
}

// passes evaluates a call-free predicate over t, reporting an error as
// a failed tuple.
func (q *Query) passes(p predicate, t relation.Tuple) bool {
	ok, err := p(t.Values, nil)
	if err != nil {
		q.reportError(err)
	}
	return ok
}

// joinTwoColumn walks L×R blocks through the JoinColumns interface
// (Figure 3): each block pair is one HIT answering blockL×blockR pairs.
func (q *Query) joinTwoColumn(op *operator, v *plan.Join, residual predicate, ls, rs []joinSide) {
	lb, rb := q.cfg.JoinLeftBlock, q.cfg.JoinRightBlock
	var wg sync.WaitGroup
	for li := 0; li < len(ls); li += lb {
		if q.Canceled() {
			break
		}
		lhi := li + lb
		if lhi > len(ls) {
			lhi = len(ls)
		}
		for ri := 0; ri < len(rs); ri += rb {
			rhi := ri + rb
			if rhi > len(rs) {
				rhi = len(rs)
			}
			lblock, rblock := ls[li:lhi], rs[ri:rhi]
			items := func(sides []joinSide, prefix string, base int) []taskmgr.JoinItem {
				out := make([]taskmgr.JoinItem, len(sides))
				for i, s := range sides {
					out[i] = taskmgr.JoinItem{
						Key:  fmt.Sprintf("%s%06d", prefix, base+i),
						Args: []relation.Value{s.arg},
					}
				}
				return out
			}
			leftItems := items(lblock, "L", li)
			rightItems := items(rblock, "R", ri)
			byKey := make(map[string]relation.Tuple, len(lblock)+len(rblock))
			for i, it := range leftItems {
				byKey[it.Key] = lblock[i].tuple
			}
			for i, it := range rightItems {
				byKey[it.Key] = rblock[i].tuple
			}
			wg.Add(len(lblock) * len(rblock))
			q.cfg.Mgr.JoinBlockIn(q.cfg.Scope, v.HumanTask, leftItems, rightItems, func(pairKey string, out taskmgr.Outcome) {
				defer wg.Done()
				if out.Err != nil {
					q.reportError(out.Err)
					return
				}
				if !out.Value.Truthy() {
					return
				}
				lk, rk, ok := hit.SplitPairKey(pairKey)
				if !ok {
					q.reportError(fmt.Errorf("exec: bad pair key %q", pairKey))
					return
				}
				joined := relation.Tuple{Schema: v.Schema(), Values: concatValues(byKey[lk], byKey[rk])}
				if q.passes(residual, joined) {
					op.push(joined)
				}
			})
		}
	}
	wg.Wait()
}

// joinPairwise submits one boolean question per pair — the naive join
// interface the two-column layout is compared against.
func (q *Query) joinPairwise(op *operator, v *plan.Join, residual predicate, ls, rs []joinSide) {
	var wg sync.WaitGroup
	for _, l := range ls {
		if q.Canceled() {
			break
		}
		for _, r := range rs {
			l, r := l, r
			wg.Add(1)
			q.cfg.Mgr.Submit(taskmgr.Request{
				Def:   v.HumanTask,
				Args:  []relation.Value{l.arg, r.arg},
				Scope: q.cfg.Scope,
				Trace: op.span,
				Done: func(out taskmgr.Outcome) {
					defer wg.Done()
					if out.Err != nil {
						q.reportError(out.Err)
						return
					}
					if !out.Value.Truthy() {
						return
					}
					joined := relation.Tuple{Schema: v.Schema(), Values: concatValues(l.tuple, r.tuple)}
					if q.passes(residual, joined) {
						op.push(joined)
					}
				},
			})
		}
	}
	q.cfg.Mgr.FlushScope(v.HumanTask.Name, q.cfg.Scope)
	wg.Wait()
}

// runPreFilter runs a join's feature filter over one input with
// single-assignment POSSIBLY-style semantics: each tuple's filter task
// is submitted with redundancy 1 (the join predicate re-checks the
// surviving pairs anyway), survivors flow to the join, rejects are
// dropped. The input is pulled in blocks; between blocks the stage
// waits for outcomes — so live selectivity accumulates in the
// Statistics Manager — and re-asks Config.PreFilterKeep whether
// filtering the remaining (uncached, counted via counter-free cache
// probes) tuples is still predicted to pay. A "no" re-plans the rest of
// the input as an unfiltered pass-through that streams tuple-by-tuple,
// never buffering. While filtering, the block size starts at
// Config.PreFilterBlock and doubles after every block that submitted
// fresh (uncached) work, up to Config.PreFilterMaxBlock: early blocks
// probe cheaply while the selectivity estimate is noisy, later blocks
// amortize the per-block outcome barrier once confidence has grown.
//
// A tuple whose filter errors passes through unfiltered: the pre-filter
// is an optimization, and correctness stays with the join predicate.
func (q *Query) runPreFilter(op *operator, v *plan.PreFilter, in Iterator) {
	defer op.finish()
	c := q.cfg.Mgr.Cache()
	block := q.cfg.PreFilterBlock
	maxBlock := q.cfg.PreFilterMaxBlock
	if maxBlock <= 0 {
		maxBlock = 8 * q.cfg.PreFilterBlock
	}
	estimate := plan.EstimateRows(v.Input)
	arg := compileValue(v.Arg, v.Input.Schema())
	pulled := 0
	first := true
	rows := make([]relation.Tuple, 0, block)
	args := make([]relation.Value, 0, block)
	argErr := make([]error, 0, block)
	for {
		if q.Canceled() {
			// The rest of the input is moot: the join downstream is dead
			// too, so neither fail-open pass-through nor more filter HITs
			// would buy anything.
			return
		}
		// Pull one block, evaluating each tuple's filter argument once
		// and probing the task cache (a cheap Contains probe, no
		// counters, no copies) to count the uncached work it holds.
		rows, args, argErr = rows[:0], args[:0], argErr[:0]
		uncached := 0
		for len(rows) < block {
			t, ok := in.Next()
			if !ok {
				break
			}
			atomic.AddInt64(&op.in, 1)
			rows = append(rows, t)
			a, err := arg(t.Values, nil)
			args, argErr = append(args, a), append(argErr, err)
			if err == nil && !c.Contains(cache.NewKey(v.Task.Name, []relation.Value{a})) {
				uncached++
			}
		}
		if len(rows) == 0 {
			return
		}
		pulled += len(rows)
		// Between blocks, re-ask whether filtering the remaining work is
		// still predicted to pay: this block's uncached tuples plus the
		// not-yet-pulled remainder of the input (estimated, and
		// conservatively assumed uncached — cached answers are free, so
		// overestimating remaining work only keeps a profitable filter
		// running).
		if !first && q.cfg.PreFilterKeep != nil {
			remaining := uncached
			if rest := estimate - pulled; rest > 0 {
				remaining += rest
			}
			if !q.cfg.PreFilterKeep(v, remaining) {
				// Re-plan: pass this block and the rest of the input
				// through unfiltered, tuple by tuple — the declined path
				// streams, it does not buffer.
				for _, t := range rows {
					op.push(t)
				}
				atomic.AddInt64(&op.decided, int64(len(rows)))
				for {
					t, ok := in.Next()
					if !ok {
						return
					}
					atomic.AddInt64(&op.in, 1)
					op.push(t)
					atomic.AddInt64(&op.decided, 1)
				}
			}
		}
		first = false
		q.preFilterBlock(op, v, rows, args, argErr)
		atomic.AddInt64(&op.decided, int64(len(rows)))
		// Cost-aware schedule: each filtered block that bought fresh
		// evidence sharpens the selectivity estimate, so later re-checks
		// need less frequent confirmation — grow the block geometrically
		// up to the cap. All-cached blocks buy no evidence and keep the
		// current cadence.
		if uncached > 0 && block < maxBlock {
			block *= 2
			if block > maxBlock {
				block = maxBlock
			}
		}
	}
}

// preFilterBlock submits one block's filter questions and waits for
// their outcomes, pushing survivors downstream in input order.
func (q *Query) preFilterBlock(op *operator, v *plan.PreFilter, rows []relation.Tuple,
	args []relation.Value, argErr []error) {
	keep := make([]bool, len(rows))
	// Tag each observation with the join side this stage protects, so
	// the Statistics Manager learns per-side selectivity and the
	// mid-query re-check judges this side by its own evidence.
	side := taskmgr.SideRight
	if v.Left {
		side = taskmgr.SideLeft
	}
	var wg sync.WaitGroup
	for i := range rows {
		if argErr[i] != nil {
			q.reportError(argErr[i])
			keep[i] = true // fail open
			continue
		}
		i := i
		wg.Add(1)
		q.cfg.Mgr.Submit(taskmgr.Request{
			Def:         v.Task,
			Args:        []relation.Value{args[i]},
			Assignments: 1,
			StatSide:    side,
			Scope:       q.cfg.Scope,
			Trace:       op.span,
			Done: func(out taskmgr.Outcome) {
				defer wg.Done()
				if out.Err != nil {
					q.reportError(out.Err)
					keep[i] = true // fail open
					return
				}
				keep[i] = out.Value.Truthy()
			},
		})
	}
	q.cfg.Mgr.FlushScope(v.Task.Name, q.cfg.Scope)
	wg.Wait()
	for i, t := range rows {
		if keep[i] {
			op.push(t)
		}
	}
}

// runRank is the human-powered sort: it buffers the input (ORDER BY is
// a barrier — no tuple can be emitted before the last input tuple has
// been compared or rated; see doc.go), evaluates the ranking task's
// arguments per tuple, hands the set to the rank subsystem under the
// strategy the optimizer chose (compare / rate / hybrid, with top-k
// pushdown), and streams the ordered rows out as soon as the order is
// final, releasing buffered tuples as they are emitted.
//
// Tuples whose arguments fail to evaluate are reported, excluded from
// ranking, and emitted where a NULL sort key would land — before the
// ranked rows ascending, after them descending — in input order.
func (q *Query) runRank(op *operator, v *plan.Rank, in Iterator) {
	defer op.finish()
	var rows []relation.Tuple
	for {
		t, ok := in.Next()
		if !ok {
			break
		}
		atomic.AddInt64(&op.in, 1)
		rows = append(rows, t)
	}
	q.noteResident(int64(len(rows)))
	if q.cfg.Mgr == nil {
		q.reportError(fmt.Errorf("exec: human sort without task manager"))
		for i := range rows {
			op.push(rows[i])
		}
		return
	}

	argProgs := compileValues(v.Args, v.Input.Schema())
	items := make([]rank.Item, 0, len(rows))
	itemRow := make([]int, 0, len(rows)) // item index → row index
	var failed []int
	for i, t := range rows {
		args := make([]relation.Value, len(v.Args))
		ok := true
		for j, arg := range argProgs {
			val, err := arg(t.Values, nil)
			if err != nil {
				q.reportError(err)
				ok = false
				break
			}
			args[j] = val
		}
		if !ok {
			failed = append(failed, i)
			continue
		}
		items = append(items, rank.Item{Key: fmt.Sprintf("r%06d", i), Args: args})
		itemRow = append(itemRow, i)
	}

	decide := q.cfg.RankStrategy
	if decide == nil {
		decide = defaultRankStrategy
	}
	d := decide(v, len(items))

	done := make(chan struct{})
	var perm []int
	var rst rank.Stats
	rank.Run(items, rateSurface(v), v.Compare, d, rank.Config{
		Mgr:     q.cfg.Mgr,
		Scope:   q.cfg.Scope,
		OnError: q.reportError,
	}, func(p []int, st rank.Stats) {
		perm, rst = p, st
		close(done)
	})
	<-done
	q.noteRankStat(RankStat{
		Op:          v.Label(),
		Strategy:    string(rst.Strategy),
		Items:       rst.Items,
		GroupSize:   d.GroupSize,
		CompareHITs: rst.CompareHITs,
		RateAsks:    rst.RateAsks,
		Windows:     rst.Windows,
		Refined:     rst.Refined,
	})

	emit := func(i int) {
		op.push(rows[i])
		rows[i] = relation.Tuple{} // release as emitted; the barrier is over
	}
	if !v.Desc {
		for _, i := range failed {
			emit(i)
		}
	}
	for _, pi := range perm {
		emit(itemRow[pi])
	}
	if v.Desc {
		for _, i := range failed {
			emit(i)
		}
	}
}

// rateSurface returns the rating task of a Rank node, or nil when the
// ORDER BY task can only compare.
func rateSurface(v *plan.Rank) *qlang.TaskDef {
	if v.Task != nil && v.Task.Type == qlang.TaskRating {
		return v.Task
	}
	return nil
}

// defaultRankStrategy is the static fallback when no optimizer is
// wired: rate when the task rates, compare otherwise.
func defaultRankStrategy(v *plan.Rank, n int) rank.Decision {
	d := rank.Decision{
		Strategy:  rank.StrategyCompare,
		GroupSize: rank.GroupSizeFor(rateSurface(v), v.Compare),
		TopK:      v.TopK,
		Desc:      v.Desc,
	}
	if rateSurface(v) != nil {
		d.Strategy = rank.StrategyRate
	}
	return d
}

// runOrderBy is the generic sort for multi-key or mixed-expression
// ORDER BY clauses: it buffers the input (a barrier, like runRank),
// resolves human sort keys (e.g. rating tasks) per tuple, sorts, and
// emits in order — releasing each buffered tuple as it streams out.
func (q *Query) runOrderBy(op *operator, v *plan.OrderBy, in Iterator) {
	defer op.finish()
	var rows []relation.Tuple
	for {
		t, ok := in.Next()
		if !ok {
			break
		}
		atomic.AddInt64(&op.in, 1)
		rows = append(rows, t)
	}
	q.noteResident(int64(len(rows)))
	s := v.Input.Schema()
	keyExprs := make([]qlang.Expr, len(v.Keys))
	for i, k := range v.Keys {
		keyExprs[i] = k.Expr
	}
	keyProgs := compileValues(keyExprs, s)
	calls := compileCalls(keyExprs, s, q.cfg.Script)
	taskNames := callTaskNames(calls)
	// keys holds len(v.Keys) values per row, row-major. A key whose
	// calls or evaluation fail stays Null, so the sort sees a
	// well-defined value.
	nk := len(v.Keys)
	keys := make([]relation.Value, len(rows)*nk)
	var wg sync.WaitGroup
	for i, t := range rows {
		i, t := i, t
		wg.Add(1)
		q.resolveCalls(op, t, calls, func(results map[string]relation.Value, err error) {
			defer wg.Done()
			if err != nil {
				q.reportError(err)
				return
			}
			for j, k := range keyProgs {
				val, err := k(t.Values, results)
				if err != nil {
					q.reportError(err)
					continue
				}
				keys[i*nk+j] = val
			}
		})
	}
	q.flushTasks(taskNames)
	wg.Wait()

	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	sortByKeys(idx, v.Keys, keys)
	for _, i := range idx {
		op.push(rows[i])
		// The barrier is over once the order is final: drop each
		// tuple's buffered reference as it streams out, so a slow
		// consumer doesn't pin the whole input twice (queue + buffer).
		rows[i] = relation.Tuple{}
		clear(keys[i*nk : (i+1)*nk])
	}
}

// runAggregate groups rows and computes aggregates, resolving human
// calls per tuple; the call-free case fuses into aggregateIter instead.
func (q *Query) runAggregate(op *operator, v *plan.Aggregate, in Iterator) {
	defer op.finish()
	type group struct {
		first      relation.Tuple
		firstCalls map[string]relation.Value
		count      int64
		sums       map[int]float64
		mins       map[int]relation.Value
		maxs       map[int]relation.Value
	}
	groups := make(map[string]*group)
	var order []string

	prog := compileAggregate(v)
	exprs := append([]qlang.Expr(nil), v.Keys...)
	for _, it := range v.Items {
		if call, isAgg := aggCall(it.Expr); isAgg {
			exprs = append(exprs, call.Args...)
		} else {
			exprs = append(exprs, it.Expr)
		}
	}
	calls := compileCalls(exprs, v.Input.Schema(), q.cfg.Script)
	taskNames := callTaskNames(calls)

	var mu sync.Mutex
	var wg sync.WaitGroup
	for {
		t, ok := in.Next()
		if !ok {
			break
		}
		atomic.AddInt64(&op.in, 1)
		wg.Add(1)
		q.resolveCalls(op, t, calls, func(results map[string]relation.Value, err error) {
			defer wg.Done()
			if err != nil {
				q.reportError(err)
				return
			}
			var keyEnc []byte
			for _, k := range prog.keys {
				kv, err := k(t.Values, results)
				if err != nil {
					q.reportError(err)
					return
				}
				keyEnc = kv.Encode(keyEnc)
			}
			mu.Lock()
			defer mu.Unlock()
			g, ok := groups[string(keyEnc)]
			if !ok {
				g = &group{first: t, firstCalls: results,
					sums: map[int]float64{}, mins: map[int]relation.Value{}, maxs: map[int]relation.Value{}}
				groups[string(keyEnc)] = g
				order = append(order, string(keyEnc))
			}
			g.count++
			for i, arg := range prog.args {
				if arg == nil {
					continue
				}
				val, err := arg(t.Values, results)
				if err != nil {
					q.reportError(err)
					continue
				}
				g.sums[i] += val.Float()
				if cur, ok := g.mins[i]; !ok || val.Compare(cur) < 0 {
					g.mins[i] = val
				}
				if cur, ok := g.maxs[i]; !ok || val.Compare(cur) > 0 {
					g.maxs[i] = val
				}
			}
		})
	}
	q.flushTasks(taskNames)
	wg.Wait()

	sort.Strings(order)
	for _, key := range order {
		g := groups[key]
		vals := make([]relation.Value, 0, len(v.Items))
		for i, it := range v.Items {
			if call, isAgg := aggCall(it.Expr); isAgg {
				switch strings.ToLower(call.Name) {
				case "count":
					vals = append(vals, relation.NewInt(g.count))
				case "sum":
					vals = append(vals, relation.NewFloat(g.sums[i]))
				case "avg":
					vals = append(vals, relation.NewFloat(g.sums[i]/float64(g.count)))
				case "min":
					vals = append(vals, g.mins[i])
				case "max":
					vals = append(vals, g.maxs[i])
				}
				continue
			}
			val, err := prog.items[i](g.first.Values, g.firstCalls)
			if err != nil {
				q.reportError(err)
				val = relation.Null
			}
			vals = append(vals, val)
		}
		op.push(relation.Tuple{Schema: v.Schema(), Values: vals})
	}
}

// aggPrograms is an Aggregate node compiled against its input schema:
// its group keys and, per SELECT item i, either args[i], the argument of
// its aggregate function (nil when the function takes none), or
// items[i], the item itself when it is not an aggregate.
type aggPrograms struct {
	keys, args, items []program
}

func compileAggregate(v *plan.Aggregate) aggPrograms {
	s := v.Input.Schema()
	p := aggPrograms{
		keys:  compileValues(v.Keys, s),
		args:  make([]program, len(v.Items)),
		items: make([]program, len(v.Items)),
	}
	for i, it := range v.Items {
		if call, isAgg := aggCall(it.Expr); isAgg {
			if len(call.Args) > 0 {
				p.args[i] = compileValue(call.Args[0], s)
			}
			continue
		}
		p.items[i] = compileValue(it.Expr, s)
	}
	return p
}

// compileItems compiles SELECT items over the input schema, leaving nil
// for *.
func compileItems(items []qlang.SelectItem, s *relation.Schema) []program {
	out := make([]program, len(items))
	for i, it := range items {
		if _, isStar := it.Expr.(*qlang.Star); !isStar {
			out[i] = compileValue(it.Expr, s)
		}
	}
	return out
}

// callTaskNames returns the task names of calls, the tasks an operator
// flushes once its input ends.
func callTaskNames(calls []*boundCall) map[string]bool {
	names := make(map[string]bool, len(calls))
	for _, bc := range calls {
		names[bc.call.Name] = true
	}
	return names
}

func aggCall(e qlang.Expr) (*qlang.Call, bool) {
	call, ok := e.(*qlang.Call)
	if !ok {
		return nil, false
	}
	if plan.AggregateFuncs[strings.ToLower(call.Name)] {
		return call, true
	}
	return nil, false
}

func (q *Query) flushTasks(names map[string]bool) {
	if q.cfg.Mgr == nil {
		return
	}
	for name := range names {
		q.cfg.Mgr.FlushScope(name, q.cfg.Scope)
	}
}
