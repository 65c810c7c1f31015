package taskmgr

// This file is the manager's entire tracing surface. Every hook in the
// batching/posting/finalization paths funnels through the helpers here,
// all of which collapse to a nil check when no tracer is installed:
// the manager holds the tracer in an atomic pointer (the journal
// pattern), spans ride on pendingItem/flight fields that stay nil
// when tracing is off, and every obs call is nil-receiver safe. The
// disabled path therefore costs one atomic load per event site and
// zero allocations — and because spans never schedule clock events or
// consume randomness, enabling tracing cannot perturb a simulation.

import (
	"fmt"
	"strconv"

	"repro/internal/budget"
	"repro/internal/infer"
	"repro/internal/obs"
)

// SetObs installs (or, with nil, removes) the tracer every batching and
// posting path reports spans and metrics to.
func (m *Manager) SetObs(t *obs.Tracer) {
	m.tracer.Store(t)
}

func (m *Manager) getObs() *obs.Tracer { return m.tracer.Load() }

// obsRegistry returns the metrics registry behind the installed tracer,
// nil when tracing is off (every registry method no-ops on nil).
func (m *Manager) obsRegistry() *obs.Registry { return m.getObs().Registry() }

// SetSpan attaches the owning query's trace span to the scope: batch
// and HIT spans parent under it and Cancel closes the whole tree.
func (s *Scope) SetSpan(sp *obs.Span) {
	if s == nil || sp == nil {
		return
	}
	s.span.Store(sp)
}

// Span returns the scope's attached query span (nil when tracing is
// off or the scope is unscoped).
func (s *Scope) Span() *obs.Span {
	if s == nil {
		return nil
	}
	return s.span.Load()
}

// traceLaunch opens a charged HIT's span before the flight becomes
// visible to completions, so onAssignment always observes fl.span fully
// built, and attributes the HIT to each submitting operator's span.
// Batch HITs get a batch → hit span pair: the batch span is backdated to
// the admission enqueue time — its duration is the admission wait — and
// closed at post time. The other kinds hang the HIT span directly under
// the query span, annotated with their shape. The HIT span stays open
// until the HIT retires.
func (m *Manager) traceLaunch(fl *flight) {
	tr := m.getObs()
	if tr == nil {
		return
	}
	under := func(parent *obs.Span, kind obs.Kind, name string) *obs.Span {
		if parent != nil {
			return parent.Child(kind, name)
		}
		return tr.StartRoot(kind, name)
	}
	parent := fl.shares[0].scope.Span()
	var bs *obs.Span
	if fl.admitted {
		bs = under(parent, obs.KindBatch, fl.hit.Task)
		if fl.queuedAt > 0 && fl.queuedAt < bs.Start {
			bs.Start = fl.queuedAt
		}
		bs.Annotate("fill", fmt.Sprintf("%d/%d", len(fl.items), fl.batchSize))
		if len(fl.shares) > 1 {
			bs.Annotate("shared_scopes", strconv.Itoa(len(fl.shares)))
		}
		if fl.adaptive {
			bs.Annotate("adaptive", fmt.Sprintf("min=%d cap=%d", fl.assign, fl.capA))
		}
		parent = bs
	}
	hs := under(parent, obs.KindHIT, fl.hit.ID)
	hs.Annotate("task", fl.hit.Task)
	hs.Annotate("backend", fl.backend)
	switch {
	case fl.admitted:
	case fl.ranked != nil:
		hs.Annotate("group_size", strconv.Itoa(len(fl.items)))
	case len(fl.hit.Left) > 0:
		hs.Annotate("grid", fmt.Sprintf("%dx%d", len(fl.hit.Left), len(fl.hit.Right)))
	default:
		hs.Annotate("grouped", strconv.Itoa(len(fl.items)))
	}
	hs.AddHITs(1)
	hs.AddCost(int64(fl.cost))
	bs.End()
	fl.span = hs
	fl.opSpans = attributeOps(fl.items, fl.cost)
}

// attributeOps fans one HIT's posting out to the distinct submitting
// operator spans: each gets the HIT counted once and its item-count
// share of the cost (largest-remainder split, so shares sum exactly to
// the charge). It returns those spans.
func attributeOps(items []pendingItem, cost budget.Cents) []*obs.Span {
	var ops []*obs.Span
	var counts []int
	idx := make(map[*obs.Span]int, 1)
	for _, it := range items {
		if it.span == nil {
			continue
		}
		i, ok := idx[it.span]
		if !ok {
			i = len(ops)
			idx[it.span] = i
			ops = append(ops, it.span)
			counts = append(counts, 0)
		}
		counts[i]++
	}
	for i, c := range splitCost(cost, counts) {
		ops[i].AddHITs(1)
		ops[i].AddCost(int64(c))
	}
	return ops
}

// tracePosted records the posting-time metrics of a HIT that actually
// reached the marketplace: HIT and cost counters (per task, and per
// labeled scope so a scope's series sums to its spend), the in-flight
// gauge, and for batch HITs the admission wait and fill ratio.
func (m *Manager) tracePosted(fl *flight) {
	if fl.span == nil {
		return
	}
	reg := m.obsRegistry()
	if reg == nil {
		return
	}
	task := fl.hit.Task
	reg.Counter(obs.MetricHITsPosted, obs.L("task", task), obs.L("backend", fl.backend)).Add(1)
	m.traceCost(fl, fl.shares, fl.cost)
	reg.Gauge(obs.MetricInflightHITs).Add(1)
	if !fl.admitted {
		return
	}
	reg.Counter(obs.MetricBatchesPosted, obs.L("task", task)).Add(1)
	if fl.queuedAt > 0 {
		reg.Histogram(obs.MetricAdmissionWait, obs.MinuteBuckets, obs.L("task", task)).
			Observe((fl.postedAt - fl.queuedAt).Minutes())
	}
	reg.Histogram(obs.MetricBatchFillRatio, obs.RatioBuckets, obs.L("task", task)).
		Observe(float64(len(fl.items)) / float64(fl.batchSize))
}

// traceCost counts a charge on the task's cost series and on the series
// of each labeled scope among the shares that paid it.
func (m *Manager) traceCost(fl *flight, shares []hitShare, cost budget.Cents) {
	reg := m.obsRegistry()
	if reg == nil {
		return
	}
	task := fl.hit.Task
	reg.Counter(obs.MetricCostCents, obs.L("task", task)).Add(int64(cost))
	for i := range shares {
		if label := shares[i].scope.labelNow(); label != "" {
			reg.Counter(obs.MetricCostCents, obs.L("task", task), obs.L("scope", label)).Add(int64(shares[i].cost))
		}
	}
}

// traceHITFailed closes the span of a HIT that retired without
// answers: refused by the marketplace (never posted, so the in-flight
// gauge was never raised) or starved of assignments.
func (m *Manager) traceHITFailed(fl *flight, err error, posted bool) {
	if fl.span == nil {
		return
	}
	fl.span.Annotate("error", err.Error())
	fl.span.End()
	if reg := m.obsRegistry(); reg != nil && posted {
		reg.Gauge(obs.MetricInflightHITs).Add(-1)
	}
}

// traceAssignment records one received assignment as an instantaneous
// child span. Called with the HIT's stripe lock held; span mutexes
// nest under stripe locks everywhere.
func (m *Manager) traceAssignment(fl *flight, workerID string) {
	if fl.span == nil {
		return
	}
	fl.span.Child(obs.KindAssignment, workerID).End()
	fl.span.AddAssignments(1)
	if reg := m.obsRegistry(); reg != nil {
		reg.Counter(obs.MetricAssignments, obs.L("task", fl.hit.Task)).Add(1)
	}
}

// traceExtension records one purchased adaptive extension: an
// instantaneous child span carrying the price, remembered (under the
// stripe lock) so a later cancellation can annotate the refunded
// remainder onto the very spans that bought the slots.
func (m *Manager) traceExtension(s *flightStripe, hitID string, fl *flight, price budget.Cents) {
	if fl.span == nil {
		return
	}
	ext := fl.span.Child(obs.KindHIT, "extend")
	ext.AddCost(int64(price))
	ext.End()
	fl.span.AddExtensions(1)
	fl.span.AddCost(int64(price))
	s.mu.Lock()
	fl.extSpans = append(fl.extSpans, ext)
	s.mu.Unlock()
	if len(fl.opSpans) > 0 {
		fl.opSpans[0].AddExtensions(1)
		fl.opSpans[0].AddCost(int64(price))
	}
	if reg := m.obsRegistry(); reg != nil {
		reg.Counter(obs.MetricExtensions, obs.L("task", fl.hit.Task)).Add(1)
		m.traceCost(fl, []hitShare{{scope: fl.shares[0].scope, cost: price}}, price)
	}
}

// traceHITDone closes out a finalized HIT: assignments are attributed
// to the submitting operators, inference posteriors (when an EM fit
// resolved the answers) are annotated in HIT item order, and the
// round-trip and extension-depth distributions observe the completion.
func (m *Manager) traceHITDone(fl *flight, latencyMin float64, posts []*infer.Posterior) {
	sp := fl.span
	if sp == nil {
		return
	}
	for _, op := range fl.opSpans {
		op.AddAssignments(int64(fl.assign))
	}
	if posts != nil {
		for i, hi := range fl.hit.Items {
			if p := posts[i]; p != nil {
				sp.Annotate("posterior."+hi.Key, fmt.Sprintf("%v p=%.3f", p.Value, p.Confidence))
			}
		}
	}
	sp.End()
	if reg := m.obsRegistry(); reg != nil {
		reg.Histogram(obs.MetricHITRoundTrip, obs.MinuteBuckets,
			obs.L("task", fl.hit.Task), obs.L("backend", fl.backend)).Observe(latencyMin)
		if fl.adaptive {
			reg.Histogram(obs.MetricExtensionDepth, obs.DepthBuckets,
				obs.L("task", fl.hit.Task)).Observe(float64(len(fl.extSpans)))
		}
		reg.Gauge(obs.MetricInflightHITs).Add(-1)
	}
}

// traceRefund records a refund of unconsumed assignment slots on the
// HIT span and annotates the unconsumed extension spans with the
// remainder each gave back — the pro-rata refund walks the
// last-purchased slots first, the ones that cannot have completed yet.
func (m *Manager) traceRefund(fl *flight, refund budget.Cents) {
	sp := fl.span
	if sp == nil || refund <= 0 {
		return
	}
	sp.AddRefund(int64(refund))
	slots := fl.assign - fl.received
	for i := len(fl.extSpans) - 1; i >= 0 && slots > 0; i-- {
		fl.extSpans[i].Annotate("refunded_remainder_cents",
			strconv.FormatInt(fl.hit.RewardCents, 10))
		slots--
	}
	if reg := m.obsRegistry(); reg != nil {
		reg.Counter(obs.MetricRefundCents, obs.L("task", fl.hit.Task)).Add(int64(refund))
	}
}

// traceHITCanceled records a cancellation's refund (traceRefund).
// expired marks full expiry (the span ends and the in-flight gauge
// drops); a shared-HIT detach leaves the span open for the surviving
// participants.
func (m *Manager) traceHITCanceled(fl *flight, refund budget.Cents, expired bool) {
	sp := fl.span
	if sp == nil {
		return
	}
	m.traceRefund(fl, refund)
	if expired {
		sp.Annotate("canceled", "true")
		sp.End()
		if reg := m.obsRegistry(); reg != nil {
			reg.Gauge(obs.MetricInflightHITs).Add(-1)
		}
	}
}
