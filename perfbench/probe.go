package main

import (
	"bufio"
	"bytes"
	"context"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/hit"
	"repro/internal/mturk"
	"repro/internal/obs"
	"repro/internal/relation"
)

// probe gathers the traced phase's per-layer numbers. Every figure is
// either a wall time taken around a call into a layer from this
// package, a count seen by the wrappers around the crowd interfaces the
// engine accepts, or a counter the program already exposes. A nil
// probe (untraced rounds) records nothing.
type probe struct {
	mu sync.Mutex

	queryStartUs []float64
	planHits     int64
	planLookups  int64
	examined     int64 // base-table rows the engine's scans produced
	results      int64

	hists      map[string]*promHist // obs histograms, summed over labels
	refund     int64
	sharedHITs int64
	coBatched  int64
	assigns    int64

	claims, refused int64
	claimNs         int64
	busy, capacity  time.Duration // virtual worker-time busy / available
	oracleCalls     atomic.Int64

	adaptiveHITs, extensions, assignUsed, assignCap int64
	cacheHits, cacheLookups                         int64

	// samples holds layer timings measured by calling a layer's public
	// functions directly (parse, plan, local exec, store replay, the
	// stack-level cascade pass); each metric reports its median.
	samples map[string][]float64
	// stackSpans times the stack-level pass; nil elsewhere.
	stackSpans *selfTimer
}

func newProbe() *probe {
	return &probe{hists: map[string]*promHist{}, samples: map[string][]float64{}}
}

// sample records one direct measurement of a per-layer metric.
func (p *probe) sample(name string, x float64) {
	p.mu.Lock()
	p.samples[name] = append(p.samples[name], x)
	p.mu.Unlock()
}

// newEngine builds an engine from cfg over the simulated crowd. With a
// probe, the crowd is wrapped (pool and oracle) and the engine's
// existing observability layer is switched on.
func (p *probe) newEngine(cfg core.Config, ccfg crowd.Config, oracle crowd.Oracle) (*core.Engine, *poolProbe, error) {
	if p == nil {
		cfg.Oracle = oracle
		cfg.Crowd = ccfg
		eng, err := core.New(cfg)
		return eng, nil, err
	}
	pp := p.wrapPool(ccfg, oracle)
	cfg.Pool = pp
	cfg.Trace = true
	eng, err := core.New(cfg)
	return eng, pp, err
}

// wrapPool builds the simulated crowd behind the timing wrappers.
func (p *probe) wrapPool(ccfg crowd.Config, oracle crowd.Oracle) *poolProbe {
	counted := crowd.OracleFunc(func(task string, args []relation.Value) relation.Value {
		p.oracleCalls.Add(1)
		return oracle.Truth(task, args)
	})
	workers := ccfg.Workers
	if workers <= 0 {
		workers = 100 // crowd.Config's documented default
	}
	return &poolProbe{inner: crowd.NewPool(ccfg, counted), p: p, workers: workers,
		nextFree: map[string]mturk.VirtualTime{}}
}

// runQuery runs one query to the end of its Rows and returns the rows
// and the wall time from the Query call until Rows was exhausted.
func (p *probe) runQuery(eng *core.Engine, sql string, opts ...core.QueryOption) ([]relation.Tuple, time.Duration, error) {
	start := time.Now()
	rows, err := eng.Query(context.Background(), sql, opts...)
	started := time.Since(start)
	if err != nil {
		return nil, started, err
	}
	var out []relation.Tuple
	for rows.Next() {
		out = append(out, rows.Tuple())
	}
	wall := time.Since(start)
	err = rows.Err()
	rows.Close()
	if p != nil {
		scanned := scannedRows(rows.Handle().Exec.OpStats())
		p.mu.Lock()
		p.queryStartUs = append(p.queryStartUs, micros(started))
		p.examined += scanned
		p.results += int64(len(out))
		p.mu.Unlock()
	}
	return out, wall, err
}

// harvest reads the counters a finished engine exposes; call it after
// the engine's last query and before Close. makespan is the virtual
// time the engine's crowd was available for.
func (p *probe) harvest(eng *core.Engine, pp *poolProbe, makespan time.Duration) {
	if p == nil {
		return
	}
	var prom bytes.Buffer
	_ = eng.Metrics().WritePrometheus(&prom) // writes to a buffer cannot fail
	pc := eng.PlanCacheStats()
	sh := eng.Manager().Sharing()
	inf := eng.Manager().InferenceStats()
	cs := eng.Manager().Cache().Stats()
	ms := eng.Marketplace().Stats()

	p.mu.Lock()
	defer p.mu.Unlock()
	p.planHits += pc.Hits
	p.planLookups += pc.Hits + pc.Misses + pc.Invalidations
	p.sharedHITs += sh.SharedHITs
	p.coBatched += sh.CoBatchedItems
	p.adaptiveHITs += inf.AdaptiveHITs
	p.extensions += inf.Extensions
	p.assignUsed += inf.AssignmentsUsed
	p.assignCap += inf.AssignmentsCap
	p.cacheHits += cs.Hits
	p.cacheLookups += cs.Hits + cs.Misses
	p.assigns += int64(ms.AssignmentsCompleted)
	p.refund += scrapeProm(prom.Bytes(), p.hists)
	pp.mu.Lock()
	p.busy += pp.busy
	pp.mu.Unlock()
	p.capacity += time.Duration(pp.workers) * makespan
}

// layerValues folds everything the probe saw into the per-layer
// metrics. Counts are per round; ratios are over the whole phase.
func (p *probe) layerValues(rounds []roundResult) map[string]float64 {
	n := float64(len(rounds))
	v := map[string]float64{
		"core.query_start_us":             quantile(p.queryStartUs, 0.5),
		"core.plancache_hit_ratio":        ratio(p.planHits, p.planLookups),
		"exec.rows_examined_per_result":   ratio(p.examined, p.results),
		"taskmgr.batch_fill":              p.hists[obs.MetricBatchFillRatio].mean(),
		"taskmgr.shared_hits":             float64(p.sharedHITs) / n,
		"taskmgr.cobatched_items":         float64(p.coBatched) / n,
		"taskmgr.admission_wait_vmin_p50": p.hists[obs.MetricAdmissionWait].quantile(0.5),
		"taskmgr.refund_cents":            float64(p.refund) / n,
		"mturk.assignments":               float64(p.assigns) / n,
		"mturk.hit_roundtrip_vmin_p50":    p.hists[obs.MetricHITRoundTrip].quantile(0.5),
		"crowd.claim_us":                  float64(p.claimNs) / 1e3 / float64(max(p.claims, 1)),
		"crowd.claim_refusal_ratio":       ratio(p.refused, p.claims),
		"crowd.oracle_calls":              float64(p.oracleCalls.Load()) / n,
		"infer.extensions_per_hit":        ratio(p.extensions, p.adaptiveHITs),
		"infer.assignments_saved_ratio":   ratio(p.assignCap-p.assignUsed, p.assignCap),
		"cache.hit_ratio":                 ratio(p.cacheHits, p.cacheLookups),
	}
	if p.capacity > 0 {
		v["crowd.busy_frac"] = float64(p.busy) / float64(p.capacity)
	}
	for k, xs := range p.samples {
		v[k] = quantile(xs, 0.5)
	}
	return v
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// poolProbe wraps the simulated crowd as the engine's mturk.WorkerPool.
// It times each Claim and each answer, counts refusals, and rebuilds
// every worker's busy intervals from the claims (a claim reserves its
// worker from max(now, the worker's last finish) until now+Delay).
type poolProbe struct {
	inner   mturk.WorkerPool
	p       *probe
	workers int

	mu       sync.Mutex
	nextFree map[string]mturk.VirtualTime
	busy     time.Duration
}

// Claim implements mturk.WorkerPool.
func (w *poolProbe) Claim(h *hit.HIT, now mturk.VirtualTime) (mturk.Claim, bool) {
	st := w.p.stackSpans
	st.enter()
	start := time.Now()
	c, ok := w.inner.Claim(h, now)
	d := time.Since(start)
	st.exit(spanCrowd)
	w.p.mu.Lock()
	w.p.claims++
	w.p.claimNs += d.Nanoseconds()
	if !ok {
		w.p.refused++
	}
	w.p.mu.Unlock()
	if !ok {
		return c, ok
	}
	finish := now + mturk.VirtualTime(c.Delay)
	w.mu.Lock()
	begin := now
	if nf := w.nextFree[c.WorkerID]; nf > begin {
		begin = nf
	}
	if finish > begin {
		w.busy += (finish - begin).Duration()
	}
	w.nextFree[c.WorkerID] = finish
	w.mu.Unlock()
	answer := c.Answer
	c.Answer = func() (hit.Answers, error) {
		st.enter()
		defer st.exit(spanCrowd)
		return answer()
	}
	return c, ok
}

// Span kinds of the stack-level pass.
const (
	spanSubmit = iota // taskmgr.Manager.Submit
	spanStep          // mturk.Clock.Step
	spanCrowd         // the wrapped crowd: Claim and answers
	spanDone          // the benchmark's own Done callbacks
	nSpanKinds
)

// selfTimer attributes wall time to nested spans on one goroutine: a
// span's self time is its duration minus its child spans'. A nil timer
// is a no-op, so the wrappers can call it unconditionally.
type selfTimer struct {
	stack []selfFrame
	self  [nSpanKinds]time.Duration
	count [nSpanKinds]int64
}

type selfFrame struct {
	start time.Time
	child time.Duration
}

func (s *selfTimer) enter() {
	if s == nil {
		return
	}
	s.stack = append(s.stack, selfFrame{start: time.Now()})
}

func (s *selfTimer) exit(kind int) {
	if s == nil {
		return
	}
	f := s.stack[len(s.stack)-1]
	s.stack = s.stack[:len(s.stack)-1]
	d := time.Since(f.start)
	s.self[kind] += d - f.child
	s.count[kind]++
	if n := len(s.stack); n > 0 {
		s.stack[n-1].child += d
	}
}

// selfUs is the mean self time of one span of the kind, in µs.
func (s *selfTimer) selfUs(kind int) float64 {
	if s.count[kind] == 0 {
		return 0
	}
	return float64(s.self[kind].Nanoseconds()) / 1e3 / float64(s.count[kind])
}

// promHist is one obs histogram family summed over its label sets.
type promHist struct {
	bounds []float64 // finite upper bounds, ascending
	cum    []float64 // cumulative count at each bound
	sum    float64
	count  float64
}

func (h *promHist) mean() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return h.sum / h.count
}

// quantile interpolates inside the bucket holding the q-quantile, as
// Prometheus' histogram_quantile does.
func (h *promHist) quantile(q float64) float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	target := q * h.count
	prevBound, prevCum := 0.0, 0.0
	for i, b := range h.bounds {
		if h.cum[i] >= target {
			if h.cum[i] == prevCum {
				return b
			}
			return prevBound + (b-prevBound)*(target-prevCum)/(h.cum[i]-prevCum)
		}
		prevBound, prevCum = b, h.cum[i]
	}
	return prevBound
}

// scrapeProm folds one registry's Prometheus text exposition into hists
// and returns its refund counter total.
func scrapeProm(text []byte, hists map[string]*promHist) int64 {
	var refund int64
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		series, valText := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valText, 64)
		if err != nil {
			continue
		}
		name, labels, _ := strings.Cut(series, "{")
		switch {
		case name == obs.MetricRefundCents:
			refund += int64(val)
		case strings.HasSuffix(name, "_bucket"):
			h := histFor(hists, strings.TrimSuffix(name, "_bucket"))
			le := labelValue(labels, "le")
			if le == "+Inf" {
				continue // equals _count, added below
			}
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil {
				continue
			}
			i := 0
			for i < len(h.bounds) && h.bounds[i] < bound {
				i++
			}
			if i == len(h.bounds) || h.bounds[i] != bound {
				h.bounds = append(h.bounds[:i], append([]float64{bound}, h.bounds[i:]...)...)
				h.cum = append(h.cum[:i], append([]float64{0}, h.cum[i:]...)...)
			}
			h.cum[i] += val
		case strings.HasSuffix(name, "_sum"):
			histFor(hists, strings.TrimSuffix(name, "_sum")).sum += val
		case strings.HasSuffix(name, "_count"):
			histFor(hists, strings.TrimSuffix(name, "_count")).count += val
		}
	}
	return refund
}

func histFor(hists map[string]*promHist, name string) *promHist {
	h := hists[name]
	if h == nil {
		h = &promHist{}
		hists[name] = h
	}
	return h
}

// labelValue extracts key's value from a rendered label set
// (`a="x",le="0.5"}`).
func labelValue(labels, key string) string {
	i := strings.Index(labels, key+`="`)
	if i < 0 {
		return ""
	}
	rest := labels[i+len(key)+2:]
	if j := strings.IndexByte(rest, '"'); j >= 0 {
		return rest[:j]
	}
	return ""
}
