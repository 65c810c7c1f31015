package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// minRounds keeps medians meaningful however short -seconds is.
const minRounds = 3

// scenario is one benchmark workload. Its inputs are fixed by the seed
// when it is built; round r is a self-contained instance (fresh
// engines, the workload's queries, output checks) whose inputs depend
// only on the seed and r, so the untraced and traced phases of a run
// replay identical rounds.
type scenario interface {
	sizes() map[string]int
	// round runs instance r. p is nil on untraced rounds. An error
	// means the benchmark itself could not run; failed queries and
	// failed output checks are counted in the result instead.
	round(r int, p *probe) (roundResult, error)
}

// roundResult is what one round measured.
type roundResult struct {
	setup     time.Duration // engine construction + Register + Define (+ replay)
	wall      time.Duration // the timed phase: query wall time
	tuples    int           // input tuples the queries processed
	queryMs   []float64     // wall time per query, Query call to Rows exhausted
	hits      int64
	cents     int64
	vmin      float64 // virtual minutes until the last result
	f1        f1Count
	attempted int
	failed    int
	rt        runtimeCounters // over the query phase only
	ref       time.Duration   // the reference kernel, timed just before the round
}

// f1Count accumulates returned keys against ground truth.
type f1Count struct{ tp, fp, fn int }

func (c *f1Count) add(o f1Count) { c.tp += o.tp; c.fp += o.fp; c.fn += o.fn }

// compare scores one query's returned keys against its true keys.
func (c *f1Count) compare(got, want []string) {
	w := make(map[string]bool, len(want))
	for _, k := range want {
		w[k] = true
	}
	for _, k := range got {
		if w[k] {
			c.tp++
			delete(w, k)
		} else {
			c.fp++
		}
	}
	c.fn += len(w)
}

func (c f1Count) value() float64 {
	if c.tp+c.fp+c.fn == 0 {
		return 1
	}
	return 2 * float64(c.tp) / float64(2*c.tp+c.fp+c.fn)
}

// runtimeCounters holds the Go runtime's own counters: a snapshot from
// sampleRuntime, or the change over a round's query phases.
type runtimeCounters struct {
	cpu      time.Duration // getrusage user+system
	gcCPU    float64
	totalCPU float64
	allocs   uint64
	sched    *metrics.Float64Histogram
}

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/sched/latencies:seconds",
}

func sampleRuntime() runtimeCounters {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeCounters{
		cpu:      cpuTime(),
		gcCPU:    s[0].Value.Float64(),
		totalCPU: s[1].Value.Float64(),
		allocs:   s[2].Value.Uint64(),
		sched:    s[3].Value.Float64Histogram(),
	}
}

// measure runs f, a round's query phase (Engine.Query calls until their
// Rows are exhausted, nothing else), and adds the counters' change over
// it to c. Input generation, output checks and the GC between rounds
// stay outside the window.
func (c *runtimeCounters) measure(f func()) {
	a := sampleRuntime()
	f()
	b := sampleRuntime()
	c.add(runtimeCounters{
		cpu:      b.cpu - a.cpu,
		gcCPU:    b.gcCPU - a.gcCPU,
		totalCPU: b.totalCPU - a.totalCPU,
		allocs:   b.allocs - a.allocs,
		sched:    &metrics.Float64Histogram{Buckets: b.sched.Buckets, Counts: subCounts(b.sched.Counts, a.sched.Counts)},
	})
}

// add sums the change d into c.
func (c *runtimeCounters) add(d runtimeCounters) {
	c.cpu += d.cpu
	c.gcCPU += d.gcCPU
	c.totalCPU += d.totalCPU
	c.allocs += d.allocs
	if d.sched == nil {
		return
	}
	if c.sched == nil {
		c.sched = &metrics.Float64Histogram{Buckets: d.sched.Buckets, Counts: make([]uint64, len(d.sched.Counts))}
	}
	for i, n := range d.sched.Counts {
		c.sched.Counts[i] += n
	}
}

func subCounts(b, a []uint64) []uint64 {
	out := make([]uint64, len(b))
	for i := range b {
		out[i] = b[i] - a[i]
	}
	return out
}

// phase runs rounds for the given seconds (at least minRounds).
func phase(w scenario, seconds float64, p *probe) ([]roundResult, error) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var rounds []roundResult
	runtime.GC()
	for r := 0; r < minRounds || time.Now().Before(deadline); r++ {
		ref := referenceKernel()
		rr, err := w.round(r, p)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		rr.ref = ref
		rounds = append(rounds, rr)
		// Collect the finished round's garbage outside the timed work so
		// one round's heap does not tax the next one's timings.
		runtime.GC()
	}
	return rounds, nil
}

type report struct {
	res    result
	detail map[string]any
}

// measureWorkload runs the untraced phase and, with -trace 1, the
// traced phase over the same rounds. With -trace 1 the two phases share
// the run's seconds, so a run lasts as long in either mode.
func measureWorkload(w scenario, o options) (report, error) {
	seconds := o.seconds
	if o.trace {
		seconds /= 2
	}
	rounds, err := phase(w, seconds, nil)
	if err != nil {
		return report{}, err
	}
	rep := report{res: result{Correct: true, Metrics: map[string]metricValue{}}, detail: map[string]any{}}
	for _, r := range rounds {
		rep.res.Attempted += r.attempted
		rep.res.Failed += r.failed
	}
	e2e := endToEndValues(rounds)
	rep.detail["rounds"] = len(rounds)
	rep.detail["query_samples"] = e2e.querySamples
	rep.detail["all_rounds"] = e2e.all
	rep.detail["unscaled"] = e2e.unscaled
	rep.detail["reference_ms"] = e2e.refMs
	rep.detail["range"] = e2e.ranges
	if !o.trace {
		for _, m := range endToEnd {
			rep.res.Metrics[m.name] = metricValue{Value: e2e.values[m.name], Unit: m.unit}
		}
		rep.res.Correct = rep.res.Failed == 0
		return rep, nil
	}

	p := newProbe()
	traced, err := phase(w, seconds, p)
	if err != nil {
		return report{}, err
	}
	for _, r := range traced {
		rep.res.Attempted += r.attempted
		rep.res.Failed += r.failed
	}
	tr := endToEndValues(traced)
	inert := map[string]any{}
	rep.res.Correct = rep.res.Failed == 0
	for _, name := range []string{"hits", "spent_cents", "f1"} {
		u, t := e2e.values[name], tr.values[name]
		bound := boundOf(name)
		ok := math.Abs(t-u) <= bound*u
		inert[name] = map[string]any{"untraced": u, "traced": t, "bound": bound, "ok": ok}
		if !ok {
			rep.res.Correct = false
		}
	}
	rep.detail["trace_inert"] = inert
	rep.detail["traced_rounds"] = len(traced)

	vals := p.layerValues(traced)
	vals["bench.trace_overhead_frac"] = e2e.values["tuples_per_s"]/tr.values["tuples_per_s"] - 1
	var rt runtimeCounters
	for _, r := range rounds {
		rt.add(r.rt)
	}
	for k, v := range runtimeValues(rt, len(rounds), e2e.tuples) {
		vals[k] = v
	}
	for _, m := range perLayer {
		rep.res.Metrics[m.name] = metricValue{Value: vals[m.name], Unit: m.unit}
	}
	return rep, nil
}

func boundOf(name string) float64 {
	for _, m := range endToEnd {
		if m.name == name {
			return m.bound
		}
	}
	return 0
}

type e2eValues struct {
	values map[string]float64
	ranges map[string][2]float64
	// querySamples counts the queries the percentiles are taken over.
	// unscaled holds the wall-time metrics before the host-speed scaling,
	// all the same over every round instead of the quiet ones, and refMs
	// the reference kernel's times the scaling used.
	querySamples int
	unscaled     map[string]float64
	all          map[string]float64
	refMs        map[string]float64
	tuples       int
}

// quietRounds returns the fastest quarter of the rounds (at least one),
// ranked by query wall time per input tuple. Other load on a shared
// host only ever slows a round down, and it comes and goes within a
// run, so the fastest rounds measure the program rather than its
// neighbours. Every round of a run has inputs of the same size, so no
// round is fast for doing less work.
func quietRounds(rounds []roundResult) []roundResult {
	s := append([]roundResult(nil), rounds...)
	perTuple := func(r roundResult) float64 { return r.wall.Seconds() / float64(max(r.tuples, 1)) }
	sort.SliceStable(s, func(i, j int) bool { return perTuple(s[i]) < perTuple(s[j]) })
	return s[:(len(s)+3)/4]
}

// endToEndValues folds rounds into the end-to-end metrics. Throughput
// and the query percentiles come from the quiet rounds: throughput as
// the median over those rounds, the percentiles over all their queries.
// They are scaled to refNominal by the reference kernel's time taken
// the same way, the median of its fastest quarter. setup_s is the
// median over every round, scaled by the kernel's median over every
// round. The crowd-cost metrics are medians over every round, and f1
// pools every round.
func endToEndValues(rounds []roundResult) e2eValues {
	var setup, hits, cents, vmin, queryMs, allRate, refs []float64
	var f1 f1Count
	tuples := 0
	for _, r := range rounds {
		setup = append(setup, r.setup.Seconds())
		hits = append(hits, float64(r.hits))
		cents = append(cents, float64(r.cents))
		vmin = append(vmin, r.vmin)
		queryMs = append(queryMs, r.queryMs...)
		allRate = append(allRate, float64(r.tuples)/r.wall.Seconds())
		refs = append(refs, ms(r.ref))
		tuples += r.tuples
		f1.add(r.f1)
	}
	var rate, quietMs []float64
	for _, r := range quietRounds(rounds) {
		rate = append(rate, float64(r.tuples)/r.wall.Seconds())
		quietMs = append(quietMs, r.queryMs...)
	}
	sort.Float64s(refs)
	refQuiet, refAll := quantile(refs[:(len(refs)+3)/4], 0.5), quantile(refs, 0.5)
	// slow is how many times slower than at refNominal the host ran.
	slowQuiet, slowAll := refQuiet/ms(refNominal), refAll/ms(refNominal)
	unscaled := map[string]float64{
		"setup_s":      quantile(setup, 0.5),
		"tuples_per_s": quantile(rate, 0.5),
		"query_ms_p50": quantile(quietMs, 0.5),
		"query_ms_p90": quantile(quietMs, 0.9),
	}
	return e2eValues{
		values: map[string]float64{
			"setup_s":       unscaled["setup_s"] / slowAll,
			"tuples_per_s":  unscaled["tuples_per_s"] * slowQuiet,
			"query_ms_p50":  unscaled["query_ms_p50"] / slowQuiet,
			"query_ms_p90":  unscaled["query_ms_p90"] / slowQuiet,
			"spent_cents":   quantile(cents, 0.5),
			"hits":          quantile(hits, 0.5),
			"vmin_makespan": quantile(vmin, 0.5),
			"f1":            f1.value(),
			"peak_rss_mb":   peakRSSMB(),
		},
		// Cross-round spread of the crowd-cost figures: the clock race
		// shows up here, so it is reported rather than hidden.
		ranges: map[string][2]float64{
			"hits":          {minOf(hits), maxOf(hits)},
			"spent_cents":   {minOf(cents), maxOf(cents)},
			"vmin_makespan": {minOf(vmin), maxOf(vmin)},
		},
		querySamples: len(quietMs),
		unscaled:     unscaled,
		all: map[string]float64{
			"tuples_per_s": quantile(allRate, 0.5),
			"query_ms_p50": quantile(queryMs, 0.5),
			"query_ms_p90": quantile(queryMs, 0.9),
		},
		refMs:  map[string]float64{"quiet": refQuiet, "all": refAll, "nominal": ms(refNominal)},
		tuples: tuples,
	}
}

// runtimeValues derives the runtime layer's metrics from the counters'
// change over the untraced rounds' query phases. runtime/metrics updates
// its CPU classes only when a GC cycle ends, so gc_cpu_frac covers the
// cycles that ended inside those phases.
func runtimeValues(d runtimeCounters, rounds, tuples int) map[string]float64 {
	out := map[string]float64{
		"runtime.cpu_s":                 d.cpu.Seconds() / float64(rounds),
		"runtime.alloc_bytes_per_tuple": float64(d.allocs) / float64(max(tuples, 1)),
		"runtime.sched_latency_us_p90":  histFromRuntime(d.sched).quantile(0.9) * 1e6,
	}
	if d.totalCPU > 0 {
		out["runtime.gc_cpu_frac"] = d.gcCPU / d.totalCPU
	}
	return out
}

// histFromRuntime puts a runtime/metrics histogram in promHist form, so
// one interpolator serves both.
func histFromRuntime(h *metrics.Float64Histogram) *promHist {
	if h == nil {
		return nil
	}
	out := &promHist{}
	for i, n := range h.Counts {
		out.count += float64(n)
		if hi := h.Buckets[i+1]; !math.IsInf(hi, 1) {
			out.bounds = append(out.bounds, hi)
			out.cum = append(out.cum, out.count)
		}
	}
	return out
}

// quantile interpolates linearly between closest ranks; 0 for no data.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (s[i+1]-s[i])*(pos-float64(i))
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}
