package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"time"

	"ioagent/internal/eval"
	"ioagent/internal/fleet"
	"ioagent/internal/llm"
)

// counters is a cluster-wide reading taken at both ends of the timed
// phase; the difference is what the phase did.
type counters struct {
	at       time.Time
	cpu      time.Duration
	snaps    []fleet.Snapshot
	spendUSD float64
	tokens   int64
	alloc    uint64
	gcCPU    float64
	totalCPU float64
	journal  int64
	inserts  int64
	appends  int64
	pushed   int64
	pushErrs int64
	received int64
	misses   int64
	simTime  time.Duration
}

func (e *env) read() counters {
	c := counters{at: time.Now(), cpu: cpuTime(), snaps: e.cluster.snapshots()}
	for _, n := range e.cluster.nodes {
		for _, st := range n.pool.StatsByModel() {
			c.spendUSD += st.CostUSD
			c.tokens += int64(st.Usage.Total())
		}
		hm := n.mgr.Metrics()
		c.pushed += hm.ReplicaPushed
		c.pushErrs += hm.PushErrors
		c.received += hm.ReplicaReceived
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.alloc = ms.TotalAlloc
	samples := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU = samples[0].Value.Float64()
		c.totalCPU = samples[1].Value.Float64()
	}
	c.journal = e.cluster.journalBytes()
	c.inserts = e.obs.inserts.Load()
	c.appends = e.obs.journalAppends.Load()
	c.misses, c.simTime = e.replay.missCounters()
	return c
}

// sum adds a per-node counter over the snapshots.
func sum(snaps []fleet.Snapshot, f func(fleet.Snapshot) int64) int64 {
	var t int64
	for _, s := range snaps {
		t += f(s)
	}
	return t
}

// latWindow is the stretch of arrivals each bounded latency percentile
// is taken over before the median across stretches.
const latWindow = 4 * time.Second

// maxSimShare bounds the live simulator's share of the timed phase's CPU.
const maxSimShare = 0.02

// phase is what the timed phase observed.
type phase struct {
	results      []result
	late         []float64
	before       counters
	after        counters
	t0           time.Time
	backlogStart float64
	backlogEnd   float64
	rssPeakMB    float64
}

// timedPhase runs the workload's measured traffic.
func (e *env) timedPhase(o options) *phase {
	ctx := context.Background()
	e.obs.reset()
	// Start from a collected heap returned to the OS, so set-up garbage is
	// billed neither to the phase's CPU nor to its resident memory.
	debug.FreeOSMemory()
	ph := &phase{}
	ph.before = e.read()
	if e.tr != nil {
		e.tr.setOn(true)
	}
	dur := time.Duration(o.seconds) * time.Second
	ph.t0 = time.Now()
	sampler := e.cluster.sampleWindow(100*time.Millisecond, dur)
	if e.plan.timed != nil {
		ph.results, ph.late = e.cluster.runOpen(ctx, e.plan.timed, ph.t0)
	} else {
		ph.results = e.cluster.runClosed(ctx, e.plan.closed, o.seed, runtime.NumCPU(), dur)
	}
	ph.backlogStart, ph.backlogEnd = sampler.finish()
	ph.rssPeakMB = sampler.rssMax
	ph.after = e.read()
	if e.plan.timed != nil {
		e.cluster.fetchAll(ctx, ph.results, runtime.NumCPU())
	}
	if e.tr != nil {
		for _, r := range ph.results {
			e.traceRequest(r)
		}
		e.tr.setOn(false)
	}
	return ph
}

// traceRequest records a finished request's spans: the request itself
// (due to server-side finish), the client call, and the queue and run
// intervals from the job's timestamps.
func (e *env) traceRequest(r result) {
	if r.err != nil {
		return
	}
	id := r.info.ID
	e.tr.add(span{Name: "request", Layer: "request", Req: id, Start: r.due, End: r.info.FinishedAt})
	name, layer := "http.submit", "http"
	if r.req.chunked {
		name, layer = "upload.chunked", "upload"
	}
	e.tr.add(span{Name: name, Layer: layer, Req: id, Parent: "request", Start: r.sent, End: r.sent.Add(r.submitDur)})
	if !r.info.StartedAt.IsZero() {
		e.tr.add(span{Name: "sched.queue", Layer: "sched", Req: id, Parent: "request", Start: r.info.SubmittedAt, End: r.info.StartedAt})
		e.tr.add(span{Name: "pool.run", Layer: "pool", Req: id, Parent: "request", Start: r.info.StartedAt, End: r.info.FinishedAt})
	}
}

// report is a run's metrics and verdict.
type report struct {
	e2e       map[string]metric
	extra     map[string]metric
	layers    map[string]metric
	table     []layerRow
	failures  []string
	attempted int
	failed    int
}

func (rep *report) fail(format string, args ...any) {
	rep.failures = append(rep.failures, fmt.Sprintf(format, args...))
}

// evaluate computes the metrics and runs every correctness check.
func (e *env) evaluate(w *workload, o options, ph *phase) *report {
	rep := &report{e2e: map[string]metric{}, extra: map[string]metric{}, layers: map[string]metric{}}
	rep.attempted = len(ph.results)
	var lat, goldLat []float64
	var byDue []result
	var lastFinish time.Time
	met, empty := 0, 0
	for _, r := range ph.results {
		if r.err != nil {
			rep.failed++
			if rep.failed <= 5 {
				rep.fail("%v", r.err)
			}
			continue
		}
		e.noteModality(r)
		l := ms(r.latency())
		lat = append(lat, l)
		byDue = append(byDue, r)
		if r.req.tenant == "gold" {
			goldLat = append(goldLat, l)
		}
		if r.latency() <= w.limit {
			met++
		}
		if r.info.FinishedAt.After(lastFinish) {
			lastFinish = r.info.FinishedAt
		}
		if !nonEmptyReport(r.text) {
			empty++
		}
	}
	if empty > 0 {
		rep.fail("%d diagnoses do not parse to a non-empty report", empty)
	}
	if rep.failed > 5 {
		rep.fail("%d more failed requests", rep.failed-5)
	}
	completed := float64(len(lat))
	b, a := ph.before, ph.after
	window := a.at.Sub(ph.t0)
	if e.plan.timed != nil && !lastFinish.IsZero() {
		window = lastFinish.Sub(ph.t0)
	}
	rep.e2e["req_per_s"] = metric{ratio(completed, window.Seconds()), "1/s"}
	// The bounded percentiles are medians over latWindow-long stretches
	// of arrivals (see windowedPercentile); p99 needs the whole run.
	sort.SliceStable(byDue, func(i, j int) bool { return byDue[i].due.Before(byDue[j].due) })
	arrival := make([]float64, len(byDue))
	for i, r := range byDue {
		arrival[i] = ms(r.latency())
	}
	windows := int(time.Duration(o.seconds) * time.Second / latWindow)
	if p50, err := windowedPercentile(arrival, 0.50, windows); err == nil {
		rep.e2e["latency_p50_ms"] = metric{p50, "ms"}
	} else {
		rep.fail("latency_p50_ms: %v", err)
	}
	if p95, err := windowedPercentile(arrival, 0.95, windows); err == nil {
		rep.e2e["latency_p95_ms"] = metric{p95, "ms"}
	} else {
		rep.fail("latency_p95_ms: %v", err)
	}
	if p99, err := percentile(lat, 0.99); err == nil {
		rep.extra["latency_p99_ms"] = metric{p99, "ms"}
	} else {
		rep.fail("latency_p99_ms: %v", err)
	}
	rep.e2e["slo_met_frac"] = metric{ratio(float64(met), float64(rep.attempted)), "frac"}
	rep.e2e["cpu_ms_per_req"] = metric{ratio(ms(a.cpu-b.cpu), completed), "ms"}
	rep.e2e["rss_peak_mb"] = metric{ph.rssPeakMB, "MB"}
	rep.e2e["quality_score"] = metric{e.quality(rep, ph.results, w.name == "cold-diagnose"), "score"}

	rep.extra["error_frac"] = metric{ratio(float64(rep.failed), float64(rep.attempted)), "frac"}
	rep.extra["usd_per_req"] = metric{ratio(a.spendUSD-b.spendUSD, float64(rep.attempted)), "USD"}
	if len(goldLat) > 0 {
		if p95, err := percentile(goldLat, 0.95); err == nil {
			rep.extra["gold_latency_p95_ms"] = metric{p95, "ms"}
		} else {
			rep.fail("gold_latency_p95_ms: %v", err)
		}
	}

	submitted := sum(a.snaps, func(s fleet.Snapshot) int64 { return s.Submitted }) - sum(b.snaps, func(s fleet.Snapshot) int64 { return s.Submitted })
	exact := sum(a.snaps, func(s fleet.Snapshot) int64 { return s.CacheHits + s.Coalesced }) - sum(b.snaps, func(s fleet.Snapshot) int64 { return s.CacheHits + s.Coalesced })
	exactRatio := ratio(float64(exact), float64(submitted))

	// Open-loop validity: a backlog that grew over the window means the
	// offered rate was above capacity and the latencies describe a queue
	// that had not reached steady state. The margin of one job per worker
	// slot absorbs a Poisson burst caught at the window's edge.
	if e.plan.timed != nil && ph.backlogEnd > ph.backlogStart+float64(2*nodeWorkers) {
		rep.fail("invalid open-loop run: queued backlog grew from %.1f to %.1f over the window", ph.backlogStart, ph.backlogEnd)
	}

	// The replay client must keep the simulator out of the timed phase:
	// prompts it did not record fall through to the live simulator, and
	// past maxSimShare of the phase's CPU the run would be measuring the
	// harness.
	if sim, cpu := a.simTime-b.simTime, a.cpu-b.cpu; float64(sim) > maxSimShare*float64(cpu) {
		rep.fail("replay misses cost %.1f ms of live simulation, over %.0f%% of the phase's %.0f ms CPU", ms(sim), 100*maxSimShare, ms(cpu))
	}

	switch w.name {
	case "warm-resubmit":
		for _, r := range ph.results {
			if r.err == nil && r.text != e.primed[r.info.Digest] {
				rep.fail("job %s: served text differs from set-up's diagnosis of %s", r.info.ID, r.info.Digest)
				break
			}
		}
		if exactRatio != 1 {
			rep.fail("cache.exact_hit_ratio = %g, want 1", exactRatio)
		}
	case "cold-diagnose":
		if rep.failed > 0 {
			rep.fail("%d cold jobs failed", rep.failed)
		}
		if exact != 0 {
			rep.fail("cache.exact_hit_ratio = %g, want 0 (every cold digest is new)", exactRatio)
		}
	case "neardup-tenants":
		for _, r := range ph.results {
			if r.err != nil || !r.info.SimilarityHit {
				continue
			}
			e.mu.Lock()
			src, ok := e.modality[r.info.SourceDigest]
			e.mu.Unlock()
			if !ok || src != r.req.sub.T.modality() {
				rep.fail("job %s (%s) was served %q's diagnosis across the modality fence", r.info.ID, r.req.sub.T.modality(), src)
				break
			}
		}
	}
	if o.trace {
		e.layerMetrics(rep, ph, submitted, exactRatio, completed)
	}
	return rep
}

// quality scores one served diagnosis per curated profile against its
// labels, after timing, with a live simulator judge. With baselines set,
// scenario-matrix profiles must also meet their committed baselines.
func (e *env) quality(rep *report, results []result, baselines bool) float64 {
	scorer := llm.NewSim()
	seen := map[*template]bool{}
	var scores []float64
	for _, r := range results {
		t := r.req.sub.T
		if r.err != nil || t.Labels == nil || seen[t] {
			continue
		}
		seen[t] = true
		s, err := eval.ScoreDiagnosis(scorer, "", t.Labels, r.text)
		if err != nil {
			rep.fail("score %s: %v", t.Name, err)
			continue
		}
		scores = append(scores, s)
		if baselines && t.Baseline > 0 && s < t.Baseline {
			rep.fail("scenario %s scored %.3f, below its committed baseline %.2f", t.Name, s, t.Baseline)
		}
	}
	return mean(scores)
}
