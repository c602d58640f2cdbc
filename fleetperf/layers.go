package main

import (
	"bytes"
	"math"
	"runtime"
	"sort"
	"time"

	"ioagent/internal/darshan"
	"ioagent/internal/fleet"
	"ioagent/internal/fleet/client"
	"ioagent/internal/fleet/semcache"
	"ioagent/internal/ioagent"
	"ioagent/internal/llm"
)

// quantile is the nearest-rank q-quantile of xs, 0 for no samples. Unlike
// percentile it does not enforce the samples-beyond rule: per-layer
// numbers describe where time went, they are not bounded results.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tasks are the LLM call kinds, by the prompt's TASK line.
var tasks = []string{"describe", "filter", "diagnose", "merge", "rank"}

// layerMetrics fills the per-layer metrics of a traced run: spans and
// counter deltas from the timed phase, then timed calls into the layers'
// public functions on the workload's own wires after it.
func (e *env) layerMetrics(rep *report, ph *phase, submitted int64, exactRatio, completed float64) {
	b, a := ph.before, ph.after
	L := rep.layers
	put := func(name string, v float64, unit string) { L[name] = metric{v, unit} }
	delta := func(f func(fleet.Snapshot) int64) float64 {
		return float64(sum(a.snaps, f) - sum(b.snaps, f))
	}
	attempted := float64(rep.attempted)
	spans := e.tr.snapshot()
	durs := map[string][]float64{}
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], ms(s.dur()))
	}

	// router + client
	var maxNode float64
	for i := range a.snaps {
		if d := float64(a.snaps[i].Submitted - b.snaps[i].Submitted); d > maxNode {
			maxNode = d
		}
	}
	put("route.max_node_share", ratio(maxNode, float64(submitted)), "frac")

	// server, ingest, HTTP
	put("http.submit_ms_p50", quantile(durs["http.submit"], 0.50), "ms")
	put("http.submit_ms_p99", quantile(durs["http.submit"], 0.99), "ms")
	put("upload.chunked_ms_p50", quantile(durs["upload.chunked"], 0.50), "ms")

	// scheduler
	var wait, goldWait, run []float64
	for _, r := range ph.results {
		if r.err != nil || r.info.StartedAt.IsZero() {
			continue
		}
		w := ms(r.info.StartedAt.Sub(r.info.SubmittedAt))
		wait = append(wait, w)
		if r.req.tenant == "gold" {
			goldWait = append(goldWait, w)
		}
		run = append(run, ms(r.info.FinishedAt.Sub(r.info.StartedAt)))
	}
	put("sched.wait_ms_p50", quantile(wait, 0.50), "ms")
	put("sched.wait_ms_p99", quantile(wait, 0.99), "ms")
	put("sched.gold_wait_ms_p95", quantile(goldWait, 0.95), "ms")
	put("sched.share_error", shareError(b.snaps, a.snaps), "frac")

	// pool and cache
	put("pool.run_ms_p50", quantile(run, 0.50), "ms")
	put("pool.run_ms_p99", quantile(run, 0.99), "ms")
	put("cache.exact_hit_ratio", exactRatio, "ratio")
	put("pool.coalesced", delta(func(s fleet.Snapshot) int64 { return s.Coalesced }), "count")
	put("pool.retries", delta(func(s fleet.Snapshot) int64 { return s.Retries }), "count")

	// semantic cache and tiers
	semHits := delta(func(s fleet.Snapshot) int64 { return s.SemHits })
	semRejects := delta(func(s fleet.Snapshot) int64 { return s.SemGateRejects })
	semAll := semHits + semRejects + delta(func(s fleet.Snapshot) int64 { return s.SemMisses })
	put("semcache.hit_ratio", ratio(semHits, semAll), "ratio")
	put("semcache.gate_reject_ratio", ratio(semRejects, semAll), "ratio")
	firstRung := delta(func(s fleet.Snapshot) int64 { return s.Tiers[llm.GPT4oMini].Jobs })
	put("tier.escalation_ratio", ratio(delta(func(s fleet.Snapshot) int64 { return s.TierEscalations }), firstRung), "ratio")
	put("llm.judge_calls_per_req", ratio(float64(len(durs["llm.rank"])), attempted), "count")

	// agent: jobs that ran the pipeline (misses not served by reuse)
	diags := delta(func(s fleet.Snapshot) int64 { return s.CacheMisses }) - semHits
	for _, t := range tasks[:4] {
		put("llm.calls_per_diag."+t, ratio(float64(len(durs["llm."+t])), diags), "count")
	}
	var calls int
	for _, t := range tasks {
		put("llm."+t+".ms_p50", quantile(durs["llm."+t], 0.50), "ms")
		calls += len(durs["llm."+t])
	}
	put("llm.calls", float64(calls), "count")
	put("llm.tokens_per_req", ratio(float64(a.tokens-b.tokens), attempted), "count")

	// knowledge plane
	put("retrieve.ms_p50", quantile(durs["retrieve"], 0.50), "ms")
	put("retrieve.ms_p99", quantile(durs["retrieve"], 0.99), "ms")
	put("retrieve.calls_per_diag", ratio(float64(len(durs["retrieve"])), diags), "count")

	// journal
	put("journal.appends", float64(a.appends-b.appends), "count")
	put("journal.append_ms_p50", quantile(durs["journal.append"], 0.50), "ms")
	put("journal.append_ms_p99", quantile(durs["journal.append"], 0.99), "ms")
	put("journal.bytes_per_submit", ratio(float64(a.journal-b.journal), attempted), "B")

	// roster replication
	fresh := float64((a.inserts - b.inserts) - (a.received - b.received))
	put("replica.pushed_per_insert", ratio(float64(a.pushed-b.pushed), fresh), "ratio")
	put("replica.push_errors", float64(a.pushErrs-b.pushErrs), "count")

	// LLM harness
	put("llm.replay_misses", float64(a.misses-b.misses), "count")
	put("llm.replay_misses_setup", float64(e.setupMisses), "count")
	put("llm.sim_ms", ms(a.simTime-b.simTime), "ms")

	// process
	cpu := a.cpu - b.cpu
	put("go.alloc_mb_per_req", ratio(float64(a.alloc-b.alloc)/(1<<20), completed), "MB")
	put("go.gc_cpu_frac", ratio(a.gcCPU-b.gcCPU, a.totalCPU-b.totalCPU), "frac")
	put("gen.late_ms_p99", quantile(ph.late, 0.99), "ms")
	put("tracing.overhead_frac", ratio(float64(len(spans))*float64(spanCost()), float64(cpu)), "frac")

	// end-to-end numbers some workloads lack, reported here for all
	for name, m := range rep.extra {
		L[name] = m
	}
	if _, ok := L["gold_latency_p95_ms"]; !ok {
		put("gold_latency_p95_ms", 0, "ms")
	}

	e.microLayers(put)
	rep.table = layerTable(spans)
}

// shareError is the mean absolute difference between each tenant's
// realized share of the phase's dequeues and its configured weight's
// share. DRR converges to the weights only while every tenant is
// backlogged, so under light load the realized shares follow the
// arrival mix instead.
func shareError(before, after []fleet.Snapshot) float64 {
	deq := map[string]float64{}
	weight := map[string]float64{}
	for i := range after {
		for t, tm := range after[i].Sched.Tenants {
			d := float64(tm.Dequeues - before[i].Sched.Tenants[t].Dequeues)
			if d > 0 && t != "setup" {
				deq[t] += d
				weight[t] = float64(tm.Weight)
			}
		}
	}
	var dsum, wsum float64
	for t := range deq {
		dsum += deq[t]
		wsum += weight[t]
	}
	if dsum == 0 || wsum == 0 {
		return 0
	}
	var errSum float64
	for t := range deq {
		errSum += math.Abs(deq[t]/dsum - weight[t]/wsum)
	}
	return errSum / float64(len(deq))
}

// microLayers times the layers' public functions on the workload's own
// wires: the router's route key, the daemon's ingest parser, the content
// digest, the journal's encoder, the semantic features and the agent's
// pre-processor.
func (e *env) microLayers(put func(string, float64, string)) {
	subs := e.sampleSubs(48)
	var totalMB float64
	for _, s := range subs {
		totalMB += float64(len(s.Wire)) / (1 << 20)
	}
	logs := make([]*darshan.Log, len(subs))
	for i, s := range subs {
		logs[i], _, _ = parseWire(s.Wire) // the same wires parsed in the timed phase
	}

	put("route.key_ms_per_mb", ratio(ms(repeat(func() {
		for _, s := range subs {
			client.RouteKey(s.Wire)
		}
	})), totalMB), "ms/MB")

	put("digest.content_ms_per_mb", ratio(ms(repeat(func() {
		for _, l := range logs {
			_, _ = darshan.ContentDigest(l)
		}
	})), totalMB), "ms/MB")

	// Parsing per wire form. Finish also computes the content digest, so
	// the digest time of the same logs is taken out.
	var allocs, parseMB float64
	for _, form := range []string{formBinary, formText, formDXT} {
		var set []submission
		var setLogs []*darshan.Log
		var mb float64
		for i, s := range subs {
			if s.Form == form {
				set = append(set, s)
				setLogs = append(setLogs, logs[i])
				mb += float64(len(s.Wire)) / (1 << 20)
			}
		}
		if len(set) == 0 {
			put("ingest.parse_ms_per_mb."+form, 0, "ms/MB")
			continue
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		d := repeatN(func() {
			for _, s := range set {
				_, _, _ = parseWire(s.Wire)
			}
		})
		runtime.ReadMemStats(&m1)
		allocs += float64(m1.Mallocs-m0.Mallocs) / float64(d.n)
		parseMB += mb
		digest := repeat(func() {
			for _, l := range setLogs {
				_, _ = darshan.ContentDigest(l)
			}
		})
		parse := d.per - digest
		if parse < 0 {
			parse = 0
		}
		put("ingest.parse_ms_per_mb."+form, ratio(ms(parse), mb), "ms/MB")
	}
	put("ingest.allocs_per_mb", ratio(allocs, parseMB), "count")

	var encMB float64
	enc := repeat(func() {
		encMB = 0
		for _, l := range logs {
			var buf bytes.Buffer
			_ = darshan.Encode(&buf, l.ShallowClone())
			encMB += float64(buf.Len()) / (1 << 20)
		}
	})
	put("journal.encode_ms_per_mb", ratio(ms(enc), encMB), "ms/MB")

	feat := repeat(func() {
		for _, l := range logs {
			semcache.FeatureText(l)
		}
	})
	put("semcache.features_ms", ratio(ms(feat), float64(len(logs))), "ms")

	var frags int
	sum := repeat(func() {
		frags = 0
		for _, l := range logs {
			frags += len(ioagent.Summarize(l))
		}
	})
	put("agent.summarize_ms", ratio(ms(sum), float64(len(logs))), "ms")
	put("agent.fragments_per_diag", ratio(float64(frags), float64(len(logs))), "count")
}

type timing struct {
	per time.Duration
	n   int
}

// repeatN runs f until at least 200ms have passed (at least 3 times) and
// returns the mean duration per run.
func repeatN(f func()) timing {
	var n int
	start := time.Now()
	for n < 3 || time.Since(start) < 200*time.Millisecond {
		f()
		n++
	}
	return timing{per: time.Since(start) / time.Duration(n), n: n}
}

func repeat(f func()) time.Duration { return repeatN(f).per }

// sampleSubs returns up to n distinct submissions of the workload, in a
// fixed order.
func (e *env) sampleSubs(n int) []submission {
	var all []submission
	if e.plan.timed != nil {
		for _, r := range e.plan.timed {
			all = append(all, r.sub)
		}
	} else {
		for _, forms := range e.plan.closed.items {
			all = append(all, forms...)
		}
	}
	seen := map[string]bool{}
	var out []submission
	for _, s := range all {
		key := s.T.Name + "/" + s.Form
		if seen[key] || len(out) >= n {
			continue
		}
		seen[key] = true
		out = append(out, s)
	}
	return out
}
