package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"sync"
	"time"

	"ioagent/internal/ioagent"
	"ioagent/internal/llm"
	"ioagent/internal/vectordb"
)

// span is one timed interval at a layer boundary. Req is the job ID where
// the boundary exposes it; LLM and retrieval spans carry none and are
// aggregated per layer.
type span struct {
	Name  string    `json:"name"`
	Layer string    `json:"layer"`
	Req   string    `json:"req,omitempty"`
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	// Parent names the span that caused this one ("request" for the
	// stages of one job); empty for roots and unattributed spans.
	Parent string `json:"parent,omitempty"`
	// Wait is the part of the span spent waiting rather than working
	// (the modelled LLM round trip).
	Wait time.Duration `json:"wait_ns,omitempty"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	spans []span
	on    bool // spans outside the timed phase are dropped
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	if t.on {
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

func (t *tracer) setOn(on bool) {
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// spanCost measures what recording one span costs, for the tracing
// overhead estimate.
func spanCost() time.Duration {
	const n = 20000
	t := &tracer{on: true}
	start := time.Now()
	for i := 0; i < n; i++ {
		now := time.Now()
		t.add(span{Name: "calibrate", Layer: "calibrate", Start: now, End: time.Now()})
	}
	return time.Since(start) / n
}

var taskRe = regexp.MustCompile(`(?m)^TASK:\s*([a-z]+)\s*$`)

// llmTask names a request's pipeline task the way the simulator reads it.
func llmTask(req llm.Request) string {
	for _, m := range req.Messages {
		if sub := taskRe.FindStringSubmatch(m.Content); sub != nil {
			return sub[1]
		}
	}
	return "diagnose"
}

// tracedLLM records one span per completion, named by task, with the
// modelled round trip as its wait.
type tracedLLM struct {
	inner llm.Client
	rtt   time.Duration
	tr    *tracer
}

func (c *tracedLLM) Complete(req llm.Request) (llm.Response, error) {
	start := time.Now()
	resp, err := c.inner.Complete(req)
	c.tr.add(span{Name: "llm." + llmTask(req), Layer: "llm", Start: start, End: time.Now(), Wait: c.rtt})
	return resp, err
}

// tracedRetriever records one span per retrieval.
type tracedRetriever struct {
	inner ioagent.Retriever
	tr    *tracer
}

func (r *tracedRetriever) Retrieve(query string, k int) []vectordb.Hit {
	start := time.Now()
	hits := r.inner.Retrieve(query, k)
	r.tr.add(span{Name: "retrieve", Layer: "retrieve", Start: start, End: time.Now()})
	return hits
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	Layer string
	Count int
	Busy  time.Duration
	Self  time.Duration
	Wait  time.Duration
}

// layerTable aggregates spans per layer. A span's self time is its
// duration minus the part of it that spans it caused cover; a layer's
// wait is the time its work waited before or inside it (queue time for
// the pool, the modelled round trip for the LLM).
func layerTable(spans []span) []layerRow {
	children := map[string][]span{} // request id -> its stage spans
	for _, s := range spans {
		if s.Parent == "request" {
			children[s.Req] = append(children[s.Req], s)
		}
	}
	queued := map[string]time.Duration{}
	for _, s := range spans {
		if s.Name == "sched.queue" {
			queued[s.Req] = s.dur()
		}
	}
	rows := map[string]*layerRow{}
	for _, s := range spans {
		r := rows[s.Layer]
		if r == nil {
			r = &layerRow{Layer: s.Layer}
			rows[s.Layer] = r
		}
		r.Count++
		r.Busy += s.dur()
		self := s.dur()
		if s.Name == "request" {
			self -= covered(s, children[s.Req])
		}
		r.Self += self
		r.Wait += s.Wait
		if s.Name == "pool.run" {
			r.Wait += queued[s.Req]
		}
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Layer < out[j].Layer })
	return out
}

// covered returns how much of parent's interval the children cover
// (overlaps counted once).
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			total += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

func printLayerTable(w io.Writer, rows []layerRow, overhead float64) {
	fmt.Fprintf(w, "%-10s %8s %12s %12s %12s\n", "layer", "count", "busy_ms", "self_ms", "wait_ms")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %8d %12.1f %12.1f %12.1f\n", r.Layer, r.Count, ms(r.Busy), ms(r.Self), ms(r.Wait))
	}
	fmt.Fprintf(w, "tracing overhead: %.4f of process CPU\n", overhead)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
