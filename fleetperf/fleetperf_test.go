package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"
	"time"

	"ioagent/internal/llm"
)

// inputDigests lists a digest of every wire a plan submits, in order.
func inputDigests(p *plan) []string {
	var out []string
	add := func(s submission) {
		sum := sha256.Sum256(s.Wire)
		out = append(out, hex.EncodeToString(sum[:]))
	}
	for _, stage := range p.record {
		for _, s := range stage {
			add(s)
		}
	}
	for _, s := range p.prime {
		add(s)
	}
	for _, reqs := range [][]request{p.warmup, p.timed} {
		for _, r := range reqs {
			add(r.sub)
		}
	}
	if p.closed != nil {
		for _, forms := range p.closed.items {
			for _, s := range forms {
				add(s)
			}
		}
	}
	return out
}

func TestSeedDeterminesInputs(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			build := func(seed int64) []string {
				p, err := w.build(seed, 1)
				if err != nil {
					t.Fatalf("build seed %d: %v", seed, err)
				}
				return inputDigests(p)
			}
			a, again, other := build(11), build(11), build(12)
			if len(a) == 0 {
				t.Fatal("plan submits nothing")
			}
			if !slices.Equal(a, again) {
				t.Error("the same seed gave a different input digest list")
			}
			if slices.Equal(a, other) {
				t.Error("a different seed gave the same input digest list")
			}
		})
	}
}

func TestColdSubmissionsAreDistinct(t *testing.T) {
	p, err := buildCold(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, s := range p.record[0] {
		sub, err := withContent(s)
		if err != nil {
			t.Fatal(err)
		}
		seen[sub.Content] = true
	}
	for _, r := range append(p.warmup, p.timed...) {
		sub, err := withContent(r.sub)
		if err != nil {
			t.Fatal(err)
		}
		if seen[sub.Content] {
			t.Fatalf("%s: content digest repeats, so the submission would hit the exact cache", r.sub.T.Name)
		}
		seen[sub.Content] = true
	}
}

func TestReplayMatchesSimulator(t *testing.T) {
	sim := llm.NewSim()
	rc := newReplayClient(sim)
	reqs := []llm.Request{
		llm.Prompt(llm.GPT4o, "TASK: describe\nPOSIX_WRITES = 4096\nPOSIX_SIZE_WRITE_0_100 = 4000"),
		llm.Prompt(llm.GPT4oMini, "TASK: filter\nFRAGMENT:\nsmall writes\nEND FRAGMENT\n[SOURCE k] text"),
		{Model: llm.GPT4o, MaxTokens: 40, Messages: []llm.Message{
			{Role: llm.RoleSystem, Content: "You are an HPC I/O expert."},
			{Role: llm.RoleUser, Content: "Why are small writes slow?"},
		}},
	}
	for _, req := range reqs {
		if _, err := rc.Complete(req); err != nil {
			t.Fatal(err)
		}
	}
	rc.seal()
	for _, req := range reqs {
		got, err := rc.Complete(req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sim.Complete(req)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("replayed %+v, simulator says %+v", got, want)
		}
	}
	if misses, _ := rc.missCounters(); misses != 0 {
		t.Errorf("recorded prompts counted %d misses", misses)
	}
	unseen := llm.Prompt(llm.GPT4o, "TASK: describe\nPOSIX_READS = 1")
	got, err := rc.Complete(unseen)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := sim.Complete(unseen)
	if got != want {
		t.Error("a replay miss did not fall through to the simulator")
	}
	if misses, _ := rc.missCounters(); misses != 1 {
		t.Errorf("misses = %d, want 1", misses)
	}
}

func TestReplaySelfCheck(t *testing.T) {
	rc := newReplayClient(llm.NewSim())
	for i := 0; i < 200; i++ {
		req := llm.Prompt(llm.GPT4oMini, fmt.Sprintf("TASK: describe\nPOSIX_WRITES = %d", i))
		if _, err := rc.Complete(req); err != nil {
			t.Fatal(err)
		}
	}
	rc.seal()
	if len(rc.samples) == 0 {
		t.Fatal("recording kept no self-check samples")
	}
	if err := rc.selfCheck(1, len(rc.samples)); err != nil {
		t.Fatalf("faithful recording failed the self-check: %v", err)
	}
	for k, resp := range rc.table {
		resp.CostUSD *= 2
		rc.table[k] = resp
	}
	if err := rc.selfCheck(1, len(rc.samples)); err == nil {
		t.Fatal("self-check passed a recording whose costs differ from the simulator's")
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed, so the helper must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{999, 0.99, false},
		{1000, 0.99, true},
		{199, 0.95, false},
		{200, 0.95, true},
		{19, 0.50, false},
		{20, 0.50, true},
	} {
		v, err := percentile(seq(tc.n), tc.q)
		if (err == nil) != tc.ok {
			t.Errorf("p%g of %d: err = %v, want ok=%v", tc.q*100, tc.n, err, tc.ok)
		}
		if tc.ok {
			if want := float64(tc.n) * tc.q; v != want {
				t.Errorf("p%g of 1..%d = %g, want %g", tc.q*100, tc.n, v, want)
			}
		}
	}
}

func TestWindowedPercentile(t *testing.T) {
	// Five windows of 200: one window's tail is ten times the others',
	// and the median across windows ignores it.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i%200 + 1)
		if i >= 400 && i < 600 {
			xs[i] *= 10
		}
	}
	v, err := windowedPercentile(xs, 0.95, 5)
	if err != nil || v != 190 {
		t.Errorf("windowed p95 = %g, %v; want 190", v, err)
	}
	// Too few samples for five windows of p95: it falls back to fewer
	// windows, down to the plain percentile.
	if v, err := windowedPercentile(xs[:300], 0.95, 5); err != nil || v != 185 {
		t.Errorf("windowed p95 of 300 = %g, %v; want the whole-run 185", v, err)
	}
	if _, err := windowedPercentile(xs[:199], 0.95, 5); err == nil {
		t.Error("windowed p95 of 199 samples passed the samples-beyond rule")
	}
}

func TestLayerTableSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{Name: "request", Layer: "request", Req: "j1", Start: at(0), End: at(100)},
		{Name: "http.submit", Layer: "http", Req: "j1", Parent: "request", Start: at(0), End: at(20)},
		{Name: "sched.queue", Layer: "sched", Req: "j1", Parent: "request", Start: at(10), End: at(30)},
		{Name: "pool.run", Layer: "pool", Req: "j1", Parent: "request", Start: at(30), End: at(90)},
	}
	rows := map[string]layerRow{}
	for _, r := range layerTable(spans) {
		rows[r.Layer] = r
	}
	// Children cover 0-90 (overlap counted once), leaving 10ms of self.
	if got := rows["request"].Self; got != 10*time.Millisecond {
		t.Errorf("request self = %v, want 10ms", got)
	}
	if got := rows["pool"].Wait; got != 20*time.Millisecond {
		t.Errorf("pool wait = %v, want the 20ms queue span", got)
	}
}
