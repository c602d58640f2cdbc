package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"ioagent/internal/darshan"
	"ioagent/internal/fleet"
	"ioagent/internal/fleet/ingest"
	"ioagent/internal/fleet/knowledge"
	"ioagent/internal/llm"
)

// env is one set-up cluster with everything the timed phase needs.
type env struct {
	plan    *plan
	replay  *replayClient
	cluster *cluster
	obs     *observer
	tr      *tracer
	llmTr   *tracedLLM
	// primed maps diagnosis digest to set-up's diagnosis text.
	primed map[string]string
	// modality maps every submitted diagnosis digest to its modality.
	mu       sync.Mutex
	modality map[string]string
	dir      string
	// setupMisses counts replay misses while priming and warming up.
	setupMisses int64
}

func (e *env) close() {
	if e.cluster != nil {
		e.cluster.close()
	}
	_ = os.RemoveAll(e.dir) // scratch state under the working directory
}

func (e *env) noteModality(res result) {
	if res.info.Digest == "" {
		return
	}
	e.mu.Lock()
	e.modality[res.info.Digest] = res.req.sub.T.modality()
	e.mu.Unlock()
}

// setup builds the run's inputs from the seed, records the LLM replies
// they need, boots the cluster, primes it and warms it up.
func setup(ctx context.Context, w *workload, o options, rep int) (*env, error) {
	p, err := w.build(o.seed, o.seconds)
	if err != nil {
		return nil, err
	}
	e := &env{plan: p, primed: map[string]string{}, modality: map[string]string{}}
	e.dir = filepath.Join(o.outDir, fmt.Sprintf("state-%d-%d", os.Getpid(), rep))
	e.replay = newReplayClient(llm.NewSim())
	if err := record(w.deploy, e.replay, p.record); err != nil {
		return nil, err
	}
	if err := e.replay.selfCheck(o.seed, 64); err != nil {
		return nil, err
	}
	e.replay.seal()

	var llmc llm.Client = llm.WithLatency(e.replay, o.rtt)
	if o.trace {
		e.tr = &tracer{}
		e.llmTr = &tracedLLM{inner: llmc, rtt: o.rtt, tr: e.tr}
		llmc = e.llmTr
	}
	e.obs = newObserver(e.tr)
	conns := runtime.NumCPU()
	if e.cluster, err = bootCluster(w.deploy, llmc, e.obs, e.dir, conns); err != nil {
		e.close()
		return nil, err
	}
	if err := e.prime(ctx, p.prime, 2*nodeWorkers); err != nil {
		e.close()
		return nil, err
	}
	if err := e.awaitReplication(); err != nil {
		e.close()
		return nil, err
	}
	if len(p.warmup) > 0 {
		rs, _ := e.cluster.runOpen(ctx, p.warmup, time.Now())
		e.cluster.fetchAll(ctx, rs, conns)
		for _, r := range rs {
			if r.err != nil {
				e.close()
				return nil, fmt.Errorf("warm-up: %w", r.err)
			}
			e.noteModality(r) // a warm-up diagnosis may become a reuse source
		}
	} else if p.closed != nil {
		for _, r := range e.cluster.runClosed(ctx, p.closed, o.seed+7919, conns, warmupFor) {
			if r.err != nil {
				e.close()
				return nil, fmt.Errorf("warm-up: %w", r.err)
			}
		}
	}
	e.setupMisses, _ = e.replay.missCounters()
	return e, nil
}

// prime diagnoses submissions through the cluster, inflight at a time,
// and keeps each diagnosis text by digest.
func (e *env) prime(ctx context.Context, subs []submission, inflight int) error {
	sem := make(chan struct{}, inflight)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for _, sub := range subs {
		wg.Add(1)
		sem <- struct{}{}
		go func(sub submission) {
			defer wg.Done()
			defer func() { <-sem }()
			r := e.cluster.do(ctx, request{sub: sub, tenant: "setup"}, time.Now(), true)
			mu.Lock()
			defer mu.Unlock()
			if r.err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("prime: %w", r.err)
				}
				return
			}
			e.primed[r.info.Digest] = r.text
			e.noteModality(r)
		}(sub)
	}
	wg.Wait()
	return firstErr
}

// awaitReplication waits until every node holds every primed diagnosis
// (the owner's insert is pushed to its ring successor asynchronously).
func (e *env) awaitReplication() error {
	if len(e.primed) == 0 {
		return nil
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		ok := true
		for _, s := range e.cluster.snapshots() {
			if s.CacheLen < len(e.primed) {
				ok = false
			}
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replication of %d primed diagnoses did not settle", len(e.primed))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// record runs the workload's recording stages through a private pool of
// the same deployment, on the live simulator, so the replay client holds
// every reply the timed phase will ask for. Each stage finishes before
// the next starts, which fixes what the similarity index holds when a
// later stage's traces are gated.
func record(d deployment, rc llm.Client, stages [][]submission) error {
	cfg := d.poolConfig("rec")
	cfg.Workers = 2 * nodeWorkers
	cfg.Agent.Retriever = knowledge.New(knowledge.Config{NodeID: "rec", Replicas: 2})
	pool := fleet.New(rc, cfg)
	defer pool.Close()
	for _, stage := range stages {
		var jobs []*fleet.Job
		for _, sub := range stage {
			log, cd, err := parseWire(sub.Wire)
			if err != nil {
				return fmt.Errorf("record %s: %w", sub.T.Name, err)
			}
			j, err := pool.SubmitPreparsed(context.Background(), fleet.Preparsed{Log: log, ContentDigest: cd}, fleet.SubmitOpts{})
			if err != nil {
				return fmt.Errorf("record %s: %w", sub.T.Name, err)
			}
			jobs = append(jobs, j)
		}
		for _, j := range jobs {
			if _, err := j.Wait(); err != nil {
				return fmt.Errorf("record: %w", err)
			}
		}
	}
	return nil
}

// parseWire decodes a wire the way the daemon's ingest does.
func parseWire(wire []byte) (*darshan.Log, string, error) {
	p := ingest.NewParser(maxBody)
	if _, err := p.Write(wire); err != nil {
		return nil, "", err
	}
	return p.Finish()
}

// commitID names the code under test: the git commit when run from a
// git checkout's root, otherwise a digest of the repository's Go sources
// and module files (the copy the benchmark runs in need not be a git
// repository).
func commitID() string {
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return "source-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// nonEmptyReport reports whether a diagnosis text parses to a report
// with content.
func nonEmptyReport(text string) bool {
	if strings.TrimSpace(text) == "" {
		return false
	}
	r := llm.ParseReport(text)
	return len(r.Findings) > 0 || strings.TrimSpace(r.Preamble) != ""
}
