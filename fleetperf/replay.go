package main

import (
	"fmt"
	"hash/fnv"
	"hash/maphash"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ioagent/internal/llm"
)

// replayClient is the benchmark's LLM backend, kept apart from the system
// under test. While recording, every prompt goes to the live simulator
// and the reply is kept; while replaying, recorded prompts are answered
// from the table — byte-identical content, usage and cost — and only an
// unrecorded prompt falls through to the live simulator, counted and
// timed as a replay miss. Simulator speed therefore moves set-up time,
// not the timed phase.
type replayClient struct {
	live llm.Client
	seed [2]maphash.Seed

	mu        sync.RWMutex
	table     map[replayKey]llm.Response
	samples   []llm.Request // a fixed 1-in-sampleEvery subset, for selfCheck
	recording bool

	misses atomic.Int64
	simNs  atomic.Int64
}

// replayKey is a 128-bit hash of everything the simulator reads: the
// model, the completion cap and the joined prompt. Keeping hashes rather
// than prompts keeps the table small.
type replayKey [2]uint64

const sampleEvery = 32

func newReplayClient(live llm.Client) *replayClient {
	return &replayClient{
		live:      live,
		seed:      [2]maphash.Seed{maphash.MakeSeed(), maphash.MakeSeed()},
		table:     make(map[replayKey]llm.Response),
		recording: true,
	}
}

func requestText(req llm.Request) string {
	return req.Model + "\x00" + strconv.Itoa(req.MaxTokens) + "\x00" + llm.JoinPrompt(req.Messages)
}

func (r *replayClient) key(text string) replayKey {
	return replayKey{maphash.String(r.seed[0], text), maphash.String(r.seed[1], text)}
}

// Complete implements llm.Client.
func (r *replayClient) Complete(req llm.Request) (llm.Response, error) {
	text := requestText(req)
	key := r.key(text)
	r.mu.RLock()
	resp, ok := r.table[key]
	recording := r.recording
	r.mu.RUnlock()
	if ok {
		return resp, nil
	}
	start := time.Now()
	resp, err := r.live.Complete(req)
	if err != nil {
		return resp, err
	}
	if recording {
		h := fnv.New32a()
		h.Write([]byte(text))
		r.mu.Lock()
		if _, dup := r.table[key]; !dup && h.Sum32()%sampleEvery == 0 {
			r.samples = append(r.samples, req)
		}
		r.table[key] = resp
		r.mu.Unlock()
		return resp, nil
	}
	r.simNs.Add(int64(time.Since(start)))
	r.misses.Add(1)
	return resp, nil
}

// seal ends recording: from now on unrecorded prompts are misses.
func (r *replayClient) seal() {
	r.mu.Lock()
	r.recording = false
	r.mu.Unlock()
}

// missCounters returns the misses and live-simulator time so far.
func (r *replayClient) missCounters() (int64, time.Duration) {
	return r.misses.Load(), time.Duration(r.simNs.Load())
}

// selfCheck re-asks the live simulator a seeded sample of n recorded
// prompts and fails if any reply, usage or cost differs from the record.
func (r *replayClient) selfCheck(seed int64, n int) error {
	type sample struct {
		req  llm.Request
		text string
	}
	r.mu.RLock()
	samples := make([]sample, len(r.samples))
	for i, req := range r.samples {
		samples[i] = sample{req, requestText(req)}
	}
	r.mu.RUnlock()
	// Recording order depends on goroutine timing; sort first so the
	// seed alone picks the sample.
	sort.Slice(samples, func(i, j int) bool { return samples[i].text < samples[j].text })
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(samples), func(i, j int) { samples[i], samples[j] = samples[j], samples[i] })
	if n > len(samples) {
		n = len(samples)
	}
	for _, s := range samples[:n] {
		req := s.req
		got, err := r.live.Complete(req)
		if err != nil {
			return fmt.Errorf("replay self-check: live simulator: %w", err)
		}
		r.mu.RLock()
		want, ok := r.table[r.key(s.text)]
		r.mu.RUnlock()
		if !ok || got != want {
			return fmt.Errorf("replay self-check: recorded reply for a %s prompt differs from the live simulator (usage %+v vs %+v, cost %g vs %g)",
				req.Model, want.Usage, got.Usage, want.CostUSD, got.CostUSD)
		}
	}
	return nil
}
