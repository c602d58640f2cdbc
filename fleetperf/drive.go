package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"ioagent/internal/fleet"
	"ioagent/internal/fleet/api"
	"ioagent/internal/fleet/client"
)

// result is one attempted request's outcome.
type result struct {
	req  request
	due  time.Time
	sent time.Time
	// submitDur is the client.Submit (or SubmitChunked) call.
	submitDur time.Duration
	info      fleet.JobInfo
	text      string
	err       error
}

func (r *result) latency() time.Duration { return r.info.FinishedAt.Sub(r.due) }

// do submits one request through the router, waits for the job's
// terminal event and, with fetch, fetches the diagnosis text.
func (c *cluster) do(ctx context.Context, req request, due time.Time, fetch bool) result {
	res := result{req: req, due: due, sent: time.Now()}
	var info api.JobInfo
	var err error
	if req.chunked {
		info, err = c.client.SubmitChunked(ctx, bytes.NewReader(req.sub.Wire), 64<<10, client.StreamOpts{
			Lane: laneFor, Tenant: req.tenant, Digest: req.sub.Content,
		})
	} else {
		info, err = c.client.Submit(ctx, api.SubmitRequest{Lane: laneFor, Tenant: req.tenant, Trace: req.sub.Wire})
	}
	res.submitDur = time.Since(res.sent)
	if err != nil {
		res.err = fmt.Errorf("submit %s: %w", req.sub.T.Name, err)
		return res
	}
	if info.Status.Terminal() {
		res.info = fromAPI(info)
	} else if res.info, err = c.obs.wait(ctx, info.ID); err != nil {
		res.err = err
		return res
	}
	if res.info.Status != fleet.StatusDone {
		res.err = fmt.Errorf("job %s (%s) failed: %s", info.ID, req.sub.T.Name, res.info.Error)
		return res
	}
	if fetch {
		c.fetch(ctx, &res)
	}
	return res
}

// fetch reads a finished job's diagnosis text.
func (c *cluster) fetch(ctx context.Context, res *result) {
	d, err := c.client.Diagnosis(ctx, res.info.ID)
	if err != nil {
		res.err = fmt.Errorf("diagnosis %s: %w", res.info.ID, err)
		return
	}
	res.text = d.Text
}

// fetchAll reads the diagnosis texts of successful results, conns at a
// time.
func (c *cluster) fetchAll(ctx context.Context, results []result, conns int) {
	sem := make(chan struct{}, conns)
	var wg sync.WaitGroup
	for i := range results {
		if results[i].err != nil {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(r *result) {
			defer wg.Done()
			defer func() { <-sem }()
			c.fetch(ctx, r)
		}(&results[i])
	}
	wg.Wait()
}

func fromAPI(in api.JobInfo) fleet.JobInfo {
	return fleet.JobInfo{
		ID: in.ID, Digest: in.Digest, Status: fleet.Status(in.Status), Lane: fleet.Lane(in.Lane),
		Tenant: in.Tenant, CacheHit: in.CacheHit, SimilarityHit: in.SimilarityHit,
		SourceDigest: in.SourceDigest, Confidence: in.Confidence, Attempts: in.Attempts,
		Error: in.Error, SubmittedAt: in.SubmittedAt, StartedAt: in.StartedAt, FinishedAt: in.FinishedAt,
	}
}

// runOpen sends reqs on their schedule from t0 regardless of how the
// cluster keeps up, and returns once every job has finished. late
// receives how far behind schedule each send started. Diagnosis texts
// are not fetched here: the latency ends at the job's finish, and the
// reads would only compete with later submissions for connections.
func (c *cluster) runOpen(ctx context.Context, reqs []request, t0 time.Time) (results []result, late []float64) {
	results = make([]result, len(reqs))
	late = make([]float64, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		due := t0.Add(req.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late[i] = ms(time.Since(due))
		wg.Add(1)
		go func(i int, req request) {
			defer wg.Done()
			results[i] = c.do(ctx, req, due, false)
		}(i, req)
	}
	wg.Wait()
	return results, late
}

// runClosed keeps `clients` callers busy for the duration, each sending
// its next draw from the working set as soon as the previous one
// finished. Requests started before the deadline all count.
func (c *cluster) runClosed(ctx context.Context, cl *closedLoop, seed int64, clients int, dur time.Duration) []result {
	deadline := time.Now().Add(dur)
	per := make([][]result, clients)
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1000 + int64(k)))
			for time.Now().Before(deadline) {
				per[k] = append(per[k], c.do(ctx, cl.draw(rng), time.Now(), true))
			}
		}(k)
	}
	wg.Wait()
	var out []result
	for _, rs := range per {
		out = append(out, rs...)
	}
	return out
}

// windowSampler records the cluster's queued-job count and the
// process's resident memory every interval for the length of the timed
// window.
type windowSampler struct {
	done    chan struct{}
	backlog []float64
	rssMax  float64
}

func (c *cluster) sampleWindow(every, window time.Duration) *windowSampler {
	b := &windowSampler{done: make(chan struct{})}
	go func() {
		defer close(b.done)
		t := time.NewTicker(every)
		defer t.Stop()
		end := time.After(window)
		for {
			select {
			case <-end:
				return
			case <-t.C:
				b.backlog = append(b.backlog, float64(c.queued()))
				b.rssMax = max(b.rssMax, residentMB())
			}
		}
	}()
	return b
}

// finish waits for the window to end and returns the mean backlog over
// its first and last fifth.
func (b *windowSampler) finish() (start, end float64) {
	<-b.done
	n := len(b.backlog)
	k := n / 5
	if k == 0 {
		return 0, 0
	}
	return mean(b.backlog[:k]), mean(b.backlog[n-k:])
}
