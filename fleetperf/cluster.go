package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ioagent/internal/fleet"
	"ioagent/internal/fleet/client"
	"ioagent/internal/fleet/ingest"
	"ioagent/internal/fleet/knowledge"
	"ioagent/internal/fleet/roster"
	"ioagent/internal/fleet/router"
	"ioagent/internal/fleet/server"
	"ioagent/internal/fleet/store"
	"ioagent/internal/ioagent"
	"ioagent/internal/llm"
)

// deployment is one daemon configuration, named by its iofleetd flags.
type deployment struct {
	name  string
	flags string
	// semantic turns on SemCache, the tier ladder and SLO classes.
	semantic bool
}

var (
	deployDurable = deployment{
		name:  "durable",
		flags: "-workers 8 -state-dir DIR -fsync batch -knowledge -advertise URL -peers PEER -replicate 2",
	}
	deploySemantic = deployment{
		name: "semantic",
		flags: deployDurable.flags + " -semcache -tier-models " + llm.GPT4oMini + "," + llm.GPT4o +
			" -slo-classes gold=gold,silver=silver,bronze-1=bronze,bronze-2=bronze,bronze-3=bronze",
		semantic: true,
	}
)

// sloClasses is the semantic deployment's -slo-classes assignment.
var sloClasses = map[string]string{
	"gold": "gold", "silver": "silver",
	"bronze-1": "bronze", "bronze-2": "bronze", "bronze-3": "bronze",
}

const (
	// nodeWorkers is sized to the modelled LLM round trip: twice
	// iofleetd's default of 4, so an open loop's 25 jobs/s per node, each
	// holding a slot for seven sequential round trips, keep the slots
	// about half busy and queue waits a tail rather than the median.
	nodeWorkers = 8
	maxBody     = 64 << 20
)

// poolConfig is the fleet.Config a deployment's daemon builds (the
// iofleetd flag parsing, minus the hooks and the knowledge plane, which
// the caller wires).
func (d deployment) poolConfig(nodeID string) fleet.Config {
	cfg := fleet.Config{
		NodeID:           nodeID,
		Workers:          nodeWorkers,
		CacheSize:        1024,
		CacheTTL:         time.Hour,
		MaxAttempts:      3,
		BreakerThreshold: 8,
		BreakerCooldown:  5 * time.Second,
		Agent:            ioagent.Options{Model: llm.GPT4o, CheapModel: llm.GPT4oMini},
	}
	if d.semantic {
		cfg.SemCache = true
		cfg.SimThreshold = 0.85
		cfg.GateModel = llm.GPT4oMini
		cfg.TierModels = []string{llm.GPT4oMini, llm.GPT4o}
		cfg.TenantClasses = sloClasses
	}
	return cfg
}

// observer is the harness side of the cluster's hooks: it learns job
// completions from OnJobEvent (so no poll interval enters a latency),
// counts cache inserts, and, when tracing, records spans around the
// journal and the wrapped LLM and retrieval calls.
type observer struct {
	tr *tracer // nil when untraced

	mu      sync.Mutex
	waiters map[string]*waiter

	inserts        atomic.Int64
	journalAppends atomic.Int64
}

type waiter struct {
	done chan struct{}
	info fleet.JobInfo
}

func newObserver(tr *tracer) *observer {
	return &observer{tr: tr, waiters: make(map[string]*waiter)}
}

func (o *observer) waiterFor(id string) *waiter {
	o.mu.Lock()
	defer o.mu.Unlock()
	w, ok := o.waiters[id]
	if !ok {
		w = &waiter{done: make(chan struct{})}
		o.waiters[id] = w
	}
	return w
}

// finished records a terminal event.
func (o *observer) finished(info fleet.JobInfo) {
	w := o.waiterFor(info.ID)
	w.info = info
	close(w.done)
}

// wait blocks until job id reached a terminal state and returns its
// final snapshot.
func (o *observer) wait(ctx context.Context, id string) (fleet.JobInfo, error) {
	w := o.waiterFor(id)
	select {
	case <-w.done:
	case <-ctx.Done():
		return fleet.JobInfo{}, fmt.Errorf("wait for %s: %w", id, ctx.Err())
	}
	o.mu.Lock()
	delete(o.waiters, id)
	o.mu.Unlock()
	return w.info, nil
}

// reset forgets completions nobody waited for (cache hits of set-up).
func (o *observer) reset() {
	o.mu.Lock()
	o.waiters = make(map[string]*waiter)
	o.mu.Unlock()
}

// jobEventHook chains the daemon's journal hook with the observer.
func (o *observer) jobEventHook(st *store.Store) func(fleet.Event) {
	return func(ev fleet.Event) {
		appends := ev.Kind == fleet.EventSubmitted && !ev.Job.CacheHit && ev.Job.Status == fleet.StatusQueued && ev.Log != nil
		if appends {
			o.journalAppends.Add(1)
		}
		if o.tr != nil && (appends || ev.Kind != fleet.EventSubmitted) {
			start := time.Now()
			st.OnJobEvent(ev)
			name := "journal.append"
			if ev.Kind != fleet.EventSubmitted {
				name = "journal.cover"
			}
			o.tr.add(span{Name: name, Layer: "journal", Req: ev.Job.ID, Start: start, End: time.Now()})
		} else {
			st.OnJobEvent(ev)
		}
		if ev.Kind != fleet.EventSubmitted {
			o.finished(ev.Job)
		}
	}
}

// node is one in-process daemon wired the way iofleetd wires it.
type node struct {
	id      string
	srv     *httptest.Server
	url     string
	pool    *fleet.Pool
	mgr     *roster.Manager
	st      *store.Store
	ks      *store.KnowledgeStore
	plane   *knowledge.Plane
	uploads *ingest.Manager
	stop    context.CancelFunc
	dir     string
}

// cluster is two daemons behind the digest-sharding router.
type cluster struct {
	nodes  []*node
	rt     *router.Router
	front  *httptest.Server
	client *client.Client
	obs    *observer
}

// bootCluster starts two daemons of the deployment under stateRoot,
// gossiping with each other, fronted by router.New, and returns once
// both roster views hold both members.
func bootCluster(d deployment, llmc llm.Client, obs *observer, stateRoot string, conns int) (*cluster, error) {
	c := &cluster{obs: obs}
	// Listeners first: each daemon's roster needs its own and its peer's
	// URL before it starts serving.
	for _, id := range []string{"n1", "n2"} {
		srv := httptest.NewUnstartedServer(nil)
		n := &node{id: id, srv: srv, url: "http://" + srv.Listener.Addr().String(), dir: filepath.Join(stateRoot, id)}
		c.nodes = append(c.nodes, n)
	}
	for i, n := range c.nodes {
		if err := n.start(d, llmc, obs, c.nodes[1-i].url); err != nil {
			c.close()
			return nil, err
		}
		n.srv.Config.Handler = server.NewMux(server.Config{
			Pool: n.pool, Store: n.st, Uploads: n.uploads, MaxBody: maxBody,
			NodeID: n.id, Elastic: n.mgr, OnTenantClass: n.st.TenantClass,
		})
		n.srv.Start()
		ctx, cancel := context.WithCancel(context.Background())
		n.stop = cancel
		go n.mgr.Run(ctx)
	}
	deadline := time.Now().Add(20 * time.Second)
	for _, n := range c.nodes {
		for len(n.mgr.Members()) < len(c.nodes) {
			if time.Now().After(deadline) {
				c.close()
				return nil, fmt.Errorf("roster did not converge on %s", n.id)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	var err error
	c.rt, err = router.New(router.Config{
		Members:  []string{c.nodes[0].url, c.nodes[1].url},
		MaxBody:  maxBody,
		SpoolDir: stateRoot,
	})
	if err != nil {
		c.close()
		return nil, err
	}
	c.front = httptest.NewServer(c.rt.Handler())
	// The harness holds at most conns connections to the router.
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	c.client = client.New(c.front.URL, client.WithHTTPClient(&http.Client{Transport: tr}))
	return c, nil
}

func (n *node) start(d deployment, llmc llm.Client, obs *observer, peer string) error {
	var err error
	logf := func(string, ...any) {}
	// Journal appends ride the page cache (-fsync batch): per-record
	// fsync latency on a shared disk swings by hundreds of milliseconds
	// from run to run, which would swamp every latency the fleet itself
	// causes. The append's encode and write are still on the path.
	if n.st, err = store.Open(n.dir, store.Options{Fsync: store.FsyncBatch, Logf: logf}); err != nil {
		return err
	}
	if n.ks, err = store.OpenKnowledge(n.dir, store.Options{Fsync: store.FsyncBatch, Logf: logf}); err != nil {
		return err
	}
	n.plane = knowledge.New(knowledge.Config{NodeID: n.id, Replicas: 2, OnEvent: n.ks.OnEvent})
	n.ks.Replay(n.plane)

	cfg := d.poolConfig(n.id)
	// Retrieval goes through the knowledge plane. The plane is wired as
	// the agent's Retriever rather than Config.Knowledge so the tracer
	// can wrap it; the retrieval path is the same.
	cfg.Agent.Retriever = n.plane
	if obs.tr != nil {
		cfg.Agent.Retriever = &tracedRetriever{inner: n.plane, tr: obs.tr}
	}
	cfg.OnJobEvent = obs.jobEventHook(n.st)
	var mgrSlot atomic.Pointer[roster.Manager]
	st := n.st
	cfg.OnCacheInsert = func(digest string) {
		obs.inserts.Add(1)
		st.CacheChanged(digest)
		if m := mgrSlot.Load(); m != nil {
			m.CacheInserted(digest)
		}
	}
	cfg.OnCacheEvict = st.CacheChanged
	n.pool = fleet.New(llmc, cfg)

	n.uploads, err = ingest.NewManager(ingest.Config{
		NodeID: n.id, MaxBytes: maxBody, MaxSessions: 64, TTL: time.Hour,
		SpoolDir: st.UploadDir(), OnEvent: st.OnUploadEvent, Logf: logf,
	})
	if err != nil {
		return err
	}
	n.mgr = roster.New(roster.Config{
		SelfURL:   n.url,
		NodeID:    n.id,
		Peers:     []string{peer},
		Interval:  2 * time.Second,
		Replicate: 2,
		Pool:      n.pool,
		OnChange: func(added, removed []string) {
			for _, u := range added {
				st.MemberJoined(u)
			}
			for _, u := range removed {
				st.MemberLeft(u)
			}
		},
	})
	mgrSlot.Store(n.mgr)
	return nil
}

// close tears the cluster down: clients, router, then each daemon the
// way iofleetd drains (gossip and replication before the pool, the pool
// before the store), and removes the state directories.
func (c *cluster) close() {
	if c.client != nil {
		c.client.Close()
	}
	if c.front != nil {
		c.front.Close()
	}
	if c.rt != nil {
		c.rt.Close()
	}
	for _, n := range c.nodes {
		n.srv.Close()
		if n.stop != nil {
			n.stop()
		}
		if n.mgr != nil {
			n.mgr.Close()
		}
		if n.pool != nil {
			n.pool.Close()
		}
		if n.ks != nil {
			_ = n.ks.Close() // state is discarded below
		}
		if n.st != nil {
			_ = n.st.Close()
		}
		_ = os.RemoveAll(n.dir) // scratch state; a leftover only costs disk under the working directory
	}
}

// snapshots returns every node's pool metrics.
func (c *cluster) snapshots() []fleet.Snapshot {
	out := make([]fleet.Snapshot, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = n.pool.Metrics()
	}
	return out
}

// queued sums the jobs waiting for a worker across the cluster.
func (c *cluster) queued() int64 {
	var q int64
	for _, n := range c.nodes {
		q += n.pool.Metrics().Queued
	}
	return q
}

// journalBytes sums the journal file sizes.
func (c *cluster) journalBytes() int64 {
	var total int64
	for _, n := range c.nodes {
		if fi, err := os.Stat(filepath.Join(n.dir, "journal.wal")); err == nil {
			total += fi.Size()
		}
	}
	return total
}
