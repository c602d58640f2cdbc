package main

import (
	"fmt"
	"math/rand"
	"time"

	"ioagent/internal/darshan"
	"ioagent/internal/drishti"
	"ioagent/internal/embed"
	"ioagent/internal/fleet/api"
	"ioagent/internal/fleet/semcache"
)

// request is one timed (or warm-up) submission.
type request struct {
	sub     submission
	due     time.Duration // offset from the phase start (open loop)
	tenant  string
	chunked bool
}

// plan is everything one run submits, generated from the seed before
// the cluster sees a byte.
type plan struct {
	// record is run through a private recording pool during set-up, one
	// stage after another: its prompts are what the replay client serves
	// in the timed phase.
	record [][]submission
	// prime is diagnosed through the cluster during set-up (warm working
	// set, near-duplicate bases).
	prime []submission
	// warmup runs through the cluster after prime, unmeasured.
	warmup []request
	// timed is the open-loop schedule (nil for closed loops).
	timed []request
	// closed is the closed-loop working set (nil for open loops).
	closed *closedLoop
}

// closedLoop is a resubmitted working set: each draw picks an item with
// probability proportional to weight, then one of the item's renderings.
type closedLoop struct {
	items      [][]submission // renderings of one trace (same content)
	cumWeight  []float64
	chunkShare float64
}

func (cl *closedLoop) draw(rng *rand.Rand) request {
	x := rng.Float64() * cl.cumWeight[len(cl.cumWeight)-1]
	i := 0
	for i < len(cl.cumWeight)-1 && cl.cumWeight[i] <= x {
		i++
	}
	forms := cl.items[i]
	return request{
		sub:     forms[rng.Intn(len(forms))],
		chunked: rng.Float64() < cl.chunkShare,
		tenant:  fmt.Sprintf("t%d", 1+rng.Intn(4)),
	}
}

// workload is one named traffic mix.
type workload struct {
	name   string
	deploy deployment
	// limit is the latency within which an attempt counts as meeting
	// the SLO.
	limit time.Duration
	build func(seed int64, seconds int) (*plan, error)
}

const (
	// openRate is the open loops' arrival rate in submissions per
	// second: the lowest that gives the 1000 completions a p99 needs (and
	// the 200 gold samples a gold p95 needs) in a run of 20 seconds. The
	// lower the two cores' load, the less a neighbour's CPU burst
	// stretches the queueing tail from one run to the next.
	openRate  = 50.0
	warmupFor = 500 * time.Millisecond
)

var workloads = []*workload{
	// Agent stages, retrieval, journal append, replication push and DRR
	// wait do the work; few repeats per profile keep a memo keyed on
	// prompt text from looking like a win real traffic would not see.
	{name: "cold-diagnose", deploy: deployDurable, limit: 500 * time.Millisecond, build: buildCold},
	// All exact hits: route key, ingest parse+digest, HTTP and cache
	// lookup do the work; the agent, journal and replication idle.
	{name: "warm-resubmit", deploy: deployDurable, limit: 100 * time.Millisecond, build: buildWarm},
	// Semcache features, similarity lookup, judge gate and tier ladder
	// do the work, and DRR fairness decides gold's wait.
	{name: "neardup-tenants", deploy: deploySemantic, limit: 500 * time.Millisecond, build: buildNeardup},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// coldGenerated is how many seed-generated profiles join the 50 curated
// ones in cold-diagnose.
const coldGenerated = 150

// buildCold: an open loop of exact-cache misses. Every submission is a
// fresh nudge of one of 200 profiles; profiles cycle through seeded
// permutations, so each repeats only a few times per run.
func buildCold(seed int64, seconds int) (*plan, error) {
	rng := rand.New(rand.NewSource(seed))
	templates := append(curatedTemplates(), generatedTemplates(seed, coldGenerated)...)
	// A profile keeps one wire form for the run: the text rendering
	// rounds floats, so its prompts differ from the binary rendering's.
	form := make(map[*template]string, len(templates))
	var rec []submission
	for _, t := range templates {
		f, err := pickForm(t, rng)
		if err != nil {
			return nil, err
		}
		form[t] = f
		sub, err := render(t, f, "record", 0)
		if err != nil {
			return nil, err
		}
		rec = append(rec, sub)
	}
	p := &plan{record: [][]submission{rec}}
	// uses numbers each profile's renderings across warm-up and timed
	// traffic, so every DXT nudge shifts by a new amount.
	uses := make(map[*template]int)
	seq := func(n int, tag string) ([]request, error) {
		out := make([]request, 0, n)
		var order []int
		for k := 0; k < n; k++ {
			if len(order) == 0 {
				order = rng.Perm(len(templates))
			}
			t := templates[order[0]]
			order = order[1:]
			uses[t]++
			sub, err := render(t, form[t], fmt.Sprintf("%s-%d-%d", tag, seed, k), uses[t])
			if err != nil {
				return nil, err
			}
			out = append(out, request{sub: sub, tenant: fmt.Sprintf("t%d", 1+k%4)})
		}
		return out, nil
	}
	var err error
	if p.warmup, err = seq(int(openRate*warmupFor.Seconds()), "warm"); err != nil {
		return nil, err
	}
	if p.timed, err = seq(int(openRate*float64(seconds)), "timed"); err != nil {
		return nil, err
	}
	schedule(rng, p.warmup, warmupFor)
	schedule(rng, p.timed, time.Duration(seconds)*time.Second)
	return p, nil
}

// schedule gives reqs Poisson due times over the window (see arrivals).
func schedule(rng *rand.Rand, reqs []request, window time.Duration) {
	for i, at := range arrivals(rng, len(reqs), window.Seconds()) {
		reqs[i].due = time.Duration(at * float64(time.Second))
	}
}

// warmChunked is the share of warm-resubmit requests uploaded in chunks.
const warmChunked = 0.25

// buildWarm: the working set is every curated profile whose renderings
// all fit maxTextWire, each darshan trace rendered both as binary and as
// parser text (one content digest, so one cache entry), DXT traces as
// DXT text. Draws weigh each trace by its mean wire size, so large traces
// dominate. The seed picks the nudges and the draws.
func buildWarm(seed int64, _ int) (*plan, error) {
	p := &plan{closed: &closedLoop{chunkShare: warmChunked}}
	var set []submission
	var total float64
	add := func(t *template, i int) error {
		nudge := fmt.Sprintf("ws-%d-%d", seed, i)
		forms := []string{formBinary, formText}
		if t.Trace != nil {
			forms = []string{formDXT}
		}
		var subs []submission
		var size float64
		for _, form := range forms {
			sub, err := render(t, form, nudge, i)
			if err == nil {
				sub, err = withContent(sub)
			}
			if err != nil {
				return err
			}
			if len(sub.Wire) > maxTextWire {
				return nil // too large for the working set
			}
			subs = append(subs, sub)
			size += float64(len(sub.Wire))
		}
		set = append(set, subs[0])
		total += size / float64(len(subs))
		p.closed.items = append(p.closed.items, subs)
		p.closed.cumWeight = append(p.closed.cumWeight, total)
		return nil
	}
	for i, t := range curatedTemplates() {
		if err := add(t, i); err != nil {
			return nil, err
		}
	}
	p.record = [][]submission{set}
	p.prime = set
	return p, nil
}

// laneFor keeps every submission on the interactive lane: the workloads
// exercise tenant fairness inside a lane, not the lane split.
const laneFor = api.LaneInteractive

// The neardup-tenants mix: near-duplicate variants of labelled bases,
// plus clean look-alikes. A look-alike lacks its base's few small writes:
// their counter profiles nearly coincide, so the base is
// the look-alike's nearest indexed neighbour, but the look-alike carries
// no issue labels, so the gate finds the base's findings unsupported and
// rejects.
const (
	neardupPairs      = 48 // pairs searched for look-alikes
	neardupLookalikes = 12
	// One submission in lookEvery is a look-alike. Rejected look-alikes
	// are full diagnoses, several times slower than a reuse; at 1 in 24
	// they stay under 5% of traffic even if the gate rejects every one,
	// so latency_p95_ms describes the reuse path and never falls
	// between the two populations.
	lookEvery    = 24
	simThreshold = 0.85 // the semantic deployment's -sim-threshold
)

// neardupTenants splits traffic gold 20%, silver 20%, bronze 60%.
var neardupTenants = []string{"gold", "silver", "bronze-1", "bronze-2", "bronze-3"}

func buildNeardup(seed int64, seconds int) (*plan, error) {
	rng := rand.New(rand.NewSource(seed))
	similarity := newSimilarity()
	labelled := func(t *template) bool {
		return len(drishti.Analyze(darshan.Canonical(t.Log)).Labels()) > 0
	}
	feat := map[*template]string{}
	features := func(t *template) string {
		if f, ok := feat[t]; ok {
			return f
		}
		feat[t] = semcache.FeatureText(t.Log)
		return feat[t]
	}

	// Look-alike pairs first: the base must be labelled, the look-alike
	// clean, their similarity above the reuse threshold, and every
	// look-alike farther from the others than from its base.
	var bases, looks []*template
	seenFeat := map[string]bool{}
	for _, pr := range lookalikePairs(seed, neardupPairs) {
		if len(looks) == neardupLookalikes {
			break
		}
		b, l := pr[0], pr[1]
		fb, fl := features(b), features(l)
		sim := similarity(fb, fl)
		if !labelled(b) || labelled(l) || sim < simThreshold || sim >= 0.999 || seenFeat[fb] || seenFeat[fl] {
			continue
		}
		conflict := false
		for i, o := range looks {
			if similarity(fl, feat[o]) >= sim || similarity(fl, feat[bases[i]]) >= sim ||
				similarity(feat[o], fb) >= similarity(feat[o], feat[bases[i]]) {
				conflict = true
				break
			}
		}
		if conflict {
			continue
		}
		seenFeat[fb], seenFeat[fl] = true, true
		bases = append(bases, b)
		looks = append(looks, l)
	}
	if len(looks) == 0 {
		return nil, fmt.Errorf("neardup: no look-alike among %d pairs", neardupPairs)
	}
	// Every labelled curated profile joins the bases, as long as none
	// comes closer to a look-alike than the look-alike's own base.
	for _, t := range curatedTemplates() {
		f := features(t)
		if seenFeat[f] || !labelled(t) {
			continue
		}
		closer := false
		for i, l := range looks {
			if similarity(feat[l], f) >= similarity(feat[l], feat[bases[i]]) {
				closer = true
				break
			}
		}
		if closer {
			continue
		}
		seenFeat[f] = true
		bases = append(bases, t)
	}

	// One wire form per profile for the run (text rounding changes
	// prompts, and a look-alike is diagnosed fresh).
	form := map[*template]string{}
	for _, t := range append(append([]*template(nil), bases...), looks...) {
		f, err := pickForm(t, rng)
		if err != nil {
			return nil, err
		}
		form[t] = f
	}
	uses := map[*template]int{}
	next := func(t *template, tag string) (submission, error) {
		uses[t]++
		return render(t, form[t], fmt.Sprintf("%s-%d-%d", tag, seed, uses[t]), uses[t])
	}
	p := &plan{}
	var rec0, rec1, rec2, prime []submission
	for _, t := range bases {
		for _, dst := range []*[]submission{&rec0, &rec1, &prime} {
			sub, err := next(t, "setup")
			if err != nil {
				return nil, err
			}
			*dst = append(*dst, sub)
		}
	}
	for _, t := range looks {
		for _, dst := range []*[]submission{&rec1, &rec2} {
			sub, err := next(t, "setup")
			if err != nil {
				return nil, err
			}
			*dst = append(*dst, sub)
		}
	}
	p.record = [][]submission{rec0, rec1, rec2}
	p.prime = prime

	// Traffic: bases cycle through seeded permutations, every
	// lookEvery-th slot is the next look-alike, and tenants rotate, so
	// every class gets its exact share. Each base's variants, and each
	// look-alike's copies, come from one ordered stream.
	var order []*template
	seq := func(n int, looksOn bool) ([]request, error) {
		out := make([]request, 0, n)
		li := 0
		for k := 0; k < n; k++ {
			req := request{tenant: neardupTenants[k%len(neardupTenants)]}
			var t *template
			if looksOn && k%lookEvery == lookEvery-1 {
				t = looks[li%len(looks)]
				li++
			} else {
				if len(order) == 0 {
					for _, i := range rng.Perm(len(bases)) {
						order = append(order, bases[i])
					}
				}
				t, order = order[0], order[1:]
			}
			sub, err := next(t, "traffic")
			if err != nil {
				return nil, err
			}
			req.sub = sub
			out = append(out, req)
		}
		return out, nil
	}
	var err error
	if p.warmup, err = seq(int(openRate*warmupFor.Seconds()), false); err != nil {
		return nil, err
	}
	if p.timed, err = seq(int(openRate*float64(seconds)), true); err != nil {
		return nil, err
	}
	schedule(rng, p.warmup, warmupFor)
	schedule(rng, p.timed, time.Duration(seconds)*time.Second)
	return p, nil
}

// newSimilarity returns the reuse index's score between two feature
// texts — the cosine of their embeddings — memoizing the embeddings; 0
// across modalities, which the fence never reuses.
func newSimilarity() func(a, b string) float64 {
	memo := map[string]embed.Vector{}
	vec := func(text string) embed.Vector {
		v, ok := memo[text]
		if !ok {
			v = embed.Embed(text)
			memo[text] = v
		}
		return v
	}
	return func(a, b string) float64 {
		if semcache.Modality(a) != semcache.Modality(b) {
			return 0
		}
		return embed.Cosine(vec(a), vec(b))
	}
}
