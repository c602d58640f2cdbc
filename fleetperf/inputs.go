package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"

	"ioagent/internal/darshan"
	"ioagent/internal/dxt"
	"ioagent/internal/iosim"
	"ioagent/internal/issue"
	"ioagent/internal/scenario"
	"ioagent/internal/tracebench"
)

// Wire forms a trace can arrive in.
const (
	formBinary = "binary" // gzip darshan binary log
	formText   = "text"   // darshan-parser text
	formDXT    = "dxt"    // DXT per-operation text
)

// template is one distinct I/O profile. Every submission the benchmark
// makes is a rendering of a template, nudged so its content digest is new
// while its I/O profile (and so every prompt the agent builds) stays put.
type template struct {
	Name string
	// Log is the counter view of the profile; for DXT templates it is
	// derived from Trace, exactly as ingest derives it.
	Log   *darshan.Log
	Trace *dxt.Trace // non-nil for DXT templates
	// Labels is the curated ground truth (TraceBench and the scenario
	// matrix); nil for generated profiles.
	Labels issue.Set
	// Baseline is the scenario matrix's committed minimum score; zero
	// for templates without one.
	Baseline float64

	text string // darshan-parser rendering, made on first use
}

func (t *template) modality() string {
	if t.Trace != nil {
		return formDXT
	}
	return "darshan"
}

// textRendering returns the template's darshan-parser text, rendered
// once.
func (t *template) textRendering() (string, error) {
	if t.text == "" {
		text, err := darshan.TextString(t.Log)
		if err != nil {
			return "", fmt.Errorf("render %s: %w", t.Name, err)
		}
		t.text = text
	}
	return t.text, nil
}

// submission is one generated request body.
type submission struct {
	T    *template
	Form string
	Wire []byte
	// Content is darshan.ContentDigest of the wire, what chunked uploads
	// assert; filled in only where a workload uploads in chunks.
	Content string
}

// curatedTemplates returns TraceBench's 40 traces and the scenario
// matrix's 10, in a fixed order.
func curatedTemplates() []*template {
	var out []*template
	for _, tr := range tracebench.Suite() {
		out = append(out, &template{Name: tr.Name, Log: tr.Log(), Labels: tr.Labels})
	}
	for _, sc := range scenario.Matrix() {
		wire, log := sc.Build()
		t := &template{Name: sc.Name, Log: log, Labels: sc.Expected, Baseline: sc.Baseline}
		if sc.Modality == "dxt" {
			tr, err := dxt.ParseText(bytes.NewReader(wire))
			if err != nil {
				panic(fmt.Sprintf("scenario %s: %v", sc.Name, err)) // committed fixture
			}
			t.Trace = tr
		}
		out = append(out, t)
	}
	return out
}

// generatedTemplates derives n distinct profiles with the I/O simulator.
// The categorical choices — pattern, transfer size, process count,
// interface, DXT recording, a straggler rank, a config-file read — cycle
// through fixed strata, so every seed yields the same mix; the seed draws
// the simulator seed, the volumes and the straggler's slowdown.
func generatedTemplates(seed int64, n int) []*template {
	rng := rand.New(rand.NewSource(seed))
	ifaces := []iosim.Iface{iosim.POSIX, iosim.STDIO, iosim.MPIIndep, iosim.MPIColl}
	xfers := []int64{1000, 3000, 4096, 64 << 10, 1 << 20, 4 << 20}
	out := make([]*template, 0, n)
	for i := 0; i < n; i++ {
		pattern := i % 6
		xfer := xfers[(i/6)%len(xfers)]
		nprocs := []int{2, 4, 8}[(i/2)%3]
		withDXT := i%4 == 3
		cfg := iosim.Config{Seed: rng.Int63(), NProcs: nprocs, UsesMPI: i%5 != 0, EnableDXT: withDXT}
		if i%7 == 0 {
			cfg.RankSkew = make([]float64, nprocs)
			for r := range cfg.RankSkew {
				cfg.RankSkew[r] = 1
			}
			cfg.RankSkew[nprocs-1] = 2 + float64(rng.Intn(6))
		}
		s := iosim.New(cfg)
		iface := ifaces[(i/3)%len(ifaces)]
		if withDXT {
			iface = iosim.POSIX // DXT records the POSIX path
		}
		// Volume scales with the transfer so op counts stay small.
		volume := xfer * int64(16+rng.Intn(48))
		dir := fmt.Sprintf("/scratch/gen%03d", i)
		var name string
		switch pattern {
		case 0:
			name = "shared-write"
			iosim.WriteShared(s, dir+"/out.dat", iface, nil, volume*int64(nprocs), xfer)
		case 1:
			name = "shared-read"
			iosim.ReadShared(s, dir+"/in.dat", iface, nil, volume*int64(nprocs), xfer)
		case 2:
			name = "fpp-write"
			if iface == iosim.MPIColl {
				iface = iosim.MPIIndep
			}
			iosim.FilePerProcessWrite(s, dir+"/out.%d", iface, nil, volume, xfer)
		case 3:
			name = "fpp-read"
			if iface == iosim.MPIColl {
				iface = iosim.MPIIndep
			}
			iosim.FilePerProcessRead(s, dir+"/in.%d", iface, nil, volume, xfer)
		case 4:
			name = "random-read"
			f := s.OpenShared(dir+"/input.dat", iosim.POSIX, false, nil)
			iosim.RandomReads(s, f, 64+rng.Intn(192), xfer, 64<<20)
		default:
			name = "metadata"
			iosim.MetadataStorm(s, dir, 8+rng.Intn(40), 1+rng.Intn(4))
			iosim.FilePerProcessWrite(s, dir+"/data.%d", iosim.POSIX, nil, 16*xfer, xfer)
		}
		if i%3 == 1 {
			iosim.ConfigRead(s, dir+"/app.cfg")
		}
		t := &template{Name: fmt.Sprintf("gen%03d-%s", i, name)}
		log := s.Finalize()
		if withDXT {
			t.Trace = s.DXT()
			log = darshan.FromDXT(t.Trace)
		}
		t.Log = log
		out = append(out, t)
	}
	return out
}

// lookalikePairs derives n (base, look-alike) profile pairs from the
// seed. Both write one file per rank in large, stripe-aligned transfers
// with the same simulator seed; the base also writes one or two small
// records per rank. Their counter profiles nearly coincide while only the
// base carries issue labels (small writes).
func lookalikePairs(seed int64, n int) [][2]*template {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	layout := &iosim.Layout{StripeSize: 1 << 20, StripeWidth: iosim.DefaultLustre().NumOSTs, StripeOffset: -1}
	out := make([][2]*template, 0, n)
	for i := 0; i < n; i++ {
		nprocs := []int{4, 8, 16}[rng.Intn(3)]
		simSeed := rng.Int63()
		xfer := []int64{1 << 20, 4 << 20}[rng.Intn(2)]
		perRank := xfer * int64(4+rng.Intn(12))
		iface := []iosim.Iface{iosim.POSIX, iosim.MPIIndep}[rng.Intn(2)]
		extra := 1 + rng.Intn(2)
		build := func(small int) *template {
			s := iosim.New(iosim.Config{Seed: simSeed, NProcs: nprocs, UsesMPI: iface != iosim.POSIX})
			dir := fmt.Sprintf("/scratch/pair%03d", i)
			for r, f := range iosim.FilePerProcessWrite(s, dir+"/out.%d", iface, layout, perRank, xfer) {
				for j := 0; j < small; j++ {
					f.WriteAt(r, perRank+int64(j)*3000, 3000)
				}
			}
			kind := "clean"
			if small > 0 {
				kind = "small"
			}
			return &template{Name: fmt.Sprintf("pair%03d-fpp-write-%s", i, kind), Log: s.Finalize()}
		}
		out = append(out, [2]*template{build(extra), build(0)})
	}
	return out
}

// render produces the k-th nudged rendering of t in the given form. The
// nudge changes the content digest and nothing the agent reads: darshan
// renderings gain a metadata entry, DXT renderings shift every timestamp
// by k+1 quanta of the text precision (comments do not survive
// canonicalization, so a metadata line would not make a new digest).
func render(t *template, form, nudge string, k int) (submission, error) {
	sub := submission{T: t, Form: form}
	switch form {
	case formDXT:
		if t.Trace == nil {
			return sub, fmt.Errorf("render %s: no DXT trace", t.Name)
		}
		shifted := &dxt.Trace{NProcs: t.Trace.NProcs, Events: append([]dxt.Event(nil), t.Trace.Events...)}
		for i := range shifted.Events {
			shifted.Events[i].Start += float64(k+1) * 2e-6
			shifted.Events[i].End += float64(k+1) * 2e-6
		}
		sub.Wire = []byte(dxt.TextString(shifted))
	case formText:
		// The parser reads metadata lines wherever they appear, so the
		// nudge is appended to the template's one rendering.
		text, err := t.textRendering()
		if err != nil {
			return sub, err
		}
		sub.Wire = []byte(text + "# metadata: bench_nudge = " + nudge + "\n")
	case formBinary:
		l := t.Log.ShallowClone()
		md := make(map[string]string, len(l.Job.Metadata)+1)
		for key, v := range l.Job.Metadata {
			md[key] = v
		}
		md["bench_nudge"] = nudge
		l.Job.Metadata = md
		var buf bytes.Buffer
		if err := darshan.Encode(&buf, l); err != nil {
			return sub, fmt.Errorf("render %s: %w", t.Name, err)
		}
		sub.Wire = buf.Bytes()
	default:
		return sub, fmt.Errorf("render %s: unknown form %q", t.Name, form)
	}
	return sub, nil
}

// withContent fills in the submission's content digest, parsing the wire
// the way the daemon does.
func withContent(sub submission) (submission, error) {
	_, cd, err := parseWire(sub.Wire)
	if err != nil {
		return sub, fmt.Errorf("digest %s: %w", sub.T.Name, err)
	}
	sub.Content = cd
	return sub, nil
}

// maxTextWire is the largest darshan-parser rendering a workload sends;
// bigger logs travel in the (compressed) binary form only.
const maxTextWire = 256 << 10

// pickForm draws a wire form for a template: DXT templates only have the
// DXT text form; darshan templates arrive as binary or parser text.
func pickForm(t *template, rng *rand.Rand) (string, error) {
	if t.Trace != nil {
		return formDXT, nil
	}
	text, err := t.textRendering()
	if err != nil {
		return "", err
	}
	if rng.Intn(2) == 0 || len(text) > maxTextWire {
		return formBinary, nil
	}
	return formText, nil
}

// arrivals returns n due offsets (in seconds) of a Poisson process
// conditioned on n arrivals in [0, span): uniform order statistics. The
// count is fixed, so the offered load does not vary with the seed.
func arrivals(rng *rand.Rand, n int, span float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.Float64() * span
	}
	sort.Float64s(out)
	return out
}
