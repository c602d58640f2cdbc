// Command fleetperf is the fleet's benchmark: it boots an in-process
// cluster — two iofleetd-style daemons (fleet.Pool behind server.NewMux
// on loopback HTTP, journaled, elastic, retrieving through the knowledge
// plane) fronted by the digest-sharding router — drives one seeded
// workload through the Go SDK, checks every answer, and prints the
// end-to-end metrics (untraced) or the per-layer metrics (traced).
//
// The LLM behind the fleet is the deterministic simulator wrapped in a
// replay client: set-up records every reply the workload's profiles
// need, and the timed phase serves them behind a fixed modelled round
// trip, so simulator speed only moves set-up time.
//
// Usage (from the repository root):
//
//	bash fleetperf/run.sh --workload cold-diagnose --seed 1 --seconds 20 --trace 0
//
// --workload all runs every workload in turn. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. The exit code is non-zero when any correctness check fails.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	rtt      time.Duration
	outDir   string
}

// setupReps is how many times a run sets the workload up; setup_s is
// the median.
const setupReps = 3

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is one workload run's verdict and numbers.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name, or all")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 20, "timed phase length in seconds")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics")
	flag.DurationVar(&o.rtt, "llm-rtt", 20*time.Millisecond, "modelled LLM round trip added to every replayed call")
	flag.StringVar(&o.outDir, "out-dir", filepath.Join(".bench_build", "fleetperf"), "directory for span dumps")
	flag.Parse()
	o.trace = trace == 1
	if o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "fleetperf: need --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "fleetperf:", err)
		os.Exit(1)
	}

	var selected []*workload
	if o.workload == "all" {
		selected = workloads
	} else {
		w, err := workloadByName(o.workload)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fleetperf:", err)
			os.Exit(2)
		}
		selected = []*workload{w}
	}

	final := outcome{Correct: true, Metrics: map[string]metric{}}
	for _, w := range selected {
		out, err := run(w, o, os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fleetperf: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		final.Correct = final.Correct && out.Correct
		final.Attempted += out.Attempted
		final.Failed += out.Failed
		for name, m := range out.Metrics {
			if len(selected) > 1 {
				name = w.name + "." + name
			}
			final.Metrics[name] = m
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetperf:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !final.Correct {
		os.Exit(1)
	}
}

// stamp is the environment every result is reported with.
type stamp struct {
	Workload   string `json:"workload"`
	Deployment string `json:"deployment"`
	Flags      string `json:"flags"`
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	LLMRTT     string `json:"llm_rtt"`
	Traced     bool   `json:"traced"`
}

// run executes one workload: set-up (repeated), the timed phase, the
// checks, and the report.
func run(w *workload, o options, stdout io.Writer) (outcome, error) {
	st := stamp{
		Workload: w.name, Deployment: w.deploy.name, Flags: w.deploy.flags,
		Commit: commitID(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc: runtime.NumCPU(), Seed: o.seed, Seconds: o.seconds, LLMRTT: o.rtt.String(), Traced: o.trace,
	}
	env, setupS, err := setupRepeated(w, o)
	if err != nil {
		return outcome{}, err
	}
	defer env.close()

	ph := env.timedPhase(o)
	rep := env.evaluate(w, o, ph)
	rep.e2e["setup_s"] = metric{median(setupS), "s"}

	stampLine, _ := json.Marshal(st) // plain struct of strings and numbers
	fmt.Fprintf(stdout, "# environment %s\n", stampLine)
	fmt.Fprintf(stdout, "# %s: %d attempted, %d failed, set-up runs %v s\n", w.name, rep.attempted, rep.failed, roundAll(setupS))
	misses, simTime := ph.after.misses-ph.before.misses, ph.after.simTime-ph.before.simTime
	fmt.Fprintf(stdout, "# llm replay misses: set-up %d, timed %d (%.1f ms in the live simulator)\n", env.setupMisses, misses, ms(simTime))
	if ph.late != nil {
		fmt.Fprintf(stdout, "# open loop: generator lateness p99 %.2f ms, queued backlog %.1f at the window's start, %.1f at its end\n",
			quantile(ph.late, 0.99), ph.backlogStart, ph.backlogEnd)
	}
	for _, f := range rep.failures {
		fmt.Fprintf(stdout, "# CHECK FAILED: %s\n", f)
	}
	printMetrics(stdout, "end-to-end", rep.e2e)
	printMetrics(stdout, "reported (n/a on some workloads)", rep.extra)
	out := outcome{Correct: len(rep.failures) == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: rep.e2e}
	if o.trace {
		printMetrics(stdout, "per-layer", rep.layers)
		printLayerTable(stdout, rep.table, rep.layers["tracing.overhead_frac"].Value)
		path := filepath.Join(o.outDir, fmt.Sprintf("spans-%s-%d.jsonl", w.name, o.seed))
		if err := env.tr.write(path); err != nil {
			return outcome{}, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(stdout, "# spans written to %s\n", path)
		out.Metrics = rep.layers
	}
	return out, nil
}

func printMetrics(w io.Writer, title string, ms map[string]metric) {
	if len(ms) == 0 {
		return
	}
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %s\n", title)
	for _, n := range names {
		fmt.Fprintf(w, "%-34s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(int(x*1000)) / 1000
	}
	return out
}

// setupRepeated sets the workload up setupReps times, keeping the last
// environment, and returns every set-up's duration in seconds.
func setupRepeated(w *workload, o options) (*env, []float64, error) {
	var durs []float64
	var env *env
	for i := 0; i < setupReps; i++ {
		if env != nil {
			env.close()
		}
		start := time.Now()
		var err error
		env, err = setup(context.Background(), w, o, i)
		if err != nil {
			return nil, nil, err
		}
		durs = append(durs, time.Since(start).Seconds())
	}
	return env, durs, nil
}
