// Command e2ebench is the repository's end-to-end benchmark. Each run starts
// the whole system in one process — a parisd aligner, a 2-group × 2-replica
// shard fleet and a parisrouter — on a world corpus generated from --seed,
// drives it from the same process with at most nproc connections, checks
// its answers, and prints one JSON result as the last line of its output:
// the end-to-end metrics with --trace 0, the per-layer metrics of a traced
// run with --trace 1. See README.md for the workloads and the metrics.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash e2ebench/run.sh --workload serve-read --seed 42 --seconds 45 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// workload is one way of spending a run's --seconds on the system. Both
// workloads run the same phases — set-up plus the upload → align → publish
// pipeline, and read rounds — and report every metric; they differ in how
// many of each a run makes. The counts are fixed by the workload and
// --seconds, never by how fast the program runs, so every build does the
// same work.
type workload struct {
	name, why string
	// pipelines and rounds are the set-ups plus pipelines and the read
	// rounds (see readRound) a run makes at --seconds nominalSeconds.
	pipelines, rounds int
}

// nominalSeconds is the --seconds the workload counts are set for: a
// pipeline with its re-publish takes about 6 s on a 2-core host and a read
// round 7 s, so either workload's pipelines and rounds measure about that
// long. Other --seconds scale the counts.
const nominalSeconds = 45

var workloads = []workload{
	{
		name:      "align-world",
		why:       "four upload-to-answers pipelines on the scale-4 world corpus with three read rounds between them: ingest and the fixpoint take most of the run",
		pipelines: 4,
		rounds:    3,
	},
	{
		name:      "serve-read",
		why:       "three pipelines with four rounds of GET and 64-key batch reads through the router between them: the read path takes most of the run",
		pipelines: 3,
		rounds:    4,
	},
}

// perRun scales a count at nominalSeconds to a run of seconds, and keeps it
// at least least.
func perRun(count, seconds, least int) int {
	return max((2*count*seconds+nominalSeconds)/(2*nominalSeconds), least)
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// options are one run's parameters.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// scale is the world corpus scale; runs use corpusScale and tests a
	// smaller one.
	scale float64
	// buildDir holds the run's scratch state and span dumps.
	buildDir string
	log      io.Writer
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	o := options{scale: corpusScale, buildDir: ".bench_build", log: os.Stderr}
	flag.StringVar(&o.workload, "workload", "", "workload to run: align-world or serve-read")
	flag.Int64Var(&o.seed, "seed", 42, "seed of the generated corpus and of the request sequence")
	flag.IntVar(&o.seconds, "seconds", nominalSeconds, "measured seconds of one run")
	traceFlag := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	flag.Parse()
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = *traceFlag == 1
	if _, ok := workloadByName(o.workload); !ok || o.seconds < 1 {
		fmt.Fprintf(os.Stderr, "e2ebench: need --workload align-world|serve-read and --seconds >= 1\n")
		os.Exit(2)
	}
	res, err := run(context.Background(), o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one run and returns its result; report lines (host block,
// snapshot digest, span dump) go to out. An error means the system could
// not be driven at all.
func run(ctx context.Context, o options, out io.Writer) (*result, error) {
	wl, ok := workloadByName(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	host, err := json.Marshal(readHost())
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "host %s\n", host)
	r, err := newRunner(o, wl)
	if err != nil {
		return nil, err
	}
	defer r.close()
	if err := r.cycles(ctx); err != nil {
		return nil, err
	}
	var values map[string]float64
	defs := endToEnd
	if o.trace {
		if err := r.probe(ctx); err != nil {
			return nil, err
		}
		values, defs = r.layerMetrics(), perLayer
		spans := r.tr.snapshot()
		path := fmt.Sprintf("%s/spans-%s-seed%d.jsonl", o.buildDir, wl.name, o.seed)
		if err := writeSpans(path, spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "spans %d written to %s\n", len(spans), path)
	} else {
		values = r.endToEndMetrics()
	}
	fmt.Fprintf(out, "snapshot_digest %s\n", r.digest)
	metrics, err := collect(defs, values)
	if err != nil {
		return nil, err
	}
	for _, e := range r.failures[:min(len(r.failures), 10)] {
		fmt.Fprintln(o.log, "e2ebench: failure:", e)
	}
	return &result{
		Correct:   len(r.failures) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   metrics,
	}, nil
}

// readHost describes the machine and build a result was measured on.
func readHost() map[string]any {
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"revision":   revision(),
		"source":     sourceDigest(),
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
}
