package main

// The operator's path: generate and write the world dumps, upload them,
// align, publish to the fleet. The traced run also replays the align job's
// work through the library calls parisd makes, because the job is opaque
// from outside the daemon.

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/client"
	"repro/internal/core"
	"repro/internal/diskstore"
	"repro/internal/gen"
	"repro/internal/ingest"
	"repro/internal/rdf"
	"repro/internal/shard"
	"repro/internal/store"
)

// kbNames are the upload names of the two dumps; the generator names its
// ontologies the same way, so snapshots record them as KB1 and KB2.
var kbNames = [2]string{"ykb", "dkb"}

// jobPoll is how often the benchmark polls a job record for completion.
const jobPoll = 5 * time.Millisecond

// alignIterations caps the fixpoint at the four iterations of the paper's
// Table 3. The world corpus is still moving by more than the default 1%
// convergence threshold after four iterations, so every seed runs the same
// number of passes and a run's work does not depend on where convergence
// happens to land.
const alignIterations = 4

// corpusScale is the world corpus scale of a run: 229k + 151k triples,
// 25.6 + 15.6 MB of N-Triples.
const corpusScale = 4

// worldConfig sizes the world corpus (the paper's Table 3 YAGO-vs-DBpedia
// shape) at scale × the generator's unit world.
func worldConfig(seed int64, scale float64) gen.WorldConfig {
	return gen.WorldConfig{
		Seed:      seed,
		People:    int(6000 * scale),
		Cities:    int(250 * scale),
		Companies: int(200 * scale),
		Movies:    int(1500 * scale),
		Albums:    int(1200 * scale),
		Books:     int(1200 * scale),
	}
}

// corpus is one generated world written to disk.
type corpus struct {
	d     *gen.Dataset
	paths [2]string
}

// setUp generates the corpus, writes its dumps under dir and starts the
// fleet: everything a run pays before its first measurement.
func setUp(dir string, seed int64, scale float64, hc *http.Client) (*corpus, *fleet, time.Duration, error) {
	t0 := time.Now()
	d := gen.World(worldConfig(seed, scale))
	data := filepath.Join(dir, "data")
	if err := d.WriteFiles(data); err != nil {
		return nil, nil, 0, fmt.Errorf("writing dumps: %w", err)
	}
	c := &corpus{d: d}
	for i, name := range kbNames {
		c.paths[i] = filepath.Join(data, name+".nt")
	}
	// Only the gold standards stay in memory: the triples live in the
	// dumps, and holding them would burden the garbage collector of the
	// process the system runs in.
	d.Triples1, d.Triples2 = nil, nil
	f, err := startFleet(filepath.Join(dir, "state"), hc)
	if err != nil {
		return nil, nil, 0, err
	}
	return c, f, time.Since(t0), nil
}

// pipelineRun is one upload → align → publish pass.
type pipelineRun struct {
	pipeline, upload, align, publish time.Duration
	queue                            time.Duration // align job Started − Created
	peakHeap                         uint64
	snapID                           string
	digest                           string // of the snapshot as the aligner served it
}

// runPipeline uploads both dumps with client.UploadKB and waits for their
// ingest jobs, runs an align job over the kb: references, fetches the
// snapshot and publishes it to every replica, and refreshes the router until
// its epoch flips: the operator's wait from upload to answers served
// fleet-wide.
func runPipeline(ctx context.Context, tr *tracer, f *fleet, c *corpus) (*pipelineRun, error) {
	ctx, root := tr.start(ctx, "pipeline", true)
	defer root.end()
	heap := startHeapSampler(5 * time.Millisecond)
	defer heap.finish()
	pr := &pipelineRun{}
	t0 := time.Now()

	uctx, usp := tr.start(ctx, "upload", true)
	var ingestJobs []client.Job
	for i, path := range c.paths {
		err := measure(uctx, tr, "client.upload_kb", func(ctx context.Context) error {
			dump, err := os.Open(path)
			if err != nil {
				return err
			}
			defer dump.Close()
			j, err := f.alc.UploadKB(ctx, client.UploadKBRequest{Name: kbNames[i], Format: ".nt"}, dump)
			ingestJobs = append(ingestJobs, j)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("uploading %s: %w", kbNames[i], err)
		}
	}
	if err := measure(uctx, tr, "server.ingest_job", func(ctx context.Context) error {
		for _, j := range ingestJobs {
			if _, err := waitDone(ctx, f.alc, j.ID); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	usp.end()
	pr.upload = time.Since(t0)

	ta := time.Now()
	actx, asp := tr.start(ctx, "align", true)
	var job client.Job
	if err := measure(actx, tr, "client.submit_job", func(ctx context.Context) (err error) {
		job, err = f.alc.SubmitJob(ctx, client.JobRequest{
			KB1: "kb:" + kbNames[0], KB2: "kb:" + kbNames[1], MaxIterations: alignIterations,
		})
		return err
	}); err != nil {
		return nil, fmt.Errorf("submitting the align job: %w", err)
	}
	if err := measure(actx, tr, "server.align_job", func(ctx context.Context) (err error) {
		job, err = waitDone(ctx, f.alc, job.ID)
		return err
	}); err != nil {
		return nil, err
	}
	asp.end()
	pr.align = time.Since(ta)
	if job.Started != nil {
		pr.queue = job.Started.Sub(job.Created)
	}
	pr.snapID = job.Snapshot

	tp := time.Now()
	pctx, psp := tr.start(ctx, "publish", true)
	snap, err := f.publish(pctx, tr, pr.snapID)
	psp.end()
	if err != nil {
		return nil, err
	}
	pr.publish = time.Since(tp)
	if pr.digest, err = digest(snap); err != nil {
		return nil, err
	}
	pr.pipeline = time.Since(t0)
	pr.peakHeap = heap.finish()
	return pr, nil
}

// waitDone waits for a job and fails unless it finished successfully.
func waitDone(ctx context.Context, c *client.Client, id string) (client.Job, error) {
	j, err := c.WaitJob(ctx, id, jobPoll)
	if err != nil {
		return j, fmt.Errorf("waiting for %s: %w", id, err)
	}
	if j.State != client.JobDone {
		return j, fmt.Errorf("job %s ended %s: %s", id, j.State, j.Error)
	}
	return j, nil
}

// replayResult is what the library replay of the align job found.
type replayResult struct {
	snap      *core.ResultSnapshot
	iters     []core.IterationStats
	classTime time.Duration
	encoded   int
	o1, o2    *store.Ontology
	// validate holds the ingest-only pass over each dump (the upload job's
	// work) and its final counters.
	validate []ingest.Progress
}

// replayAlign repeats, in parisd's order, the library calls an align job
// makes — streaming ingest into a store.Builder, Build, the fixpoint one
// StepContext at a time, Result, Snapshot, diskstore.SaveSnapshot — under
// an "align.replay" span, so each layer's share of align_s is measured.
// Before it, the upload job's work (ingest.Run with a no-op emit) is
// replayed per dump; after it, the publish-side calls (MarshalBinary,
// Split) that parisd and shard.PublishGroups make.
func replayAlign(ctx context.Context, tr *tracer, dir string, c *corpus) (*replayResult, error) {
	rr := &replayResult{}
	for _, path := range c.paths {
		var p ingest.Progress
		if err := measure(ctx, tr, "ingest.validate", func(ctx context.Context) error {
			dump, err := os.Open(path)
			if err != nil {
				return err
			}
			defer dump.Close()
			p, err = ingest.Run(ctx, dump, ingest.Options{TempDir: dir}, func(rdf.Triple) error { return nil })
			return err
		}); err != nil {
			return nil, err
		}
		rr.validate = append(rr.validate, p)
	}

	actx, root := tr.start(ctx, "align.replay", true)
	lits := store.NewLiterals()
	var onts [2]*store.Ontology
	for i, path := range c.paths {
		b := store.NewBuilder(kbNames[i], lits, nil)
		if err := measure(actx, tr, "store.load", func(ctx context.Context) error {
			dump, err := os.Open(path)
			if err != nil {
				return err
			}
			defer dump.Close()
			_, err = ingest.Run(ctx, dump, ingest.Options{TempDir: dir}, b.Add)
			return err
		}); err != nil {
			return nil, err
		}
		measure(actx, tr, "store.build", func(context.Context) error {
			onts[i] = b.Build()
			return nil
		})
	}
	rr.o1, rr.o2 = onts[0], onts[1]
	var a *core.Aligner
	if err := measure(actx, tr, "core.new", func(context.Context) (err error) {
		a, err = core.NewChecked(onts[0], onts[1], core.Config{})
		return err
	}); err != nil {
		return nil, err
	}
	// The loop core.Aligner.RunContext runs for the job's configuration.
	for it := 1; it <= alignIterations; it++ {
		var st core.IterationStats
		if err := measure(actx, tr, "core.step", func(ctx context.Context) (err error) {
			st, err = a.StepContext(ctx, it)
			return err
		}); err != nil {
			return nil, err
		}
		rr.iters = append(rr.iters, st)
		if st.ChangedFraction < core.DefaultConvergence {
			break
		}
	}
	var res *core.Result
	measure(actx, tr, "core.class", func(context.Context) error {
		res = a.Result()
		return nil
	})
	rr.classTime = res.ClassTime
	measure(actx, tr, "core.snapshot", func(context.Context) error {
		rr.snap = res.Snapshot()
		return nil
	})
	if err := measure(actx, tr, "diskstore.save", func(context.Context) error {
		st, err := diskstore.Open(filepath.Join(dir, "replay.db"))
		if err != nil {
			return err
		}
		if err := diskstore.SaveSnapshot(st, diskstore.SnapshotID(1), rr.snap); err != nil {
			st.Close()
			return err
		}
		return st.Close()
	}); err != nil {
		return nil, err
	}
	root.end()

	if err := measure(ctx, tr, "core.encode", func(context.Context) error {
		data, err := rr.snap.MarshalBinary()
		rr.encoded = len(data)
		return err
	}); err != nil {
		return nil, err
	}
	part, err := shard.NewPartitioner(shardGroups)
	if err != nil {
		return nil, err
	}
	measure(ctx, tr, "core.split", func(context.Context) error {
		rr.snap.Split(shardGroups, part.Owner)
		return nil
	})
	return rr, nil
}
