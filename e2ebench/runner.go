package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/diskstore"
	"repro/internal/store"
)

// setUps is the fewest set-ups plus pipelines a run makes; setup_s and
// the pipeline figures are medians over them, and a traced run needs both
// traced and untraced ones.
const setUps = 3

// runner carries one run's state from set-up to metrics.
type runner struct {
	o     options
	wl    workload
	tr    *tracer // nil unless --trace 1
	dir   string
	nproc int
	tp    *http.Transport
	hc    *http.Client

	c *corpus
	f *fleet

	setups      []float64
	pipes       []*pipelineRun // untraced pipelines
	tracedPipes []*pipelineRun
	last        *pipelineRun // the pipeline whose snapshot is served
	digest      string

	keys                      []lookup
	rd                        *reader
	mix                       *loadResult // every round's open-loop mix, for the traced figures
	rounds                    []roundFigures
	publishes                 []float64 // seconds per publish, the pipelines' and the extra ones
	counters                  fleetCounters
	rt                        runtimeCounters
	replay                    *replayResult
	handlerGet, handlerGetB   float64
	handlerBatch, handlerBatB float64
	direct, routed, rbatch    float64

	attempted, failed int
	failures          []error
}

func newRunner(o options, wl workload) (*runner, error) {
	r := &runner{
		o:     o,
		wl:    wl,
		dir:   filepath.Join(o.buildDir, fmt.Sprintf("work-%d", os.Getpid())),
		nproc: runtime.NumCPU(),
	}
	if o.trace {
		r.tr = &tracer{}
	}
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return nil, err
	}
	// The benchmark's connections: at most nproc to any one daemon, so the
	// read generator never holds more connections than there are CPUs.
	r.tp = &http.Transport{MaxConnsPerHost: r.nproc, MaxIdleConnsPerHost: r.nproc, DisableCompression: true}
	r.hc = &http.Client{Transport: tracingTransport{base: r.tp, tr: r.tr}, Timeout: 2 * time.Minute}
	return r, nil
}

func (r *runner) close() {
	if r.f != nil {
		r.f.close()
	}
	r.tp.CloseIdleConnections()
	_ = os.RemoveAll(r.dir) // scratch; a leftover is ignored by git
}

// op counts one checked operation; a non-nil err is a failure.
func (r *runner) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.failures = append(r.failures, err)
	}
}

func (r *runner) checkDigest(snapDigest string) {
	if r.digest == "" {
		r.digest = snapDigest
	}
	var err error
	if snapDigest != r.digest {
		err = fmt.Errorf("snapshot digest %s differs from the run's first %s", snapDigest, r.digest)
	}
	r.op(err)
}

func (r *runner) setUp(rep int) error {
	if r.f != nil {
		r.f.close()
		r.f = nil
	}
	runtime.GC()
	c, f, d, err := setUp(filepath.Join(r.dir, fmt.Sprintf("setup%d", rep)), r.o.seed, r.o.scale, r.hc)
	if err != nil {
		return err
	}
	r.c, r.f = c, f
	r.setups = append(r.setups, d.Seconds())
	return nil
}

// cycles sets the system up and runs the pipeline the workload's number of
// times, with its read rounds spread evenly between the pipelines: every
// figure's samples then come from the whole run, so a slow minute of the
// host lands on all of them alike.
func (r *runner) cycles(ctx context.Context) error {
	pipes := perRun(r.wl.pipelines, r.o.seconds, setUps)
	rounds := perRun(r.wl.rounds, r.o.seconds, 1)
	r.mix = &loadResult{}
	done := 0
	for rep := 0; rep < pipes; rep++ {
		if err := r.pipeline(ctx, rep); err != nil {
			return err
		}
		// The rounds due once rep+1 of the pipelines are done, rounded to
		// the nearest whole round.
		for due := ((rep+1)*rounds*2 + pipes) / (2 * pipes); done < due; done++ {
			if err := r.readRound(ctx); err != nil {
				return err
			}
		}
	}
	return nil
}

// pipeline sets the system up and runs one pipeline. A traced run
// alternates untraced and traced repetitions, so the tracing overhead is
// measured on the same work.
func (r *runner) pipeline(ctx context.Context, rep int) error {
	if err := r.setUp(rep); err != nil {
		return err
	}
	tr := r.tr
	if rep%2 == 0 {
		tr = nil
	}
	runtime.GC()
	var pr *pipelineRun
	var err error
	window(&r.rt, func() { pr, err = runPipeline(ctx, tr, r.f, r.c) })
	r.op(err)
	if err != nil {
		return err
	}
	r.last = pr
	r.publishes = append(r.publishes, pr.publish.Seconds())
	if err := r.republish(ctx, tr); err != nil {
		return err
	}
	if tr != nil {
		r.tracedPipes = append(r.tracedPipes, pr)
	} else {
		r.pipes = append(r.pipes, pr)
	}
	fmt.Fprintf(r.o.log, "e2ebench: %s pipeline %d: %.2fs (upload %.2fs, align %.2fs, publish %.3fs)\n",
		r.wl.name, rep, pr.pipeline.Seconds(), pr.upload.Seconds(), pr.align.Seconds(), pr.publish.Seconds())
	r.checkDigest(pr.digest)
	r.keys = lookupsFor(r.c.d.Gold.Pairs())
	for _, err := range checkFixedSample(ctx, r.hc, r.f, r.keys, r.o.seed) {
		r.op(err)
	}
	return nil
}

// extraPublishes is how many times each pipeline's snapshot is published
// again, under the next ID: one publish a pipeline is too few samples for a
// steady publish_s.
const extraPublishes = 1

// republish publishes the served snapshot again, extraPublishes times,
// under the next snapshot IDs. The aligner takes each version first (PUT,
// untimed), so it keeps serving the router's epoch and answers stay
// byte-comparable; the timed publish is then the pipeline's own: fetch off
// the aligner, split, PUT to every replica, epoch flip. Each starts right
// after a collection, as every read phase does.
func (r *runner) republish(ctx context.Context, tr *tracer) error {
	seq, err := diskstore.ParseSnapshotID(r.last.snapID)
	if err != nil {
		return err
	}
	snap, err := r.f.alc.GetSnapshot(ctx, r.last.snapID)
	if err != nil {
		return err
	}
	for k := 1; k <= extraPublishes; k++ {
		id := diskstore.SnapshotID(seq + uint64(k))
		_, err := r.f.alc.PutSnapshot(ctx, id, snap)
		r.op(err)
		if err != nil {
			return err
		}
		runtime.GC()
		t0 := time.Now()
		_, err = r.f.publish(ctx, tr, id)
		r.op(err)
		if err != nil {
			return err
		}
		r.publishes = append(r.publishes, time.Since(t0).Seconds())
		r.last.snapID = id
	}
	return nil
}

// roundFigures are one read round's read figures: open-loop latency
// quantiles and closed-loop throughput.
type roundFigures struct {
	getP50, getP99, batchP50, batchP99, rps float64
}

// readRound runs one read round against the router — the open-loop mix of
// GETs and batches, then closed-loop GET capacity — and replays the kept
// answers against the aligner that computed the served snapshot.
func (r *runner) readRound(ctx context.Context) error {
	r.rd = &reader{hc: r.hc, seed: r.o.seed, keys: r.keys}
	get := func(ctx context.Context, i int64) (exchange, error) { return r.rd.get(ctx, r.f.routeURL, i) }
	batch := func(ctx context.Context, i int64) (exchange, error) { return r.rd.batch(ctx, r.f.routeURL, i) }
	before, err := readFleetCounters(r.f)
	if err != nil {
		return err
	}
	var m, c *loadResult
	window(&r.rt, func() {
		// Every phase starts right after a collection, as testing.B does
		// before each benchmark: the collections inside a phase then
		// follow from the traffic's own allocation, not from whatever the
		// phase before it left behind.
		runtime.GC()
		m = openLoop(ctx, r.tr, r.nproc, mixPhase, get, batch)
		runtime.GC()
		c = closedLoop(ctx, r.nproc, capacityPhase, get)
	})
	after, err := readFleetCounters(r.f)
	if err != nil {
		return err
	}
	r.counters = r.counters.add(after.sub(before))
	for _, lr := range []*loadResult{m, c} {
		r.attempted += lr.attempted
		r.failed += lr.failed
		r.failures = append(r.failures, lr.errs...)
		for _, ex := range lr.kept {
			r.op(matchesAligner(ctx, r.hc, r.f.alignerURL, ex))
		}
		lr.kept = nil
	}
	rf := roundFigures{
		getP50: m.quantile(0.5, latency(false, false)), getP99: m.quantile(0.99, latency(false, false)),
		batchP50: m.quantile(0.5, latency(true, false)), batchP99: m.quantile(0.99, latency(true, false)),
		rps: c.completed / c.seconds,
	}
	r.rounds = append(r.rounds, rf)
	fmt.Fprintf(r.o.log, "e2ebench: %s read round: get p50 %.3fms p99 %.3fms, batch p50 %.3fms p99 %.3fms, capacity %.0f/s\n",
		r.wl.name, rf.getP50, rf.getP99, rf.batchP50, rf.batchP99, rf.rps)
	r.mix.merge(m)
	return nil
}

// ontologies loads the corpus the snapshot was computed from, for the
// quality evaluators, through the streaming loader parisd uses.
func (r *runner) ontologies() (*store.Ontology, *store.Ontology, error) {
	lits := store.NewLiterals()
	var onts [2]*store.Ontology
	for i, path := range r.c.paths {
		var err error
		onts[i], err = store.LoadFile(path, kbNames[i], lits, nil, store.WithParallelism(0), store.WithSpillDir(r.dir))
		if err != nil {
			return nil, nil, err
		}
	}
	return onts[0], onts[1], nil
}

// probe runs the traced run's layer probes on the idle fleet: the library
// replay of the align job, the in-process handler, and direct versus routed
// reads.
func (r *runner) probe(ctx context.Context) error {
	runtime.GC()
	rr, err := replayAlign(ctx, r.tr, r.dir, r.c)
	r.op(err)
	if err != nil {
		return err
	}
	r.replay = rr
	d, err := digest(rr.snap)
	if err != nil {
		return err
	}
	r.checkDigest(d)
	if r.handlerGet, r.handlerGetB, r.handlerBatch, r.handlerBatB, err = handlerProbe(r.f.aligner.Handler(), r.keys, r.o.seed, 4000); err != nil {
		return err
	}
	r.direct, r.routed, r.rbatch, err = hopProbe(ctx, r.rd, r.f, 2000)
	return err
}

func (r *runner) endToEndMetrics() map[string]float64 {
	v := map[string]float64{}
	pick := func(f func(*pipelineRun) float64) float64 {
		var xs []float64
		for _, p := range r.pipes {
			xs = append(xs, f(p))
		}
		return median(xs)
	}
	v["setup_s"] = median(r.setups)
	v["pipeline_s"] = pick(func(p *pipelineRun) float64 { return p.pipeline.Seconds() })
	v["upload_s"] = pick(func(p *pipelineRun) float64 { return p.upload.Seconds() })
	v["align_s"] = pick(func(p *pipelineRun) float64 { return p.align.Seconds() })
	v["peak_heap_mb"] = pick(func(p *pipelineRun) float64 { return mb(p.peakHeap) })
	v["publish_s"] = median(r.publishes)
	// Each read figure is the median over the rounds of that round's
	// figure, so one round caught by a stall of the host does not set it.
	round := func(f func(roundFigures) float64) float64 {
		var xs []float64
		for _, rf := range r.rounds {
			xs = append(xs, f(rf))
		}
		return median(xs)
	}
	v["get_p50_ms"] = round(func(rf roundFigures) float64 { return rf.getP50 })
	v["get_p99_ms"] = round(func(rf roundFigures) float64 { return rf.getP99 })
	v["get_rps"] = round(func(rf roundFigures) float64 { return rf.rps })
	v["batch_p50_ms"] = round(func(rf roundFigures) float64 { return rf.batchP50 })
	v["batch_p99_ms"] = round(func(rf roundFigures) float64 { return rf.batchP99 })
	r.addQuality(v, "instance_precision", "instance_recall", "relation_precision", "class_precision")
	v["success_rate"] = 1 - float64(r.failed)/float64(r.attempted)
	return v
}

// addQuality scores the served snapshot; an evaluation error is a failure
// and leaves the metrics out, which the result validation then refuses.
func (r *runner) addQuality(v map[string]float64, names ...string) {
	snap, err := r.f.alc.GetSnapshot(context.Background(), r.last.snapID)
	var o1, o2 *store.Ontology
	if err == nil {
		o1, o2, err = r.ontologies()
	}
	if err == nil {
		var q [4]float64
		q[0], q[1], q[2], q[3], err = quality(r.c.d, o1, o2, snap)
		for i, n := range names {
			v[n] = q[i]
		}
	}
	r.op(err)
}

func (r *runner) layerMetrics() map[string]float64 {
	spans := r.tr.snapshot()
	agg := aggregate(spans)
	self := selfTimes(spans)
	get := func(name string) *layerTotals {
		if lt := agg[name]; lt != nil {
			return lt
		}
		return &layerTotals{}
	}
	secs := func(name string) float64 { return get(name).total.Seconds() }
	allocMB := func(name string) float64 { return float64(get(name).alloc) / (1 << 20) }
	// Pipeline spans are averaged over the traced pipelines; the replay and
	// probes run once.
	np := float64(len(r.tracedPipes))
	perPipe := func(f func(*pipelineRun) float64) float64 {
		var sum float64
		for _, p := range r.tracedPipes {
			sum += f(p)
		}
		return sum / np
	}
	medianOf := func(name string, self map[uint64]time.Duration) float64 {
		var xs []float64
		for _, s := range spans {
			if s.Name == name {
				if self != nil {
					xs = append(xs, self[s.ID].Seconds())
				} else {
					xs = append(xs, s.dur().Seconds())
				}
			}
		}
		return median(xs)
	}
	meanAllocMB := func(name string) float64 { return allocMB(name) / float64(get(name).count) }

	v := map[string]float64{}
	rr := r.replay
	var triples, blocks, spills float64
	for _, p := range rr.validate {
		triples += float64(p.Triples)
		blocks += float64(p.Blocks)
		spills += float64(p.Spills)
	}
	v["ingest.validate_s"] = secs("ingest.validate")
	v["ingest.alloc_mb"] = allocMB("ingest.validate")
	v["ingest.triples_per_s"] = triples / secs("ingest.validate")
	v["ingest.blocks"] = blocks
	v["ingest.spills"] = spills
	v["server.upload_spool_s"] = secs("client.upload_kb") / np
	v["server.upload_spool_alloc_mb"] = allocMB("client.upload_kb") / np
	v["server.ingest_wait_s"] = secs("server.ingest_job") / np
	v["server.queue_s"] = perPipe(func(p *pipelineRun) float64 { return p.queue.Seconds() })

	v["store.load_s"] = secs("store.load")
	v["store.load_alloc_mb"] = allocMB("store.load")
	v["store.build_s"] = secs("store.build")
	v["store.build_alloc_mb"] = allocMB("store.build")
	v["store.alloc_mb"] = v["store.load_alloc_mb"] + v["store.build_alloc_mb"]
	v["store.facts"] = float64(rr.o1.NumFacts() + rr.o2.NumFacts())

	var inst, rel, instLater float64
	for i, it := range rr.iters {
		inst += it.InstanceTime.Seconds()
		rel += it.RelationTime.Seconds()
		if i > 0 {
			instLater += it.InstanceTime.Seconds()
		}
	}
	v["core.new_s"] = secs("core.new")
	v["core.instance_s"] = inst
	v["core.instance_s_per_iter"] = inst
	if len(rr.iters) > 1 {
		v["core.instance_s_per_iter"] = instLater / float64(len(rr.iters)-1)
	}
	v["core.relation_s"] = rel
	v["core.step_alloc_mb"] = allocMB("core.step")
	v["core.class_s"] = rr.classTime.Seconds()
	v["core.class_alloc_mb"] = allocMB("core.class")
	v["core.iterations"] = float64(len(rr.iters))
	v["core.assigned"] = float64(rr.iters[len(rr.iters)-1].Assigned)
	for _, n := range []string{"snapshot", "encode", "split"} {
		v["core."+n+"_s"] = secs("core." + n)
		v["core."+n+"_alloc_mb"] = allocMB("core." + n)
	}
	v["core.snapshot_bytes"] = float64(rr.encoded)
	v["diskstore.save_s"] = secs("diskstore.save")
	v["diskstore.save_alloc_mb"] = allocMB("diskstore.save")

	// The align job's layers, replayed: what they do not explain of the
	// traced align_s is left unattributed (index build, job bookkeeping,
	// polling granularity — or a layer the replay misses).
	attributed := v["server.queue_s"]
	for _, n := range []string{"store.load", "store.build", "core.new", "core.step", "core.class", "core.snapshot", "diskstore.save"} {
		attributed += secs(n)
	}
	v["align.unattributed_s"] = perPipe(func(p *pipelineRun) float64 { return p.align.Seconds() }) - attributed

	v["client.get_snapshot_s"] = medianOf("client.get_snapshot", nil)
	v["client.get_snapshot_alloc_mb"] = meanAllocMB("client.get_snapshot")
	v["server.put_snapshot_s"] = medianOf("http.PUT /v1/snapshots", nil)
	v["shard.publish_s"] = medianOf("shard.publish", nil)
	v["shard.publish_self_s"] = medianOf("shard.publish", self)
	v["shard.publish_alloc_mb"] = meanAllocMB("shard.publish")
	v["shard.refresh_s"] = medianOf("shard.refresh", nil)
	v["shard.refresh_alloc_mb"] = meanAllocMB("shard.refresh")

	v["server.handler_get_us"] = r.handlerGet
	v["server.handler_get_bytes"] = r.handlerGetB
	v["server.handler_batch_us"] = r.handlerBatch
	v["server.handler_batch_bytes"] = r.handlerBatB
	v["server.http_get_us"] = r.counters.getSeconds / r.counters.getCount * 1e6
	v["shard.direct_get_us"] = r.direct
	v["shard.router_get_us"] = r.routed
	v["shard.router_hop_us"] = r.routed - r.direct
	v["shard.router_batch_us"] = r.rbatch
	v["shard.hedges"] = r.counters.hedges
	v["shard.hedge_wins"] = r.counters.hedgeWins
	v["shard.failovers"] = r.counters.failovers

	v["runtime.gc_cycles"] = r.rt.gcCycles
	v["runtime.gc_pause_ms"] = r.rt.pauseNs / 1e6
	v["runtime.alloc_mb"] = r.rt.alloc / (1 << 20)
	g := r.mix
	v["loadgen.late_p50_ms"] = g.quantile(0.5, lateness)
	v["loadgen.late_p99_ms"] = g.quantile(0.99, lateness)
	// The overhead is measured on the phase that takes most of the run:
	// traced against untraced pipelines, or GETs in traced blocks against
	// GETs in untraced ones.
	if r.wl.pipelines >= r.wl.rounds {
		var untraced []float64
		for _, p := range r.pipes {
			untraced = append(untraced, p.pipeline.Seconds())
		}
		v["trace.overhead_pct"] = 100 * (perPipe(func(p *pipelineRun) float64 { return p.pipeline.Seconds() })/median(untraced) - 1)
	} else {
		v["trace.overhead_pct"] = 100 * (g.quantile(0.5, latency(false, true))/g.quantile(0.5, latency(false, false)) - 1)
	}
	v["trace.spans"] = float64(len(spans))
	return v
}
