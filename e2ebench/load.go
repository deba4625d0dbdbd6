package main

// Read traffic against the router. The open-loop generator releases each
// request at its absolute due time and times it from that due time, so a
// stall is charged to every request it delays; the closed loop measures
// capacity. Neither uses more connections or goroutines than it is given
// (the run gives it nproc).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"
)

// Nominal offered load. These are constants of the workload definition,
// never derived from a capacity measured at run time, so every build of
// the program is offered the same load. On a 2-core host two closed-loop
// connections sustain ~10k GET/s and ~2.2k batch/s through the router;
// each rate sits near one tenth of that, so the mix of both takes about one
// fifth of what the system sustains and leaves headroom on a shared host.
const (
	getRate   = 1000.0 // single-key GET /v1/sameas per second
	batchRate = 200.0  // 64-key POST /v1/sameas per second
	batchKeys = 64
	// batchEvery makes one request in batchEvery of the open-loop mix a
	// batch and the rest GETs, which gives each kind its rate.
	batchEvery = int64((getRate + batchRate) / batchRate)
)

// readRound is one read round: the open-loop mix of GETs and batches for
// mixPhase, then closed-loop GET capacity for capacityPhase. Each phase
// spans several of the garbage collections the read traffic causes, so a
// round's figures do not hang on whether one lands in it.
const (
	mixPhase      = 5 * time.Second
	capacityPhase = 2 * time.Second
	readRound     = mixPhase + capacityPhase
)

// sampleEvery keeps one response in this many for the correctness check
// against the aligner. It is prime to batchEvery, so the kept responses of
// the open-loop mix hold batches as well as GETs.
const sampleEvery = 49

// traceBlock is the run of consecutive requests that share a traced or
// untraced state in a traced run; alternating blocks give the tracing
// overhead on the same traffic.
const traceBlock = 500

// lookup is one gold key and the request path of its GET, which names the
// side (kb=1 or kb=2) it is resolved from.
type lookup struct {
	key  string
	path string
}

func lookupsFor(pairs [][2]string) []lookup {
	out := make([]lookup, 0, 2*len(pairs))
	for side := 0; side < 2; side++ {
		kb := fmt.Sprint(side + 1)
		for _, p := range pairs {
			q := url.Values{"kb": {kb}, "key": {p[side]}}
			out = append(out, lookup{key: p[side], path: "/v1/sameas?" + q.Encode()})
		}
	}
	return out
}

// pick maps (seed, request index, slot) to a key index with a splitmix64
// hash, so the key sequence is fixed by the seed whatever the interleaving
// of workers.
func pick(seed int64, i int64, slot int, n int) int {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9 + uint64(slot)*0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(n))
}

// exchange is one kept request and the response it got.
type exchange struct {
	method, path string
	body         []byte
	status       int
	resp         []byte
}

// reader issues the read traffic of one run.
type reader struct {
	hc   *http.Client
	seed int64
	keys []lookup
}

// get resolves the i-th key of the run's sequence through base.
func (r *reader) get(ctx context.Context, base string, i int64) (exchange, error) {
	lk := r.keys[pick(r.seed, i, 0, len(r.keys))]
	return r.do(ctx, http.MethodGet, base, lk.path, nil)
}

// batch resolves batchKeys keys of one side (alternating by request) in one
// POST.
func (r *reader) batch(ctx context.Context, base string, i int64) (exchange, error) {
	half := len(r.keys) / 2
	side := int(i % 2)
	req := struct {
		KB   string   `json:"kb"`
		Keys []string `json:"keys"`
	}{KB: fmt.Sprint(side + 1), Keys: make([]string, batchKeys)}
	for j := range req.Keys {
		req.Keys[j] = r.keys[side*half+pick(r.seed, i, j+1, half)].key
	}
	body, err := json.Marshal(req)
	if err != nil {
		return exchange{}, err
	}
	return r.do(ctx, http.MethodPost, base, "/v1/sameas", body)
}

func (r *reader) do(ctx context.Context, method, base, path string, body []byte) (exchange, error) {
	ex := exchange{method: method, path: path, body: body}
	var err error
	if ex.status, ex.resp, err = fetch(ctx, r.hc, method, base+path, body); err != nil {
		return ex, err
	}
	// A gold key the alignment left unmatched answers 404: a correct
	// answer, checked against the aligner like any other. Anything else
	// but 200 is a failure.
	if ex.status != http.StatusOK && !(method == http.MethodGet && ex.status == http.StatusNotFound) {
		return ex, fmt.Errorf("%s %s: HTTP %d: %s", method, path, ex.status, bytes.TrimSpace(ex.resp))
	}
	return ex, nil
}

// sample is one request of a generator window.
type sample struct {
	i      int64         // request index: its place in the schedule
	batch  bool          // a batch of the open-loop mix, not a GET
	lat    float64       // ms from due time (open loop) or send (closed loop) to response
	late   float64       // ms from due time to release (open loop)
	done   time.Duration // response time since the window started
	traced bool
}

// loadResult is what one or more generator calls measured.
type loadResult struct {
	samples   []sample
	completed float64 // closed loop: requests completed within the window
	seconds   float64 // closed loop: the window
	attempted int
	failed    int
	errs      []error // first few failures, for the log
	kept      []exchange
}

func (lr *loadResult) merge(o *loadResult) {
	lr.samples = append(lr.samples, o.samples...)
	lr.completed += o.completed
	lr.seconds += o.seconds
	lr.attempted += o.attempted
	lr.failed += o.failed
	if len(lr.errs) < 5 {
		lr.errs = append(lr.errs, o.errs[:min(len(o.errs), 5-len(lr.errs))]...)
	}
	lr.kept = append(lr.kept, o.kept...)
}

// quantile returns the nearest-rank q-quantile of the values val picks
// from every sample (val returns false to skip one), pooled over all the
// generator calls merged in.
func (lr *loadResult) quantile(q float64, val func(sample) (float64, bool)) float64 {
	var xs []float64
	for _, s := range lr.samples {
		if v, ok := val(s); ok {
			xs = append(xs, v)
		}
	}
	return quantile(xs, q)
}

// latency and lateness pick a sample's figures: latency for untraced or
// traced GETs or batches.
func latency(batch, traced bool) func(sample) (float64, bool) {
	return func(s sample) (float64, bool) { return s.lat, s.batch == batch && s.traced == traced }
}

func lateness(s sample) (float64, bool) { return s.late, true }

type issueFunc func(ctx context.Context, i int64) (exchange, error)

// openLoop offers the read mix — getRate GETs and batchRate batches per
// second — for window, over workers connections. Request i is due at
// start + i/rate; it is the (i/batchEvery)-th batch when i%batchEvery is
// batchEvery-1 and the i-th GET otherwise. A worker takes the next request,
// sleeps until it is due (or sends at once when it is already late), and
// the latency runs from the due time. In a traced run, every other block of
// traceBlock requests records a span per request.
func openLoop(ctx context.Context, tr *tracer, workers int, window time.Duration, get, batch issueFunc) *loadResult {
	const rate = getRate + batchRate
	n := max(int64(rate*window.Seconds()), 1)
	var next atomic.Int64
	start := time.Now()
	per := make([]loadResult, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(lr *loadResult) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				isBatch := i%batchEvery == batchEvery-1
				issue, spanName, j := get, "client.get", i
				if isBatch {
					issue, spanName, j = batch, "client.batch", i/batchEvery
				}
				traced := tr != nil && (i/traceBlock)%2 == 1
				rctx, sp := ctx, (*liveSpan)(nil)
				if traced {
					rctx, sp = tr.start(ctx, spanName, false)
				}
				ex, err := issue(rctx, j)
				sp.end()
				now := time.Now()
				lr.count(sample{i: i, batch: isBatch, lat: ms(now.Sub(due)), late: ms(sent.Sub(due)), done: now.Sub(start), traced: traced}, ex, err)
			}
		}(&per[w])
	}
	wg.Wait()
	out := &loadResult{}
	for w := range per {
		out.merge(&per[w])
	}
	return out
}

// closedLoop keeps workers connections busy for window, each sending its
// next request as soon as the previous one is answered.
func closedLoop(ctx context.Context, workers int, window time.Duration, issue issueFunc) *loadResult {
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(window)
	per := make([]loadResult, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(lr *loadResult) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				t0 := time.Now()
				ex, err := issue(ctx, i)
				now := time.Now()
				lr.count(sample{i: i, lat: ms(now.Sub(t0)), done: now.Sub(start)}, ex, err)
			}
		}(&per[w])
	}
	wg.Wait()
	out := &loadResult{}
	for w := range per {
		out.merge(&per[w])
	}
	// Requests sent after the deadline by a worker that checked it just
	// before are not the window's work.
	for _, s := range out.samples {
		if s.done <= window {
			out.completed++
		}
	}
	out.seconds = window.Seconds()
	return out
}

// count records a finished request; only successes become samples.
func (lr *loadResult) count(s sample, ex exchange, err error) {
	lr.attempted++
	if err != nil {
		lr.failed++
		if len(lr.errs) < 5 {
			lr.errs = append(lr.errs, err)
		}
		return
	}
	lr.samples = append(lr.samples, s)
	if s.i%sampleEvery == 0 {
		lr.kept = append(lr.kept, ex)
	}
}
