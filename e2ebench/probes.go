package main

// Layer probes of the traced run: the lookup handler without a socket, a
// replica reached directly versus through the router, and the daemons' own
// counters read from their metric registries.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/shard"
)

// discardWriter is a ResponseWriter that keeps only the status, so a
// handler probe times the handler and not a recorder's buffering.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header { return w.h }

func (w *discardWriter) WriteHeader(code int) { w.code = code }

func (w *discardWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return len(p), nil
}

// handlerProbe calls h.ServeHTTP in-process for n GETs and n/16 batches of
// gold keys and returns the mean time and heap bytes per call.
func handlerProbe(h http.Handler, keys []lookup, seed int64, n int) (getUS, getBytes, batchUS, batchBytes float64, err error) {
	serve := func(newReq func(i int) *http.Request, n int) (float64, float64, error) {
		reqs := make([]*http.Request, n)
		for i := range reqs {
			reqs[i] = newReq(i)
		}
		a0, t0 := allocatedBytes(), time.Now()
		for _, req := range reqs {
			w := &discardWriter{h: http.Header{}}
			h.ServeHTTP(w, req)
			if w.code != http.StatusOK && w.code != http.StatusNotFound {
				return 0, 0, fmt.Errorf("handler %s %s: HTTP %d", req.Method, req.URL, w.code)
			}
		}
		per := float64(n)
		return float64(time.Since(t0).Microseconds()) / per, float64(allocatedBytes()-a0) / per, nil
	}
	getReq := func(i int) *http.Request {
		lk := keys[pick(seed, int64(i), 7, len(keys))]
		req, _ := http.NewRequest(http.MethodGet, "http://aligner"+lk.path, nil) // constant, valid URL
		return req
	}
	half := len(keys) / 2
	batchReq := func(i int) *http.Request {
		side := i % 2
		body := struct {
			KB   string   `json:"kb"`
			Keys []string `json:"keys"`
		}{KB: fmt.Sprint(side + 1)}
		for j := 0; j < batchKeys; j++ {
			body.Keys = append(body.Keys, keys[side*half+pick(seed, int64(i), 8+j, half)].key)
		}
		data, _ := json.Marshal(body) // strings only; cannot fail
		req, _ := http.NewRequest(http.MethodPost, "http://aligner/v1/sameas", bytes.NewReader(data))
		return req
	}
	// One untimed pass first, so lazily built state is in place.
	if _, _, err = serve(getReq, n/8); err != nil {
		return
	}
	if getUS, getBytes, err = serve(getReq, n); err != nil {
		return
	}
	batchUS, batchBytes, err = serve(batchReq, max(n/16, 1))
	return
}

// hopProbe times single-connection GETs sent straight to the replica that
// owns the key against the same GETs through the router, interleaved in
// rounds so drift hits both alike, plus batches through the router. It
// returns median microseconds.
func hopProbe(ctx context.Context, rd *reader, f *fleet, n int) (direct, routed, batch float64, err error) {
	part, err := shard.NewPartitioner(shardGroups)
	if err != nil {
		return 0, 0, 0, err
	}
	var dl, rl, bl []float64
	timeIt := func(fn func() error) (float64, error) {
		t0 := time.Now()
		err := fn()
		return float64(time.Since(t0).Nanoseconds()) / 1e3, err
	}
	const round = 100
	for i := 0; i < n; i++ {
		lk := rd.keys[pick(rd.seed, int64(i), 9, len(rd.keys))]
		owner := f.shardURLs[part.Owner(lk.key)][0]
		first, second := owner, f.routeURL
		if (i/round)%2 == 1 {
			first, second = second, first
		}
		for _, base := range []string{first, second} {
			us, err := timeIt(func() error {
				_, err := rd.do(ctx, http.MethodGet, base, lk.path, nil)
				return err
			})
			if err != nil {
				return 0, 0, 0, err
			}
			if base == owner {
				dl = append(dl, us)
			} else {
				rl = append(rl, us)
			}
		}
	}
	for i := 0; i < max(n/16, 1); i++ {
		us, err := timeIt(func() error {
			_, err := rd.batch(ctx, f.routeURL, int64(i))
			return err
		})
		if err != nil {
			return 0, 0, 0, err
		}
		bl = append(bl, us)
	}
	return median(dl), median(rl), median(bl), nil
}

// counters reads a registry's exposition into sample name{labels} → value.
func counters(reg *obs.Registry) (map[string]float64, error) {
	var buf bytes.Buffer
	reg.WriteText(&buf)
	fams, err := obs.ParseExposition(&buf)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, f := range fams {
		for _, s := range f.Samples {
			out[s.Name+s.Labels] += s.Value
		}
	}
	return out, nil
}

// fleetCounters sums the counters the read path reports: the router's
// hedging and failover totals and the replicas' GET /v1/sameas request
// seconds.
type fleetCounters struct {
	hedges, hedgeWins, failovers float64
	getSeconds, getCount         float64
}

func readFleetCounters(f *fleet) (fleetCounters, error) {
	var fc fleetCounters
	rc, err := counters(f.router.MetricsRegistry())
	if err != nil {
		return fc, err
	}
	fc.hedges = rc["paris_router_hedges_total"]
	fc.hedgeWins = rc["paris_router_hedge_wins_total"]
	fc.failovers = rc["paris_router_failovers_total"]
	for _, g := range f.shards {
		for _, srv := range g {
			sc, err := counters(srv.MetricsRegistry())
			if err != nil {
				return fc, err
			}
			for name, v := range sc {
				if !strings.Contains(name, `route="GET /v1/sameas"`) {
					continue
				}
				switch {
				case strings.HasPrefix(name, "paris_http_request_seconds_sum{"):
					fc.getSeconds += v
				case strings.HasPrefix(name, "paris_http_request_seconds_count{"):
					fc.getCount += v
				}
			}
		}
	}
	return fc, nil
}

func (fc fleetCounters) sub(o fleetCounters) fleetCounters {
	return fleetCounters{fc.hedges - o.hedges, fc.hedgeWins - o.hedgeWins, fc.failovers - o.failovers,
		fc.getSeconds - o.getSeconds, fc.getCount - o.getCount}
}

func (fc fleetCounters) add(o fleetCounters) fleetCounters {
	return fleetCounters{fc.hedges + o.hedges, fc.hedgeWins + o.hedgeWins, fc.failovers + o.failovers,
		fc.getSeconds + o.getSeconds, fc.getCount + o.getCount}
}
