package main

// The system under test, started in this process: one parisd aligner, a
// 2-group × 2-replica parisd shard fleet and a parisrouter in front of it,
// each on its own loopback listener, exactly as the daemons wire them.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/client"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/shard"
)

const (
	shardGroups   = 2
	shardReplicas = 2
)

// listening is one HTTP listener on a loopback port.
type listening struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*listening, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listening{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // returns http.ErrServerClosed after close
	}()
	return l, nil
}

// close stops the listener, drops its connections and waits for Serve to
// return.
func (l *listening) close() {
	_ = l.srv.Close() // the error only repeats a listener close failure
	<-l.done
}

type fleet struct {
	dir string

	aligner    *server.Server
	alignerURL string
	// alc is the benchmark's client to the aligner; groups are its clients
	// to every replica, in shard-group order, for publishing.
	alc    *client.Client
	groups [][]*client.Client

	shards    [][]*server.Server
	shardURLs [][]string
	router    *shard.Router
	routeURL  string

	listeners []*listening
	servers   []*server.Server
}

// startFleet starts every daemon with its state under dir. hc carries the
// benchmark's own requests (uploads, job polls, snapshot transfers).
func startFleet(dir string, hc *http.Client) (f *fleet, err error) {
	f = &fleet{dir: dir}
	defer func() {
		if err != nil {
			f.close()
			f = nil
		}
	}()
	start := func(name string, opts server.Options) (*server.Server, string, error) {
		opts.StateDir = filepath.Join(dir, name)
		opts.Logf = func(string, ...any) {}
		srv, err := server.New(opts)
		if err != nil {
			return nil, "", fmt.Errorf("starting %s: %w", name, err)
		}
		f.servers = append(f.servers, srv)
		l, err := listen(srv.Handler())
		if err != nil {
			return nil, "", err
		}
		f.listeners = append(f.listeners, l)
		return srv, l.url, nil
	}
	if f.aligner, f.alignerURL, err = start("aligner", server.Options{}); err != nil {
		return f, err
	}
	if f.alc, err = client.New(f.alignerURL, client.WithHTTPClient(hc)); err != nil {
		return f, err
	}
	var topology []string
	for g := 0; g < shardGroups; g++ {
		var urls []string
		var srvs []*server.Server
		var peers []*client.Client
		for r := 0; r < shardReplicas; r++ {
			srv, u, err := start(fmt.Sprintf("shard%d-%d", g, r), server.Options{ShardIndex: g, ShardCount: shardGroups})
			if err != nil {
				return f, err
			}
			peer, err := client.New(u, client.WithHTTPClient(hc))
			if err != nil {
				return f, err
			}
			urls, srvs, peers = append(urls, u), append(srvs, srv), append(peers, peer)
		}
		topology = append(topology, strings.Join(urls, ","))
		f.shards = append(f.shards, srvs)
		f.shardURLs = append(f.shardURLs, urls)
		f.groups = append(f.groups, peers)
	}
	if f.router, err = shard.NewRouter(topology); err != nil {
		return f, err
	}
	l, err := listen(f.router.Handler())
	if err != nil {
		return f, err
	}
	f.listeners = append(f.listeners, l)
	f.routeURL = l.url
	return f, nil
}

// close stops every listener (router first), then every daemon, and
// removes the state.
func (f *fleet) close() {
	for i := len(f.listeners) - 1; i >= 0; i-- {
		f.listeners[i].close()
	}
	for _, srv := range f.servers {
		_ = srv.Close() // state is removed next; a flush error cannot matter
	}
	_ = os.RemoveAll(f.dir) // scratch state; a leftover is ignored by git
}

// publish fetches snapshot id off the aligner, pushes it to every replica
// (split, PUT, two-phase publication) and refreshes the router until its
// epoch flips to id — the operator's publish — and returns the snapshot.
func (f *fleet) publish(ctx context.Context, tr *tracer, id string) (*core.ResultSnapshot, error) {
	var snap *core.ResultSnapshot
	if err := measure(ctx, tr, "client.get_snapshot", func(ctx context.Context) (err error) {
		snap, err = f.alc.GetSnapshot(ctx, id)
		return err
	}); err != nil {
		return nil, fmt.Errorf("fetching %s: %w", id, err)
	}
	if err := measure(ctx, tr, "shard.publish", func(ctx context.Context) error {
		return shard.PublishGroups(ctx, f.groups, id, snap)
	}); err != nil {
		return nil, fmt.Errorf("publishing %s: %w", id, err)
	}
	for try := 0; ; try++ {
		var epoch string
		err := measure(ctx, tr, "shard.refresh", func(ctx context.Context) (err error) {
			epoch, err = f.router.Refresh(ctx)
			return err
		})
		if err != nil {
			return nil, err
		}
		if epoch == id {
			return snap, nil
		}
		if try == 50 {
			return nil, errors.New("router epoch did not flip to " + id)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
