package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"

	"probpref/internal/cluster"
	"probpref/internal/ppd"
	"probpref/internal/registry"
	"probpref/internal/server"
	"probpref/internal/wal"
)

// This file builds, in-process, what cmd/hardqd builds from its flags: the
// same registry (snapshot directory, write-ahead log), the same model specs
// and the same Service configuration. The trace ladders and the smoke pass
// drive these stacks; the end-to-end numbers never do.

// stack is one in-process model-serving daemon.
type stack struct {
	reg     *registry.Registry
	svc     *server.Service
	handler http.Handler
	wlog    *wal.Log
}

// newStack mirrors hardqd's setup for the workload: -dataset polls
// -candidates 20 -seed 1 -voters V, plus -wal-dir/-snapshot-dir under dir
// for a durable workload, plus "-shard 0,1/2" when shard is set.
func newStack(w *workload, dir string, shard bool) (*stack, error) {
	st := &stack{reg: registry.New()}
	if w.durable {
		snap, wdir := filepath.Join(dir, "snap"), filepath.Join(dir, "wal")
		if err := os.MkdirAll(snap, 0o755); err != nil {
			return nil, err
		}
		st.reg.SetSnapshotDir(snap)
		var err error
		if st.wlog, err = wal.Open(wdir, wal.Options{Sync: wal.SyncAlways}); err != nil {
			return nil, err
		}
		if err := st.reg.SetWAL(st.wlog); err != nil {
			return nil, err
		}
	}
	base := registry.Spec{
		Name: server.DefaultModel, Dataset: "polls", Seed: daemonSeed,
		Candidates: 20, Voters: w.voters, Preload: true,
	}
	specs := []registry.Spec{base}
	if shard {
		specs = specs[:0]
		for p := 0; p < 2; p++ {
			s := base
			s.Name, s.Partition, s.Partitions = cluster.PartitionModel(base.Name, p), p, 2
			specs = append(specs, s)
		}
	}
	for _, s := range specs {
		if err := st.reg.Register(s); err != nil {
			return nil, err
		}
	}
	st.svc = server.NewMulti(st.reg, server.Config{Method: ppd.MethodAuto, Workers: daemonWorkers, Seed: daemonSeed})
	st.handler = st.svc.Handler()
	return st, nil
}

func (st *stack) close() {
	if st.wlog != nil {
		st.wlog.Close()
	}
}

// inprocTransport is an http.RoundTripper that serves requests from
// in-process handlers chosen by URL host: the coordinator's Config.Transport
// in the cluster ladder, so the fan-out runs without sockets. begin, when
// set, is called as a round trip starts and its result as it ends (the
// trace records cluster.fetch spans there).
type inprocTransport struct {
	handlers map[string]http.Handler
	begin    func(host string) (end func(bytesIn int))
	inflight sync.WaitGroup
}

func (t *inprocTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := t.handlers[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("inproc transport: unknown host %q", req.URL.Host)
	}
	t.inflight.Add(1)
	defer t.inflight.Done()
	end := func(int) {}
	if t.begin != nil {
		end = t.begin(req.URL.Host)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if req.Body != nil {
		io.Copy(io.Discard, req.Body)
		req.Body.Close()
	}
	end(rec.Body.Len())
	if err := req.Context().Err(); err != nil {
		return nil, err // the hedge's other attempt won; mirror a cancelled socket
	}
	return rec.Result(), nil
}

// inprocCluster is a coordinator over two in-process shards, mirroring
// cluster_hot's processes: each shard holds both partitions, the merged
// result cache is off, every other coordinator setting is the default.
type inprocCluster struct {
	shards    [2]*stack
	transport *inprocTransport
	coord     *cluster.Coordinator
	handler   http.Handler
}

func newInprocCluster(w *workload) (*inprocCluster, error) {
	c := &inprocCluster{transport: &inprocTransport{handlers: make(map[string]http.Handler)}}
	var cfgs []cluster.ShardConfig
	for i := range c.shards {
		st, err := newStack(w, "", true)
		if err != nil {
			return nil, err
		}
		c.shards[i] = st
		host := fmt.Sprintf("s%d.bench", i)
		c.transport.handlers[host] = st.handler
		cfgs = append(cfgs, cluster.ShardConfig{Name: fmt.Sprintf("s%d", i), URL: "http://" + host})
	}
	var err error
	c.coord, err = cluster.New(cfgs, cluster.Config{CacheSize: -1, Transport: c.transport})
	if err != nil {
		return nil, err
	}
	c.handler = c.coord.Handler()
	return c, nil
}

// close stops the coordinator and waits for hedged attempts still running.
func (c *inprocCluster) close() {
	c.coord.Close()
	c.transport.inflight.Wait()
}
