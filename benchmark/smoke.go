package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
)

// smokeOps is the smoke pass's op count per workload.
const smokeOps = 20

// smokeVoters caps the relation size of the smoke pass, which checks the
// harness (generator, in-process stacks, verifier), not the solver's speed.
const smokeVoters = 24

// runSmoke replays 20 generated ops of every workload through in-process
// handlers — no child process, no sockets — and checks every answer
// against the reference, the same way the real runs do.
func runSmoke(ctx context.Context, w io.Writer, seed int64) error {
	if err := os.MkdirAll("out", 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp("out", "smoke-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	failed := 0
	for _, full := range workloads {
		small := *full
		small.voters = min(full.voters, smokeVoters)
		res, err := smokeWorkload(ctx, &small, seed, filepath.Join(dir, small.name))
		if err != nil {
			return fmt.Errorf("smoke %s: %w", small.name, err)
		}
		fmt.Fprintf(w, "smoke %-14s %d ops, %d failed\n", small.name, res.Attempted, res.Failed)
		for _, f := range res.Failures {
			fmt.Fprintf(w, "   ! %s\n", f)
		}
		failed += res.Failed
	}
	if failed > 0 {
		return errFailed
	}
	return nil
}

func smokeWorkload(ctx context.Context, w *workload, seed int64, dir string) (*runResult, error) {
	g, err := generate(ctx, w, seed, smokeOps)
	if err != nil {
		return nil, err
	}
	var handler http.Handler
	if w.cluster {
		cl, err := newInprocCluster(w)
		if err != nil {
			return nil, err
		}
		defer cl.close()
		handler = cl.handler
	} else {
		st, err := newStack(w, dir, false)
		if err != nil {
			return nil, err
		}
		defer st.close()
		handler = st.handler
	}
	t := handlerTarget{handler}
	for _, o := range g.warm {
		if status, body, _ := t.do(o); status != http.StatusOK {
			return nil, fmt.Errorf("warm-up: status %d: %s", status, firstLine(body))
		}
	}
	// One client: two would race inside the engine, which materializes a
	// session model's insertion matrix on first use without synchronization
	// (harmless there, both writers store the same value, but it would fail
	// this pass under -race for a reason that is not the harness's).
	samples, _ := runLoad(ctx, t, g.seq, 1, nil)
	res := &runResult{Workload: w.name, Seed: seed, Ops: len(g.seq)}
	verify(ctx, w, g, samples, res)
	res.Correct = res.Failed == 0
	return res, nil
}
