package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"
)

// The load is a closed loop: each client sends its next request only after
// the previous reply, so a slower system receives less load. A workload
// uses at most maxClients client goroutines on as many keep-alive
// connections whatever the machine, because the reference box has 2 cores:
// more would measure its scheduler, and the count is fixed so that numbers
// stay comparable on any box with at least that many.
const maxClients = 2

// opTimeout is the per-operation client timeout of the runaway guard.
const opTimeout = 10 * time.Second

// target is where ops are sent: a daemon over TCP, or an in-process handler.
type target interface {
	do(o *op) (status int, body []byte, err error)
}

// httpTarget posts ops to a base URL over keep-alive connections.
type httpTarget struct {
	client *http.Client
	base   string
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: opTimeout,
		Transport: &http.Transport{
			MaxIdleConns:        maxClients,
			MaxIdleConnsPerHost: maxClients,
			MaxConnsPerHost:     maxClients,
			IdleConnTimeout:     time.Minute,
		},
	}
}

func (t *httpTarget) do(o *op) (int, []byte, error) {
	resp, err := t.client.Post(t.base+o.path, "application/json", bytes.NewReader(o.body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// handlerTarget serves ops through an http.Handler in-process (the smoke
// pass and the trace's outermost span).
type handlerTarget struct{ h http.Handler }

func (t handlerTarget) do(o *op) (int, []byte, error) {
	req := httptest.NewRequest(http.MethodPost, o.path, bytes.NewReader(o.body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes(), nil
}

// sample is one completed operation. Times are offsets from the run start.
type sample struct {
	start, end time.Duration
	status     int
	body       []byte
	err        error
	done       bool
}

func (s *sample) latencyMS() float64 { return float64(s.end-s.start) / float64(time.Millisecond) }

// runLoad replays seq against t from n closed-loop clients: each takes the
// next index of the one shared sequence after its previous reply, and calls
// onTake (when set) with the index before it sends. It returns one sample
// per op (done=false for ops never sent because ctx ended) and the wall time
// of the run.
func runLoad(ctx context.Context, t target, seq []*op, n int, onTake func(i int)) ([]sample, time.Duration) {
	samples := make([]sample, len(seq))
	var next atomic.Int64
	var wg sync.WaitGroup
	begin := time.Now()
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(seq) {
					return
				}
				if onTake != nil {
					onTake(i)
				}
				s := &samples[i]
				s.start = time.Since(begin)
				s.status, s.body, s.err = t.do(seq[i])
				s.end = time.Since(begin)
				s.done = true
			}
		}()
	}
	wg.Wait()
	return samples, time.Since(begin)
}

// lap is one slice of a measured replay: ops [lo, hi) of its sequence, from
// the moment a client takes op lo to the moment one takes op hi (the clients
// never stop at a boundary). A lap lasts well under a second, and laps of
// one group are comparable: the same mix of operations against the same
// state. The shared reference box slows down 1.2-2.5x in bursts of 0.1-1.5 s,
// a few seconds apart when it is quiet and back to back when it is not, and
// a burst can only lengthen a lap. The end-to-end timings are therefore
// taken over the laps of each group that took the least wall time
// (workload.keep of them): the ones the fewest bursts fell into.
type lap struct {
	lo, hi  int
	ops     []*op
	samples []sample
	ok      []bool
	wall    time.Duration
	// cpuS is the user+sys CPU time of every server process over the lap.
	cpuS float64
	// group tells comparable laps: 0, or the lap's position in its replay
	// where the server's state grows along it (ingest_mixed).
	group int
}

// splitLaps cuts n ops into laps of lapOps; a shorter remainder joins the
// last lap (the frozen counts are whole laps, the smoke pass is one short
// one).
func splitLaps(n, lapOps int) []lap {
	laps := make([]lap, max(n/lapOps, 1))
	for i := range laps {
		laps[i] = lap{lo: i * lapOps, hi: (i + 1) * lapOps}
	}
	laps[len(laps)-1].hi = n
	return laps
}
