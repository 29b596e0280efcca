package server

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"sync/atomic"
)

// Admission control: the query and ingest endpoints run behind a
// max-in-flight gate with a bounded wait queue. A request that finds all
// slots busy waits for one; a request that finds the queue full too is
// shed immediately with 503 Service Unavailable and a Retry-After hint,
// so a saturated daemon keeps answering cheaply instead of queueing
// without bound. Probe and management endpoints (/healthz, /models,
// /stats) bypass the gate — an operator must be able to observe and
// drain a saturated process, and the cluster coordinator's health checks
// must keep reaching it.

// DefaultMaxInFlight is the admitted-request bound used when
// Config.MaxInFlight is 0.
const DefaultMaxInFlight = 256

// DefaultMaxQueue is the admission-queue bound used when Config.MaxQueue
// is 0.
const DefaultMaxQueue = 256

// retryAfterSeconds is the Retry-After hint on shed responses, in seconds.
const retryAfterSeconds = 1

// gate is the admission semaphore: slots bounds the requests running,
// queued bounds the requests waiting for a slot.
type gate struct {
	slots    chan struct{}
	maxQueue int64
	queued   atomic.Int64
	sheds    atomic.Uint64
}

func newGate(maxInFlight, maxQueue int) *gate {
	return &gate{slots: make(chan struct{}, maxInFlight), maxQueue: int64(maxQueue)}
}

// admit blocks until a slot is free or the caller's context ends; it
// reports false — after counting the shed — when the wait queue is
// already full. A false return means the caller must not release.
func (g *gate) admit(ctx context.Context) bool {
	select {
	case g.slots <- struct{}{}:
		return true
	default:
	}
	if g.queued.Add(1) > g.maxQueue {
		g.queued.Add(-1)
		g.sheds.Add(1)
		return false
	}
	defer g.queued.Add(-1)
	select {
	case g.slots <- struct{}{}:
		return true
	case <-ctx.Done():
		// The client gave up while queued; the 503 it may still receive is
		// moot, but the shed is real back-pressure worth counting.
		g.sheds.Add(1)
		return false
	}
}

// release frees the slot taken by a successful admit.
func (g *gate) release() { <-g.slots }

// inFlight reports the currently admitted request count.
func (g *gate) inFlight() int { return len(g.slots) }

// gated wraps a handler behind the admission gate; with admission control
// disabled it returns the handler unchanged.
func (s *Service) gated(h http.HandlerFunc) http.HandlerFunc {
	if s.gate == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.gate.admit(r.Context()) {
			shedResponse(w)
			return
		}
		defer s.gate.release()
		h(w, r)
	}
}

// shedResponse writes the overload rejection: 503 with a Retry-After
// header, echoed in the JSON body for clients that only read bodies. The
// cluster coordinator treats exactly this status as retriable-to-replica.
func shedResponse(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	w.WriteHeader(http.StatusServiceUnavailable)
	json.NewEncoder(w).Encode(map[string]any{
		"error":       "service overloaded, retry later",
		"retry_after": retryAfterSeconds,
	})
}
