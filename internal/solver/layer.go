package solver

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"probpref/internal/label"
	"probpref/internal/rank"
	"probpref/internal/rim"
)

// This file implements the one layer-expansion driver: every DP solver's
// insertion step is "for each state of the current layer, in order, emit
// weighted successors (and absorb finished mass)", with one mass value per
// session lane — a single-session solve is the one-lane case. runStep
// executes that fold sequentially for small layers and in parallel for
// large ones, on a chunked schedule whose result is bit-for-bit the same at
// every worker count — see the determinism argument on runStep. All buffers
// (the ping-pong layers, per-worker scratch, per-chunk sublayers) live in a
// pooled arena so steady-state solves allocate nothing in the inner loop.

// Deterministic parallel-expansion schedule. Probability mass is folded in
// a fixed tree: per-chunk left folds whose subtotals merge in chunk order.
// Both the chunk boundaries (fixed size, contiguous) and the choice of
// chunked-vs-direct fold (source layer size against parallelThreshold) are
// functions of the layer alone — never of GOMAXPROCS or worker count — so
// every bit of every result is identical no matter how many workers
// execute the chunks, including one.
var (
	// parallelThreshold is the source-layer size at which expansion
	// switches from the direct sequential fold to the chunked fold. The
	// switch changes float association, so it must depend only on layer
	// size; it is set high enough that sub-threshold solves (where chunk
	// bookkeeping would cost more than it buys) keep the cheapest path.
	// Tests lower it to force chunking on small instances.
	parallelThreshold = 16384
	// expandChunk is the number of source states per chunk.
	expandChunk = 512
	// testWorkers, when positive, overrides the worker count (tests force
	// multi-worker expansion on single-CPU machines).
	testWorkers = 0
)

func expandWorkers() int {
	if testWorkers > 0 {
		return testWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// workspace is per-worker scratch: decode/successor buffers plus solver
// scratch that must not be shared across workers. Workers keep their
// workspace across chunks and steps of a solve.
type workspace struct {
	dec  []int16      // decode buffer for packed source keys (see words)
	next []int16      // successor word buffer
	bits []uint64     // RelOrder per-position item bitmasks
	rank rank.Ranking // RelOrder's generic-matcher fallback buffer
	kb   []byte       // arrangement-key buffer for the fallback memo
	// match memoizes the generic-matcher fallback per arrangement of
	// involved items. Per-worker: workers may recompute what another worker
	// cached, but the predicate is pure, so results are unaffected. Cleared
	// per solve (keys are solve-specific item indices).
	match map[string]bool
}

// ensure sizes the word buffers for a step expanding srcWords-wide states
// into dstWords-wide successors.
func (ws *workspace) ensure(srcWords, dstWords int) {
	if cap(ws.dec) < srcWords {
		ws.dec = make([]int16, srcWords)
	}
	ws.dec = ws.dec[:srcWords]
	if cap(ws.next) < dstWords {
		ws.next = make([]int16, dstWords)
	}
	ws.next = ws.next[:dstWords]
}

// words returns the word vector of a state runStep handed over as (k, key):
// key itself on a wide layer, or the packed key k decoded into the
// workspace's buffer.
func (ws *workspace) words(k uint64, key []int16) []int16 {
	if key != nil {
		return key
	}
	unpackWords(k, ws.dec)
	return ws.dec
}

// chunkBuf holds one parallel chunk's output: the successor sublayer and
// the emitter that filled it, which keeps the absorbed contributions in
// emission order (one value per lane per event, recorded individually so
// the merge can replay the sequential fold exactly) and the transition
// count. The emitter lives here, not on a worker's stack, because the
// expand closure it is handed to makes it escape.
type chunkBuf struct {
	l  layerTable
	em emitter
}

// bump is a typed bump allocator for per-solve setup scratch: take carves
// zeroed windows off one backing slice, and reset recycles the whole
// backing for the next solve. When the backing runs out it is abandoned to
// the garbage collector and replaced (earlier takes keep referencing the
// old memory), so steady-state solves of similar shape allocate nothing.
type bump[T any] struct {
	buf []T
	off int
}

func (b *bump[T]) reset() { b.off = 0 }

// take returns a zeroed window of n elements.
func (b *bump[T]) take(n int) []T {
	if b.off+n > len(b.buf) {
		b.buf = make([]T, 2*len(b.buf)+n)
		b.off = 0
	}
	s := b.buf[b.off : b.off+n : b.off+n]
	b.off += n
	clear(s)
	return s
}

// arena bundles every buffer a solve needs: the ping-pong layers, the
// sequential workspace, per-worker workspaces, per-chunk sublayers, float
// scratch and the setup bump allocators. Arenas are pooled; a steady-state
// solve reuses a previous solve's buffers end to end.
type arena struct {
	layers [2]layerTable
	ws     []workspace
	em     emitter // the sequential step's (see chunkBuf)
	chunks []chunkBuf
	fbuf   []float64 // lane scratch: running answers, per-step weight matrix

	// two is the two-label walk's step state and twoExpand its expand method
	// bound to it, built once per arena (see twoLabelWalk).
	two       twoLabelWalk
	twoExpand expandFn

	ints      bump[int]
	bools     bump[bool]
	sets      bump[label.Set]
	u64s      bump[uint64]
	intSlices bump[[]int]
}

// arenaNews counts arenas allocated by the pool. Every solve entry point
// borrows with getArena and returns with a deferred putArena, so the count
// must stay bounded even when solves exit early (ctx cancellation mid-layer,
// MaxStates, shape errors); the arena-lifecycle regression test asserts it.
var arenaNews atomic.Int64

var arenaPool = sync.Pool{New: func() any { arenaNews.Add(1); return new(arena) }}

// getArena fetches a recycled arena with fresh setup bumps and cleared
// per-worker memo caches.
func getArena() *arena {
	ar := arenaPool.Get().(*arena)
	ar.ints.reset()
	ar.bools.reset()
	ar.sets.reset()
	ar.u64s.reset()
	ar.intSlices.reset()
	for i := range ar.ws {
		clear(ar.ws[i].match)
	}
	return ar
}

func putArena(ar *arena) { arenaPool.Put(ar) }

// workspaces returns n per-worker workspaces sized for the step.
func (ar *arena) workspaces(n, srcWords, dstWords int) []workspace {
	for len(ar.ws) < n {
		ar.ws = append(ar.ws, workspace{})
	}
	ws := ar.ws[:n]
	for i := range ws {
		ws[i].ensure(srcWords, dstWords)
	}
	return ws
}

// floats exposes the arena's float scratch sized for n values (contents
// undefined; callers overwrite before reading).
func (ar *arena) floats(n int) []float64 {
	if cap(ar.fbuf) < n {
		ar.fbuf = make([]float64, n)
	}
	return ar.fbuf[:n]
}

// laneWeights gathers step i's insertion probabilities of every lane into
// buf, j-major: w[j*S+l] = Pi_l(i, j) for j <= i.
func laneWeights(buf []float64, models []*rim.Model, i int) []float64 {
	S := len(models)
	w := buf[:(i+1)*S]
	for l, mdl := range models {
		row := mdl.PiRow(i)
		for j := 0; j <= i; j++ {
			w[j*S+l] = row[j]
		}
	}
	return w
}

// lanePrefixes gathers the prefix sums of step i's insertion probabilities,
// which weigh a merged gap of insertion slots: w[j*S+l] = Pi_l(i, 0) + ... +
// Pi_l(i, j-1) for j <= i+1.
func lanePrefixes(buf []float64, models []*rim.Model, i int) []float64 {
	S := len(models)
	w := buf[:(i+2)*S]
	clear(w[:S])
	for l, mdl := range models {
		row := mdl.PiRow(i)
		for j := 0; j <= i; j++ {
			w[(j+1)*S+l] = w[j*S+l] + row[j]
		}
	}
	return w
}

// emitter receives one chunk's successors. Every state carries one mass
// value per session lane, and the solver's expand closure folds
// dst[l] += q[l]*w[l] into the window the emitter hands back, so the fold
// into each lane happens at the same points and in the same order whatever
// the lane count: lane l of an S-lane walk answers the bits of the one-lane
// walk of session l. In sequential mode the emitter targets the next layer
// directly and absorbed mass folds into the running answer vector; in
// parallel mode it targets the chunk sublayer and records absorbed
// contributions for the ordered merge.
type emitter struct {
	dst         *layerTable // its stride is the lane count
	seq         bool
	probs       []float64 // sequential absorbed fold, one accumulator per lane
	absorbed    []float64 // parallel absorbed recording, lanes values per event
	transitions int
}

// window returns the per-lane value window of the successor state with word
// vector w, appending a zeroed window on first touch.
func (e *emitter) window(w []int16) []float64 {
	e.transitions++
	return e.dst.valsAt(e.dst.slotWords(w))
}

// absorbWindow returns the per-lane accumulator for mass leaving the DP: the
// state has satisfied the union (or is otherwise finished) and its
// probability goes straight to the answer. It is the running answer vector
// in sequential mode, or a fresh per-event record in parallel mode (replayed
// in chunk order at merge time, reproducing the sequential fold per lane).
func (e *emitter) absorbWindow() []float64 {
	e.transitions++
	if e.seq {
		return e.probs
	}
	n := len(e.absorbed)
	for s := 0; s < e.dst.stride; s++ {
		e.absorbed = append(e.absorbed, 0)
	}
	return e.absorbed[n:]
}

// expandFn expands one source state — its packed key k with a nil key on a
// packed layer, its srcWords-wide word window key on a wide one (read-only;
// ws.words decodes either form) — and its per-lane mass vector q
// (read-only), generating successors into em using ws scratch. It must be
// pure given (k, key, q) — workers run it concurrently on disjoint states.
type expandFn func(ws *workspace, k uint64, key []int16, q []float64, em *emitter)

// runStep expands every state of cur into nxt (reset to dstWords-wide
// states of cur's stride) and folds every absorbed contribution into probs,
// per lane, in source order. Layers at or above parallelThreshold expand
// through the chunked fold: the source is split into fixed-size contiguous
// chunks, each chunk fills a private sublayer (successor mass folded within
// the chunk), and the sublayers merge in chunk order, folding each chunk's
// per-state subtotal into the merged layer. The resulting float association
// — per-chunk left folds combined left-to-right — is fully determined by the
// layer's state count (not state count x lanes) and the chunk constants, so
// results are bit-for-bit reproducible and independent of lane count, worker
// count and GOMAXPROCS; the workers only decide who computes which chunk,
// never how the numbers combine. (The path choice itself is also size-gated,
// never worker-gated: a 1-core machine runs the same chunked fold for large
// layers that a 64-core machine does.) Absorbed contributions are recorded
// individually per chunk and replayed in order at merge time, giving them
// the exact sequential ((probs+a1)+a2)+... association on every path. Stats
// are accumulated per-chunk and reduced at merge time on the calling
// goroutine, never incremented from workers.
func runStep(ctx context.Context, ar *arena, cur, nxt *layerTable, dstWords int, opts Options, probs []float64, fn expandFn) error {
	n, lanes := cur.len(), cur.stride
	nxt.reset(dstWords, n, lanes)
	if n < parallelThreshold {
		ws := &ar.workspaces(1, cur.words, dstWords)[0]
		em := &ar.em
		*em = emitter{dst: nxt, seq: true, probs: probs}
		for i := 0; i < n; i++ {
			if i&1023 == 1023 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			k, key := cur.state(i)
			fn(ws, k, key, cur.valsAt(i), em)
		}
		if opts.Stats != nil {
			opts.Stats.Transitions += em.transitions
		}
		return nil
	}

	nChunks := (n + expandChunk - 1) / expandChunk
	workers := expandWorkers()
	if workers > nChunks {
		workers = nChunks
	}
	for len(ar.chunks) < nChunks {
		ar.chunks = append(ar.chunks, chunkBuf{})
	}
	wss := ar.workspaces(workers, cur.words, dstWords)
	var (
		wg       sync.WaitGroup
		nextC    atomic.Int64
		stopped  atomic.Bool
		hintPerC = 2 * expandChunk
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(ws *workspace) {
			defer wg.Done()
			for {
				c := int(nextC.Add(1)) - 1
				if c >= nChunks || stopped.Load() {
					return
				}
				if ctx.Err() != nil {
					stopped.Store(true)
					return
				}
				cb := &ar.chunks[c]
				cb.l.reset(dstWords, hintPerC, lanes)
				cb.em = emitter{dst: &cb.l, absorbed: cb.em.absorbed[:0]}
				lo := c * expandChunk
				hi := lo + expandChunk
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					k, key := cur.state(i)
					fn(ws, k, key, cur.valsAt(i), &cb.em)
				}
			}
		}(&wss[w])
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for c := 0; c < nChunks; c++ {
		cb := &ar.chunks[c]
		for off := 0; off < len(cb.em.absorbed); off += lanes {
			for l, a := range cb.em.absorbed[off : off+lanes] {
				probs[l] += a
			}
		}
		nxt.mergeFrom(&cb.l)
		if opts.Stats != nil {
			opts.Stats.Transitions += cb.em.transitions
		}
	}
	return nil
}
