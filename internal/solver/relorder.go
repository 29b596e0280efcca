package solver

import (
	"fmt"
	"strconv"
	"strings"

	"probpref/internal/label"
	"probpref/internal/pattern"
	"probpref/internal/rank"
	"probpref/internal/rim"
)

// RelOrder computes Pr(G) exactly for an arbitrary pattern union by dynamic
// programming over the positions of the involved items — the items that can
// match at least one pattern node. Whether a ranking matches the union
// depends only on the relative order of these items, so states are
// (position vector of inserted involved items); inserting a non-involved
// item only shifts positions, and all insertion slots inside the same gap
// between involved items are merged. A state whose arrangement already
// matches the union is absorbed into the answer immediately (matching is
// monotone under insertion).
//
// A state is the position-sorted list of inserted involved items, one word
// per entry ((item index << 11) | position) whenever the item index fits 5
// bits and positions fit 11, two words otherwise; layers use the packed
// representation of state.go, so early layers (up to four inserted involved
// items) key as a single uint64. Union matching is precompiled to bitmask
// probes over the patterns' cached topological orders (see relPlan.matches).
// The solver is split into a session-independent compile half (involved-item
// schedule, match masks, activation step) and an executor that only reads
// the session's Pi rows; see plan.go.
//
// This solver substitutes for the LTM engine of Cohen et al. in the general
// solver (DESIGN.md, substitution S1). It is exponential in the number of
// involved items (O(C(m, t) * t!) states in the worst case) and rejects
// instances with more than Options.MaxInvolved involved items.
func RelOrder(model *rim.Model, lab *label.Labeling, u pattern.Union, opts Options) (float64, error) {
	if len(u) == 0 {
		return 0, nil
	}
	ar := getArena()
	defer putArena(ar)
	var pl relPlan
	if err := compileRelOrder(&pl, planAlloc{ar}, model.Sigma(), lab, u, opts.maxInvolved()); err != nil {
		return 0, err
	}
	if pl.constOne {
		return 1, nil
	}
	return runRelOrder(ar, &pl, model, opts)
}

// relPat is one pattern's compiled matcher: cached topological order and
// predecessor lists plus, per node, the bitmask over involved-item indices
// of the items that can satisfy it.
type relPat struct {
	topo  []int
	preds [][]int
	can   []uint64
}

// relPlan is the session-independent compilation of a union for RelOrder:
// the involved items, the per-step insertion schedule, the entry codec
// choice and the precompiled matchers.
type relPlan struct {
	m, t       int
	involved   []rank.Item
	u          pattern.Union
	lab        *label.Labeling
	oneWord    bool
	entryWords int
	useMasks   bool
	relPats    []relPat
	stepInv    []bool // per step, is the inserted item involved?
	stepIdx    []int  // per step, involved index of the inserted item
	// activation is the earliest insertion step whose successor states could
	// possibly match some pattern (a conservative, purely structural bound:
	// every node has at least one inserted candidate item and enough
	// involved items are inserted to realize the pattern's longest path).
	// Before this step the walk performs no absorption and never consults
	// the union, which is what makes walk prefixes shareable across plans
	// with the same insertion schedule. m when no pattern can ever match; 0
	// when the bound is unavailable (mask-free fallback matcher).
	activation int
	constOne   bool // some pattern has no nodes: probability is 1
}

func compileRelOrder(pl *relPlan, a planAlloc, sigma rank.Ranking, lab *label.Labeling, u pattern.Union, maxInvolved int) error {
	m := len(sigma)
	for _, g := range u {
		if g.NumNodes() == 0 {
			pl.constOne = true
			return nil
		}
	}
	involved := pattern.InvolvedItems(u, lab, m)
	t := len(involved)
	if t > maxInvolved {
		return fmt.Errorf("%w: %d involved items (limit %d)", ErrTooLarge, t, maxInvolved)
	}
	tIdx := make(map[rank.Item]int, t)
	for i, it := range involved {
		tIdx[it] = i
	}
	stepInv := a.bools(m)
	stepIdx := a.ints(m)
	for i := 0; i < m; i++ {
		xIdx, ok := tIdx[sigma[i]]
		stepInv[i], stepIdx[i] = ok, xIdx
	}

	// Entry codec: one word packs (item index, position) when the index fits
	// 5 bits and positions fit 11 — every realistic instance. The generic
	// two-word form handles the rest.
	oneWord := t <= 32 && m <= 2047
	entryWords := 1
	if !oneWord {
		entryWords = 2
	}

	// Matching is precompiled to integer operations: for every pattern node,
	// a bitmask over involved-item indices of the items that can satisfy it
	// (node labels ⊆ item labels). An arrangement matches a pattern iff the
	// greedy earliest embedding — the exact algorithm of pattern.Matches,
	// over the cached topological order and predecessor lists — completes,
	// tested with bit probes instead of label-set subset checks.
	maxNodes := 0
	for _, g := range u {
		if g.NumNodes() > maxNodes {
			maxNodes = g.NumNodes()
		}
	}
	useMasks := t <= 64 && maxNodes <= 16
	var relPats []relPat
	if useMasks {
		relPats = make([]relPat, len(u))
		for gi, g := range u {
			can := make([]uint64, g.NumNodes())
			for v := range can {
				nl := g.Node(v).Labels
				for ii, it := range involved {
					if nl.SubsetOf(lab.Of(it)) {
						can[v] |= 1 << uint(ii)
					}
				}
			}
			relPats[gi] = relPat{topo: g.TopoOrder(), preds: g.Preds(), can: can}
		}
	}

	pl.m, pl.t = m, t
	pl.involved = involved
	pl.u, pl.lab = u, lab
	pl.oneWord, pl.entryWords = oneWord, entryWords
	pl.useMasks = useMasks
	pl.relPats = relPats
	pl.stepInv, pl.stepIdx = stepInv, stepIdx
	pl.activation = pl.computeActivation()
	return nil
}

// computeActivation finds the earliest step whose successors could match
// some pattern. For each pattern: positions strictly increase along edges,
// so a longest path of L edges needs L+1 inserted involved items, and every
// node needs at least one inserted candidate item. The minimum over
// patterns of the first step satisfying both is a sound lower bound on the
// first absorption; requires the mask matcher (returns 0 — no usable bound —
// for the generic fallback).
func (pl *relPlan) computeActivation() int {
	if !pl.useMasks {
		return 0
	}
	act := pl.m
	depth := make([]int, 16)
	for gi := range pl.relPats {
		rp := &pl.relPats[gi]
		long := 0
		for _, v := range rp.topo {
			d := 0
			for _, pu := range rp.preds[v] {
				if depth[pu]+1 > d {
					d = depth[pu] + 1
				}
			}
			depth[v] = d
			if d > long {
				long = d
			}
		}
		need := long + 1
		var mask uint64
		ins := 0
		for i := 0; i < pl.m && i < act; i++ {
			if pl.stepInv[i] {
				mask |= 1 << uint(pl.stepIdx[i])
				ins++
			}
			if ins < need {
				continue
			}
			ok := true
			for _, cv := range rp.can {
				if cv&mask == 0 {
					ok = false
					break
				}
			}
			if ok {
				act = i
				break
			}
		}
	}
	return act
}

// scheduleKey fingerprints the plan's walk schedule: two relorder plans over
// the same reference ranking and the same involved items expand identical
// layers at every step before their activation (the walk never consults the
// union until then), so plans with equal keys can share a walk prefix.
func (pl *relPlan) scheduleKey(sigma rank.Ranking) string {
	var b strings.Builder
	b.WriteString(sigma.Key())
	b.WriteString("|inv:")
	for _, it := range pl.involved {
		b.WriteString(strconv.Itoa(int(it)))
		b.WriteByte(',')
	}
	return b.String()
}

func (pl *relPlan) entry(w []int16, e int) (int, int16) {
	if pl.oneWord {
		v := uint16(w[e])
		return int(v >> 11), int16(v & 0x7ff)
	}
	return int(w[2*e]), w[2*e+1]
}

// matches reports whether the arrangement encoded by the k-entry word
// vector (already position-sorted) matches the union.
func (pl *relPlan) matches(ws *workspace, w []int16, k int) bool {
	if !pl.useMasks {
		// Oversized instance (reachable through General's conjunctions,
		// whose node counts sum across patterns): fall back to the
		// generic matcher, memoized per arrangement in the per-worker
		// cache so each distinct item order runs one greedy embedding.
		// Byte keys hold item indices; memoization is skipped on the
		// (factorially intractable anyway) t > 255 instances where an
		// index would not fit a byte.
		memo := pl.t <= 255
		var kb []byte
		if memo {
			if cap(ws.kb) < k {
				ws.kb = make([]byte, pl.t)
			}
			kb = ws.kb[:k]
			for e := 0; e < k; e++ {
				idx, _ := pl.entry(w, e)
				kb[e] = byte(idx)
			}
			if v, ok := ws.match[string(kb)]; ok {
				return v
			}
		}
		if cap(ws.rank) < k {
			ws.rank = make(rank.Ranking, pl.t)
		}
		mini := ws.rank[:k]
		for e := 0; e < k; e++ {
			idx, _ := pl.entry(w, e)
			mini[e] = pl.involved[idx]
		}
		v := pl.u.Matches(mini, pl.lab)
		if memo {
			if ws.match == nil {
				ws.match = make(map[string]bool)
			}
			ws.match[string(kb)] = v
		}
		return v
	}
	if cap(ws.bits) < k {
		ws.bits = make([]uint64, pl.t)
	}
	bits := ws.bits[:k] // bit of the item at each position
	if pl.oneWord {
		for e := 0; e < k; e++ {
			bits[e] = 1 << (uint16(w[e]) >> 11)
		}
	} else {
		for e := 0; e < k; e++ {
			bits[e] = 1 << uint(w[2*e])
		}
	}
	for gi := range pl.relPats {
		rp := &pl.relPats[gi]
		var pos [16]int
		ok := true
		for _, v := range rp.topo {
			lowest := 0
			for _, pu := range rp.preds[v] {
				if pos[pu]+1 > lowest {
					lowest = pos[pu] + 1
				}
			}
			found := -1
			cv := rp.can[v]
			for q := lowest; q < k; q++ {
				if cv&bits[q] != 0 {
					found = q
					break
				}
			}
			if found < 0 {
				ok = false
				break
			}
			pos[v] = found
		}
		if ok {
			return true
		}
	}
	return false
}

// runRelOrder executes a compiled relorder plan against one session. The
// layer walk is structural: gap emissions happen even when a gap's
// insertion mass is zero and involved-step successors are emitted (or
// absorbed) regardless of their mass — zero contributions are bitwise
// neutral, and the Pi-independent walk is what the batched executor relies
// on.
func runRelOrder(ar *arena, pl *relPlan, model *rim.Model, opts Options) (float64, error) {
	ctx := opts.ctx()
	m := pl.m
	entryWords := pl.entryWords

	cur, nxt := &ar.layers[0], &ar.layers[1]
	cur.reset(0, 1)
	cur.addWords(nil, 1)
	prob := 0.0
	piPrefix := ar.prefix(m + 2)
	ins := 0 // involved items inserted so far

	// The expand closures are built once; the step loop only rebinds the
	// per-step variables they capture. The one-word codec gets dedicated
	// closures operating on raw words — this loop is the solver's entire
	// hot path.
	var (
		piRow []float64
		stepI int // insertion step i
		k     int // entries per current state
		dstK  int // entries per successor state
		xIdx  int // involved index of the inserted item
	)
	expandInvolvedFast := func(ws *workspace, key []int16, q float64, em *emitter) {
		ne := ws.next
		for j := 0; j <= stepI; j++ {
			p := q * piRow[j]
			jj := uint16(j)
			xw := int16(uint16(xIdx)<<11 | jj)
			out := 0
			inserted := false
			for e := 0; e < k; e++ {
				v := uint16(key[e])
				pos := v & 0x7ff
				if pos >= jj {
					pos++
				}
				if !inserted && pos > jj {
					ne[out] = xw
					out++
					inserted = true
				}
				ne[out] = int16(v&0xf800 | pos)
				out++
			}
			if !inserted {
				ne[out] = xw
			}
			if pl.matches(ws, ne, dstK) {
				em.absorb(p)
				continue
			}
			em.emit(ne, p)
		}
	}
	expandGapFast := func(ws *workspace, key []int16, q float64, em *emitter) {
		ne := ws.next
		lo := 0
		for g := 0; g <= k; g++ {
			hi := stepI
			if g < k {
				hi = int(uint16(key[g]) & 0x7ff)
			}
			if lo > hi {
				continue
			}
			copy(ne, key[:k])
			for e := g; e < k; e++ {
				ne[e]++ // position occupies the low bits; +1 cannot carry
			}
			em.emit(ne, q*(piPrefix[hi+1]-piPrefix[lo]))
			if g < k {
				lo = int(uint16(key[g])&0x7ff) + 1
			}
		}
	}
	// Generic two-word variants for oversized instances.
	expandInvolvedWide := func(ws *workspace, key []int16, q float64, em *emitter) {
		ne := ws.next
		for j := 0; j <= stepI; j++ {
			p := q * piRow[j]
			jj := int16(j)
			out := 0
			inserted := false
			for e := 0; e < k; e++ {
				idx, pos := int(key[2*e]), key[2*e+1]
				if pos >= jj {
					pos++
				}
				if !inserted && pos > jj {
					ne[2*out], ne[2*out+1] = int16(xIdx), jj
					out++
					inserted = true
				}
				ne[2*out], ne[2*out+1] = int16(idx), pos
				out++
			}
			if !inserted {
				ne[2*out], ne[2*out+1] = int16(xIdx), jj
			}
			if pl.matches(ws, ne, dstK) {
				em.absorb(p)
				continue
			}
			em.emit(ne, p)
		}
	}
	expandGapWide := func(ws *workspace, key []int16, q float64, em *emitter) {
		ne := ws.next
		lo := 0
		for g := 0; g <= k; g++ {
			hi := stepI
			if g < k {
				hi = int(key[2*g+1])
			}
			if lo > hi {
				continue
			}
			copy(ne, key[:2*k])
			for e := g; e < k; e++ {
				ne[2*e+1]++
			}
			em.emit(ne, q*(piPrefix[hi+1]-piPrefix[lo]))
			if g < k {
				lo = int(key[2*g+1]) + 1
			}
		}
	}
	expandInvolved, expandGap := expandInvolvedWide, expandGapWide
	if pl.oneWord {
		expandInvolved, expandGap = expandInvolvedFast, expandGapFast
	}

	for i := 0; i < m; i++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		isInvolved := pl.stepInv[i]
		xIdx = pl.stepIdx[i]
		piRow, stepI, k = model.PiRow(i), i, ins
		expand := expandGap
		dstK = k
		if isInvolved {
			dstK = k + 1
			expand = expandInvolved
		} else {
			// Prefix sums of the insertion row for gap merging.
			piPrefix[0] = 0
			for j := 0; j <= i; j++ {
				piPrefix[j+1] = piPrefix[j] + piRow[j]
			}
		}
		var err error
		prob, err = runStep(ctx, ar, cur, nxt, dstK*entryWords, opts, prob, expand)
		if err != nil {
			return 0, err
		}
		if isInvolved {
			ins++
		}
		if err := opts.layer(nxt.len()); err != nil {
			return 0, err
		}
		cur, nxt = nxt, cur
	}
	return prob, nil
}

// runRelOrderVec executes a compiled relorder plan against many sessions in
// one batched layer walk.
func runRelOrderVec(ar *arena, pl *relPlan, models []*rim.Model, opts Options, out []float64) error {
	cur, nxt := &ar.layers[0], &ar.layers[1]
	cur.resetStride(0, 1, len(models))
	for l, w := 0, cur.valsAt(cur.slotWords(nil)); l < len(models); l++ {
		w[l] = 1
	}
	clear(out)
	_, err := relOrderVecWalk(ar, pl, models, opts, cur, nxt, 0, pl.m, false, out)
	return err
}

// relOrderVecWalk drives the batched layer walk over insertion steps
// [from, to), starting from cur (already loaded) and ping-ponging with nxt.
// probs accumulates each lane's absorbed mass. When noMatch is set the
// matcher is skipped entirely — callers only set it for step ranges below
// the plan's activation step, where no arrangement can match, so skipping
// changes no emission and no bit of any lane. Returns the final current
// layer.
func relOrderVecWalk(ar *arena, pl *relPlan, models []*rim.Model, opts Options, cur, nxt *layerTable, from, to int, noMatch bool, probs []float64) (*layerTable, error) {
	ctx := opts.ctx()
	S := len(models)
	entryWords := pl.entryWords
	ins := 0
	for i := 0; i < from; i++ {
		if pl.stepInv[i] {
			ins++
		}
	}
	wbuf := ar.floats(S * (pl.m + 2))
	var (
		wj    []float64 // j-major per-lane weights (involved steps)
		pp    []float64 // j-major per-lane Pi prefix sums (gap steps)
		stepI int
		k     int
		dstK  int
		xIdx  int
	)
	expandInvolvedFast := func(ws *workspace, key []int16, q []float64, em *vecEmitter) {
		ne := ws.next
		for j := 0; j <= stepI; j++ {
			jj := uint16(j)
			xw := int16(uint16(xIdx)<<11 | jj)
			out := 0
			inserted := false
			for e := 0; e < k; e++ {
				v := uint16(key[e])
				pos := v & 0x7ff
				if pos >= jj {
					pos++
				}
				if !inserted && pos > jj {
					ne[out] = xw
					out++
					inserted = true
				}
				ne[out] = int16(v&0xf800 | pos)
				out++
			}
			if !inserted {
				ne[out] = xw
			}
			wrow := wj[j*S : (j+1)*S]
			if !noMatch && pl.matches(ws, ne, dstK) {
				aw := em.absorbWindow()
				for l, ql := range q {
					aw[l] += ql * wrow[l]
				}
				continue
			}
			dst := em.window(ne)
			for l, ql := range q {
				dst[l] += ql * wrow[l]
			}
		}
	}
	expandGapFast := func(ws *workspace, key []int16, q []float64, em *vecEmitter) {
		ne := ws.next
		lo := 0
		for g := 0; g <= k; g++ {
			hi := stepI
			if g < k {
				hi = int(uint16(key[g]) & 0x7ff)
			}
			if lo > hi {
				continue
			}
			copy(ne, key[:k])
			for e := g; e < k; e++ {
				ne[e]++
			}
			dst := em.window(ne)
			hiRow, loRow := pp[(hi+1)*S:(hi+2)*S], pp[lo*S:(lo+1)*S]
			for l, ql := range q {
				dst[l] += ql * (hiRow[l] - loRow[l])
			}
			if g < k {
				lo = int(uint16(key[g])&0x7ff) + 1
			}
		}
	}
	expandInvolvedWide := func(ws *workspace, key []int16, q []float64, em *vecEmitter) {
		ne := ws.next
		for j := 0; j <= stepI; j++ {
			jj := int16(j)
			out := 0
			inserted := false
			for e := 0; e < k; e++ {
				idx, pos := int(key[2*e]), key[2*e+1]
				if pos >= jj {
					pos++
				}
				if !inserted && pos > jj {
					ne[2*out], ne[2*out+1] = int16(xIdx), jj
					out++
					inserted = true
				}
				ne[2*out], ne[2*out+1] = int16(idx), pos
				out++
			}
			if !inserted {
				ne[2*out], ne[2*out+1] = int16(xIdx), jj
			}
			wrow := wj[j*S : (j+1)*S]
			if !noMatch && pl.matches(ws, ne, dstK) {
				aw := em.absorbWindow()
				for l, ql := range q {
					aw[l] += ql * wrow[l]
				}
				continue
			}
			dst := em.window(ne)
			for l, ql := range q {
				dst[l] += ql * wrow[l]
			}
		}
	}
	expandGapWide := func(ws *workspace, key []int16, q []float64, em *vecEmitter) {
		ne := ws.next
		lo := 0
		for g := 0; g <= k; g++ {
			hi := stepI
			if g < k {
				hi = int(key[2*g+1])
			}
			if lo > hi {
				continue
			}
			copy(ne, key[:2*k])
			for e := g; e < k; e++ {
				ne[2*e+1]++
			}
			dst := em.window(ne)
			hiRow, loRow := pp[(hi+1)*S:(hi+2)*S], pp[lo*S:(lo+1)*S]
			for l, ql := range q {
				dst[l] += ql * (hiRow[l] - loRow[l])
			}
			if g < k {
				lo = int(key[2*g+1]) + 1
			}
		}
	}
	expandInvolved, expandGap := expandInvolvedWide, expandGapWide
	if pl.oneWord {
		expandInvolved, expandGap = expandInvolvedFast, expandGapFast
	}

	for i := from; i < to; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		isInvolved := pl.stepInv[i]
		xIdx = pl.stepIdx[i]
		stepI, k = i, ins
		expand := expandGap
		dstK = k
		if isInvolved {
			dstK = k + 1
			expand = expandInvolved
			wj = wbuf[:(i+1)*S]
			for l := 0; l < S; l++ {
				row := models[l].PiRow(i)
				for j := 0; j <= i; j++ {
					wj[j*S+l] = row[j]
				}
			}
		} else {
			pp = wbuf[:(i+2)*S]
			clear(pp[:S])
			for l := 0; l < S; l++ {
				row := models[l].PiRow(i)
				for j := 0; j <= i; j++ {
					pp[(j+1)*S+l] = pp[j*S+l] + row[j]
				}
			}
		}
		if err := runStepVec(ctx, ar, cur, nxt, dstK*entryWords, S, opts, probs, expand); err != nil {
			return nil, err
		}
		if isInvolved {
			ins++
		}
		if err := opts.layer(nxt.len()); err != nil {
			return nil, err
		}
		cur, nxt = nxt, cur
	}
	return cur, nil
}

// solveSharedRelOrder solves several relorder plans with identical walk
// schedules (same reference ranking, same involved items — the caller
// groups by scheduleKey) against the same session list: one matcher-free
// batched walk up to the earliest activation step across the plans, a
// snapshot of the layer there, then a separate continuation walk per plan.
// Every plan must use the mask matcher (the generic fallback's per-worker
// memo is keyed by arrangement only and must not be shared across unions).
// outs[i] is bit-identical to SolveSessions on plans[i] alone: the shared
// prefix emits exactly what each plan's own walk emits (no arrangement can
// match before activation, so the skipped matcher changes nothing), and the
// snapshot restore reproduces the layer's insertion order and bits.
func solveSharedRelOrder(plans []*relPlan, models []*rim.Model, opts Options, outs [][]float64) error {
	d := plans[0].m
	for _, pl := range plans {
		if pl.activation < d {
			d = pl.activation
		}
	}
	ar := getArena()
	defer putArena(ar)
	S := len(models)
	cur, nxt := &ar.layers[0], &ar.layers[1]
	cur.resetStride(0, 1, S)
	for l, w := 0, cur.valsAt(cur.slotWords(nil)); l < S; l++ {
		w[l] = 1
	}
	fin, err := relOrderVecWalk(ar, plans[0], models, opts, cur, nxt, 0, d, true, nil)
	if err != nil {
		return err
	}
	snap := snapshotLayer(fin)
	for pi, pl := range plans {
		clear(outs[pi])
		start := &ar.layers[0]
		snap.restore(start)
		if _, err := relOrderVecWalk(ar, pl, models, opts, start, &ar.layers[1], d, pl.m, false, outs[pi]); err != nil {
			return err
		}
	}
	return nil
}
