package solver

import (
	"fmt"

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
// schedule, match masks) and an executor that only reads the sessions' Pi
// rows — one lane here; see plan.go.
//
// This solver substitutes for the LTM engine of Cohen et al. in the general
// solver (substitution S1 of docs/ARCHITECTURE.md). It is exponential in
// the number of involved items (O(C(m, t) * t!) states in the worst case)
// and rejects instances with more than Options.MaxInvolved involved items.
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
	models, out := [1]*rim.Model{model}, [1]float64{}
	if err := runRelOrder(ar, &pl, models[:], opts, out[:]); err != nil {
		return 0, err
	}
	return out[0], nil
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
	constOne   bool   // some pattern has no nodes: probability is 1
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
	return nil
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

// runRelOrder executes a compiled relorder plan against the sessions of
// models in one layer walk, a mass value per lane per state; out[l] is
// session l's answer, its lane's absorbed mass. The walk is structural: gap
// emissions happen even when a gap's insertion mass is zero and
// involved-step successors are emitted (or absorbed) regardless of their
// mass — zero contributions are bitwise neutral — so the lanes share every
// layer.
func runRelOrder(ar *arena, pl *relPlan, models []*rim.Model, opts Options, out []float64) error {
	ctx := opts.ctx()
	S := len(models)
	entryWords := pl.entryWords

	cur, nxt := &ar.layers[0], &ar.layers[1]
	cur.start(nil, S)
	ins := 0 // involved items inserted so far
	// Absorbed mass accumulates in arena memory, not in out: see runBipartite.
	wbuf := ar.floats(S * (pl.m + 2))
	probs, wbuf := wbuf[:S], wbuf[S:]
	clear(probs)
	// The expand closures are built once; the step loop only rebinds the
	// per-step variables they capture. The one-word codec gets dedicated
	// closures operating on raw words — this loop is the solver's entire
	// hot path.
	var (
		w     []float64 // laneWeights on an involved step, lanePrefixes on a gap step
		stepI int       // insertion step i
		k     int       // entries per current state
		dstK  int       // entries per successor state
		xIdx  int       // involved index of the inserted item
	)
	expandInvolvedFast := func(ws *workspace, pk uint64, key []int16, q []float64, em *emitter) {
		key = ws.words(pk, key)
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
			wrow := w[j*S : (j+1)*S]
			if pl.matches(ws, ne, dstK) {
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
	expandGapFast := func(ws *workspace, pk uint64, key []int16, q []float64, em *emitter) {
		key = ws.words(pk, key)
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
			dst := em.window(ne)
			hiRow, loRow := w[(hi+1)*S:(hi+2)*S], w[lo*S:(lo+1)*S]
			for l, ql := range q {
				dst[l] += ql * (hiRow[l] - loRow[l])
			}
			if g < k {
				lo = int(uint16(key[g])&0x7ff) + 1
			}
		}
	}
	// Generic two-word variants for oversized instances.
	expandInvolvedWide := func(ws *workspace, pk uint64, key []int16, q []float64, em *emitter) {
		key = ws.words(pk, key)
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
			wrow := w[j*S : (j+1)*S]
			if pl.matches(ws, ne, dstK) {
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
	expandGapWide := func(ws *workspace, pk uint64, key []int16, q []float64, em *emitter) {
		key = ws.words(pk, key)
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
			hiRow, loRow := w[(hi+1)*S:(hi+2)*S], w[lo*S:(lo+1)*S]
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

	for i := 0; i < pl.m; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		isInvolved := pl.stepInv[i]
		xIdx = pl.stepIdx[i]
		stepI, k = i, ins
		expand := expandGap
		dstK = k
		if isInvolved {
			dstK = k + 1
			expand = expandInvolved
			w = laneWeights(wbuf, models, i)
		} else {
			w = lanePrefixes(wbuf, models, i)
		}
		if err := runStep(ctx, ar, cur, nxt, dstK*entryWords, opts, probs, expand); err != nil {
			return err
		}
		if isInvolved {
			ins++
		}
		if err := opts.layer(nxt.len()); err != nil {
			return err
		}
		cur, nxt = nxt, cur
	}
	copy(out, probs)
	return nil
}
