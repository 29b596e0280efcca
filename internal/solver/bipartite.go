package solver

import (
	"fmt"

	"probpref/internal/label"
	"probpref/internal/pattern"
	"probpref/internal/rank"
	"probpref/internal/rim"
)

// Bipartite implements Algorithm 4 of the paper: exact inference for a union
// of bipartite patterns. Each edge (l, r) is the constraint alpha(l) <
// beta(r) on the minimum position of items carrying l and the maximum
// position of items carrying r; for bipartite patterns satisfying all edge
// constraints is equivalent to matching the pattern. States track Min/Max
// positions per (label set, role); edges and patterns move monotonically
// through the situations {uncertain, satisfied, violated}, and the solver
// only tracks labels appearing in uncertain edges of uncertain patterns
// (the paper's pruning optimization) — and of those, only the live ones: an
// edge reads alpha(l) only when an r-item is inserted and beta(r) only when
// an l-item is, so a tracker is dropped once no item of the edge's other
// side remains, and a later item of its own side is checked directly
// against the surviving opposite tracker. Complexity O(m^(qz)), the qz
// counting the live trackers of the widest layer.
//
// A state is a word vector: the satisfied-constraint bits and dead-pattern
// bits packed 16 per word, followed by one position word per tracker slot.
// Narrow unions (header + slots within four words) therefore pack into a
// single uint64 layer key; wider ones use the arena-backed fallback of
// state.go. Setup scratch comes from the pooled arena's bump allocators —
// small unions solve in a few microseconds, so even setup must not churn
// the heap. The solver is split into a session-independent compile half
// (constraint tables, census matrices, per-step feed lists) and an executor
// that only reads the sessions' Pi rows — one lane here; see plan.go.
//
// The solver accepts any DAG pattern and evaluates it under constraint
// semantics; for non-bipartite patterns the result is the upper bound used
// by the Most-Probable-Session optimization (Section 4.3.2), not the exact
// match probability.
func Bipartite(model *rim.Model, lab *label.Labeling, u pattern.Union, opts Options) (float64, error) {
	if len(u) == 0 {
		return 0, nil
	}
	ar := getArena()
	defer putArena(ar)
	var pl bipPlan
	if err := compileBipartite(&pl, planAlloc{ar}, model.Sigma(), lab, u); err != nil {
		return 0, err
	}
	if pl.constOne {
		return 1, nil // some pattern is empty: it matches every ranking
	}
	models, out := [1]*rim.Model{model}, [1]float64{}
	if err := runBipartite(ar, &pl, models[:], opts, out[:]); err != nil {
		return 0, err
	}
	return out[0], nil
}

// bipPlan is the session-independent compilation of a bipartite union:
// tracker slots, the constraint tables, the item-census matrices and the
// per-step feed lists — everything the executor needs except the Pi rows.
type bipPlan struct {
	m, nPats      int
	nSlots, nSets int
	slotIsMin     []bool
	consEdge      []bool
	consL, consR  []int
	consSet       []int
	slotCensus    []int
	patBits       [][]int
	match         []bool // step-major: match[i*nSets+si]
	remaining     []int  // step-major suffix counts: remaining[i*nSets+si]
	slotMatch     [][]int
	satW, deadW   int
	hw, words     int
	allSat        []uint64
	allDead       uint32
	constOne      bool // some pattern is empty: probability is 1
}

func compileBipartite(pl *bipPlan, a planAlloc, sigma rank.Ranking, lab *label.Labeling, u pattern.Union) error {
	if len(u) > 32 {
		return fmt.Errorf("%w: Bipartite supports at most 32 patterns", ErrShape)
	}
	m := len(sigma)

	// One labeling lookup per item; all setup label tests run on the slices.
	itemSets := a.sets(m)
	for i := range itemSets {
		itemSets[i] = lab.Of(sigma[i])
	}

	// Setup scratch is sized exactly and bump-allocated: for a
	// 21-transition solve the DP is trivial and heap churn would dominate.
	totalEdges, totalNodes, maxQ := 0, 0, 0
	for _, g := range u {
		totalEdges += len(g.Edges())
		totalNodes += g.NumNodes()
		if g.NumNodes() > maxQ {
			maxQ = g.NumNodes()
		}
	}
	maxCons := totalEdges + totalNodes
	maxSets := 2*totalEdges + 2*totalNodes

	// Trackers: one per distinct (label set, role). Role min tracks alpha,
	// role max tracks beta. Linear scan over the few slots — no Key-string
	// allocation.
	// Mutated setup state lives in one struct so the helper closures box a
	// single pointer instead of one heap cell per captured variable.
	var sc struct {
		slotLabels []label.Set
		slotIsMin  []bool
		setList    []label.Set
	}
	sc.slotLabels = a.sets(2*totalEdges + totalNodes)[:0]
	sc.slotIsMin = a.bools(2*totalEdges + totalNodes)[:0]
	slot := func(ls label.Set, isMin bool) int {
		for s, sl := range sc.slotLabels {
			if sc.slotIsMin[s] == isMin && sl.Equal(ls) {
				return s
			}
		}
		sc.slotLabels = append(sc.slotLabels, ls)
		sc.slotIsMin = append(sc.slotIsMin, isMin)
		return len(sc.slotLabels) - 1
	}

	// Constraints: edges (alpha(u) < beta(v)) and existence constraints for
	// isolated nodes. Each gets a global bit; the parallel slices hold, per
	// constraint, its kind, its alpha/beta slots (edges) and its label-set
	// census index (existence).
	consEdge := a.bools(maxCons)[:0]
	consL := a.ints(maxCons)[:0]
	consR := a.ints(maxCons)[:0]
	consSet := a.ints(maxCons)[:0]
	sc.setList = a.sets(maxSets)[:0]
	censusIdx := func(ls label.Set) int {
		for i, sl := range sc.setList {
			if sl.Equal(ls) {
				return i
			}
		}
		sc.setList = append(sc.setList, ls)
		return len(sc.setList) - 1
	}
	patBits := a.intSlices(len(u)) // per pattern, constraint indices
	bitsBacking := a.ints(maxCons)[:0]
	touched := a.bools(maxQ)
	for pi, g := range u {
		tch := touched[:g.NumNodes()]
		for v := range tch {
			tch[v] = false
		}
		biLo := len(bitsBacking)
		for _, e := range g.Edges() {
			tch[e[0]], tch[e[1]] = true, true
			consEdge = append(consEdge, true)
			consL = append(consL, slot(g.Node(e[0]).Labels, true))
			consR = append(consR, slot(g.Node(e[1]).Labels, false))
			consSet = append(consSet, 0)
			bitsBacking = append(bitsBacking, len(consEdge)-1)
		}
		for v := 0; v < g.NumNodes(); v++ {
			if !tch[v] {
				consEdge = append(consEdge, false)
				consL = append(consL, 0)
				consR = append(consR, 0)
				consSet = append(consSet, censusIdx(g.Node(v).Labels))
				bitsBacking = append(bitsBacking, len(consEdge)-1)
			}
		}
		patBits[pi] = bitsBacking[biLo:len(bitsBacking):len(bitsBacking)]
		if len(patBits[pi]) == 0 {
			pl.constOne = true // empty pattern matches every ranking
			return nil
		}
	}
	nCons := len(consEdge)
	if nCons > 64 {
		return fmt.Errorf("%w: union has %d constraints (max 64)", ErrShape, nCons)
	}
	slotLabels := sc.slotLabels
	nSlots := len(slotLabels)
	if nSlots > 64 {
		return fmt.Errorf("%w: union has %d tracked label roles (max 64)", ErrShape, nSlots)
	}

	// Census: intern every slot label set, then test each (set, item) pair
	// exactly once into one matrix; the suffix counts, the per-step feed
	// lists and the per-step existence matches all derive from it.
	for s := 0; s < nSlots; s++ {
		censusIdx(slotLabels[s])
	}
	setList := sc.setList
	nSets := len(setList)
	slotCensus := a.ints(nSlots)
	for s := 0; s < nSlots; s++ {
		slotCensus[s] = censusIdx(slotLabels[s])
	}
	// Both matrices are step-major so the solve loop rebinds one row per
	// step instead of copying: match[i*nSets+si] reports setList[si] ⊆
	// labels(sigma[i]); remaining[i*nSets+si] counts items of sigma[i..m-1]
	// matching setList[si].
	match := a.bools(m * nSets)
	for si, ls := range setList {
		for i := 0; i < m; i++ {
			match[i*nSets+si] = ls.SubsetOf(itemSets[i])
		}
	}
	remaining := a.ints((m + 1) * nSets)
	for i := m - 1; i >= 0; i-- {
		prev := remaining[(i+1)*nSets : (i+2)*nSets]
		row := remaining[i*nSets : (i+1)*nSets]
		mrow := match[i*nSets : (i+1)*nSets]
		for si := range row {
			row[si] = prev[si]
			if mrow[si] {
				row[si]++
			}
		}
	}

	// Per step: which slots does the inserted item feed? Two passes over a
	// single backing array.
	slotMatch := a.intSlices(m)
	nFeed := 0
	for s := 0; s < nSlots; s++ {
		nFeed += remaining[slotCensus[s]]
	}
	feedBacking := a.ints(nFeed)[:0]
	for i := 0; i < m; i++ {
		lo := len(feedBacking)
		for s := 0; s < nSlots; s++ {
			if match[i*nSets+slotCensus[s]] {
				feedBacking = append(feedBacking, s)
			}
		}
		slotMatch[i] = feedBacking[lo:len(feedBacking):len(feedBacking)]
	}

	// State layout: satW words of satisfied-constraint bits, deadW words of
	// dead-pattern bits, then nSlots position words.
	satW := (nCons + 15) / 16
	deadW := (len(u) + 15) / 16
	hw := satW + deadW

	allSat := a.u64s(len(u))
	for pi, bits := range patBits {
		for _, b := range bits {
			allSat[pi] |= 1 << uint(b)
		}
	}

	pl.m, pl.nPats = m, len(u)
	pl.nSlots, pl.nSets = nSlots, nSets
	pl.slotIsMin = sc.slotIsMin
	pl.consEdge, pl.consL, pl.consR, pl.consSet = consEdge, consL, consR, consSet
	pl.slotCensus = slotCensus
	pl.patBits = patBits
	pl.match, pl.remaining = match, remaining
	pl.slotMatch = slotMatch
	pl.satW, pl.deadW, pl.hw, pl.words = satW, deadW, hw, hw+nSlots
	pl.allSat = allSat
	pl.allDead = uint32(1)<<uint(len(u)) - 1
	return nil
}

const (
	bipAbsent  = int16(-1)
	bipDropped = int16(-2)
)

func (pl *bipPlan) packHeader(dst []int16, sat uint64, dead uint32) {
	for k := 0; k < pl.satW; k++ {
		dst[k] = int16(uint16(sat >> (16 * uint(k))))
	}
	for k := 0; k < pl.deadW; k++ {
		dst[pl.satW+k] = int16(uint16(dead >> (16 * uint(k))))
	}
}

func (pl *bipPlan) unpackHeader(src []int16) (sat uint64, dead uint32) {
	for k := 0; k < pl.satW; k++ {
		sat |= uint64(uint16(src[k])) << (16 * uint(k))
	}
	for k := 0; k < pl.deadW; k++ {
		dead |= uint32(uint16(src[pl.satW+k])) << (16 * uint(k))
	}
	return sat, dead
}

// runBipartite executes a compiled bipartite plan against the sessions of
// models in one layer walk, a mass value per lane per state; out[l] is
// session l's answer, its lane's absorbed mass. The walk is structural: the
// constraint re-evaluation, absorption, dead-state and tracker-drop
// decisions all depend on the state and plan alone, never on the Pi values,
// and successors are emitted even with zero mass — adding a zero
// contribution is bitwise neutral (all mass is non-negative, so x + 0.0 == x
// exactly) — so the lanes share every layer.
func runBipartite(ar *arena, pl *bipPlan, models []*rim.Model, opts Options, out []float64) error {
	ctx := opts.ctx()
	m, hw, words, S := pl.m, pl.hw, pl.words, len(models)
	nSlots := pl.nSlots
	slotIsMin := pl.slotIsMin
	consEdge, consL, consR, consSet := pl.consEdge, pl.consL, pl.consR, pl.consSet
	slotCensus, patBits := pl.slotCensus, pl.patBits
	allSat, allDead := pl.allSat, pl.allDead
	nPats := pl.nPats

	cur, nxt := &ar.layers[0], &ar.layers[1]
	init := ar.workspaces(1, words, words)[0].next
	pl.packHeader(init, 0, 0)
	for s := 0; s < nSlots; s++ {
		init[hw+s] = bipAbsent
	}
	cur.start(init, S)

	// The lanes' running absorbed mass lives in arena memory and is copied
	// to out at the end: the emitter that folds it escapes to the heap, and
	// out — a stack array under the single-shot solvers — must not follow.
	wbuf := ar.floats(S * (m + 1))
	probs, wbuf := wbuf[:S], wbuf[S:]
	clear(probs)
	// The expand closure is built once; the step loop only rebinds the
	// per-step state, held in one struct so the closure boxes a single
	// pointer.
	var stp struct {
		wj          []float64 // the step's laneWeights
		feed        []int
		steps       int
		itemMatches []bool
		remNow      []int
	}
	expand := func(ws *workspace, pk uint64, key []int16, q []float64, em *emitter) {
		key = ws.words(pk, key)
		sat, dead := pl.unpackHeader(key)
		vals := key[hw:]
		next := ws.next[hw:]
		itemMatches, remNow := stp.itemMatches, stp.remNow
		wj, feed, steps := stp.wj, stp.feed, stp.steps
		for j := 0; j < steps; j++ {
			jj := int16(j)
			for s, v := range vals {
				if v >= 0 && v >= jj {
					v++
				}
				next[s] = v
			}
			for _, s := range feed {
				if next[s] == bipDropped {
					continue
				}
				if slotIsMin[s] {
					if next[s] == bipAbsent || jj < next[s] {
						next[s] = jj
					}
				} else {
					if next[s] == bipAbsent || jj > next[s] {
						next[s] = jj
					}
				}
			}
			nSat, nDead := sat, dead
			// Re-evaluate uncertain constraints of alive patterns.
			for pi, bits := range patBits {
				if nDead&(1<<uint(pi)) != 0 {
					continue
				}
				for _, bi := range bits {
					if nSat&(1<<uint(bi)) != 0 {
						continue
					}
					if !consEdge[bi] {
						if itemMatches[consSet[bi]] {
							nSat |= 1 << uint(bi)
						} else if remNow[consSet[bi]] == 0 {
							nDead |= 1 << uint(pi)
							break
						}
						continue
					}
					va, vb := next[consL[bi]], next[consR[bi]]
					setL, setR := slotCensus[consL[bi]], slotCensus[consR[bi]]
					remL, remR := remNow[setL], remNow[setR]
					switch {
					// The last two cases cover a retired (no longer fed)
					// tracker: the inserted item itself stands in for it.
					case va >= 0 && vb >= 0 && va < vb,
						itemMatches[setL] && vb >= 0 && jj < vb,
						itemMatches[setR] && va >= 0 && va < jj:
						nSat |= 1 << uint(bi)
					case va < 0 && remL == 0, vb < 0 && remR == 0,
						va >= 0 && vb >= 0 && remL == 0 && remR == 0:
						nDead |= 1 << uint(pi)
					}
					if nDead&(1<<uint(pi)) != 0 {
						break
					}
				}
			}
			wrow := wj[j*S : (j+1)*S]
			done := false
			for pi := 0; pi < nPats; pi++ {
				if nDead&(1<<uint(pi)) == 0 && nSat&allSat[pi] == allSat[pi] {
					aw := em.absorbWindow()
					for l, ql := range q {
						aw[l] += ql * wrow[l]
					}
					done = true
					break
				}
			}
			if done {
				continue
			}
			if nDead == allDead {
				continue
			}
			// Drop trackers not used by any uncertain edge of an alive
			// pattern (the paper's onlyTrackLabelsFor).
			if !opts.NoTrackerDrop {
				var live [64]bool
				for pi, bits := range patBits {
					if nDead&(1<<uint(pi)) != 0 {
						continue
					}
					for _, bi := range bits {
						if nSat&(1<<uint(bi)) != 0 || !consEdge[bi] {
							continue
						}
						// A tracker is only read when an item of the
						// edge's other side is inserted.
						if remNow[slotCensus[consR[bi]]] > 0 {
							live[consL[bi]] = true
						}
						if remNow[slotCensus[consL[bi]]] > 0 {
							live[consR[bi]] = true
						}
					}
				}
				for s := range next {
					if !live[s] {
						next[s] = bipDropped
					}
				}
			}
			pl.packHeader(ws.next, nSat, nDead)
			dst := em.window(ws.next)
			for l, ql := range q {
				dst[l] += ql * wrow[l]
			}
		}
	}
	for i := 0; i < m; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		stp.wj, stp.feed, stp.steps = laneWeights(wbuf, models, i), pl.slotMatch[i], i+1
		stp.itemMatches = pl.match[i*pl.nSets : (i+1)*pl.nSets]
		stp.remNow = pl.remaining[(i+1)*pl.nSets : (i+2)*pl.nSets]
		if err := runStep(ctx, ar, cur, nxt, words, opts, probs, expand); err != nil {
			return err
		}
		if err := opts.layer(nxt.len()); err != nil {
			return err
		}
		cur, nxt = nxt, cur
	}
	copy(out, probs)
	return nil
}
