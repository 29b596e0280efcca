package solver

import (
	"fmt"

	"probpref/internal/label"
	"probpref/internal/pattern"
	"probpref/internal/rank"
	"probpref/internal/rim"
)

// BipartiteBasic is the basic version of the bipartite solver described in
// Section 4.3.1 of the paper: a dynamic program that tracks the minimum
// positions of all L-type label sets and the maximum positions of all
// R-type label sets through the whole insertion process, then enumerates
// the final states and sums the probability of those satisfying at least
// one pattern. It performs no satisfied/violated pruning and no tracker
// dropping, so its state space is the full O(m^(qz)); it exists as the
// ablation baseline for the optimized Bipartite solver. States are one
// position word per tracker slot in the packed layer representation of
// state.go.
func BipartiteBasic(model *rim.Model, lab *label.Labeling, u pattern.Union, opts Options) (float64, error) {
	if len(u) == 0 {
		return 0, nil
	}
	ar := getArena()
	defer putArena(ar)
	var pl basicPlan
	if err := compileBipartiteBasic(&pl, planAlloc{ar}, model.Sigma(), lab, u); err != nil {
		return 0, err
	}
	if pl.constOne {
		return 1, nil
	}
	models, out := [1]*rim.Model{model}, [1]float64{}
	if err := runBipartiteBasic(ar, &pl, models[:], opts, out[:]); err != nil {
		return 0, err
	}
	return out[0], nil
}

// basicPlan is the session-independent compilation of a union for the basic
// bipartite solver: tracker slots, per-pattern edge slot pairs, resolved
// existence slots and per-step feed lists.
type basicPlan struct {
	m, n      int
	slotIsMin []bool
	patEdgeL  [][]int // per pattern, alpha slot of each edge
	patEdgeR  [][]int // per pattern, beta slot of each edge
	patExist  [][]int // per pattern, min-position slots of isolated nodes
	slotMatch [][]int
	constOne  bool
}

func compileBipartiteBasic(pl *basicPlan, a planAlloc, sigma rank.Ranking, lab *label.Labeling, u pattern.Union) error {
	m := len(sigma)
	var slotLabels []label.Set
	var slotIsMin []bool
	slot := func(ls label.Set, isMin bool) int {
		for s, sl := range slotLabels {
			if slotIsMin[s] == isMin && sl.Equal(ls) {
				return s
			}
		}
		slotLabels = append(slotLabels, ls)
		slotIsMin = append(slotIsMin, isMin)
		return len(slotLabels) - 1
	}
	patEdgeL := a.intSlices(len(u))
	patEdgeR := a.intSlices(len(u))
	patExist := a.intSlices(len(u))
	nEdges, nNodes := 0, 0
	for _, g := range u {
		nEdges += len(g.Edges())
		nNodes += g.NumNodes()
	}
	edgeBacking := a.ints(2 * nEdges)[:0]
	existBacking := a.ints(nNodes)[:0]
	for pi, g := range u {
		touched := make([]bool, g.NumNodes())
		lLo := len(edgeBacking)
		for _, e := range g.Edges() {
			touched[e[0]], touched[e[1]] = true, true
			edgeBacking = append(edgeBacking, slot(g.Node(e[0]).Labels, true))
		}
		patEdgeL[pi] = edgeBacking[lLo:len(edgeBacking):len(edgeBacking)]
		rLo := len(edgeBacking)
		for _, e := range g.Edges() {
			edgeBacking = append(edgeBacking, slot(g.Node(e[1]).Labels, false))
		}
		patEdgeR[pi] = edgeBacking[rLo:len(edgeBacking):len(edgeBacking)]
		eLo := len(existBacking)
		for v := 0; v < g.NumNodes(); v++ {
			if !touched[v] {
				// Track existence through a min-position slot.
				existBacking = append(existBacking, slot(g.Node(v).Labels, true))
			}
		}
		patExist[pi] = existBacking[eLo:len(existBacking):len(existBacking)]
		if len(patEdgeL[pi]) == 0 && len(patExist[pi]) == 0 {
			pl.constOne = true
			return nil
		}
	}
	n := len(slotLabels)
	if n > 64 {
		return fmt.Errorf("%w: %d tracked label roles (max 64)", ErrShape, n)
	}

	slotMatch := a.intSlices(m)
	nFeed := 0
	for i := 0; i < m; i++ {
		for s := 0; s < n; s++ {
			if lab.HasAll(sigma[i], slotLabels[s]) {
				nFeed++
			}
		}
	}
	feedBacking := a.ints(nFeed)[:0]
	for i := 0; i < m; i++ {
		lo := len(feedBacking)
		for s := 0; s < n; s++ {
			if lab.HasAll(sigma[i], slotLabels[s]) {
				feedBacking = append(feedBacking, s)
			}
		}
		slotMatch[i] = feedBacking[lo:len(feedBacking):len(feedBacking)]
	}
	pl.m, pl.n = m, n
	pl.slotIsMin = slotIsMin
	pl.patEdgeL, pl.patEdgeR, pl.patExist = patEdgeL, patEdgeR, patExist
	pl.slotMatch = slotMatch
	return nil
}

// satisfiedAt reports whether the final state vals satisfies some pattern:
// every edge has alpha(l) < beta(r) and every isolated node is present.
func (pl *basicPlan) satisfiedAt(vals []int16) bool {
	for pi := range pl.patEdgeL {
		ok := true
		for ei, l := range pl.patEdgeL[pi] {
			r := pl.patEdgeR[pi][ei]
			if vals[l] < 0 || vals[r] < 0 || vals[l] >= vals[r] {
				ok = false
				break
			}
		}
		if ok {
			for _, s := range pl.patExist[pi] {
				if vals[s] < 0 {
					ok = false
					break
				}
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// runBipartiteBasic executes a compiled basic plan against the sessions of
// models in one layer walk, a mass value per lane per state, and enumerates
// the final states in insertion order; out[l] is session l's answer.
func runBipartiteBasic(ar *arena, pl *basicPlan, models []*rim.Model, opts Options, out []float64) error {
	ctx := opts.ctx()
	n, m, S := pl.n, pl.m, len(models)
	slotIsMin := pl.slotIsMin

	const absent = int16(-1)
	cur, nxt := &ar.layers[0], &ar.layers[1]
	init := ar.workspaces(1, n, n)[0].next
	for i := range init {
		init[i] = absent
	}
	cur.start(init, S)

	wbuf := ar.floats(S * m)
	var (
		wj    []float64
		feed  []int
		steps int
	)
	expand := func(ws *workspace, pk uint64, vals []int16, q []float64, em *emitter) {
		vals = ws.words(pk, vals)
		next := ws.next
		for j := 0; j < steps; j++ {
			jj := int16(j)
			for s, v := range vals {
				if v >= 0 && v >= jj {
					v++
				}
				next[s] = v
			}
			for _, s := range feed {
				if slotIsMin[s] {
					if next[s] == absent || jj < next[s] {
						next[s] = jj
					}
				} else {
					if next[s] == absent || jj > next[s] {
						next[s] = jj
					}
				}
			}
			dst := em.window(next)
			wrow := wj[j*S : (j+1)*S]
			for l, ql := range q {
				dst[l] += ql * wrow[l]
			}
		}
	}
	for i := 0; i < m; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		wj, feed, steps = laneWeights(wbuf, models, i), pl.slotMatch[i], i+1
		if err := runStep(ctx, ar, cur, nxt, n, opts, nil, expand); err != nil {
			return err
		}
		if err := opts.layer(nxt.len()); err != nil {
			return err
		}
		cur, nxt = nxt, cur
	}

	// Enumerate the final states: satisfied iff some pattern has every edge
	// alpha(l) < beta(r) and every isolated node present.
	clear(out)
	ws := &ar.workspaces(1, n, n)[0]
	nStates := cur.len()
	for ki := 0; ki < nStates; ki++ {
		if pl.satisfiedAt(ws.words(cur.state(ki))) {
			for l, q := range cur.valsAt(ki) {
				out[l] += q
			}
		}
	}
	return nil
}
