package solver

import (
	"math"
	"math/bits"
)

// This file prices a compiled plan. Plan.Cost predicts, from the tables
// CompilePlan built and without walking a layer, the two numbers a solve
// reports afterwards: Stats.Transitions, the work unit the adaptive planner
// (internal/ppd) budgets in, and Stats.PeakStates, the widest layer.
//
// The three models share one scheme. The width of the layer a step emits is
// bounded by a product over what its states track — how many positions each
// live tracker (or inserted involved item) can still take among the i+1
// items placed so far — and the step's transitions are the previous layer's
// width times the insertion points one state expands into. Every factor is
// an upper bound on what the walk can reach, so the price leans high: where
// it is wrong, the planner samples a group it could have solved, and does
// not walk one it cannot afford. The calibration test in internal/ppd holds
// the prices against real walks.

// maxPricedSlots is the widest tracker vector Cost models; the per-slot
// scratch lives on the stack in arrays and bitmasks of this size.
const maxPricedSlots = 64

// Cost predicts the plan's solve: the state-transitions it will generate
// (what Stats.Transitions counts) and its widest layer (Stats.PeakStates),
// both for the retiring walk, not the NoTrackerDrop ablation. It reads the
// compiled tables in O(m · slots) and allocates nothing. A plan outside the
// model — more than 64 trackers — is priced +Inf; a constant plan costs
// nothing.
func (p *Plan) Cost() (transitions, peak float64) {
	switch {
	case p.isConst:
		return 0, 0
	case p.algo == AlgoTwoLabel:
		return p.two.cost()
	case p.bip != nil:
		return p.bip.cost()
	}
	return p.rel.cost()
}

// slotRange is the number of positions a live tracker can take after k
// items are placed, inv of them items of its own label set or of a partner's:
// in a state that has not matched, every inserted item of a pattern's right
// side precedes every inserted item of its left side, so the minimum of the
// left side (the maximum of the right side) is confined to the k-inv+1
// places the uninvolved items leave around that block.
func slotRange(k float64, inv int) float64 {
	return math.Max(k-float64(inv)+1, 1)
}

// cost models the two-label walk of runTwoLabel.
//
// A tracker holds a position in the layer step i emits iff some step <= i
// fed it and no step since has retired it (see setRetire). A pattern with
// both trackers live keeps only the alpha >= beta half of their pairs; once
// an inserted item carries both of its label sets that item is the minimum
// and the maximum at once, and the maximum moves with the minimum. Each
// reduction is counted for patterns that share no tracker only — the halves
// of those that do are far from independent (z patterns on one minimum keep
// 1/(z+1) of the vectors, not 1/2^z). Two inserted items x in L_p and R_q, y in L_q and
// R_p (p = q included) cannot both have all of R before all of L: no state
// survives them and the rest of the walk is free — the absorption that ends
// most walks over overlapping label sets early. A step that feeds a tracker
// is priced at all i+1 insertion points of each state, though the walk
// expands only the interval that keeps it violated; one that feeds none is
// gap-merged into one successor per gap between live trackers.
func (pl *twoLabelPlan) cost() (transitions, peak float64) {
	n := pl.n
	if n > maxPricedSlots {
		return math.Inf(1), math.Inf(1)
	}
	pats := pl.pats // pattern p's alpha slot at 2p, its beta slot at 2p+1
	var (
		partners [maxPricedSlots]uint64 // per slot, the other slots of its patterns
		inv      [maxPricedSlots]int    // per slot, inserted items feeding it or a partner
		cross    [maxPricedSlots]uint64 // per min slot, the max slots some inserted item feeds with it
	)
	for p := 0; p < len(pats); p += 2 {
		l, r := pats[p], pats[p+1]
		partners[l] |= 1 << r
		partners[r] |= 1 << l
	}
	var liveSet uint64
	w := 1.0 // width of the layer being expanded; liveSet, its live trackers
	peak = 1
	for i := 0; i < pl.m; i++ {
		k := float64(i + 1)
		fmin, fmax := pl.set(i, setFeedMin)[0], pl.set(i, setFeedMax)[0]
		f := fmin | fmax
		if f != 0 {
			transitions += w * k
		} else {
			transitions += w * math.Min(float64(bits.OnesCount64(liveSet)+1), k)
		}
		if fmin != 0 && fmax != 0 {
			for p := 0; p < len(pats); p += 2 {
				if fmin>>pats[p]&1 == 0 {
					continue
				}
				for q := 0; q < len(pats); q += 2 {
					if fmax>>pats[q+1]&1 != 0 && cross[pats[q]]>>pats[p+1]&1 != 0 {
						return transitions, peak
					}
				}
			}
			for b := fmin; b != 0; b &= b - 1 {
				cross[bits.TrailingZeros64(b)] |= fmax
			}
		}
		liveSet = (liveSet | f) &^ pl.set(i, setRetire)[0]
		w = 1
		for s := 0; s < n; s++ {
			if f>>uint(s)&1 != 0 || partners[s]&f != 0 {
				inv[s]++
			}
			if liveSet>>uint(s)&1 != 0 {
				w *= slotRange(k, inv[s])
			}
		}
		var used uint64 // trackers a reduction has been counted for
		for p := 0; p < len(pats); p += 2 {
			l, r := pats[p], pats[p+1]
			pair := uint64(1)<<l | 1<<r
			switch {
			case liveSet&pair != pair:
			case cross[l]>>r&1 != 0:
				if used>>r&1 == 0 {
					w /= slotRange(k, inv[r])
					used |= 1 << r
				}
			case used&pair == 0:
				w /= 2
				used |= pair
			}
		}
		w = math.Max(w, 1)
		peak = math.Max(peak, w)
	}
	return transitions, peak
}

// cost models the bipartite walk of runBipartite. Liveness is read off the
// census the executor itself drops on: a fed tracker is kept while an edge
// using it still has an item of its other side to come. Every step expands
// a state into all i+1 insertion points (no gap merging). A pattern of a
// single edge is absorbed the moment that edge is satisfied, so its trackers
// have the two-label model's ranges and halves; a pattern of several
// constraints is not — its satisfied edges stay in the state — so its
// trackers range over all i+1 positions and each of its edges with both
// sides fed doubles the states by its satisfied bit. Dead patterns and
// state-dependent drops are not modelled: both only narrow the walk.
func (pl *bipPlan) cost() (transitions, peak float64) {
	var (
		partners [maxPricedSlots]uint64
		inv      [maxPricedSlots]int
		free     uint64 // trackers of some pattern of several constraints
	)
	for _, bits := range pl.patBits {
		for _, bi := range bits {
			if !pl.consEdge[bi] {
				continue
			}
			l, r := pl.consL[bi], pl.consR[bi]
			partners[l] |= 1 << uint(r)
			partners[r] |= 1 << uint(l)
			if len(bits) > 1 {
				free |= 1<<uint(l) | 1<<uint(r)
			}
		}
	}
	var fed uint64
	w := 1.0
	peak = 1
	for i := 0; i < pl.m; i++ {
		k := float64(i + 1)
		transitions += w * k
		var f uint64
		for _, s := range pl.slotMatch[i] {
			f |= 1 << uint(s)
		}
		fed |= f
		remNow := pl.remaining[(i+1)*pl.nSets : (i+2)*pl.nSets]
		var liveSet uint64
		for bi, edge := range pl.consEdge {
			if !edge {
				continue
			}
			l, r := pl.consL[bi], pl.consR[bi]
			if fed>>uint(l)&1 != 0 && remNow[pl.slotCensus[r]] > 0 {
				liveSet |= 1 << uint(l)
			}
			if fed>>uint(r)&1 != 0 && remNow[pl.slotCensus[l]] > 0 {
				liveSet |= 1 << uint(r)
			}
		}
		w = 1
		for s := 0; s < pl.nSlots; s++ {
			if f>>uint(s)&1 != 0 || partners[s]&f != 0 {
				inv[s]++
			}
			switch {
			case liveSet>>uint(s)&1 == 0:
			case free>>uint(s)&1 != 0:
				w *= k
			default:
				w *= slotRange(k, inv[s])
			}
		}
		var halved uint64
		for _, bits := range pl.patBits {
			for _, bi := range bits {
				if !pl.consEdge[bi] {
					continue
				}
				pair := uint64(1)<<uint(pl.consL[bi]) | 1<<uint(pl.consR[bi])
				switch {
				case len(bits) > 1:
					if fed&pair == pair {
						w *= 2
					}
				case liveSet&pair == pair && halved&pair == 0:
					w /= 2
					halved |= pair
				}
			}
		}
		w = math.Max(w, 1)
		peak = math.Max(peak, w)
	}
	return transitions, peak
}

// cost models the relative-order walk of runRelOrder: a state is an
// arrangement of the t involved items inserted so far among the i+1 placed,
// (i+1)!/(i+1-t)! of them at most. An involved step expands a state into all
// i+1 insertion points, an uninvolved one into the t+1 gaps around the
// involved items. Absorption is not modelled — how many arrangements already
// match is the inference problem itself — so a union that matches early is
// priced as if it never did.
func (pl *relPlan) cost() (transitions, peak float64) {
	w, t := 1.0, 0
	peak = 1
	for i := 0; i < pl.m; i++ {
		k := float64(i + 1)
		if pl.stepInv[i] {
			transitions += w * k
			w *= k
			t++
		} else {
			transitions += w * math.Min(float64(t+1), k)
			if i+1 > t {
				w *= k / (k - float64(t))
			}
		}
		peak = math.Max(peak, w)
	}
	return transitions, peak
}
