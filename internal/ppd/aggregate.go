package ppd

import (
	"fmt"
	"maps"
	"math"
	"strconv"
	"sync"
)

// AggregateResult reports an aggregation query over the sessions satisfying
// a Boolean CQ (the paper's future-work extension of Section 7, e.g. "the
// average age of voters who prefer a Republican to a Democrat").
//
// Under possible-world semantics the set of satisfying sessions is random.
// Sum and Count are exact expectations (by linearity); Avg is the ratio
// Sum/Count, the standard first-order estimate of the expected average.
// Engine.DoGrouped answers it as it answers a count, then folds the resolved
// groups over the sessions that carry a value (groupProbs.aggregate).
type AggregateResult struct {
	// Sum is E[sum of the attribute over satisfying sessions].
	Sum float64
	// Count is E[number of satisfying sessions] (the Count-Session answer).
	Count float64
	// Avg is Sum / Count (NaN when Count is 0).
	Avg float64
	// Sessions is the number of sessions with a defined attribute value.
	Sessions int
	// Rows lists the per-session (probability, attribute value) terms the
	// aggregates fold over, in session order. A distributed coordinator
	// refolds concatenated partition rows through FoldAggregateRows to
	// reproduce the single-process Sum/Count/Avg bit-for-bit — summing
	// per-partition aggregates instead would reorder the float additions.
	Rows []AggRow
}

// AggRow is one session's contribution to an aggregation: the probability
// the session satisfies the query and the session's attribute value.
type AggRow struct {
	// Prob is the session's satisfaction probability.
	Prob float64
	// Value is the session's numeric attribute value.
	Value float64
}

// FoldAggregateRows folds per-session aggregation rows (in session order)
// into an AggregateResult using the exact accumulation order of the
// single-process evaluator, so the same rows always produce bit-identical
// Sum, Count and Avg regardless of how they were partitioned for transport.
func FoldAggregateRows(rows []AggRow) *AggregateResult {
	res := &AggregateResult{Sessions: len(rows), Rows: rows}
	for _, r := range rows {
		res.Sum += r.Prob * r.Value
		res.Count += r.Prob
	}
	if res.Count > 0 {
		res.Avg = res.Sum / res.Count
	} else {
		res.Avg = math.NaN()
	}
	return res
}

// aggValues maps the first attribute of rel's rows to their numeric attr.
// The map is parsed once per database version and attribute (see aggMemo)
// and is shared: callers must not modify it.
func (db *DB) aggValues(rel, attr string) (map[string]float64, error) {
	r, ok := db.Relations[rel]
	if !ok {
		return nil, fmt.Errorf("ppd: unknown relation %q", rel)
	}
	col := r.AttrIndex(attr)
	if col < 0 {
		return nil, fmt.Errorf("ppd: relation %q has no attribute %q", rel, attr)
	}
	key := aggKey{rel, attr}
	db.aggs.mu.Lock()
	defer db.aggs.mu.Unlock()
	if byKey, ok := db.aggs.vals[key]; ok {
		return byKey, nil
	}
	byKey := make(map[string]float64, len(r.Tuples))
	for _, row := range r.Tuples {
		if v, err := strconv.ParseFloat(row[col], 64); err == nil {
			byKey[row[0]] = v
		}
	}
	if db.aggs.vals == nil {
		db.aggs.vals = make(map[aggKey]map[string]float64)
	}
	db.aggs.vals[key] = byKey
	return byKey, nil
}

// aggMemo is a database version's memo of aggregate value columns, by
// relation and attribute. Like the grounding memo it lives on the DB: it
// is dropped when relations are added and handed to the successor version
// by AppendSessions, which leaves the o-relations alone. The zero value is
// ready to use.
type aggMemo struct {
	mu   sync.Mutex
	vals map[aggKey]map[string]float64
}

type aggKey struct{ rel, attr string }

// drop empties the memo; adding a relation may change a value column.
func (m *aggMemo) drop() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.vals = nil
}

// handTo copies the memo into a successor version's; the maps themselves
// are shared.
func (m *aggMemo) handTo(next *aggMemo) {
	m.mu.Lock()
	defer m.mu.Unlock()
	next.vals = maps.Clone(m.vals)
}

// aggregate folds the live sessions of rq's grounding whose first key
// value has a value in rq.vals, in session order, into an aggregation
// answer. A non-nil plan takes the half-width of the answer's Count: the
// sum of the folded sessions' group half-widths.
func (gp *groupProbs) aggregate(rq *groupedReq, plan *PlanStats) *AggregateResult {
	rows := make([]AggRow, 0, len(rq.gr.Live))
	for _, ls := range rq.gr.Live {
		if len(ls.Session.Key) == 0 {
			continue
		}
		v, ok := rq.vals[ls.Session.Key[0]]
		if !ok {
			continue
		}
		gi := rq.group(ls.Group)
		rows = append(rows, AggRow{Prob: gp.probs[gi], Value: v})
		if plan != nil {
			plan.CountHalfWidth += gp.reports[gi].HalfWidth
		}
	}
	return FoldAggregateRows(rows)
}
