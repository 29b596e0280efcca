package ppd

// Instantiations reports how many times g has run the per-signature half
// of a grounding: once per distinct session signature it has grounded,
// since every run is memoised.
func Instantiations(g *Grounder) int { return len(g.bySig) }

// Memoised returns the grounding of uq that db's memo holds, or nil,
// without grounding anything.
func Memoised(db *DB, uq *UnionQuery) *Grounded { return db.memo.get(uq.String()) }
