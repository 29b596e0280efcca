package ppd

// Instantiations reports how many times g has run the per-signature half
// of a grounding: once per distinct session signature it has grounded,
// since every run is memoised.
func Instantiations(g *Grounder) int { return len(g.bySig) }
