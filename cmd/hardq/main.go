// Command hardq evaluates conjunctive queries over a generated RIM-PPD.
//
// Usage examples:
//
//	hardq -dataset figure1 -query 'P(_, _; c1; c2), C(c1, _, F, _, _, _), C(c2, _, M, _, _, _)'
//	hardq -dataset polls -candidates 20 -voters 100 \
//	      -query 'P(_, _; l; r), C(l, p, M, _, _, _), C(r, p, F, _, _, _)' -mode count
//	hardq -dataset crowdrank -workers 500 -mode topk -k 5 -bound 1
//	hardq -dataset figure1 -mode countdist
//	hardq -dataset figure1 -mode aggregate -agg-rel C -agg-attr age
//	hardq -dataset figure1 -mode consensus -target median
//	hardq -dataset figure1 -query 'P(_,_; a; b), C(a,_,F,_,_,_) | P(_,_; a; b), C(a,D,_,_,JD,_)'
//	hardq -manifest examples/registry/manifest.json -model polls-small
//
// Every mode maps to one Kind of the unified query API: the CLI builds a
// single probpref Request and answers it through Engine.Do, exactly like
// the daemon's POST /v1/query endpoint.
//
// The query language follows the paper's datalog notation: preference atoms
// P(session...; left; right), ordinary atoms R(args...), and comparisons.
// Lowercase identifiers are variables, Capitalized identifiers and quoted
// strings are constants, "_" is a wildcard. A top-level "|" separates the
// disjuncts of a union of conjunctive queries.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"time"

	"probpref/internal/consensus"
	"probpref/internal/dataset"
	"probpref/internal/ppd"
	"probpref/internal/registry"
	"probpref/internal/server"
)

// consensusRanking renders a consensus ranking as its item keys, best
// first.
func consensusRanking(c *ppd.ConsensusResult) string {
	keys := make([]string, len(c.Ranking))
	for i, it := range c.Ranking {
		keys[i] = c.Domain[it]
	}
	return strings.Join(keys, " > ")
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hardq:", err)
		os.Exit(1)
	}
}

// rejectDatasetFlags fails when dataset-generator flags are combined with
// -manifest: those parameters come from the manifest spec, and silently
// ignoring an explicit flag would report results for a different dataset
// than the command line suggests. (-seed stays legal: it also seeds the
// samplers.)
func rejectDatasetFlags(fs *flag.FlagSet) error {
	var conflict []string
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "dataset", "candidates", "voters", "movies", "workers":
			conflict = append(conflict, "-"+f.Name)
		}
	})
	if len(conflict) > 0 {
		return fmt.Errorf("%s cannot be combined with -manifest: dataset parameters come from the manifest", strings.Join(conflict, ", "))
	}
	return nil
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hardq", flag.ContinueOnError)
	var (
		ds       = fs.String("dataset", "figure1", "dataset: "+strings.Join(dataset.Names(), " | "))
		manifest = fs.String("manifest", "", "model manifest file; overrides -dataset (pick the model with -model)")
		model    = fs.String("model", "", "model name to evaluate against (requires -manifest; default: the manifest's first model)")
		query    = fs.String("query", "", "conjunctive query (default: a dataset-specific demo query)")
		method   = fs.String("method", "auto", "solver: "+strings.Join(ppd.MethodNames(), " | "))
		deadline = fs.Duration("deadline", 0, "per-run latency budget, the request's deadline; implies -method adaptive (unless one is forced), which prices it once as solver work and samples, with reported error bars, the groups whose predicted exact cost exceeds what the budget has left")
		mode     = fs.String("mode", "bool", "query kind: "+strings.Join(ppd.KindNames(), " | "))
		target   = fs.String("target", "", "consensus answer for -mode consensus: "+strings.Join(consensus.TargetNames(), " | "))
		k        = fs.Int("k", 3, "k for -mode topk, or the cutoff of -target topk")
		bound    = fs.Int("bound", 1, "upper-bound edges for topk (0 = naive)")
		aggRel   = fs.String("agg-rel", "", "aggregate: o-relation providing the aggregated attribute")
		aggAttr  = fs.String("agg-attr", "", "aggregate: numeric attribute to aggregate")
		seed     = fs.Int64("seed", 1, "generator seed")
		cands    = fs.Int("candidates", 20, "polls: number of candidates")
		voters   = fs.Int("voters", 100, "polls: number of voters")
		movies   = fs.Int("movies", 0, "movielens: catalog size (default 120); crowdrank: HIT size (default 20)")
		workers  = fs.Int("workers", 500, "crowdrank: number of workers")
		verbose  = fs.Bool("v", false, "print per-session probabilities")
		explain  = fs.Bool("explain", false, "print the query plan instead of evaluating")
		par      = fs.Int("parallel", 1, "worker goroutines for group solving")
		cache    = fs.Int("cache", 0, "solve-cache capacity in entries (0 = off); prints a stats line, and with -repeat > 1 later evaluations hit the cache")
		repeat   = fs.Int("repeat", 1, "evaluate the query N times; the printed timing covers the last run (pair with -cache to measure warm-cache latency)")
	)
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var (
		db       *ppd.DB
		defQuery string
		dsName   = *ds
		err      error
	)
	if *manifest != "" {
		if err := rejectDatasetFlags(fs); err != nil {
			return err
		}
		man, err := registry.LoadManifest(*manifest)
		if err != nil {
			return err
		}
		spec := man.Models[0]
		if *model != "" {
			found := false
			for _, s := range man.Models {
				if s.Name == *model {
					spec, found = s, true
					break
				}
			}
			if !found {
				names := make([]string, len(man.Models))
				for i, s := range man.Models {
					names[i] = s.Name
				}
				return fmt.Errorf("model %q not in manifest %s (have %s)", *model, *manifest, strings.Join(names, ", "))
			}
		}
		if db, defQuery, err = registry.Build(spec); err != nil {
			return err
		}
		dsName = fmt.Sprintf("%s (model %s)", spec.Dataset, spec.Name)
	} else {
		if *model != "" {
			return fmt.Errorf("-model requires -manifest")
		}
		db, defQuery, err = dataset.Build(dataset.BuildConfig{
			Name: *ds, Seed: *seed, Candidates: *cands, Voters: *voters, Movies: *movies, Workers: *workers,
		})
		if err != nil {
			return err
		}
	}
	src := *query
	if src == "" {
		src = defQuery
	}
	uq, err := ppd.ParseUnion(src)
	if err != nil {
		return err
	}
	q := uq.Disjuncts[0]
	m, err := ppd.ParseMethod(*method)
	if err != nil {
		return err
	}
	kind, err := ppd.ParseKind(*mode)
	if err != nil {
		return err
	}
	if kind == ppd.KindAggregate && (*aggRel == "" || *aggAttr == "") {
		return fmt.Errorf("-mode aggregate requires -agg-rel and -agg-attr")
	}
	if kind == ppd.KindConsensus && *target == "" {
		return fmt.Errorf("-mode consensus requires -target (%s)", strings.Join(consensus.TargetNames(), " | "))
	}
	// The whole CLI answers through the unified request: one Do call per
	// evaluation, whatever the kind.
	req := &ppd.Request{Kind: kind, Queries: uq.Disjuncts}
	switch kind {
	case ppd.KindTopK:
		req.K, req.BoundEdges = *k, *bound
	case ppd.KindAggregate:
		req.AggRel, req.AggAttr = *aggRel, *aggAttr
	case ppd.KindConsensus:
		if req.ConsensusTarget, err = consensus.ParseTarget(*target); err != nil {
			return err
		}
		if req.ConsensusTarget == consensus.TargetTopK {
			req.K = *k
		}
	}
	req.Deadline = *deadline
	if _, err := req.Compile(); err != nil {
		return err
	}
	if *deadline > 0 && m == ppd.MethodAuto {
		m = ppd.MethodAdaptive // a budget needs the planner to act on it
	}
	eng := &ppd.Engine{DB: db, Method: m, Rng: rand.New(rand.NewSource(*seed)), Workers: *par}
	var solveCache *server.Cache
	if *cache > 0 {
		solveCache = server.NewCache(*cache)
		eng.Cache = solveCache
	}

	fmt.Fprintf(out, "dataset : %s (m=%d items, %d sessions)\n", dsName, db.M(), db.Prefs[q.Prefs[0].Rel].Sessions.Len())
	fmt.Fprintf(out, "query   : %s\n", uq)
	fmt.Fprintf(out, "method  : %s\n", m)
	if *deadline > 0 {
		fmt.Fprintf(out, "deadline: %v\n", *deadline)
	}

	if *explain {
		if len(uq.Disjuncts) > 1 {
			ex, err := eng.ExplainUnion(uq)
			if err != nil {
				return err
			}
			fmt.Fprint(out, ex)
			return nil
		}
		ex, err := eng.Explain(q)
		if err != nil {
			return err
		}
		fmt.Fprint(out, ex)
		return nil
	}

	// Warm-up evaluations: all but the last run, so the timed run below
	// reports warm-cache latency when -cache is set.
	for i := 1; i < *repeat; i++ {
		if _, err := eng.Do(context.Background(), req); err != nil {
			return err
		}
	}

	start := time.Now()
	resp, err := eng.Do(context.Background(), req)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "elapsed : %v\n", time.Since(start).Round(time.Microsecond))
	switch kind {
	case ppd.KindBool, ppd.KindCount:
		probCI, countCI := "", ""
		if p := resp.Plan; p != nil && p.SampledGroups > 0 {
			probCI = fmt.Sprintf(" ± %.3g (95%%)", p.ProbHalfWidth)
			countCI = fmt.Sprintf(" ± %.3g (95%%)", p.CountHalfWidth)
		}
		fmt.Fprintf(out, "Pr(Q|D)        = %.6g%s\n", resp.Prob, probCI)
		fmt.Fprintf(out, "count(Q)       = %.6g%s (expected sessions satisfying Q)\n", resp.Count, countCI)
		fmt.Fprintf(out, "live sessions  = %d, solver calls = %d (grouping)\n", len(resp.PerSession), resp.Solves)
		if *verbose {
			for _, sp := range resp.PerSession {
				fmt.Fprintf(out, "  session %v: %.6g\n", sp.Session.Key, sp.Prob)
			}
		}
	case ppd.KindCountDist:
		dist := resp.Dist
		fmt.Fprintf(out, "count(Q) distribution over %d sessions:\n", dist.N())
		fmt.Fprintf(out, "  mean %.6g  stddev %.6g  mode %d  median %d\n",
			dist.Mean(), dist.StdDev(), dist.Mode(), dist.Quantile(0.5))
		lo, hi := dist.Quantile(0.025), dist.Quantile(0.975)
		fmt.Fprintf(out, "  95%% interval [%d, %d]\n", lo, hi)
		if *verbose {
			for kk, p := range dist.PMF {
				if p > 1e-9 {
					fmt.Fprintf(out, "  Pr(count = %d) = %.6g\n", kk, p)
				}
			}
		}
	case ppd.KindTopK:
		fmt.Fprintf(out, "top-%d sessions (bound edges = %d):\n", *k, *bound)
		for i, sp := range resp.Top {
			fmt.Fprintf(out, "  %2d. %v  Pr = %.6g\n", i+1, sp.Session.Key, sp.Prob)
		}
		diag := resp.Diag
		fmt.Fprintf(out, "bound solves = %d, exact solves = %d, sessions evaluated = %d\n",
			diag.BoundSolves, diag.ExactSolves, diag.SessionsEvaluated)
	case ppd.KindAggregate:
		agg := resp.Agg
		fmt.Fprintf(out, "aggregate %s.%s over satisfying sessions:\n", *aggRel, *aggAttr)
		fmt.Fprintf(out, "  E[sum] = %.6g  E[count] = %.6g  avg = %.6g  (%d sessions carry a value)\n",
			agg.Sum, agg.Count, agg.Avg, agg.Sessions)
	case ppd.KindConsensus:
		c := resp.Consensus
		how := "exact"
		if c.Sampled {
			how = fmt.Sprintf("sampled, %d draws, %d accepted", c.Samples, c.Accepts)
		}
		fmt.Fprintf(out, "consensus %s over %d live sessions (%s):\n", c.Target, c.LiveSessions, how)
		switch c.Target {
		case consensus.TargetMAP:
			fmt.Fprintf(out, "  ranking %s  Pr = %.6g\n", consensusRanking(c), c.Prob)
		case consensus.TargetMedian:
			fmt.Fprintf(out, "  ranking %s  E[Kendall tau] = %.6g\n", consensusRanking(c), c.ExpectedTau)
		case consensus.TargetTopK:
			for i, it := range c.Items {
				band := ""
				if c.Sampled {
					band = fmt.Sprintf(" ± %.3g (95%%)", it.Half)
				}
				fmt.Fprintf(out, "  %2d. %s  Pr(top-%d) = %.6g%s\n", i+1, c.Domain[it.Item], *k, it.Prob, band)
			}
		}
		if *verbose {
			for _, row := range c.Rows {
				if row.Sampled {
					fmt.Fprintf(out, "  session %v: %d/%d draws accepted\n", row.Session, row.Accepts, row.Draws)
				} else {
					fmt.Fprintf(out, "  session %v: mass %.6g\n", row.Session, row.Weight)
				}
			}
		}
	}
	if p := resp.Plan; p != nil {
		fmt.Fprintf(out, "plan    : exact groups = %d, sampled = %d, samples = %d, max half-width = %.3g\n",
			p.ExactGroups, p.SampledGroups, p.Samples, p.MaxHalfWidth)
	}
	if solveCache != nil {
		st := solveCache.Stats()
		fmt.Fprintf(out, "cache   : hits=%d misses=%d evictions=%d entries=%d/%d\n",
			st.Hits, st.Misses, st.Evictions, st.Entries, st.Capacity)
	}
	return nil
}
