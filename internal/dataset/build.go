package dataset

import (
	"cmp"
	"fmt"
	"strings"

	"probpref/internal/ppd"
)

// Figure1Query is the demo query of the Figure 1 database: is a female
// candidate preferred to a male one in any session?
const Figure1Query = `P(_, _; c1; c2), C(c1, _, F, _, _, _), C(c2, _, M, _, _, _)`

// PollsQuery is the demo query of the Polls workload: a male candidate
// preferred to a female candidate of the same party.
const PollsQuery = `P(_, _; l; r), C(l, p, M, _, _, _), C(r, p, F, _, _, _)`

// BuildConfig names one of the paper's datasets with its generator
// parameters; fields irrelevant to the chosen dataset are ignored.
type BuildConfig struct {
	Name       string // figure1 | polls | movielens | crowdrank
	Seed       int64  // generator seed
	Candidates int    // polls
	Voters     int    // polls
	Movies     int    // movielens catalog size (0: 120) / crowdrank HIT size (0: the paper's 20)
	Workers    int    // crowdrank
}

// builders is the single source of truth for the dataset dispatcher:
// Build, Names and Known all derive from it, so a new dataset registers
// in one place. Order is presentation order.
var builders = []struct {
	name  string
	build func(cfg BuildConfig) (*ppd.DB, string, error)
}{
	{"figure1", func(BuildConfig) (*ppd.DB, string, error) {
		db, err := Figure1()
		return db, Figure1Query, err
	}},
	{"polls", func(cfg BuildConfig) (*ppd.DB, string, error) {
		db, err := Polls(PollsConfig{Candidates: cfg.Candidates, Voters: cfg.Voters, Seed: cfg.Seed})
		return db, PollsQuery, err
	}},
	{"movielens", func(cfg BuildConfig) (*ppd.DB, string, error) {
		db, err := MovieLens(MovieLensConfig{Movies: cmp.Or(cfg.Movies, 120), Seed: cfg.Seed})
		return db, MovieLensQueryText(), err
	}},
	{"crowdrank", func(cfg BuildConfig) (*ppd.DB, string, error) {
		db, err := CrowdRank(CrowdRankConfig{Workers: cfg.Workers, Movies: cfg.Movies, Seed: cfg.Seed})
		return db, CrowdRankQuery, err
	}},
}

// Names returns the dataset names Build accepts.
func Names() []string {
	out := make([]string, len(builders))
	for i, b := range builders {
		out[i] = b.name
	}
	return out
}

// Known reports whether name (case-insensitive) is a dataset Build accepts.
func Known(name string) bool {
	name = strings.ToLower(name)
	for _, b := range builders {
		if b.name == name {
			return true
		}
	}
	return false
}

// Build constructs the named dataset and returns it together with its
// dataset-specific demo query; it is the shared dataset dispatcher of the
// cmd binaries and of the model registry's lazy loads.
func Build(cfg BuildConfig) (*ppd.DB, string, error) {
	name := strings.ToLower(cfg.Name)
	for _, b := range builders {
		if b.name == name {
			return b.build(cfg)
		}
	}
	return nil, "", fmt.Errorf("unknown dataset %q", cfg.Name)
}
