package dataset

import (
	"fmt"
	"math/rand"

	"probpref/internal/ppd"
	"probpref/internal/rim"
)

// MovieLensConfig parameterizes the MovieLens-like generator (substitution
// S2 of docs/ARCHITECTURE.md: the raw MovieLens ratings and the external
// mixture learner are unavailable offline, so the catalog and the
// 16-component Mallows mixture are synthesized with matching shapes).
type MovieLensConfig struct {
	// Movies is the catalog size (paper: the 200 most-rated movies).
	// Default 200.
	Movies int
	// Components is the number of Mallows mixture components (paper: 16).
	Components int
	// Seed drives all randomness.
	Seed int64
}

func (c MovieLensConfig) withDefaults() MovieLensConfig {
	if c.Movies == 0 {
		c.Movies = 200
	}
	if c.Components == 0 {
		c.Components = 16
	}
	return c
}

// movieGenreCount reproduces the genre diversity growth the paper reports
// in Figure 14: as the number of movies m grows, the number of genres — and
// hence of grounded patterns — grows as 1, 3, 11, 12, 14 for m = 40, 80,
// 120, 160, 200.
func movieGenreCount(prefix int) int {
	switch {
	case prefix <= 40:
		return 1
	case prefix <= 80:
		return 3
	case prefix <= 120:
		return 11
	case prefix <= 160:
		return 12
	default:
		return 14
	}
}

// MovieLens generates a movie catalog with year/era/genre attributes and a
// mixture of Mallows models as sessions. Movie ids follow the MovieLens
// convention of sparse numeric keys; ids 223 (Clerks) and 111 (Taxi Driver,
// 1976) are guaranteed to exist, as the Figure 14 query references them.
//
// The era attribute pre-buckets the release year ("post" for >= 1990, "pre"
// otherwise) so that the paper's year comparisons ground to two patterns
// rather than one per year value.
func MovieLens(cfg MovieLensConfig) (*ppd.DB, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	tuples := make([][]string, cfg.Movies)
	for i := range tuples {
		id := fmt.Sprintf("%d", 1000+3*i)
		switch i {
		case 0:
			id = "111" // Taxi Driver
		case 1:
			id = "223" // Clerks
		}
		year := 1950 + rng.Intn(66)
		if i == 0 {
			year = 1976
		}
		if i == 1 {
			year = 1994
		}
		era := "pre"
		if year >= 1990 {
			era = "post"
		}
		genre := fmt.Sprintf("genre%02d", genreOf(i, rng))
		tuples[i] = []string{id, fmt.Sprintf("Movie %s", id), fmt.Sprintf("%d", year), era, genre}
	}
	movies, err := ppd.NewRelation("M",
		[]string{"id", "title", "year", "era", "genre"}, tuples)
	if err != nil {
		return nil, err
	}
	db, err := ppd.NewDB(movies)
	if err != nil {
		return nil, err
	}
	sessions := make([]*ppd.Session, cfg.Components)
	for c := range sessions {
		phi := 0.3 + 0.5*rng.Float64()
		sessions[c] = &ppd.Session{
			Key:   []string{fmt.Sprintf("mix%02d", c)},
			Model: rim.MustMallows(randPerm(rng, cfg.Movies), phi),
		}
	}
	if err := db.AddPrefRelation(&ppd.PrefRelation{
		Name:         "P",
		SessionAttrs: []string{"user"},
		Sessions:     ppd.SessionSlice(sessions),
	}); err != nil {
		return nil, err
	}
	return db, nil
}

// genreOf assigns movie i a genre such that the prefix of the catalog up to
// i spans movieGenreCount(i+1) genres.
func genreOf(i int, rng *rand.Rand) int {
	n := movieGenreCount(i + 1)
	return rng.Intn(n)
}

// MovieLensQuery is the Figure 14 query: is Clerks (223) preferred to Taxi
// Driver (111), and is some post-1990 movie preferred both to a pre-1990
// movie of the same genre and to Taxi Driver?
const MovieLensQuery = `P(_; 223; 111), P(_; x; 111), P(_; x; y), M(x, _, _, Post, g), M(y, _, _, Pre, g)`

// MovieLensQueryText returns the query with era constants matching the
// catalog encoding.
func MovieLensQueryText() string {
	return `P(_; 223; 111), P(_; x; 111), P(_; x; y), M(x, _, _, "post", g), M(y, _, _, "pre", g)`
}
