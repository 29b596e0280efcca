package dataset

import (
	"fmt"
	"math/rand"

	"probpref/internal/ppd"
	"probpref/internal/rim"
)

// CrowdRankConfig parameterizes the CrowdRank-like generator (substitution
// S3 of docs/ARCHITECTURE.md: the Mechanical-Turk rankings and the
// DataSynthesizer profile generator are replaced by a seeded synthesizer of
// the same shape — one HIT of 20 movies, 7 Mallows models, and synthetic
// worker profiles statistically tied to the models).
type CrowdRankConfig struct {
	// Workers is the number of synthetic worker profiles (paper: 200,000).
	// Default 1000.
	Workers int
	// Movies is the HIT size (paper: 20).
	Movies int
	// Models is the number of mined Mallows models (paper: 7).
	Models int
	// Seed drives all randomness.
	Seed int64
}

func (c CrowdRankConfig) withDefaults() CrowdRankConfig {
	if c.Workers == 0 {
		c.Workers = 1000
	}
	if c.Movies == 0 {
		c.Movies = 20
	}
	if c.Models == 0 {
		c.Models = 7
	}
	return c
}

var (
	crowdSexes = []string{"F", "M"}
	crowdAges  = []string{"30", "50"}
)

// CrowdRank generates the HIT catalog, the worker relation and the session
// table. The movie attributes are designed so that the Figure 15 query
// grounds to a small involved-item set per session: four short movies cover
// the (lead sex, lead age) combinations and two long thrillers exist.
func CrowdRank(cfg CrowdRankConfig) (*ppd.DB, error) {
	cfg = cfg.withDefaults()
	if cfg.Movies < 6 {
		return nil, fmt.Errorf("dataset: CrowdRank needs at least 6 movies")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	genres := []string{"Comedy", "Drama", "Action", "Romance"}
	tuples := make([][]string, cfg.Movies)
	for i := range tuples {
		id := fmt.Sprintf("hit%02d", i)
		var genre, sex, age, dur string
		switch i {
		case 0:
			genre, sex, age, dur = "Comedy", "F", "30", "short"
		case 1:
			genre, sex, age, dur = "Drama", "F", "50", "short"
		case 2:
			genre, sex, age, dur = "Comedy", "M", "30", "short"
		case 3:
			genre, sex, age, dur = "Drama", "M", "50", "short"
		case 4, 5:
			genre, sex, age, dur = "Thriller", crowdSexes[i%2], crowdAges[i%2], "long"
		default:
			genre = genres[rng.Intn(len(genres))]
			sex = crowdSexes[rng.Intn(2)]
			age = crowdAges[rng.Intn(2)]
			dur = "long"
		}
		tuples[i] = []string{id, genre, sex, age, dur}
	}
	movies, err := ppd.NewRelation("M",
		[]string{"id", "genre", "leadSex", "leadAge", "duration"}, tuples)
	if err != nil {
		return nil, err
	}
	db, err := ppd.NewDB(movies)
	if err != nil {
		return nil, err
	}

	mixture := make([]*rim.Mallows, cfg.Models)
	for i := range mixture {
		mixture[i] = rim.MustMallows(randPerm(rng, cfg.Movies), 0.2+0.6*rng.Float64())
	}

	workerTuples := make([][]string, cfg.Workers)
	sessions := make([]*ppd.Session, cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		name := fmt.Sprintf("w%06d", i)
		workerTuples[i] = []string{
			name,
			crowdSexes[rng.Intn(2)],
			crowdAges[rng.Intn(2)],
		}
		sessions[i] = &ppd.Session{
			Key:   []string{name},
			Model: mixture[rng.Intn(cfg.Models)],
		}
	}
	workers, err := ppd.NewRelation("V", []string{"worker", "sex", "age"}, workerTuples)
	if err != nil {
		return nil, err
	}
	if err := db.AddRelation(workers); err != nil {
		return nil, err
	}
	if err := db.AddPrefRelation(&ppd.PrefRelation{
		Name:         "P",
		SessionAttrs: []string{"worker"},
		Sessions:     ppd.SessionSlice(sessions),
	}); err != nil {
		return nil, err
	}
	return db, nil
}

// CrowdRankQuery is the Figure 15 query: does the worker prefer a short
// movie whose lead actor matches their sex to a short movie whose lead actor
// is around their age, which is in turn preferred to some thriller?
const CrowdRankQuery = `P(v; m1; m2), P(v; m2; m3), V(v, sex, age), ` +
	`M(m1, _, sex, _, "short"), M(m2, _, _, age, "short"), M(m3, "Thriller", _, _, _)`
