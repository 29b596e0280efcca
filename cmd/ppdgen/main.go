// Command ppdgen generates the paper's experimental datasets and persists
// them to disk: every ordinary relation as CSV, every preference relation as
// JSON (one Mallows model per session). The written files round-trip through
// the loaders of the library (LoadRelationCSV, LoadPrefJSON), so a generated
// directory is a self-contained RIM-PPD instance.
//
// With -o the dataset is instead (or additionally) written as one columnar
// snapshot file in the .ppds format of internal/store, which hardqd
// -snapshot-dir mmaps on cold start without re-running the generator.
//
// Usage examples:
//
//	ppdgen -dataset figure1 -out /tmp/figure1
//	ppdgen -dataset polls -candidates 20 -voters 200 -seed 7 -out /tmp/polls
//	ppdgen -dataset movielens -movies 120 -out /tmp/ml
//	ppdgen -dataset crowdrank -workers 1000 -out /tmp/cr
//	ppdgen -dataset polls -voters 500 -o /var/lib/hardqd/default.ppds
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"probpref/internal/dataset"
	"probpref/internal/store"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ppdgen:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ppdgen", flag.ContinueOnError)
	var (
		ds      = fs.String("dataset", "figure1", "dataset: "+strings.Join(dataset.Names(), " | "))
		outDir  = fs.String("out", "", "output directory for CSV/JSON files")
		snap    = fs.String("o", "", "write the dataset as one columnar snapshot file (<name>.ppds, see internal/store)")
		parts   = fs.Int("partitions", 0, "with -o: split the snapshot into N contiguous session-range partition files (\"<name>--p<i>.ppds\", the naming hardqd -shard and the cluster coordinator expect) instead of one whole-model file")
		seed    = fs.Int64("seed", 1, "generator seed")
		cands   = fs.Int("candidates", 20, "polls: number of candidates")
		voters  = fs.Int("voters", 100, "polls: number of voters")
		movies  = fs.Int("movies", 0, "movielens: catalog size (default 120); crowdrank: HIT size (default 20)")
		workers = fs.Int("workers", 500, "crowdrank: number of workers")
	)
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *outDir == "" && *snap == "" {
		return fmt.Errorf("-out directory or -o snapshot file is required")
	}

	db, demo, err := dataset.Build(dataset.BuildConfig{
		Name: *ds, Seed: *seed, Candidates: *cands, Voters: *voters, Movies: *movies, Workers: *workers,
	})
	if err != nil {
		return err
	}
	if *parts < 0 {
		return fmt.Errorf("-partitions must be non-negative, got %d", *parts)
	}
	if *parts > 0 && *snap == "" {
		return fmt.Errorf("-partitions requires -o (partition files are snapshot files)")
	}
	if *snap != "" {
		if dir := filepath.Dir(*snap); dir != "." {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
		}
		sessions := 0
		for _, p := range db.Prefs {
			sessions += p.Sessions.Len()
		}
		if *parts > 0 {
			base := strings.TrimSuffix(*snap, ".ppds")
			for i := 0; i < *parts; i++ {
				path := fmt.Sprintf("%s--p%d.ppds", base, i)
				if err := store.WritePartitionFile(path, db, demo, i, *parts); err != nil {
					return err
				}
				fmt.Fprintf(out, "wrote %s (partition %d/%d)\n", path, i, *parts)
			}
			fmt.Fprintf(out, "split %d sessions over %d partitions\n", sessions, *parts)
		} else {
			if err := store.WriteFile(*snap, db, demo); err != nil {
				return err
			}
			fmt.Fprintf(out, "wrote %s (%d items, %d sessions)\n", *snap, db.M(), sessions)
		}
		if *outDir == "" {
			return nil
		}
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}

	var relNames []string
	for name := range db.Relations {
		relNames = append(relNames, name)
	}
	sort.Strings(relNames)
	for _, name := range relNames {
		path := filepath.Join(*outDir, name+".csv")
		if err := writeFile(path, db.Relations[name].WriteCSV); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s (%d tuples)\n", path, len(db.Relations[name].Tuples))
	}

	var prefNames []string
	for name := range db.Prefs {
		prefNames = append(prefNames, name)
	}
	sort.Strings(prefNames)
	for _, name := range prefNames {
		path := filepath.Join(*outDir, name+".json")
		if err := writeFile(path, db.Prefs[name].WriteJSON); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s (%d sessions)\n", path, db.Prefs[name].Sessions.Len())
	}
	fmt.Fprintf(out, "dataset %s: %d items, %d o-relations, %d p-relations\n",
		*ds, db.M(), len(db.Relations), len(db.Prefs))
	return nil
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
