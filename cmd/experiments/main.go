// Command experiments reproduces the tables and figures of the paper's
// evaluation section. Each figure id maps to a driver in
// internal/experiment that regenerates the series the paper plots;
// -cpuprofile/-memprofile capture pprof profiles of the figure run.
//
// Usage:
//
//	experiments -list
//	experiments -fig 4
//	experiments -fig all -scale paper
//	experiments -fig 15 -cpuprofile cpu.prof -memprofile mem.prof
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"probpref/internal/experiment"
)

func main() {
	var (
		fig        = flag.String("fig", "all", "figure id (4, 5, 6, 7a, 7b, 8, 9, 10a, 10b, 11, 12, 13a, 13b, 14, 15; extensions x1..x4) or 'all'")
		scale      = flag.String("scale", "small", "experiment scale: small | paper")
		list       = flag.Bool("list", false, "list available figures and exit")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()
	// The closure wraps the work so profile-flushing defers execute before
	// exit: a failed run is exactly the run whose profile matters.
	code := func() int {
		if *cpuProfile != "" {
			f, err := os.Create(*cpuProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			defer func() {
				pprof.StopCPUProfile()
				f.Close()
			}()
		}
		if *memProfile != "" {
			defer func() {
				f, err := os.Create(*memProfile)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					return
				}
				defer f.Close()
				runtime.GC()
				if err := pprof.WriteHeapProfile(f); err != nil {
					fmt.Fprintln(os.Stderr, err)
				}
			}()
		}
		if *list {
			for _, id := range experiment.FigureIDs {
				fmt.Printf("  %s\n", id)
			}
			return 0
		}
		sc, err := experiment.ParseScale(*scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		ids := experiment.FigureIDs
		if *fig != "all" {
			if _, ok := experiment.Figures[*fig]; !ok {
				fmt.Fprintf(os.Stderr, "unknown figure %q; use -list\n", *fig)
				return 2
			}
			ids = []string{*fig}
		}
		for _, id := range ids {
			start := time.Now()
			tab, err := experiment.Figures[id](sc)
			if err != nil {
				fmt.Fprintf(os.Stderr, "figure %s: %v\n", id, err)
				return 1
			}
			tab.Fprint(os.Stdout)
			fmt.Printf("  (figure %s regenerated in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
		}
		return 0
	}()
	os.Exit(code)
}
