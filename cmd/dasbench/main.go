// Command dasbench regenerates the paper's evaluation tables and
// figures (E1-E11 and E13-E20, see DESIGN.md for the mapping).
//
// Usage:
//
//	dasbench -exp all                 # every experiment, paper scale
//	dasbench -exp E2,E8 -requests 10000 -seeds 1
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/daskv/daskv/internal/bench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dasbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		expFlag  = flag.String("exp", "all", "comma-separated experiment IDs (see -list) or 'all'")
		servers  = flag.Int("servers", 16, "cluster size")
		requests = flag.Int("requests", 30000, "requests per simulation run")
		seeds    = flag.Int("seeds", 3, "independent seeds averaged per data point")
		seed     = flag.Uint64("seed", 1, "base RNG seed")
		list     = flag.Bool("list", false, "list experiments and exit")
		outDir   = flag.String("out", "", "also write each experiment's output to <dir>/<ID>.txt")
		liveDur  = flag.Duration("live", 0, "wall-clock duration per live-store policy run in E19/E20 (default 6s)")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-5s %s\n", e.ID, e.Title)
		}
		return nil
	}

	params := bench.Params{
		Servers:  *servers,
		Requests: *requests,
		Seeds:    *seeds,
		Seed:     *seed,
		Live:     *liveDur,
	}
	var selected []bench.Experiment
	if *expFlag == "all" {
		selected = bench.All()
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			id = strings.TrimSpace(id)
			e, ok := bench.ByID(id)
			if !ok {
				return fmt.Errorf("unknown experiment %q (use -list)", id)
			}
			selected = append(selected, e)
		}
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return fmt.Errorf("create output dir: %w", err)
		}
	}
	for _, e := range selected {
		start := time.Now()
		var sink io.Writer = os.Stdout
		var file *os.File
		if *outDir != "" {
			f, err := os.Create(filepath.Join(*outDir, e.ID+".txt"))
			if err != nil {
				return fmt.Errorf("create %s output: %w", e.ID, err)
			}
			file = f
			sink = io.MultiWriter(os.Stdout, f)
		}
		err := e.Run(params, sink)
		if file != nil {
			if cerr := file.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Printf("(%s completed in %v)\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
