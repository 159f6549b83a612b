// Command owan-bench regenerates every table and figure of the paper's
// evaluation (§5): Figures 7, 8 and 9 on the three topologies, the four
// microbenchmarks of Figure 10, and the simulator-vs-testbed validation.
//
// Output is one aligned text table per figure (gnuplot-compatible columns),
// written to stdout and optionally to per-figure files under -outdir.
//
// Usage:
//
//	owan-bench            # quick scale (minutes)
//	owan-bench -full      # paper scale (tens of minutes)
//	owan-bench -fig fig7 -topo isp
//
// The search flags are core.SearchFlags; -workers also bounds how many of a
// figure's simulation runs are in flight at once.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"owan/internal/core"
	"owan/internal/experiments"
	"owan/internal/figdata"
	"owan/internal/prof"
)

func main() {
	var (
		full   = flag.Bool("full", false, "run at paper scale (slower)")
		figSel = flag.String("fig", "all", "figure to run: fig7|fig8|fig9|fig10a|fig10b|fig10c|fig10d|validation|failure|failure-correlated|tempering|all")
		topo   = flag.String("topo", "all", "topology for fig7/8/9/10b: internet2|isp|interdc|isp200|all (isp200 is the opt-in stress scale; pair it with the trim flags)")
		slots  = flag.Int("slots", 0, "override the arrival-window slot count (0 = scale default; trims large-topology runs)")
		iters  = flag.Int("iters", 0, "override the annealing iteration cap (0 = scale default)")
		seeds  = flag.Int("seeds", 0, "override the per-cell seed count (0 = scale default)")
		outdir = flag.String("outdir", "", "directory for per-figure data files (optional)")
		search = core.SearchFlags(flag.CommandLine)
		pf     = prof.Register()
	)
	flag.Parse()
	stopProf, err := pf.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer stopProf()

	sc := experiments.QuickScale()
	if *full {
		sc = experiments.FullScale()
	}
	sc.Search = search
	var knobs core.Config
	search(&knobs)
	sc.FigWorkers = knobs.Workers
	if *slots > 0 {
		sc.HorizonSlots = *slots
	}
	if *iters > 0 {
		sc.OwanIterations = *iters
	}
	if *seeds > 0 {
		sc.Seeds = *seeds
	}
	topos := experiments.AllTopos
	if *topo != "all" {
		topos = []experiments.TopoKind{experiments.TopoKind(*topo)}
	}

	emit := func(figs ...*figdata.Figure) {
		for _, f := range figs {
			fmt.Println(f.Render())
			if *outdir != "" {
				path := filepath.Join(*outdir, f.ID+".dat")
				if err := os.WriteFile(path, []byte(f.Render()), 0o644); err != nil {
					log.Fatalf("write %s: %v", path, err)
				}
			}
		}
	}
	want := func(name string) bool { return *figSel == "all" || *figSel == name }

	start := time.Now()
	if want("fig7") {
		for _, k := range topos {
			figs, err := experiments.Fig7(k, sc)
			if err != nil {
				log.Fatalf("fig7 %s: %v", k, err)
			}
			emit(figs...)
		}
	}
	if want("fig8") {
		for _, k := range topos {
			f, err := experiments.Fig8(k, sc)
			if err != nil {
				log.Fatalf("fig8 %s: %v", k, err)
			}
			emit(f)
		}
	}
	if want("fig9") {
		for _, k := range topos {
			figs, err := experiments.Fig9(k, sc)
			if err != nil {
				log.Fatalf("fig9 %s: %v", k, err)
			}
			emit(figs...)
		}
	}
	if want("fig10a") {
		f, err := experiments.Fig10a(sc)
		if err != nil {
			log.Fatal(err)
		}
		emit(f)
	}
	if want("fig10b") {
		// fig10b is an inter-DC microbenchmark by default; a single -topo
		// selection retargets it (e.g. -topo isp200 for the stress row).
		fig10bTopo := experiments.InterDC
		if *topo != "all" {
			fig10bTopo = experiments.TopoKind(*topo)
		}
		f, err := experiments.Fig10bAt(fig10bTopo, sc)
		if err != nil {
			log.Fatal(err)
		}
		emit(f)
	}
	if want("fig10c") {
		f, err := experiments.Fig10c(sc)
		if err != nil {
			log.Fatal(err)
		}
		emit(f)
	}
	if want("fig10d") {
		f, err := experiments.Fig10d(sc)
		if err != nil {
			log.Fatal(err)
		}
		emit(f)
	}
	if want("validation") {
		f, err := experiments.Validation(sc)
		if err != nil {
			log.Fatal(err)
		}
		emit(f)
	}
	if want("failure") {
		f, err := experiments.FailureRecovery(sc)
		if err != nil {
			log.Fatal(err)
		}
		emit(f)
	}
	if *figSel == "failure-correlated" {
		sites := sc.ISPSites
		if *topo == string(experiments.ISP200) {
			sites = 200
		}
		f, err := experiments.FailureCorrelated(sc, sites)
		if err != nil {
			log.Fatal(err)
		}
		emit(f)
	}
	if want("tempering") {
		f, err := experiments.FigTempering(sc)
		if err != nil {
			log.Fatal(err)
		}
		emit(f)
	}
	scale := "quick"
	if *full {
		scale = "full"
	}
	fmt.Fprintf(os.Stderr, "owan-bench: %s scale, figures %s, done in %s\n",
		scale, strings.TrimSpace(*figSel), time.Since(start).Round(time.Second))
}
