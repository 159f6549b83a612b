package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"owan/internal/figdata"
)

// TestQuickFiguresMatchResults pins what the slot loop makes of a search:
// the cheap quick-scale figures — the simulator-vs-testbed validation, the
// fiber-cut recovery and Figures 10a-10c — must render byte for byte as
// committed under results/ (owan-bench -fig F -outdir results). Fig 10d
// takes seconds, not one, and is checked by hand.
func TestQuickFiguresMatchResults(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	sc := QuickScale()
	for _, fig := range []struct {
		id   string
		make func() (*figdata.Figure, error)
	}{
		{"validation", func() (*figdata.Figure, error) { return Validation(sc) }},
		{"failure", func() (*figdata.Figure, error) { return FailureRecovery(sc) }},
		{"fig10a", func() (*figdata.Figure, error) { return Fig10a(sc) }},
		{"fig10b", func() (*figdata.Figure, error) { return Fig10bAt(InterDC, sc) }},
		{"fig10c", func() (*figdata.Figure, error) { return Fig10c(sc) }},
	} {
		f, err := fig.make()
		if err != nil {
			t.Fatalf("%s: %v", fig.id, err)
		}
		want, err := os.ReadFile(filepath.Join("..", "..", "results", fig.id+".dat"))
		if err != nil {
			t.Fatal(err)
		}
		if got := f.Render(); got != string(want) {
			t.Errorf("%s renders differently from results/%s.dat:\n%s\nwant:\n%s", fig.id, fig.id, got, want)
		}
	}
}

// TestFigWorkersDeterministic asserts the figure-collection contract: the
// per-cell aggregates are bit-identical whether the (cell × seed) runs
// execute serially or on a worker pool. Two seeds per cell so the
// seed-order aggregation path is exercised, not just the dispatch.
func TestFigWorkersDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	sc := quick()
	sc.HorizonSlots = 3
	sc.OwanIterations = 60
	sc.Seeds = 2
	cells := []cellSpec{
		{"owan", 1, 0},
		{"maxflow", 1, 0},
		{"swan", 0.5, 0},
		{"owan", 1, 10},
	}

	sc.FigWorkers = 1
	serial, err := collectCells(Internet2, cells, sc)
	if err != nil {
		t.Fatal(err)
	}
	sc.FigWorkers = 4
	parallel, err := collectCells(Internet2, cells, sc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("cell %d (%+v): serial %+v != parallel %+v", i, cells[i], serial[i], parallel[i])
		}
	}
}
