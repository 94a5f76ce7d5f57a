package main

import (
	"reflect"
	"strings"
	"testing"

	"github.com/warwick-hpsc/tealeaf-go/internal/config"
)

// The mix is a function of the seed alone, every deck the service receives
// parses to the deck the oracle rasterised, and the composition the README
// describes holds.
func TestMixIsSeededAndComposed(t *testing.T) {
	a := generateMix(7, 0, fullMix)
	if !reflect.DeepEqual(a, generateMix(7, 0, fullMix)) {
		t.Fatal("the same seed gave different mixes")
	}
	if reflect.DeepEqual(a, generateMix(8, 0, fullMix)) || reflect.DeepEqual(a, generateMix(7, 1, fullMix)) {
		t.Fatal("another seed or round gave the same mix")
	}
	var hot, pinned, ckpt, small, large int
	var fleetAt []int
	solvers := map[string]bool{}
	versions := map[string]bool{}
	decks := map[string]bool{}
	for k, j := range a {
		if j.paced != (k >= fullMix.burst) {
			t.Fatalf("job %d in the wrong phase", k)
		}
		cfg, err := config.ParseReader(strings.NewReader(j.spec.Deck))
		if err != nil {
			t.Fatalf("job %d: %v\n%s", k, err, j.spec.Deck)
		}
		if got := expectTotals(cfg); got != j.exp {
			t.Fatalf("job %d: parsed deck rasterises to %+v, generated %+v", k, got, j.exp)
		}
		solvers[cfg.Solver.String()+"/"+cfg.Preconditioner.String()] = true
		if cfg.NX*cfg.NY <= batchCap {
			small++
		} else {
			large++
		}
		switch {
		case j.hot >= 0:
			hot++
		case j.isFleet():
			if j.spec.Deck != deckText(fleetDeck()) || j.spec.FaultSpec != fleetDrill {
				t.Errorf("fleet job %d: deck or fault schedule depends on the seed", k)
			}
		default:
			if decks[j.spec.Deck] {
				t.Fatalf("job %d repeats a deck that is not hot", k)
			}
			decks[j.spec.Deck] = true
		}
		if j.spec.Version != "" {
			pinned++
			versions[j.spec.Version] = true
		}
		if j.spec.CheckpointEvery > 0 {
			ckpt++
		}
		if j.isFleet() {
			if !j.paced || j.hot >= 0 || j.spec.Version != "" || j.spec.FleetWorkers != fleetWorkers || cfg.Solver != config.SolverCG {
				t.Errorf("fleet job %d: paced %v, hot %d, version %q, workers %d, solver %v", k, j.paced, j.hot, j.spec.Version, j.spec.FleetWorkers, cfg.Solver)
			}
			fleetAt = append(fleetAt, k-fullMix.burst)
		}
	}
	// Fleet jobs sit evenly spaced in the paced phase.
	if len(fleetAt) != fullMix.fleet {
		t.Errorf("%d fleet jobs, want %d", len(fleetAt), fullMix.fleet)
	}
	for m := 1; m < len(fleetAt); m++ {
		if gap := fleetAt[m] - fleetAt[m-1]; gap != fullMix.paced/fullMix.fleet && gap != fullMix.paced/fullMix.fleet+1 {
			t.Errorf("fleet jobs at paced positions %v, not evenly spaced", fleetAt)
		}
	}
	n := len(a)
	if hot < n/5 || hot > n*3/10 || ckpt == 0 || small == 0 || large == 0 {
		t.Errorf("composition: hot %d, checkpointed %d, small %d, large %d of %d", hot, ckpt, small, large, n)
	}
	if len(solvers) != len(mixSolvers) || len(versions) != len(servePool) || pinned == 0 {
		t.Errorf("solvers %v, pinned %d over versions %v", solvers, pinned, versions)
	}
}

func TestHistQuantile(t *testing.T) {
	vals, err := parseMetrics(`# TYPE x histogram
x_bucket{le="1"} 10
x_bucket{le="2"} 30
x_bucket{le="+Inf"} 40
x_sum 50
x_count 40
`)
	if err != nil {
		t.Fatal(err)
	}
	if got := histQuantile(vals, "x", 0.5); got != 1.5 {
		t.Errorf("median %v, want 1.5", got)
	}
	if got := histQuantile(vals, "x", 0.1); got != 0.4 {
		t.Errorf("p10 %v, want 0.4", got)
	}
}
