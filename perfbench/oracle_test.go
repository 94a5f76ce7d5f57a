package main

import (
	"math"
	"testing"

	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/registry"
)

// The tea_bm deck by hand: a 10x10 domain of density 100 and energy 1e-4,
// except the unit square [0,1]x[1,2] at density 0.1 and energy 25. Volume
// 100, mass 99*100 + 1*0.1, energy 99*100*1e-4 + 1*0.1*25.
func TestExpectTotalsTeaBMByHand(t *testing.T) {
	for _, n := range []int{200, 500} {
		got := expectTotals(config.BenchmarkN(n))
		for _, c := range []struct {
			name      string
			got, want float64
		}{{"volume", got.Volume, 100}, {"mass", got.Mass, 9900.1}, {"energy", got.Energy, 3.49}} {
			if relErr(c.got, c.want) > 1e-13 {
				t.Errorf("%d²: %s = %.15g, want %g", n, c.name, c.got, c.want)
			}
		}
	}
}

func smallDeck() config.Config {
	cfg := config.BenchmarkN(24)
	cfg.EndStep = 3
	cfg.SummaryFrequency = 1
	return cfg
}

func TestReferenceConservesEnergy(t *testing.T) {
	cfg := smallDeck()
	ref, err := referenceRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkTotals(expectTotals(cfg), ref.Final, energyTol); err != nil {
		t.Fatal(err)
	}
	if len(ref.Iters) != cfg.EndStep || ref.Iters[0] == 0 {
		t.Fatalf("iterations per step %v", ref.Iters)
	}
	// Pinned to two iterations, unpreconditioned CG still conserves energy.
	cfg.MaxIters, cfg.Eps = 2, 1e-300
	ref, err = referenceRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkTotals(expectTotals(cfg), ref.Final, energyTol); err != nil {
		t.Fatalf("pinned: %v", err)
	}
}

// The reference step and the plain serial port agree: same iterations per
// step within one, same final field within fieldTol, and every step of the
// port conserves energy.
func TestReferenceMatchesSerialPort(t *testing.T) {
	cfg := smallDeck()
	ref, err := referenceRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v, err := registry.Get("manual-serial")
	if err != nil {
		t.Fatal(err)
	}
	run, err := runVersion(v, cfg, false, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSteps(expectTotals(cfg), run.Result, cfg.EndStep); err != nil {
		t.Error(err)
	}
	if err := checkIters(ref.Iters, run.Result); err != nil {
		t.Error(err)
	}
	if err := checkField(ref.Energy, run.Energy, fieldTol); err != nil {
		t.Error(err)
	}
}

// Every check rejects a perturbed result just beyond its tolerance.
func TestChecksRejectPerturbation(t *testing.T) {
	cfg := smallDeck()
	exp := expectTotals(cfg)
	ref, err := referenceRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	good := ref.Final
	if err := checkTotals(exp, good, energyTol); err != nil {
		t.Fatal(err)
	}
	perturb := []struct {
		name string
		edit func(*driver.Totals)
	}{
		{"volume", func(t *driver.Totals) { t.Volume *= 1 + 10*geomTol }},
		{"mass", func(t *driver.Totals) { t.Mass *= 1 - 10*geomTol }},
		{"internal energy", func(t *driver.Totals) { t.InternalEnergy *= 1 + 10*energyTol }},
		{"temperature", func(t *driver.Totals) { t.Temperature *= 1 - 10*energyTol }},
		{"NaN energy", func(t *driver.Totals) { t.InternalEnergy = math.NaN() }},
	}
	for _, p := range perturb {
		bad := good
		p.edit(&bad)
		if checkTotals(exp, bad, energyTol) == nil {
			t.Errorf("perturbed %s passed the totals check", p.name)
		}
	}

	field := append([]float64(nil), ref.Energy...)
	if err := checkField(ref.Energy, field, fieldTol); err != nil {
		t.Fatal(err)
	}
	field[len(field)/2] += 10 * fieldTol * 25
	if checkField(ref.Energy, field, fieldTol) == nil {
		t.Error("perturbed field passed the field check")
	}

	res := driver.Result{}
	for i, it := range ref.Iters {
		res.Steps = append(res.Steps, driver.StepResult{Step: i + 1, Stats: driver.SolveStats{Iterations: it}})
	}
	if err := checkIters(ref.Iters, res); err != nil {
		t.Fatal(err)
	}
	res.Steps[1].Stats.Iterations += 2
	if checkIters(ref.Iters, res) == nil {
		t.Error("an iteration count two off passed the iteration check")
	}
}

// A deck whose hot strip is one cell off rasterises to different totals.
func TestRasterisationIsCellExact(t *testing.T) {
	a := config.BenchmarkN(20)
	b := config.BenchmarkN(20)
	b.States[1].XMax += 10.0 / 20
	ea, eb := expectTotals(a), expectTotals(b)
	if relErr(eb.Mass, ea.Mass) < 10*geomTol || relErr(eb.Energy, ea.Energy) < 10*energyTol {
		t.Errorf("one more cell of state 2 did not change the totals: %+v vs %+v", ea, eb)
	}
}
