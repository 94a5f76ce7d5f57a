package main

import (
	"testing"

	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/profiler"
	"github.com/warwick-hpsc/tealeaf-go/internal/registry"
)

type capabilities struct{ fusedW, fusedUR, restore, tiling bool }

func capsOf(k driver.Kernels) capabilities {
	return capabilities{
		fusedW:  driver.AsFusedWDot(k) != nil,
		fusedUR: driver.AsFusedURPrecond(k) != nil,
		restore: driver.AsFieldRestorer(k) != nil,
		tiling:  driver.AsTilingReporter(k) != nil,
	}
}

// The untraced and traced wrappers keep each port's code path: they expose
// exactly the port's capabilities, and runs through them make the same
// iterations, the same tiling flushes and bitwise the same totals as an
// unwrapped run. A bare embedding wrapper is the negative control: it
// hides the fused kernels.
func TestTracedRunKeepsCodePath(t *testing.T) {
	cfg := config.BenchmarkN(16)
	cfg.EndStep = 2
	cfg.SummaryFrequency = 1
	sawFused := false
	for _, v := range registry.All() {
		v := v
		t.Run(v.Name, func(t *testing.T) {
			port, err := v.Make(portParams())
			if err != nil {
				t.Fatal(err)
			}
			defer port.Close()
			want := capsOf(port)
			if got := capsOf(&genClock{Kernels: port}); got != want {
				t.Errorf("untraced wrapper capabilities %+v, port %+v", got, want)
			}
			traced := &genClock{Kernels: driver.Instrument(port, profiler.New())}
			if got := capsOf(traced); got != want {
				t.Errorf("traced wrapper capabilities %+v, port %+v", got, want)
			}
			bare := struct{ driver.Kernels }{port}
			if want.fusedW && capsOf(bare).fusedW {
				t.Error("negative control: a bare embedding wrapper kept the fused capability")
			}
			sawFused = sawFused || want.fusedW

			plain, err := runVersion(v, cfg, false, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := runVersion(v, cfg, true, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := range plain.Result.Steps {
				if a, b := plain.Result.Steps[i].Stats.Iterations, tr.Result.Steps[i].Stats.Iterations; a != b {
					t.Errorf("step %d: %d iterations untraced, %d traced", i+1, a, b)
				}
			}
			// Every CG iteration but each step's last is timed, traced or not.
			for _, r := range []versionRun{plain, tr} {
				if want := r.Result.TotalIterations - cfg.EndStep; len(r.Iters) != want {
					t.Errorf("%d iterations timed, want %d", len(r.Iters), want)
				}
			}
			if plain.Result.Final != tr.Result.Final {
				t.Errorf("totals differ: untraced %+v, traced %+v", plain.Result.Final, tr.Result.Final)
			}
			if plain.Tiling.Flushes != tr.Tiling.Flushes || plain.Tiling.LoopsExecuted != tr.Tiling.LoopsExecuted {
				t.Errorf("tiling differs: untraced %+v, traced %+v", plain.Tiling, tr.Tiling)
			}
			layers := map[string]float64{}
			layerMetrics([]versionRun{tr}, layers)
			if layers["backends."+v.Name+".sweeps_per_iter"] <= 0 || layers["backends."+v.Name+".busy_s"] <= 0 {
				t.Errorf("traced run reported no kernel work: %v", layers)
			}
		})
	}
	if !sawFused {
		t.Error("no version advertises fused kernels; the negative control checked nothing")
	}
}

// inTurns runs one body at a time, hands turns round robin, and lets every
// body finish however many turns it takes.
func TestInTurnsRunsOneAtATime(t *testing.T) {
	turns := []int{3, 1, 4, 0}
	var order []int
	running := 0
	inTurns(len(turns), func(i int, yield func()) {
		for k := 0; k <= turns[i]; k++ {
			running++
			if running != 1 {
				t.Errorf("%d bodies running at once", running)
			}
			order = append(order, i)
			running--
			if k < turns[i] {
				yield()
			}
		}
	})
	want := []int{0, 1, 2, 3, 0, 1, 2, 0, 2, 0, 2, 2}
	if len(order) != len(want) {
		t.Fatalf("turn order %v, want %v", order, want)
	}
	for k := range want {
		if order[k] != want[k] {
			t.Fatalf("turn order %v, want %v", order, want)
		}
	}
}
