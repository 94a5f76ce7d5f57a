package main

// The correctness oracle. It reads only the deck: it rasterises the material
// states itself, derives the totals every port must report, and runs its own
// plain TeaLeaf time step (unpreconditioned CG with the repo's
// relative-residual stop) to produce reference fields. Nothing here calls a
// port, the solver package or the state package, so a fault there cannot
// hide by also being in the reference.

import (
	"errors"
	"fmt"
	"math"

	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
)

// Tolerances, each several times the largest deviation any version shows.
// Volume and mass are sums of a few constants, exact up to summation
// rounding: up to 7e-11 relative at 2000² (a single-threaded sum of 4M
// cells), 6e-13 at 200²; one misplaced cell is 2.5e-7 at 2000². Energy is
// conserved by the insulated boundaries: for a converged solve, and at
// every iteration of unpreconditioned CG, whose search directions all sum
// to zero; the largest deviation seen is 1.8e-10, on a 2000² pinned
// solve.
const (
	geomTol   = 5e-10
	energyTol = 1e-9
	// fieldTol bounds max|e_port - e_ref| / max|e_ref| on the LLC deck,
	// where ports converge to eps 1e-15 in iteration counts that may
	// differ by one per step; the largest deviation seen is 2.8e-11.
	fieldTol = 1e-9
	// precondEnergyTol is for preconditioned CG: z = M⁻¹r need not sum to
	// zero, so energy is conserved only to within the final residual. The
	// largest deviation seen at eps 1e-15 over 3900 generated decks is
	// 1.8e-8 (jac_diag).
	precondEnergyTol = 2e-7
)

// expected holds the totals a deck fixes before any solve.
type expected struct {
	Volume, Mass, Energy float64
}

// rasterise returns the interior density and specific energy of the deck's
// initial state in row-major order. State 1 fills the domain; later states
// overwrite the cells they contain: rectangles the cells lying wholly inside
// them, circles the cells whose centre lies within the radius, points the
// cell holding the point.
func rasterise(cfg config.Config) (density, energy []float64) {
	nx, ny := cfg.NX, cfg.NY
	dx := (cfg.XMax - cfg.XMin) / float64(nx)
	dy := (cfg.YMax - cfg.YMin) / float64(ny)
	density = make([]float64, nx*ny)
	energy = make([]float64, nx*ny)
	const slack = 1e-9 // a fraction of a cell on any deck this benchmark makes
	for si, st := range cfg.States {
		for j := 0; j < ny; j++ {
			y0 := cfg.YMin + dy*float64(j)
			for i := 0; i < nx; i++ {
				x0 := cfg.XMin + dx*float64(i)
				in := si == 0
				switch {
				case si == 0:
				case st.Geometry == config.GeomRectangle:
					in = x0 >= st.XMin-slack && x0+dx <= st.XMax+slack &&
						y0 >= st.YMin-slack && y0+dy <= st.YMax+slack
				case st.Geometry == config.GeomCircular:
					cx, cy := x0+dx/2-st.XMin, y0+dy/2-st.YMin
					in = math.Hypot(cx, cy) <= st.Radius+slack
				case st.Geometry == config.GeomPoint:
					in = x0 <= st.XMin && st.XMin < x0+dx && y0 <= st.YMin && st.YMin < y0+dy
				}
				if in {
					density[j*nx+i] = st.Density
					energy[j*nx+i] = st.Energy
				}
			}
		}
	}
	return density, energy
}

// expectTotals derives volume, mass and internal energy from the deck. It
// counts the cells of each material and multiplies once per material, so
// the expectation carries no summation rounding of its own.
func expectTotals(cfg config.Config) expected {
	density, energy := rasterise(cfg)
	vol := (cfg.XMax - cfg.XMin) / float64(cfg.NX) * (cfg.YMax - cfg.YMin) / float64(cfg.NY)
	type material struct{ density, energy float64 }
	cells := map[material]int{}
	for i, d := range density {
		cells[material{d, energy[i]}]++
	}
	e := expected{Volume: float64(len(density)) * vol}
	for m, n := range cells {
		e.Mass += float64(n) * m.density * vol
		e.Energy += float64(n) * m.density * m.energy * vol
	}
	return e
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// checkTotals compares one field summary with the deck's expected totals:
// volume and mass never change, and both energy measures (density*energy
// and u summed over the mesh) must equal the initial energy within tol.
func checkTotals(exp expected, t driver.Totals, tol float64) error {
	for _, c := range []struct {
		name      string
		got, want float64
		tol       float64
	}{
		{"volume", t.Volume, exp.Volume, geomTol},
		{"mass", t.Mass, exp.Mass, geomTol},
		{"internal energy", t.InternalEnergy, exp.Energy, tol},
		{"temperature", t.Temperature, exp.Energy, tol},
	} {
		if e := relErr(c.got, c.want); !(e <= c.tol) {
			return fmt.Errorf("%s %.15g, want %.15g (relative error %.3g > %.3g)", c.name, c.got, c.want, e, c.tol)
		}
	}
	return nil
}

// checkSteps checks the totals of every step of a run that summarised each
// step, so a leak of energy shows at the step it happens.
func checkSteps(exp expected, res driver.Result, wantSteps int) error {
	if len(res.Steps) != wantSteps {
		return fmt.Errorf("ran %d steps, want %d", len(res.Steps), wantSteps)
	}
	for _, s := range res.Steps {
		if s.Totals == nil {
			return fmt.Errorf("step %d has no field summary", s.Step)
		}
		if err := checkTotals(exp, *s.Totals, energyTol); err != nil {
			return fmt.Errorf("step %d: %w", s.Step, err)
		}
	}
	return nil
}

// checkField compares a field with its reference: the largest pointwise
// difference relative to the reference's largest magnitude.
func checkField(ref, got []float64, tol float64) error {
	if len(ref) != len(got) {
		return fmt.Errorf("field has %d cells, want %d", len(got), len(ref))
	}
	var scale, diff float64
	for i, r := range ref {
		scale = math.Max(scale, math.Abs(r))
		diff = math.Max(diff, math.Abs(got[i]-r))
	}
	if !(diff <= tol*scale) {
		return fmt.Errorf("field differs from the reference by %.3g relative (> %.3g)", diff/scale, tol)
	}
	return nil
}

// checkIters compares per-step iteration counts with the reference's; at
// eps 1e-15 the last iteration can fall either side of the stop, so each
// step may differ by one.
func checkIters(ref []int, res driver.Result) error {
	if len(ref) != len(res.Steps) {
		return fmt.Errorf("ran %d steps, reference ran %d", len(res.Steps), len(ref))
	}
	for i, s := range res.Steps {
		if d := s.Stats.Iterations - ref[i]; d < -1 || d > 1 {
			return fmt.Errorf("step %d took %d iterations, reference %d", s.Step, s.Stats.Iterations, ref[i])
		}
	}
	return nil
}

// reference is the oracle's own run of a deck.
type reference struct {
	Energy []float64 // final specific energy, row-major interior
	Iters  []int     // CG iterations per step
	Final  driver.Totals
}

// referenceRun marches the deck with a plain implementation of the TeaLeaf
// step: u0 = density*energy, the five-point conduction operator with zero
// flux through the domain boundary, CG from u = u0 until r·r < eps·r0·r0 or
// MaxIters, then energy = u/density.
func referenceRun(cfg config.Config) (reference, error) {
	if cfg.Solver != config.SolverCG || cfg.Preconditioner != config.PrecondNone {
		return reference{}, errors.New("oracle: the reference step implements unpreconditioned CG only")
	}
	nx, ny := cfg.NX, cfg.NY
	n := nx * ny
	dx := (cfg.XMax - cfg.XMin) / float64(nx)
	dy := (cfg.YMax - cfg.YMin) / float64(ny)
	density, energy := rasterise(cfg)
	w := make([]float64, n) // conduction coefficient source
	for i, d := range density {
		w[i] = d
		if cfg.Coefficient == config.RecipConductivity {
			w[i] = 1 / d
		}
	}
	dt := cfg.InitialTimestep
	rx, ry := dt/(dx*dx), dt/(dy*dy)
	// kx[c] couples cell c with its west neighbour, ky[c] with its south
	// one; faces on the domain boundary stay zero (insulated).
	kx := make([]float64, n)
	ky := make([]float64, n)
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			c := j*nx + i
			if i > 0 {
				a, b := w[c-1], w[c]
				kx[c] = rx * (a + b) / (2 * a * b)
			}
			if j > 0 {
				a, b := w[c-nx], w[c]
				ky[c] = ry * (a + b) / (2 * a * b)
			}
		}
	}
	apply := func(dst, src []float64) {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				c := j*nx + i
				v := src[c]
				if i > 0 {
					v += kx[c] * (src[c] - src[c-1])
				}
				if i < nx-1 {
					v += kx[c+1] * (src[c] - src[c+1])
				}
				if j > 0 {
					v += ky[c] * (src[c] - src[c-nx])
				}
				if j < ny-1 {
					v += ky[c+nx] * (src[c] - src[c+nx])
				}
				dst[c] = v
			}
		}
	}
	dot := func(a, b []float64) float64 {
		s := 0.0
		for i := range a {
			s += a[i] * b[i]
		}
		return s
	}
	u0 := make([]float64, n)
	u := make([]float64, n)
	r := make([]float64, n)
	p := make([]float64, n)
	ap := make([]float64, n)
	var ref reference
	t := 0.0
	for step := 1; step <= cfg.EndStep && t < cfg.EndTime; step++ {
		for c := range u0 {
			u0[c] = density[c] * energy[c]
		}
		copy(u, u0)
		apply(ap, u)
		for c := range r {
			r[c] = u0[c] - ap[c]
		}
		copy(p, r)
		rro := dot(r, r)
		initial := rro
		iters := 0
		for rro != 0 && iters < cfg.MaxIters {
			apply(ap, p)
			alpha := rro / dot(p, ap)
			for c := range u {
				u[c] += alpha * p[c]
				r[c] -= alpha * ap[c]
			}
			rrn := dot(r, r)
			iters++
			if rrn < cfg.Eps*initial {
				break
			}
			beta := rrn / rro
			for c := range p {
				p[c] = r[c] + beta*p[c]
			}
			rro = rrn
		}
		for c := range energy {
			energy[c] = u[c] / density[c]
		}
		ref.Iters = append(ref.Iters, iters)
		t += dt
	}
	vol := dx * dy
	for c := range density {
		ref.Final.Volume += vol
		ref.Final.Mass += density[c] * vol
		ref.Final.InternalEnergy += density[c] * energy[c] * vol
		ref.Final.Temperature += u[c] * vol
	}
	ref.Energy = energy
	return ref, nil
}
