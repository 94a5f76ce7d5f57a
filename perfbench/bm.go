package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/grid"
	"github.com/warwick-hpsc/tealeaf-go/internal/profiler"
	"github.com/warwick-hpsc/tealeaf-go/internal/registry"
	"github.com/warwick-hpsc/tealeaf-go/internal/solver"
)

// genClock times field generation, so a driver.Run can be split into set-up
// and time-march, and times each CG iteration: the interval from one
// cg_calc_w call to the next, which the solver makes once per iteration.
// It forwards every optional capability of the port it wraps: a bare
// embedding wrapper would hide FusedWDot and FusedURPrecond from the solver
// and silently switch the port onto the unfused path.
type genClock struct {
	driver.Kernels
	gen   time.Duration
	iters []iterSample
	// The last cg_calc_w call of the current step, and the stolen ticks
	// then; zero at the start of a step, so no sample spans a step's end.
	last      time.Time
	lastSteal uint64
}

func (g *genClock) Generate(m *grid.Mesh, states []config.State) error {
	start := time.Now()
	err := g.Kernels.Generate(m, states)
	g.gen = time.Since(start)
	return err
}

// tick marks the start of a CG iteration.
func (g *genClock) tick() {
	now, stolen := time.Now(), stolenTicks()
	if !g.last.IsZero() {
		g.iters = append(g.iters, iterSample{d: now.Sub(g.last), stolen: stolen - g.lastSteal})
	}
	g.last, g.lastSteal = now, stolen
}

func (g *genClock) CGCalcW() float64 {
	g.tick()
	return g.Kernels.CGCalcW()
}

func (g *genClock) HasFusedWDot() bool      { return driver.AsFusedWDot(g.Kernels) != nil }
func (g *genClock) HasFusedURPrecond() bool { return driver.AsFusedURPrecond(g.Kernels) != nil }
func (g *genClock) HasFieldRestorer() bool  { return driver.AsFieldRestorer(g.Kernels) != nil }
func (g *genClock) HasTilingReporter() bool { return driver.AsTilingReporter(g.Kernels) != nil }

func (g *genClock) CGCalcWFused() float64 {
	g.tick()
	return driver.AsFusedWDot(g.Kernels).CGCalcWFused()
}
func (g *genClock) CGCalcURFused(alpha float64, precond bool) float64 {
	return driver.AsFusedURPrecond(g.Kernels).CGCalcURFused(alpha, precond)
}
func (g *genClock) RestoreField(id driver.FieldID, data []float64) {
	driver.AsFieldRestorer(g.Kernels).RestoreField(id, data)
}
func (g *genClock) TilingSnapshot() driver.TilingSnapshot {
	return driver.AsTilingReporter(g.Kernels).TilingSnapshot()
}

// portParams fixes every thread team and rank world at the host's CPU
// count, so no version runs oversubscribed.
func portParams() registry.Params {
	n := runtime.NumCPU()
	return registry.Params{Threads: n, Ranks: n}
}

// versionRun is one version's solve of a deck.
type versionRun struct {
	Version registry.Version
	Setup   time.Duration // port construction + field generation
	Iters   []iterSample  // every CG iteration but each step's last
	Result  driver.Result
	Energy  []float64 // final specific energy, when fetched
	Prof    *profiler.Profile
	Tiling  driver.TilingSnapshot // counter deltas of this run
	Tiled   bool                  // the port reports tiling counters
}

// runVersion builds a fresh port of v, solves cfg on it and closes it.
// traced wraps the port in driver.Instrument, the repo's timing decorator,
// which forwards the fused, restore and tiling capabilities. yield, when
// set, is called after every time step and returns when the solve may go
// on; the time it blocks counts toward no iteration.
func runVersion(v registry.Version, cfg config.Config, traced, fetch bool, yield func()) (versionRun, error) {
	run := versionRun{Version: v}
	start := time.Now()
	port, err := v.Make(portParams())
	if err != nil {
		return run, fmt.Errorf("%s: make: %w", v.Name, err)
	}
	defer port.Close()
	made := time.Now()
	var k driver.Kernels = port
	if traced {
		run.Prof = profiler.New()
		k = driver.Instrument(port, run.Prof)
	}
	clock := &genClock{Kernels: k}
	var tilePrev driver.TilingSnapshot
	tiler := driver.AsTilingReporter(port)
	if tiler != nil {
		tilePrev = tiler.TilingSnapshot()
	}
	ctx := driver.WithStepObserver(context.Background(), func(driver.StepResult) {
		clock.last = time.Time{}
		if yield != nil {
			yield()
		}
	})
	res, err := driver.RunCtx(ctx, cfg, clock, solver.New(solver.FromConfig(&cfg)), nil)
	if err != nil {
		return run, fmt.Errorf("%s: %w", v.Name, err)
	}
	run.Setup = made.Sub(start) + clock.gen
	run.Iters = clock.iters
	run.Result = res
	if tiler != nil {
		run.Tiling = tiler.TilingSnapshot().Sub(tilePrev)
		run.Tiled = run.Tiling.Tiling
	}
	if fetch {
		run.Energy = port.FetchField(driver.FieldEnergy0)
	}
	return run, nil
}

// bmCase is one version's part of a bm workload: the deck it solves and
// the oracle checks its result must pass.
type bmCase struct {
	version registry.Version
	cfg     config.Config
	exp     expected
	ref     *reference // per-step iterations and final field to match
}

// bmWorkload is a set of version solves run in one process. Every case's
// port stays alive for the round and the versions take turns of one time
// step each, so each version's step samples spread over the whole round
// instead of one stretch of it.
type bmWorkload struct {
	name  string
	cases []bmCase
	// setupReps extra constructions per version per round give setup_s
	// enough samples for a steady median; they cost little on small meshes.
	setupReps int
	report    io.Writer
}

const llcN = 200

// llcWorkload is the paper's tea_bm deck at 200²: two materials,
// unpreconditioned CG to eps 1e-15, ten steps, all 17 versions. Its fields
// (about 5 MB) stay in the last-level cache.
func llcWorkload(w io.Writer) (*bmWorkload, error) {
	cfg := config.BenchmarkN(llcN)
	cfg.SummaryFrequency = 1
	ref, err := referenceRun(cfg)
	if err != nil {
		return nil, err
	}
	wl := &bmWorkload{name: "bm-llc", setupReps: 12, report: w}
	exp := expectTotals(cfg)
	for _, v := range registry.All() {
		wl.cases = append(wl.cases, bmCase{version: v, cfg: cfg, exp: exp, ref: &ref})
	}
	return wl, nil
}

// check applies the oracle to one run.
func (wl *bmWorkload) check(c bmCase, run versionRun) error {
	if err := checkSteps(c.exp, run.Result, c.cfg.EndStep); err != nil {
		return err
	}
	if c.ref != nil {
		if err := checkIters(c.ref.Iters, run.Result); err != nil {
			return err
		}
		if err := checkField(c.ref.Energy, run.Energy, fieldTol); err != nil {
			return err
		}
	}
	return nil
}

// tally accumulates attempted/failed operations and oracle failures.
type tally struct {
	attempted, failed int
	wrong             []string
}

func (t *tally) wrongf(format string, args ...any) {
	if len(t.wrong) < 20 {
		t.wrong = append(t.wrong, fmt.Sprintf(format, args...))
	}
}

// round runs every case once, adding each run to its version's samples.
// It returns the runs that completed.
func (wl *bmWorkload) round(traced bool, t *tally, samples map[string]*versionSamples) []versionRun {
	runs := make([]versionRun, len(wl.cases))
	errs := make([]error, len(wl.cases))
	inTurns(len(wl.cases), func(i int, yield func()) {
		c := wl.cases[i]
		runs[i], errs[i] = runVersion(c.version, c.cfg, traced, c.ref != nil, yield)
	})
	var done []versionRun
	for i, c := range wl.cases {
		t.attempted++
		if errs[i] != nil {
			t.failed++
			fmt.Fprintf(wl.report, "%s: %s failed: %v\n", wl.name, c.version.Name, errs[i])
			continue
		}
		run := runs[i]
		if err := wl.check(c, run); err != nil {
			t.wrongf("%s: %s: %v", wl.name, c.version.Name, err)
		}
		run.Energy = nil
		done = append(done, run)
		vs := samples[c.version.Name]
		if vs == nil {
			vs = &versionSamples{version: c.version}
			samples[c.version.Name] = vs
		}
		vs.add(run)
		for k := 0; k < wl.setupReps; k++ {
			t.attempted++
			d, err := setupOnce(c.version, c.cfg)
			if err != nil {
				t.failed++
				fmt.Fprintf(wl.report, "%s: %s set-up failed: %v\n", wl.name, c.version.Name, err)
				continue
			}
			vs.setup = append(vs.setup, d.Seconds())
		}
	}
	return done
}

// turnGap is the pause between one version's turn and the next. A par
// team's workers spin for a while after a fork-join before they park, so
// without it the next version's first iterations share the CPUs with the
// previous one's spinning threads. On the reference host, rounds of the
// serve-mix direct sample alternating no gap and a 3 ms gap spread 29 %
// and 10 % in manual-omp's median iteration time; the other versions
// changed little.
const turnGap = 3 * time.Millisecond

// inTurns runs body(i) for every i in its own goroutine but lets only one
// of them compute at a time: body calls yield to hand the turn to the next
// unfinished one, round robin, and yield returns when the turn comes back,
// turnGap after the previous turn ended.
func inTurns(n int, body func(i int, yield func())) {
	resume := make([]chan struct{}, n)
	for i := range resume {
		resume[i] = make(chan struct{}, 1)
	}
	yielded := make(chan int)
	finished := make(chan int)
	for i := 0; i < n; i++ {
		go func(i int) {
			<-resume[i]
			body(i, func() {
				yielded <- i
				<-resume[i]
			})
			finished <- i
		}(i)
	}
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	next := func(i int) int {
		for k := 1; k <= n; k++ {
			if j := (i + k) % n; alive[j] {
				return j
			}
		}
		return -1
	}
	resume[0] <- struct{}{}
	for left := n; left > 0; {
		select {
		case i := <-yielded:
			time.Sleep(turnGap)
			resume[next(i)] <- struct{}{}
		case i := <-finished:
			alive[i] = false
			left--
			if j := next(i); j >= 0 {
				time.Sleep(turnGap)
				resume[j] <- struct{}{}
			}
		}
	}
}

// setupOnce builds a port of v and generates cfg's fields on it: the set-up
// half of a run, repeated on its own.
func setupOnce(v registry.Version, cfg config.Config) (time.Duration, error) {
	start := time.Now()
	port, err := v.Make(portParams())
	if err != nil {
		return 0, err
	}
	defer port.Close()
	m, err := grid.NewMesh(cfg.XMin, cfg.XMax, cfg.YMin, cfg.YMax, cfg.NX, cfg.NY)
	if err != nil {
		return 0, err
	}
	if err := port.Generate(m, cfg.States); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// iterSample is one CG iteration's duration, and the CPU time, in clock
// ticks, the hypervisor reported stolen from the machine while it ran.
type iterSample struct {
	d      time.Duration
	stolen uint64
}

// stolenTicks is the machine's cumulative stolen CPU time in clock ticks,
// the steal column of /proc/stat (0 where it cannot be read).
func stolenTicks() uint64 {
	stolen, _ := cpuTicks()
	return stolen
}

// procStat stays open: a read of its first line at offset 0 costs about
// 8 µs, which every timed CG iteration carries.
var procStat, _ = os.Open("/proc/stat")

// cpuTicks reads the machine's cumulative stolen and total CPU clock ticks
// from the first line of /proc/stat (zeros where it cannot be read).
func cpuTicks() (stolen, total uint64) {
	var buf [256]byte
	if procStat == nil {
		return 0, 0
	}
	n, _ := procStat.ReadAt(buf[:], 0)
	line, _, _ := strings.Cut(string(buf[:n]), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, field := range f[1:] {
		n, _ := strconv.ParseUint(field, 10, 64)
		if i == 7 {
			stolen = n
		}
		if i < 8 { // guest time is already counted in user time
			total += n
		}
	}
	return stolen, total
}

// versionSamples pools one version's measurements over a run's rounds.
// On a shared host the hypervisor deschedules a vCPU now and then, and a
// fork-join iteration waits for it, so an iteration's time grows with the
// CPU time stolen while it ran. Each CG iteration records the machine's
// stolen clock ticks during it, and the time-march is the median iteration
// time over the iterations that saw none, when at least minUnstolen such
// exist, and otherwise over the minUnstolen that saw the fewest; times the
// median iteration count. Iterations take 0.05–15 ms at these sizes, short
// against the 10 ms tick, so most are spared even when the hypervisor
// takes a third of the host's CPU time, where hardly a whole time step is.
type versionSamples struct {
	version registry.Version
	perIter []float64 // seconds per CG iteration
	stolen  []uint64  // stolen ticks during each of those iterations
	iters   []float64 // CG iterations, one per run
	setup   []float64 // seconds of construction + generation
}

// minUnstolen is the fewest iterations the time-march is read from.
const minUnstolen = 100

func (s *versionSamples) add(run versionRun) {
	for _, it := range run.Iters {
		s.perIter = append(s.perIter, it.d.Seconds())
		s.stolen = append(s.stolen, it.stolen)
	}
	s.iters = append(s.iters, float64(run.Result.TotalIterations))
	s.setup = append(s.setup, run.Setup.Seconds())
}

// perIterTime is the median time of the CG iterations no CPU time was
// stolen from, or, when fewer than minUnstolen were spared, of the
// minUnstolen iterations with the fewest stolen ticks (the earlier on ties);
// it reports which.
func (s *versionSamples) perIterTime() (float64, bool) {
	if len(s.perIter) == 0 {
		return math.NaN(), false
	}
	order := make([]int, len(s.perIter))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return s.stolen[order[a]] < s.stolen[order[b]] })
	var picked []float64
	for _, i := range order {
		if s.stolen[i] > 0 && len(picked) >= minUnstolen {
			break
		}
		picked = append(picked, s.perIter[i])
	}
	return quantile(picked, 0.5), s.stolen[order[len(picked)-1]] == 0
}

func (s *versionSamples) march() float64 {
	t, _ := s.perIterTime()
	return t * quantile(s.iters, 0.5)
}

// stealReport says how many iteration samples the hypervisor took CPU time from
// and how many versions' times had to include such steps.
func stealReport(samples map[string]*versionSamples) string {
	var all, hit, fallback int
	for _, s := range samples {
		all += len(s.stolen)
		for _, t := range s.stolen {
			if t > 0 {
				hit++
			}
		}
		if _, clean := s.perIterTime(); !clean {
			fallback++
		}
	}
	return fmt.Sprintf("%d of %d CG iterations had CPU time stolen, %d of %d versions timed over their least-stolen ones",
		hit, all, fallback, len(samples))
}

// familyMetric names the end-to-end metric a version's time counts toward:
// serial_s for the single-threaded baseline, <family>_cpu_s for the other
// CPU versions and gpu_s for every simulated-GPU version.
func familyMetric(v registry.Version) string {
	switch {
	case v.Name == "manual-serial":
		return "serial_s"
	case v.Arch == registry.GPU:
		return "gpu_s"
	}
	return strings.ToLower(v.Group) + "_cpu_s"
}

// bmMetrics turns the pooled samples into end-to-end values. Each version
// solve contributes its median set-up and its time-march.
func bmMetrics(samples map[string]*versionSamples) map[string]float64 {
	m := map[string]float64{}
	for _, s := range samples {
		m["setup_s"] += quantile(s.setup, 0.5)
		m[familyMetric(s.version)] += s.march()
	}
	return m
}

// runBM measures a bm workload in whole rounds over the run length, then,
// when traced, one more round through the timing decorator.
func runBM(wl *bmWorkload, opt runOptions) (*outcome, error) {
	var t tally
	samples := map[string]*versionSamples{}
	rounds := 0
	runRounds(opt.report, opt.seconds, func() error {
		wl.round(false, &t, samples)
		rounds++
		return nil
	})
	if t.failed == t.attempted {
		return nil, fmt.Errorf("%s: every solve failed", wl.name)
	}
	out := &outcome{tally: t, e2e: bmMetrics(samples)}
	fmt.Fprintf(opt.report, "%s: %d rounds, %d operations, %s: %s\n", wl.name, rounds, t.attempted, stealReport(samples), formatRound(out.e2e))
	if !opt.trace {
		return out, nil
	}
	tracedSamples := map[string]*versionSamples{}
	runs := wl.round(true, &out.tally, tracedSamples)
	out.layers = map[string]float64{}
	layerMetrics(runs, out.layers)
	printOverhead(opt.report, wl.name, bmMetrics(tracedSamples), out.e2e)
	return out, nil
}

// layerMetrics derives the kernel, comm and solver layer numbers of a traced
// round. Compute time is every kernel call except generation and halo
// exchange; bytes are the decorator's computed traffic of those calls.
func layerMetrics(runs []versionRun, into map[string]float64) {
	for _, r := range runs {
		var busy time.Duration
		var bytes, iterSweeps int64
		for _, e := range r.Prof.Entries() {
			switch e.Name {
			case "generate_chunk", "update_halo", "restore_field":
				continue
			case "cg_calc_w", "cg_calc_w_fused", "cg_calc_ur", "cg_calc_ur_fused", "cg_calc_p":
				iterSweeps += e.Sweeps
			}
			busy += e.Time
			bytes += e.Bytes
		}
		iters := float64(max(1, r.Result.TotalIterations))
		name := r.Version.Name
		into["backends."+name+".busy_s"] = busy.Seconds()
		into["backends."+name+".gbs"] = float64(bytes) / math.Max(busy.Seconds(), 1e-12) / 1e9
		sweeps := float64(iterSweeps) / iters
		if r.Tiled {
			sweeps = float64(r.Tiling.Flushes) / iters
		}
		into["backends."+name+".sweeps_per_iter"] = sweeps
		if e, ok := r.Prof.Lookup("update_halo"); ok {
			into["comm."+name+".halo_s"] = e.Time.Seconds()
		}
		if name == "manual-serial" {
			into["solver.cg_iters"] = float64(r.Result.TotalIterations)
		}
	}
}
