package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/fleet"
	"github.com/warwick-hpsc/tealeaf-go/internal/registry"
	"github.com/warwick-hpsc/tealeaf-go/internal/serve"
)

// mixShape sizes one round of the served job mix: jobs per phase, and how
// many of the paced jobs run on a 2-worker fleet.
type mixShape struct{ burst, paced, fleet int }

// fullMix is serve-mix's round. A run of three rounds (--seconds 50 on a
// quiet host) has 1641 paced latency samples besides the fleet jobs, so its
// p99 has 16 beyond it.
var fullMix = mixShape{burst: 500, paced: 550, fleet: 3}

// probeMix is the reduced round the traced bm runs use to report the serve
// and fleet layers.
var probeMix = mixShape{burst: 60, paced: 200, fleet: 2}

// fleetWorkers is the rank count of every fleet job: nproc on the
// reference host, each worker process running one thread.
const fleetWorkers = 2

// Every fleet job solves fleetDeck and loses worker rank 1 at its 60th
// communication operation, in the second of the deck's three steps (rank 1
// makes 118 in all), so the coordinator migrates it from the step-1
// checkpoint: spawn, socket world, checkpoint, worker loss and migration
// run in every fleet job. Plain fleet jobs are not in the mix because they
// fail now and then (about 1 in 60: the last attempt loses a rank at
// teardown and the job finishes from its final checkpoint); the drill's
// failure is the same in every run (see fleetFault).
const fleetDrill = "killproc:rank=1,op=60"

// fleetDeck is the fleet jobs' deck; it does not depend on the seed.
func fleetDeck() config.Config {
	cfg := config.BenchmarkN(32)
	cfg.EndStep = 3
	cfg.Eps = mixEps
	return cfg
}

// pacedRate is the paced phase's submissions per second: the two workers
// stay well below saturation, so latency measures service, not a queue
// that a brief stall of the host would build.
const pacedRate = 60.0

// servePool holds the manual-serial baseline plus one CPU and one
// simulated-GPU member of each family, so the direct sample yields every
// family metric and the predictive scheduler has real choices.
var servePool = []string{
	"manual-serial", "manual-omp", "manual-cuda", "ops-openmp", "ops-cuda",
	"kokkos-openmp", "kokkos-cuda", "raja-openmp", "raja-cuda",
}

// burstsPerRound splits a round's burst jobs into bursts drained one after
// another; serve.burst_jobs_per_s is the median over every burst of the run.
const burstsPerRound = 5

// pacedStretches splits a round's paced jobs into stretches run one after
// another, so direct-sample passes can sit between them.
const pacedStretches = 5

// directPasses is how many direct-sample passes a round makes: one after
// each burst and each paced stretch.
const directPasses = burstsPerRound + pacedStretches

// restartsPerRound is how often each round restarts the server on its
// state directory; setup_s is the median of these replays.
const restartsPerRound = 5

// batchCap is the batching limit in cells: tiny and small decks are
// batched, medium ones are not.
const batchCap = 48 * 48

const mixEps = 1e-15

// mixJob is one generated job and what the oracle expects of it.
type mixJob struct {
	spec  serve.JobSpec
	exp   expected
	steps int
	tol   float64 // energy conservation tolerance of its solver
	hot   int     // index of the hot deck it repeats, or -1
	paced bool    // submitted in the paced phase
	due   time.Duration
}

func (j mixJob) isFleet() bool { return j.spec.Fleet }

// deckText renders a deck in tea.in syntax; the service receives only this
// text.
func deckText(cfg config.Config) string {
	var b strings.Builder
	b.WriteString("*tea\n")
	for _, s := range cfg.States {
		fmt.Fprintf(&b, "state %d density=%g energy=%g", s.Index, s.Density, s.Energy)
		if s.Index > 1 {
			fmt.Fprintf(&b, " geometry=rectangle xmin=%g xmax=%g ymin=%g ymax=%g", s.XMin, s.XMax, s.YMin, s.YMax)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "x_cells=%d\ny_cells=%d\nxmin=%g\nxmax=%g\nymin=%g\nymax=%g\n",
		cfg.NX, cfg.NY, cfg.XMin, cfg.XMax, cfg.YMin, cfg.YMax)
	fmt.Fprintf(&b, "initial_timestep=%g\nend_step=%d\ntl_max_iters=%d\ntl_eps=%g\n",
		cfg.InitialTimestep, cfg.EndStep, cfg.MaxIters, cfg.Eps)
	switch cfg.Solver {
	case config.SolverPPCG:
		b.WriteString("tl_use_ppcg\n")
	case config.SolverChebyshev:
		b.WriteString("tl_use_chebyshev\n")
	default:
		b.WriteString("tl_use_cg\n")
	}
	switch cfg.Preconditioner {
	case config.PrecondJacDiag:
		b.WriteString("tl_preconditioner_type=jac_diag\n")
	case config.PrecondJacBlock:
		b.WriteString("tl_preconditioner_type=jac_block\n")
	}
	b.WriteString("*endtea\n")
	return b.String()
}

// mixDeck draws one deck of n² cells: a dense cold background with a light
// hot rectangle whose edges lie on cell faces, so rasterisation is exact.
// The seed moves and sizes the rectangle and sets its energy; the unique
// value makes the deck's content hash differ from every other job's.
func mixDeck(rng *rand.Rand, n int, solver config.SolverKind, precond config.Preconditioner, unique float64) config.Config {
	cfg := config.BenchmarkN(n)
	cfg.EndStep = 2 + rng.Intn(3)
	cfg.Eps = mixEps
	cfg.Solver = solver
	cfg.Preconditioner = precond
	cell := 10 / float64(n)
	w, h := n/8+rng.Intn(n/8), n/8+rng.Intn(n/8)
	x0, y0 := rng.Intn(n-w), rng.Intn(n-h)
	cfg.States[1].Energy = 10 + float64(rng.Intn(30)) + unique
	cfg.States[1].XMin, cfg.States[1].XMax = cell*float64(x0), cell*float64(x0+w)
	cfg.States[1].YMin, cfg.States[1].YMax = cell*float64(y0), cell*float64(y0+h)
	return cfg
}

var (
	tinySizes   = []int{16, 20, 24}
	smallSizes  = []int{32, 40, 48}
	mediumSizes = []int{64, 80, 96}
	mixSolvers  = []struct {
		kind    config.SolverKind
		precond config.Preconditioner
	}{
		{config.SolverCG, config.PrecondNone},
		{config.SolverCG, config.PrecondJacDiag},
		{config.SolverCG, config.PrecondJacBlock},
		{config.SolverPPCG, config.PrecondNone},
		{config.SolverChebyshev, config.PrecondNone},
	}
	priorities = []string{"high", "normal", "low"}
)

// largestMixDeck is the biggest deck the mix can draw, the input of the
// checkpoint and kernel-layer probes.
func largestMixDeck() config.Config {
	cfg := config.BenchmarkN(mediumSizes[len(mediumSizes)-1])
	cfg.EndStep = 3
	cfg.Eps = mixEps
	return cfg
}

// generateMix builds one round's jobs from the seed. The composition is
// fixed (mesh sizes, solvers, hot share, pinning, checkpointing, fleet
// jobs), so each pinned version sees the same kinds of job whatever the
// seed; the seed places the hot rectangles and picks step counts, energies,
// hot-deck choices, priorities and the order. Fleet jobs sit at evenly
// spaced places in the paced phase, so no two of them overlap.
func generateMix(seed int64, round int, shape mixShape) []mixJob {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(round)))
	hot := make([]config.Config, 3)
	for i := range hot {
		hot[i] = mixDeck(rng, smallSizes[i], config.SolverCG, config.PrecondNone, 0.5+0.25*float64(i))
	}
	total := shape.burst + shape.paced
	jobs := make([]mixJob, 0, total)
	pinned := 0
	for i := 0; i < total; i++ {
		paced := i >= shape.burst
		var cfg config.Config
		j := mixJob{hot: -1, paced: paced}
		switch {
		case paced && i < shape.burst+shape.fleet:
			// Split over fleetWorkers worker processes; never cached,
			// coalesced or batched.
			cfg = fleetDeck()
			j.spec.Fleet, j.spec.FleetWorkers, j.spec.FaultSpec = true, fleetWorkers, fleetDrill
		case i%4 == 1:
			j.hot = rng.Intn(len(hot))
			cfg = hot[j.hot]
		default:
			sizes := tinySizes
			switch i % 5 {
			case 2, 4:
				sizes = smallSizes
			case 3:
				sizes = mediumSizes
			}
			s := mixSolvers[(i/4)%len(mixSolvers)]
			cfg = mixDeck(rng, sizes[(i/20)%len(sizes)], s.kind, s.precond, 1e-3*float64(i+1))
			if i%2 == 0 {
				j.spec.Version = servePool[pinned%len(servePool)]
				pinned++
			}
			if i%10 == 7 {
				j.spec.CheckpointEvery = 1
			}
		}
		j.spec.Deck = deckText(cfg)
		j.spec.Priority = priorities[rng.Intn(len(priorities))]
		j.exp = expectTotals(cfg)
		j.steps = cfg.EndStep
		j.tol = energyTol
		if cfg.Preconditioner != config.PrecondNone {
			j.tol = precondEnergyTol
		}
		jobs = append(jobs, j)
	}
	// Shuffle within each phase.
	burst := jobs[:shape.burst]
	rng.Shuffle(len(burst), func(a, b int) { burst[a], burst[b] = burst[b], burst[a] })
	paced := jobs[shape.burst:]
	rng.Shuffle(len(paced), func(a, b int) { paced[a], paced[b] = paced[b], paced[a] })
	var fleetJobs, rest []mixJob
	for _, j := range paced {
		if j.isFleet() {
			fleetJobs = append(fleetJobs, j)
		} else {
			rest = append(rest, j)
		}
	}
	for k, m := 0, 0; k < len(paced); k++ {
		if m < len(fleetJobs) && k == (2*m+1)*len(paced)/(2*len(fleetJobs)) {
			paced[k] = fleetJobs[m]
			m++
		} else {
			paced[k], rest = rest[0], rest[1:]
		}
	}
	for k := range paced {
		paced[k].due = time.Duration(float64(k) / pacedRate * float64(time.Second))
	}
	return jobs
}

// serveRun holds what a serve-mix run accumulates over its rounds.
type serveRun struct {
	shape  mixShape
	seed   int64
	dir    string // run directory, relative to the working directory
	exe    string // this binary, re-executed as the fleet workers
	report io.Writer
	mu     sync.Mutex // guards admit, appended to by the sender goroutines
	t      tally
	rounds int
	// burstRates holds the throughput of every burst of every round.
	burstRates []float64
	latency    []float64                  // paced: due send time -> finished
	direct     map[string]*versionSamples // the direct sample's timings, over rounds
	restarts   []float64                  // journal replay -> ready
	// per-layer samples
	admit, queueWait, runTime, genLate []float64
	fleetJob, predErr                  []float64
	counters                           map[string]float64
}

// serverOptions configures the pool: every CPU shared by the workers, the
// predictive scheduler, the cache, micro-batching below batchCap, the
// durable journal, and fleet jobs whose workers are this binary
// re-executed, with the fleet package's default timeouts.
func (r *serveRun) serverOptions(stateDir string) serve.Options {
	return serve.Options{
		QueueSize:     r.shape.burst + r.shape.paced + 64,
		Workers:       runtime.NumCPU(),
		Versions:      servePool,
		Sched:         serve.SchedPredictive,
		Params:        portParams(),
		CacheSize:     4096,
		BatchMaxCells: batchCap,
		BatchMaxJobs:  4,
		RetainJobs:    1 << 16,
		StateDir:      filepath.Join(stateDir, "state"),
		Fleet: fleet.Options{
			Workers:       fleetWorkers,
			Threads:       1,
			WorkerCommand: []string{r.exe},
			Dir:           filepath.Join(stateDir, "fleet"),
		},
	}
}

// client talks to the server over at most nproc connections.
type client struct {
	base string
	http *http.Client
}

func newClient(addr string) *client {
	n := runtime.NumCPU()
	return &client{base: "http://" + addr, http: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true},
	}}
}

func (c *client) submit(spec serve.JobSpec) (string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	resp, err := c.http.Post(c.base+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body)
		return "", fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return "", err
	}
	return st.ID, nil
}

func (c *client) get(path string, into any) error {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	if s, ok := into.(*string); ok {
		b, err := io.ReadAll(resp.Body)
		*s = string(b)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// waitFinished waits until the server has settled total jobs in all, then
// returns the status of each id. It watches the settle counters on
// /metrics rather than the job list, whose encoding would take CPU from
// the jobs still running.
func (c *client) waitFinished(ids []string, total int, timeout time.Duration) (map[string]serve.JobStatus, error) {
	deadline := time.Now().Add(timeout)
	for {
		var text string
		if err := c.get("/metrics", &text); err != nil {
			return nil, err
		}
		vals, err := parseMetrics(text)
		if err != nil {
			return nil, err
		}
		settled := vals["teaserve_jobs_completed_total"] + vals["teaserve_jobs_failed_total"] + vals["teaserve_jobs_expired_total"]
		if settled >= float64(total) {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%v of %d jobs settled after %v", settled, total, timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
	var all []serve.JobStatus
	if err := c.get("/v1/jobs", &all); err != nil {
		return nil, err
	}
	byID := map[string]serve.JobStatus{}
	for _, st := range all {
		byID[st.ID] = st
	}
	got := map[string]serve.JobStatus{}
	for _, id := range ids {
		if id != "" {
			got[id] = byID[id]
		}
	}
	return got, nil
}

// submission is the client's record of one POST.
type submission struct {
	id        string
	due, sent time.Time
	err       error
}

// submitAll sends jobs over nproc sender goroutines. A nil schedule sends
// as fast as admission allows; otherwise one generator releases job k at
// start+due_k and each sender posts what it is handed.
func (r *serveRun) submitAll(c *client, jobs []mixJob, start time.Time, paced bool) []submission {
	subs := make([]submission, len(jobs))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range work {
				subs[k].sent = time.Now()
				subs[k].id, subs[k].err = c.submit(jobs[k].spec)
				d := time.Since(subs[k].sent).Seconds()
				r.record(func() { r.admit = append(r.admit, d) })
			}
		}()
	}
	for k := range jobs {
		subs[k].due = start
		if paced {
			subs[k].due = start.Add(jobs[k].due)
			if d := time.Until(subs[k].due); d > 0 {
				time.Sleep(d)
			}
		}
		work <- k
	}
	close(work)
	wg.Wait()
	return subs
}

func (r *serveRun) record(fn func()) {
	r.mu.Lock()
	fn()
	r.mu.Unlock()
}

// fleetFault reports whether a finished job shows the fault every fleet job
// of the mix meets: it is done with the deck's totals right, but its result
// counts only the steps of the attempt that finished it (fleet.Result.Steps),
// so a job migrated mid-solve reports fewer steps than it solved, and one
// finished from its final checkpoint reports 0 steps, not converged. Such a
// job counts as failed; any other departure from the oracle is wrong.
func fleetFault(j mixJob, st serve.JobStatus) bool {
	res := st.Result
	return j.isFleet() && st.State == serve.StateDone && res != nil && res.Migrations > 0 &&
		res.Steps < j.steps && checkTotals(j.exp, driverTotals(res), j.tol) == nil
}

// checkJob applies the oracle to one finished job.
func checkJob(j mixJob, st serve.JobStatus) error {
	if st.State != serve.StateDone {
		return fmt.Errorf("state %s: %s", st.State, st.Error)
	}
	res := st.Result
	if res == nil || !res.Converged || res.Steps != j.steps {
		return fmt.Errorf("result %+v: want %d converged steps", res, j.steps)
	}
	return checkTotals(j.exp, driverTotals(res), j.tol)
}

// round runs the burst phase and the paced phase, with a direct-sample pass
// after each burst and each paced stretch, then the restarts, on a fresh
// server and state directory.
func (r *serveRun) round(n int) error {
	jobs := generateMix(r.seed, n, r.shape)
	dir := filepath.Join(r.dir, fmt.Sprintf("r%d", n))
	defer os.RemoveAll(dir)
	opts := r.serverOptions(dir)
	s, err := serve.New(opts)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		return err
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)
	stop := func() {
		hs.Shutdown(context.Background())
		s.Close()
	}
	c := newClient(ln.Addr().String())
	defer c.http.CloseIdleConnections()

	burst, paced := jobs[:r.shape.burst], jobs[r.shape.burst:]

	if r.direct == nil {
		r.direct = map[string]*versionSamples{}
	}
	direct := directSample(r.report)
	directPass := func() {
		runtime.GC() // collect the phase's garbage before timing, not during
		direct.round(false, &r.t, r.direct)
	}

	// The burst phase is burstsPerRound bursts back to back, each drained
	// and followed by a direct-sample pass, so a run holds many throughput
	// samples.
	var bsubs []submission
	bstat := map[string]serve.JobStatus{}
	var rates []float64
	for b := 0; b < burstsPerRound; b++ {
		part := burst[b*len(burst)/burstsPerRound : (b+1)*len(burst)/burstsPerRound]
		t0 := time.Now()
		subs := r.submitAll(c, part, t0, false)
		bsubs = append(bsubs, subs...)
		st, err := c.waitFinished(ids(subs), admitted(bsubs), time.Minute)
		if err != nil {
			stop()
			return fmt.Errorf("burst: %w", err)
		}
		var last time.Time
		for id, js := range st {
			bstat[id] = js
			if js.Finished.After(last) {
				last = js.Finished
			}
		}
		rates = append(rates, float64(len(st))/last.Sub(t0).Seconds())
		directPass()
	}

	// The paced phase runs in pacedStretches stretches, each released on
	// its own schedule from 20 ms after it starts, drained and followed by
	// a direct-sample pass.
	var psubs []submission
	pstat := map[string]serve.JobStatus{}
	for p := 0; p < pacedStretches; p++ {
		part := paced[p*len(paced)/pacedStretches : (p+1)*len(paced)/pacedStretches]
		start := time.Now().Add(20*time.Millisecond - part[0].due)
		subs := r.submitAll(c, part, start, true)
		psubs = append(psubs, subs...)
		st, err := c.waitFinished(ids(subs), admitted(bsubs)+admitted(psubs), time.Minute)
		if err != nil {
			stop()
			return fmt.Errorf("paced: %w", err)
		}
		for id, js := range st {
			pstat[id] = js
		}
		directPass()
	}
	var metrics string
	if err := c.get("/metrics", &metrics); err != nil {
		stop()
		return err
	}
	stop()

	all := append(append([]submission(nil), bsubs...), psubs...)
	final := map[string]serve.JobStatus{}
	for k, v := range bstat {
		final[k] = v
	}
	for k, v := range pstat {
		final[k] = v
	}
	hotResults := map[int]*serve.JobResult{}
	fleetFaults := 0
	for k, j := range jobs {
		r.t.attempted++
		sub := all[k]
		if sub.err != nil {
			r.t.failed++
			fmt.Fprintf(r.report, "serve-mix: submit failed: %v\n", sub.err)
			continue
		}
		st := final[sub.id]
		if err := checkJob(j, st); err != nil {
			if !fleetFault(j, st) {
				r.t.wrongf("serve-mix round %d: %s: %v", n, sub.id, err)
				continue
			}
			r.t.failed++
			fleetFaults++
		}
		if j.hot >= 0 {
			if prev := hotResults[j.hot]; prev == nil {
				hotResults[j.hot] = st.Result
			} else if driver.CompareTotals(driverTotals(prev), driverTotals(st.Result)) > 1e-12 {
				r.t.wrongf("serve-mix round %d: %s: hot deck %d result differs from its first job", n, sub.id, j.hot)
			}
		}
		switch {
		case j.isFleet():
			r.fleetJob = append(r.fleetJob, st.Finished.Sub(sub.due).Seconds())
		case j.paced:
			r.latency = append(r.latency, st.Finished.Sub(sub.due).Seconds())
			r.genLate = append(r.genLate, sub.sent.Sub(sub.due).Seconds())
		}
		if !st.Cached && !st.Coalesced && !st.Started.IsZero() {
			r.queueWait = append(r.queueWait, st.Started.Sub(st.Submitted).Seconds())
			r.runTime = append(r.runTime, st.Finished.Sub(st.Started).Seconds())
		}
	}
	if fleetFaults > 0 {
		fmt.Fprintf(r.report, "serve-mix round %d: %d fleet jobs migrated and reported fewer steps than they solved (counted as failed)\n", n+1, fleetFaults)
	}
	if err := r.scrape(metrics, n); err != nil {
		return err
	}

	// Restart on the same state directory, several times: each restart
	// replays the journal, and every job must come back unchanged.
	for k := 0; k < restartsPerRound; k++ {
		t := time.Now()
		s2, err := serve.New(opts)
		if err != nil {
			return fmt.Errorf("restart: %w", err)
		}
		for !s2.Ready() {
			time.Sleep(time.Millisecond)
		}
		r.restarts = append(r.restarts, time.Since(t).Seconds())
		r.t.attempted++
		if err := compareRestored(s2, final); err != nil {
			r.t.wrongf("serve-mix round %d restart %d: %v", n, k+1, err)
		}
		s2.Close()
	}
	r.burstRates = append(r.burstRates, rates...)
	r.rounds++
	fmt.Fprintf(r.report, "serve-mix round %d: bursts %s jobs/s\n", n+1, formatList(rates))
	return nil
}

func admitted(subs []submission) int {
	n := 0
	for _, s := range subs {
		if s.err == nil {
			n++
		}
	}
	return n
}

func ids(subs []submission) []string {
	out := make([]string, len(subs))
	for k, s := range subs {
		out[k] = s.id
	}
	return out
}

// compareRestored checks that a restarted server holds every job with the
// same state and result it had before the restart.
func compareRestored(s *serve.Server, before map[string]serve.JobStatus) error {
	for id, want := range before {
		got, ok := s.Job(id)
		if !ok {
			return fmt.Errorf("%s missing after restart", id)
		}
		if got.State != want.State || !reflect.DeepEqual(got.Result, want.Result) {
			return fmt.Errorf("%s changed across restart: %s %+v, was %s %+v", id, got.State, got.Result, want.State, want.Result)
		}
	}
	return nil
}

// scrape reads the round's /metrics: the request-plane counters, the
// prediction-error median, and the accounting identity
// completed == solves + followers + cache hits.
func (r *serveRun) scrape(text string, n int) error {
	vals, err := parseMetrics(text)
	if err != nil {
		return err
	}
	get := func(name string) float64 { return vals[name] }
	completed := get("teaserve_jobs_completed_total")
	sum := get("teaserve_solves_total") + get("teaserve_singleflight_followers_total") + get("teaserve_cache_hits_total")
	if completed != sum {
		r.t.wrongf("serve-mix round %d: /metrics completed %v != solves + followers + hits %v", n, completed, sum)
	}
	if r.counters == nil {
		r.counters = map[string]float64{}
	}
	r.counters["serve.solves"] += get("teaserve_solves_total")
	r.counters["serve.cache_hits"] += get("teaserve_cache_hits_total")
	r.counters["serve.followers"] += get("teaserve_singleflight_followers_total")
	r.counters["serve.batched_jobs"] += get("teaserve_batch_jobs_total")
	r.predErr = append(r.predErr, histQuantile(vals, "teaserve_sched_prediction_error_ratio", 0.5))
	return nil
}

// parseMetrics reads Prometheus text exposition into name{labels} -> value.
func parseMetrics(text string) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// histQuantile interpolates a quantile from a histogram's cumulative
// buckets, the way Prometheus' histogram_quantile does.
func histQuantile(vals map[string]float64, family string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	prefix := family + `_bucket{le="`
	for k, v := range vals {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(k[len(prefix):], `"}`), 64)
		if err != nil {
			le = math.Inf(1)
		}
		bs = append(bs, bucket{le, v})
	}
	if len(bs) == 0 {
		return math.NaN()
	}
	sort.Slice(bs, func(a, b int) bool { return bs[a].le < bs[b].le })
	total := bs[len(bs)-1].n
	if total == 0 {
		return 0
	}
	rank := q * total
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b.n >= rank {
			if math.IsInf(b.le, 1) {
				return lo
			}
			return lo + (b.le-lo)*(rank-prev)/math.Max(b.n-prev, 1e-300)
		}
		lo, prev = b.le, b.n
	}
	return lo
}

// runServeMix measures serve-mix in whole rounds over the run length, then,
// when traced, one more round whose per-layer samples are reported.
func runServeMix(opt runOptions) (*outcome, error) {
	r, err := newServeRun(opt, fullMix)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.dir)
	if err := runRounds(opt.report, opt.seconds, func() error { return r.round(r.rounds) }); err != nil {
		return nil, err
	}
	out := &outcome{tally: r.t, e2e: map[string]float64{}}
	r.pooled(out.e2e)
	fmt.Fprintf(opt.report, "serve-mix: %d rounds, %d paced latency samples, %d restarts, generator late p99 %.3g ms; clients saw: %s; %s: %s\n",
		r.rounds, len(r.latency), len(r.restarts), 1e3*quantile(r.genLate, 0.99), formatRound(r.service()),
		stealReport(r.direct), formatRound(out.e2e))
	if !opt.trace {
		return out, nil
	}
	untraced := out.e2e
	tr, err := newServeRun(opt, fullMix)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tr.dir)
	if err := tr.round(r.rounds); err != nil {
		return nil, err
	}
	out.tally.attempted += tr.t.attempted
	out.tally.failed += tr.t.failed
	out.tally.wrong = append(out.tally.wrong, tr.t.wrong...)
	traced := map[string]float64{}
	tr.pooled(traced)
	printOverhead(opt.report, "serve-mix", traced, untraced)
	out.layers = map[string]float64{}
	tr.layers(out.layers)
	return out, nil
}

// pooled adds the end-to-end metrics taken over every round's samples: the
// median restart time and the family times of the direct sample.
func (r *serveRun) pooled(into map[string]float64) {
	into["setup_s"] = quantile(r.restarts, 0.5)
	direct := bmMetrics(r.direct)
	for name := range direct {
		if name == "serial_s" || name == "gpu_s" || strings.HasSuffix(name, "_cpu_s") {
			into[name] = direct[name]
		}
	}
}

// directSample is one pass of the direct sample: the pool's versions timed
// outside the service on the mix's largest mesh (tea_bm at 96²), a time
// step at a time in turns like bm-llc. The family metrics of serve-mix are
// thus the kernel and solver layers at the mix's scale on a deck that does
// not depend on the seed; the service path is timed by the serve.*
// per-layer metrics. A CPU version's step takes 2–10 ms at this size, a
// simulated-GPU version's about 25 ms, so over a round's directPasses
// passes the CPU versions march 30 steps and the GPU ones 10, for a
// comparable number of stolen-tick-free samples in the time. The host's
// speed changes in stretches of seconds (a busy neighbour, stolen time), and
// a fork-join port's iteration times come in a fast and a slow cluster
// whose shares follow it, so the passes are short and spread through the
// round to sample many such stretches.
func directSample(report io.Writer) *bmWorkload {
	wl := &bmWorkload{name: "serve-mix direct", report: report}
	for _, name := range servePool {
		v, _ := registry.Get(name)
		cfg := largestMixDeck()
		cfg.EndStep = 30 / directPasses
		if v.Arch == registry.GPU {
			cfg.EndStep = 10 / directPasses
		}
		cfg.SummaryFrequency = 1
		wl.cases = append(wl.cases, bmCase{version: v, cfg: cfg, exp: expectTotals(cfg)})
	}
	return wl
}

func newServeRun(opt runOptions, shape mixShape) (*serveRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(runRoot(), "s")
	if err != nil {
		return nil, err
	}
	return &serveRun{shape: shape, seed: opt.seed, dir: dir, exe: exe, report: opt.report}, nil
}

// service is what the mix's clients saw: the median throughput over the
// bursts, and the paced latency quantiles. These spread too widely between
// runs on a host whose hypervisor steals CPU time to carry a bound, so they
// are per-layer metrics (README.md, "Left out").
func (r *serveRun) service() map[string]float64 {
	return map[string]float64{
		"serve.burst_jobs_per_s": quantile(r.burstRates, 0.5),
		"serve.paced_p50_s":      quantile(r.latency, 0.50),
		"serve.paced_p99_s":      quantile(r.latency, 0.99),
	}
}

// layers reports the serve layer metrics of the round(s) run.
func (r *serveRun) layers(into map[string]float64) {
	into["serve.admit_p50_s"] = quantile(r.admit, 0.50)
	into["serve.admit_p99_s"] = quantile(r.admit, 0.99)
	into["serve.queue_wait_p50_s"] = quantile(r.queueWait, 0.50)
	into["serve.queue_wait_p99_s"] = quantile(r.queueWait, 0.99)
	into["serve.run_p50_s"] = quantile(r.runTime, 0.50)
	into["serve.run_p99_s"] = quantile(r.runTime, 0.99)
	into["serve.pred_err_p50"] = quantile(r.predErr, 0.5)
	into["serve.gen_late_p99_s"] = quantile(r.genLate, 0.99)
	into["fleet.job_p50_s"] = quantile(r.fleetJob, 0.5)
	for k, v := range r.service() {
		into[k] = v
	}
	for k, v := range r.counters {
		into[k] = v
	}
}

// serveProbe runs one reduced serve-mix round so a traced bm run can report
// the serve layer too.
func serveProbe(opt runOptions, out *outcome) error {
	r, err := newServeRun(opt, probeMix)
	if err != nil {
		return err
	}
	defer os.RemoveAll(r.dir)
	if err := r.round(0); err != nil {
		return err
	}
	// Checked, but left out of attempted and failed, like every probe.
	out.tally.wrong = append(out.tally.wrong, r.t.wrong...)
	r.layers(out.layers)
	return nil
}

func driverTotals(r *serve.JobResult) driver.Totals {
	return driver.Totals{Volume: r.Volume, Mass: r.Mass, InternalEnergy: r.InternalEnergy, Temperature: r.Temperature}
}
