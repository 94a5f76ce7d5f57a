package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"github.com/warwick-hpsc/tealeaf-go/internal/checkpoint"
	"github.com/warwick-hpsc/tealeaf-go/internal/comm"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/par"
	"github.com/warwick-hpsc/tealeaf-go/internal/registry"
)

// streamChildEnv carries the STREAM array size into the child process that
// runs it, so the 3 arrays never count toward the benchmark's own peak RSS.
const streamChildEnv = "PERFBENCH_STREAM_BYTES"

type streamResult struct {
	CopyGBs, TriadGBs float64
	Threads           int
	ArrayBytes        int64
}

// runStreamChild measures host bandwidth in a child process with arrays of
// four times the LLC each, as STREAM requires for a memory-bound figure.
func runStreamChild(topo par.Topology) (streamResult, error) {
	size := 4 * int64(topo.LLCSize())
	if avail := memAvailable(); avail > 0 && avail < uint64(3*size+size/2) {
		return streamResult{}, fmt.Errorf("STREAM needs 3 arrays of %d MiB, host has %d MiB available", size>>20, avail>>20)
	}
	exe, err := os.Executable()
	if err != nil {
		return streamResult{}, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), streamChildEnv+"="+strconv.FormatInt(size, 10))
	cmd.Stderr = os.Stderr
	outb, err := cmd.Output()
	if err != nil {
		return streamResult{}, fmt.Errorf("STREAM child: %w", err)
	}
	var res streamResult
	if err := json.Unmarshal(outb, &res); err != nil {
		return streamResult{}, fmt.Errorf("STREAM child output: %w", err)
	}
	return res, nil
}

// streamChild is the child's body: copy (c = a) and triad (a = b + s*c)
// over nproc goroutines, best of five passes each.
func streamChild() {
	size, err := strconv.ParseInt(os.Getenv(streamChildEnv), 10, 64)
	if err != nil || size <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: bad", streamChildEnv)
		os.Exit(2)
	}
	n := int(size / 8)
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	threads := runtime.NumCPU()
	parallel := func(body func(lo, hi int)) time.Duration {
		start := time.Now()
		var wg sync.WaitGroup
		for t := 0; t < threads; t++ {
			lo, hi := par.StaticRange(0, n, t, threads)
			wg.Add(1)
			go func() {
				defer wg.Done()
				body(lo, hi)
			}()
		}
		wg.Wait()
		return time.Since(start)
	}
	parallel(func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a[i], b[i], c[i] = 1, 2, 0
		}
	})
	best := func(body func(lo, hi int)) time.Duration {
		d := time.Duration(1 << 62)
		for k := 0; k < 5; k++ {
			d = min(d, parallel(body))
		}
		return d
	}
	cp := best(func(lo, hi int) { copy(c[lo:hi], a[lo:hi]) })
	const s = 3.0
	tr := best(func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a[i] = b[i] + s*c[i]
		}
	})
	res := streamResult{
		CopyGBs:  2 * float64(size) / cp.Seconds() / 1e9,
		TriadGBs: 3 * float64(size) / tr.Seconds() / 1e9,
		Threads:  threads, ArrayBytes: size,
	}
	json.NewEncoder(os.Stdout).Encode(res)
}

// timePer runs op in batches until about budget has passed and returns the
// median time per call across the batches.
func timePer(calls int, budget time.Duration, op func(calls int)) time.Duration {
	op(calls) // warm up
	var per []float64
	start := time.Now()
	for len(per) < 5 || (time.Since(start) < budget && len(per) < 101) {
		t := time.Now()
		op(calls)
		per = append(per, float64(time.Since(t))/float64(calls))
	}
	return time.Duration(quantile(per, 0.5))
}

// parProbe measures the fork-join runtime at nproc threads: an empty
// parallel region, and a ReduceSum over an n-row field of n cells per row.
func parProbe(n int) (dispatch, reduce time.Duration) {
	team := par.NewTeam(runtime.NumCPU())
	defer team.Close()
	dispatch = timePer(2000, 200*time.Millisecond, func(calls int) {
		for i := 0; i < calls; i++ {
			team.Parallel(func(int) {})
		}
	})
	field := make([]float64, n*n)
	for i := range field {
		field[i] = float64(i % 7)
	}
	var sink float64
	calls := max(1, 4_000_000/(n*n))
	reduce = timePer(calls, 300*time.Millisecond, func(calls int) {
		for i := 0; i < calls; i++ {
			sink += team.ReduceSum(0, n, func(from, to int) float64 {
				s := 0.0
				for _, v := range field[from*n : to*n] {
					s += v
				}
				return s
			})
		}
	})
	_ = sink
	return dispatch, reduce
}

// commProbe measures a depth-2 halo swap between the two chunks of an n²
// mesh split over nproc ranks, and a scalar allreduce, both in-process and
// over loopback Unix sockets.
func commProbe(n int, dir string) (haloIn, haloSock, arIn, arSock time.Duration, err error) {
	ranks := max(2, runtime.NumCPU())
	g := comm.Decompose(ranks, n, n)
	ch := g.ChunkOf(0, n, n)
	strip := 2 * ch.NY
	if g.PX == 1 {
		strip = 2 * ch.NX
	}
	measure := func(w *comm.World) (halo, ar time.Duration) {
		op := func(body func(r *comm.Rank, calls int)) func(int) {
			return func(calls int) {
				w.Run(func(r *comm.Rank) { body(r, calls) })
			}
		}
		halo = timePer(200, 200*time.Millisecond, op(func(r *comm.Rank, calls int) {
			pack := make([]float64, strip)
			recv := make([]float64, strip)
			peer := r.ID() ^ 1
			if peer >= r.Size() {
				return
			}
			for i := 0; i < calls; i++ {
				r.Send(peer, 1, pack)
				r.RecvInto(peer, 1, recv)
			}
		}))
		ar = timePer(200, 200*time.Millisecond, op(func(r *comm.Rank, calls int) {
			for i := 0; i < calls; i++ {
				r.AllreduceSum(float64(r.ID() + i))
			}
		}))
		return halo, ar
	}
	in := comm.NewWorld(ranks)
	haloIn, arIn = measure(in)
	addrs := make([]string, ranks)
	for i := range addrs {
		addrs[i] = filepath.Join(dir, fmt.Sprintf("s%d.sock", i))
	}
	sw, err := comm.NewSocketWorld(ranks, comm.SocketOptions{Addrs: addrs})
	if err != nil {
		return 0, 0, 0, 0, fmt.Errorf("socket world: %w", err)
	}
	defer sw.Close()
	haloSock, arSock = measure(sw)
	return haloIn, haloSock, arIn, arSock, nil
}

// checkpointProbe times a durable save and a load of the checkpoint the
// resilient driver takes (energy0 and u) at an n² mesh.
func checkpointProbe(n int, dir string) (save, load time.Duration, err error) {
	data := func(seed float64) []float64 {
		f := make([]float64, n*n)
		for i := range f {
			f[i] = seed + float64(i%97)
		}
		return f
	}
	ck := &checkpoint.Checkpoint{Step: 1, Time: 0.004, NX: n, NY: n, Fields: []checkpoint.FieldData{
		{ID: int(driver.FieldEnergy0), Data: data(1)},
		{ID: int(driver.FieldU), Data: data(2)},
	}}
	path := filepath.Join(dir, "probe.ckpt")
	var saves, loads []float64
	for k := 0; k < 9; k++ {
		t := time.Now()
		if err := ck.Save(path); err != nil {
			return 0, 0, err
		}
		saves = append(saves, float64(time.Since(t)))
		t = time.Now()
		got, err := checkpoint.Load(path)
		if err != nil {
			return 0, 0, err
		}
		loads = append(loads, float64(time.Since(t)))
		if got.Step != ck.Step || len(got.Fields) != len(ck.Fields) {
			return 0, 0, fmt.Errorf("checkpoint probe: reloaded checkpoint differs")
		}
	}
	return time.Duration(quantile(saves, 0.5)), time.Duration(quantile(loads, 0.5)), nil
}

// layerProbes fills the per-layer metrics a traced run reports besides its
// workload's own round: host bandwidth, par, comm and checkpoint at the
// workload's mesh, plus, for layers the workload does not exercise, a run
// on a fixed input (a reduced serve round for bm-llc; a traced solve of the
// mix's largest deck on every version for serve-mix). The probes' results
// are checked, but their operations are left out of attempted and failed,
// which describe the workload's own rounds: the failed share of a traced
// run is then that of an untraced one.
func layerProbes(out *outcome, workload string, opt runOptions, stream streamResult) error {
	n := largestMixDeck().NX
	if workload == "bm-llc" {
		n = llcN
	}
	L := out.layers
	L["host.stream_copy_gbs"] = stream.CopyGBs
	L["host.stream_triad_gbs"] = stream.TriadGBs
	d, r := parProbe(n)
	L["par.dispatch_ns"] = float64(d.Nanoseconds())
	L["par.reduce_ns"] = float64(r.Nanoseconds())
	dir, err := os.MkdirTemp(runRoot(), "p")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	hi, hs, ai, as, err := commProbe(n, dir)
	if err != nil {
		return err
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	L["comm.halo_inproc_us"], L["comm.halo_socket_us"] = us(hi), us(hs)
	L["comm.allreduce_inproc_us"], L["comm.allreduce_socket_us"] = us(ai), us(as)
	save, load, err := checkpointProbe(largestMixDeck().NX, dir)
	if err != nil {
		return err
	}
	L["checkpoint.save_s"], L["checkpoint.load_s"] = save.Seconds(), load.Seconds()

	if workload == "serve-mix" {
		cfg := largestMixDeck()
		cfg.SummaryFrequency = 1
		exp := expectTotals(cfg)
		var runs []versionRun
		for _, v := range registry.All() {
			run, err := runVersion(v, cfg, true, false, nil)
			if err != nil {
				out.wrongf("kernel probe: %v", err)
				continue
			}
			if err := checkSteps(exp, run.Result, cfg.EndStep); err != nil {
				out.wrongf("kernel probe: %s: %v", v.Name, err)
			}
			runs = append(runs, run)
		}
		layerMetrics(runs, L)
		return nil
	}
	return serveProbe(opt, out)
}

// runRoot is the directory, relative to the working directory, that holds
// everything a run writes; relative paths keep Unix socket paths short.
func runRoot() string {
	const root = ".bench_build/perfbench-run"
	os.MkdirAll(root, 0o755)
	return root
}
