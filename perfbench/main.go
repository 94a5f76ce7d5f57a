// Command perfbench is TeaLeaf-Go's layered benchmark. One invocation runs
// one workload for a fixed time and prints, as its last stdout line, a JSON
// object with the correctness verdict, the operations attempted and failed,
// and either the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). See README.md for the workloads, the metrics and which layer
// metric should move which end-to-end metric.
//
//	perfbench --workload bm-llc --seed 1 --seconds 50 --trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/warwick-hpsc/tealeaf-go/internal/fleet"
	"github.com/warwick-hpsc/tealeaf-go/internal/par"
	"github.com/warwick-hpsc/tealeaf-go/internal/registry"
)

// Units of every metric the benchmark reports; BENCHMARK.json lists the
// same names. The workloads also compute kokkos_cpu_s and raja_cpu_s,
// which every run prints but does not report: they spread past any bound
// while the hypervisor steals CPU time (README.md, "Left out").
var e2eUnits = map[string]string{
	"setup_s": "s", "peak_rss_mb": "MB", "serial_s": "s",
	"manual_cpu_s": "s", "ops_cpu_s": "s", "gpu_s": "s",
}

func layerUnits() map[string]string {
	u := map[string]string{
		"host.stream_copy_gbs": "GB/s", "host.stream_triad_gbs": "GB/s",
		"par.dispatch_ns": "ns", "par.reduce_ns": "ns",
		"comm.halo_inproc_us": "us", "comm.halo_socket_us": "us",
		"comm.allreduce_inproc_us": "us", "comm.allreduce_socket_us": "us",
		"solver.cg_iters":   "count",
		"checkpoint.save_s": "s", "checkpoint.load_s": "s",
		"serve.admit_p50_s": "s", "serve.admit_p99_s": "s",
		"serve.queue_wait_p50_s": "s", "serve.queue_wait_p99_s": "s",
		"serve.run_p50_s": "s", "serve.run_p99_s": "s",
		"serve.solves": "count", "serve.cache_hits": "count",
		"serve.followers": "count", "serve.batched_jobs": "count",
		"serve.pred_err_p50": "ratio", "serve.gen_late_p99_s": "s",
		"serve.burst_jobs_per_s": "jobs/s", "serve.paced_p50_s": "s", "serve.paced_p99_s": "s",
		"fleet.job_p50_s": "s",
	}
	for _, v := range registry.All() {
		u["backends."+v.Name+".busy_s"] = "s"
		u["backends."+v.Name+".gbs"] = "GB/s"
		u["backends."+v.Name+".sweeps_per_iter"] = "sweeps/iter"
		u["comm."+v.Name+".halo_s"] = "s"
	}
	return u
}

type runOptions struct {
	seed    int64
	seconds time.Duration
	trace   bool
	topo    par.Topology
	report  io.Writer // human-readable progress; stdout before the JSON line
}

// outcome is what a workload hands back: its operation tally and the
// metric values, end-to-end always and per-layer when traced.
type outcome struct {
	tally
	e2e    map[string]float64
	layers map[string]float64
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if fleet.InWorkerEnv() {
		// A rank of a serve-mix fleet job, spawned by the fleet coordinator.
		if err := fleet.RunWorkerFromEnv(context.Background(), os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if os.Getenv(streamChildEnv) != "" {
		streamChild()
		return
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "bm-llc or serve-mix")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 30, "run length: as many whole rounds as best fill it")
	trace := flag.Int("trace", 0, "1: add one traced round and report the per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("--seconds must be >= 1 and --trace 0 or 1")
	}
	opt := runOptions{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		topo: par.DetectTopology(), report: os.Stdout,
	}
	stream, err := runStreamChild(opt.topo)
	if err != nil {
		return err
	}
	printFingerprint(opt.report, opt.topo, stream)

	var out *outcome
	switch *workload {
	case "bm-llc":
		var wl *bmWorkload
		if wl, err = llcWorkload(opt.report); err != nil {
			return err
		}
		out, err = runBM(wl, opt)
	case "serve-mix":
		out, err = runServeMix(opt)
	default:
		return fmt.Errorf("unknown workload %q (want bm-llc or serve-mix)", *workload)
	}
	if err != nil {
		return err
	}
	if opt.trace {
		// Every traced run reports every layer: layers its own workload does
		// not exercise are measured by the probes on fixed inputs.
		if err := layerProbes(out, *workload, opt, stream); err != nil {
			return err
		}
	}
	out.e2e["peak_rss_mb"] = peakRSSMB()
	for _, w := range out.wrong {
		fmt.Fprintln(opt.report, "CHECK FAILED:", w)
	}
	res := result{Correct: len(out.wrong) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	values, units := out.e2e, e2eUnits
	if opt.trace {
		values, units = out.layers, layerUnits()
	}
	for name, unit := range units {
		v, ok := values[name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", *workload, name)
		}
		res.Metrics[name] = metricValue{Value: v, Unit: unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runRounds runs whole rounds of a workload, at least one, and starts
// another only while it is likely to end within the run length: a loaded
// host then gets fewer samples rather than a longer run. Each round's line
// says how much of the host's CPU time the hypervisor stole meanwhile.
func runRounds(w io.Writer, length time.Duration, round func() error) error {
	start := time.Now()
	var took []float64
	for k := 1; ; k++ {
		t := time.Now()
		stolen, total := cpuTicks()
		if err := round(); err != nil {
			return err
		}
		s, tt := cpuTicks()
		took = append(took, time.Since(t).Seconds())
		fmt.Fprintf(w, "round %d took %.1f s, %.0f%% of the host's CPU time stolen\n",
			k, took[k-1], 100*float64(s-stolen)/math.Max(1, float64(tt-total)))
		if time.Since(start).Seconds()+quantile(took, 0.5) > length.Seconds() {
			return nil
		}
	}
}

// printFingerprint records the host every figure of the report belongs to.
func printFingerprint(w io.Writer, topo par.Topology, s streamResult) {
	fmt.Fprintf(w, "host: cpu %q, nproc %d, GOMAXPROCS %d, L2 %d KiB, LLC %d KiB, %s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), topo.L2Size()>>10, topo.LLCSize()>>10, runtime.Version())
	fmt.Fprintf(w, "host: STREAM copy %.2f GB/s, triad %.2f GB/s (%d threads, arrays of %d MiB)\n",
		s.CopyGBs, s.TriadGBs, s.Threads, s.ArrayBytes>>20)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// procStatusKB reads one kB field of a /proc status-style file.
func procStatusKB(path, field string) uint64 {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && k == field {
			n, _ := strconv.ParseUint(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return n
		}
	}
	return 0
}

// peakRSSMB is the benchmark process's peak resident set (VmHWM).
func peakRSSMB() float64 { return float64(procStatusKB("/proc/self/status", "VmHWM")) / 1024 }

// memAvailable is the kernel's estimate of allocatable memory (0: unknown).
func memAvailable() uint64 { return procStatusKB("/proc/meminfo", "MemAvailable") << 10 }

// quantile is the q-quantile of xs by linear interpolation between order
// statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func formatList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, " ")
}

func formatRound(m map[string]float64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%.4g", k, m[k])
	}
	return strings.TrimSpace(b.String())
}

// printOverhead reports what the timing decorator cost: the traced round's
// end-to-end values against the untraced medians.
func printOverhead(w io.Writer, workload string, traced, untraced map[string]float64) {
	keys := make([]string, 0, len(traced))
	for k := range traced {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		u := untraced[k]
		if u == 0 {
			continue
		}
		fmt.Fprintf(w, "%s tracing overhead: %-14s traced %.4g, untraced median %.4g (%+.1f%%)\n",
			workload, k, traced[k], u, 100*(traced[k]-u)/u)
	}
}
