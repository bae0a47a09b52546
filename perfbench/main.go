// Command perfbench is the repository benchmark. It drives the amop pricing
// stack through its public API on three seeded workloads (serve-lattice,
// serve-auto, desk), checks every output, and prints one JSON result line.
// See README.md for the workloads, the metrics and what each layer metric
// should move.
//
//	bash perfbench/run.sh --workload serve-lattice --seed 1 --seconds 30 --trace 0
//
// The process given these flags is the orchestrator: it runs each phase of
// the workload in a fresh child process of its own (so no phase inherits
// another's warm process-wide caches) and aggregates their reports. The
// end-to-end phases run on one CPU and report CPU time; the traced run's
// phases run on every CPU and report wall-clock times among the per-layer
// metrics.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/nlstencil/amop"
	"github.com/nlstencil/amop/internal/analytic"
	"github.com/nlstencil/amop/internal/fft"
	"github.com/nlstencil/amop/internal/obs"
)

var workloads = []string{"serve-lattice", "serve-auto", "desk"}

// setupChildren is how many extra processes per untraced serve run only set
// up and exit; setup_s is the median over them and the measuring process. A
// desk run's set-ups are its episodes'.
const setupChildren = 4

// Child phases. setup (serve workloads only) and run are the end-to-end
// phases: GOMAXPROCS 1, CPU time. wall and traced run at GOMAXPROCS nproc
// for the traced run's wall-clock and per-layer metrics.
const (
	phaseSetup  = "setup"
	phaseRun    = "run"
	phaseWall   = "wall"
	phaseTraced = "traced"
)

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: "+strings.Join(workloads, ", "))
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Float64("seconds", 30, "measured seconds")
		traceOn  = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		child    = flag.String("child", "", "internal: run one phase in this process (setup, run, wall, traced)")
		episode  = flag.Int("episode", 0, "internal: which desk episode a run phase is")
	)
	flag.Parse()
	if !validWorkload(*workload) || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		logf("usage: --workload {%s} --seed N --seconds S --trace {0|1}", strings.Join(workloads, "|"))
		os.Exit(2)
	}
	if *child != "" {
		rep := runChild(*child, *workload, *seed, *episode, *seconds)
		out, err := json.Marshal(rep)
		if err != nil {
			logf("encoding child report: %v", err)
			os.Exit(1)
		}
		fmt.Println(string(out))
		return
	}
	res, err := orchestrate(*workload, *seed, *seconds, *traceOn == 1)
	if err != nil {
		logf("%s: %v", *workload, err)
		os.Exit(1)
	}
	rec, err := json.Marshal(map[string]any{"record": stamp(*workload, *seed, *seconds, *traceOn), "result": res})
	if err != nil {
		logf("encoding run record: %v", err)
		os.Exit(1)
	}
	fmt.Println(string(rec))
	line, err := json.Marshal(res)
	if err != nil {
		logf("encoding result: %v", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func validWorkload(w string) bool {
	for _, x := range workloads {
		if x == w {
			return true
		}
	}
	return false
}

// stamp identifies the build and machine a run record came from.
func stamp(workload string, seed int64, seconds float64, trace int) map[string]any {
	s := map[string]any{
		"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
		"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "child_gomaxprocs": childProcs(trace == 1),
		"go_version": runtime.Version(), "fft_kernel": fft.KernelName(),
		"commit": "unknown", "goamd64": "", "time": time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				s["commit"] = kv.Value
			case "vcs.modified":
				s["commit_modified"] = kv.Value
			case "GOAMD64":
				s["goamd64"] = kv.Value
			}
		}
	}
	return s
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// childReport is what one child process measured.
type childReport struct {
	// SetupS is the process's CPU time from its start to the end of set-up.
	SetupS    float64            `json:"setup_s"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	E2E       map[string]float64 `json:"e2e,omitempty"`
	// Samples holds a desk episode's per-repetition CPU times.
	Samples map[string][]float64 `json:"samples,omitempty"`
	Layer   map[string]float64   `json:"layer,omitempty"`
	// maxRSS is filled in by the orchestrator from the child's rusage.
	maxRSS int64
}

// spawn runs one child phase and returns its report.
func spawn(mode, workload string, seed int64, episode int, seconds float64) (*childReport, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--child", mode, "--workload", workload, "--episode", strconv.Itoa(episode),
		"--seed", strconv.FormatInt(seed, 10), "--seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
	procs := childProcs(mode == phaseWall || mode == phaseTraced)
	cmd.Env = append(os.Environ(), childEnv+"=1", "GOMAXPROCS="+strconv.Itoa(procs))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s phase: %w", mode, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	rep := &childReport{}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), rep); err != nil {
		return nil, fmt.Errorf("%s phase report: %w", mode, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rep.maxRSS = ru.Maxrss // KiB on Linux
	}
	for _, e := range rep.Errors {
		logf("%s %s: %s", workload, mode, e)
	}
	return rep, nil
}

// childProcs is the GOMAXPROCS of a child: nproc in the traced run's
// phases, 1 in the end-to-end ones.
func childProcs(traced bool) int {
	if traced {
		return runtime.NumCPU()
	}
	return 1
}

// childEnv marks a process started by the orchestrator; the smoke test's
// binary uses it to act as the benchmark.
const childEnv = "PERFBENCH_CHILD"

func orchestrate(workload string, seed int64, seconds float64, traced bool) (*result, error) {
	res := &result{Correct: true, Metrics: make(map[string]metric)}
	tally := func(r *childReport) {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
	}
	switch {
	case !traced && workload == "desk":
		// Desk episodes: fresh processes, each a cold set-up repetition and
		// deskEpisodeReps timed ones, until the time is up.
		var setups, rss []float64
		samples := make(map[string][]float64)
		deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
		for ep := 0; ep < 1 || time.Now().Before(deadline); ep++ {
			r, err := spawn(phaseRun, workload, seed, ep, seconds)
			if err != nil {
				return nil, err
			}
			tally(r)
			setups = append(setups, r.SetupS)
			rss = append(rss, float64(r.maxRSS)/1024)
			for k, v := range r.Samples {
				samples[k] = append(samples[k], v...)
			}
		}
		for _, m := range e2eMetrics {
			xs, ok := samples[m.name]
			if !ok {
				return nil, fmt.Errorf("run phase reported no %s", m.name)
			}
			logf("%d episodes; %s: %s", len(setups), m.name, spread(xs))
			res.Metrics[m.name] = metric{mean(xs), m.unit}
		}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["peak_rss_mb"] = metric{median(rss), "MiB"}
	case !traced:
		var setups []float64
		for i := 0; i < setupChildren; i++ {
			r, err := spawn(phaseSetup, workload, seed, 0, seconds)
			if err != nil {
				return nil, err
			}
			tally(r)
			setups = append(setups, r.SetupS)
		}
		r, err := spawn(phaseRun, workload, seed, 0, seconds)
		if err != nil {
			return nil, err
		}
		tally(r)
		setups = append(setups, r.SetupS)
		for _, m := range e2eMetrics {
			v, ok := r.E2E[m.name]
			if !ok {
				return nil, fmt.Errorf("run phase reported no %s", m.name)
			}
			res.Metrics[m.name] = metric{v, m.unit}
		}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["peak_rss_mb"] = metric{float64(r.maxRSS) / 1024, "MiB"}
	default:
		base, err := spawn(phaseWall, workload, seed, 0, seconds/2)
		if err != nil {
			return nil, err
		}
		tr, err := spawn(phaseTraced, workload, seed, 0, seconds/2)
		if err != nil {
			return nil, err
		}
		tally(base)
		tally(tr)
		for _, m := range wallMetrics {
			v, ok := base.E2E[m.name]
			if !ok {
				return nil, fmt.Errorf("wall phase reported no %s", m.name)
			}
			res.Metrics[m.name] = metric{v, m.unit}
		}
		for _, m := range layerMetrics {
			v, ok := tr.Layer[m.name]
			if !ok {
				return nil, fmt.Errorf("traced phase reported no %s", m.name)
			}
			res.Metrics[m.name] = metric{v, m.unit}
		}
		res.Metrics["bench.trace_overhead_ratio"] = metric{overhead(base.E2E, tr.E2E), "1"}
		res.Metrics["failed_ratio"] = metric{float64(res.Failed) / float64(max(res.Attempted, 1)), "1"}
	}
	if res.Attempted < 1 {
		return nil, errors.New("no operations attempted")
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// overhead is the traced run's cost relative to the untraced one on the
// workload's throughput figure (above 1: tracing slowed it).
func overhead(base, traced map[string]float64) float64 {
	const k = "wall.replay_qps_or_desk_cells_per_s"
	if traced[k] == 0 {
		return 0
	}
	return base[k] / traced[k]
}

type metricDef struct{ name, unit string }

// e2eMetrics are the end-to-end metrics a run phase reports; setup_s and
// peak_rss_mb are aggregated by the orchestrator.
var e2eMetrics = []metricDef{
	{"quote_or_chain_cpu_ms", "ms"},
	{"flight_or_sweep_cpu_ms", "ms"},
}

// wallMetrics are the wall-clock figures of the same workloads, which a
// wall phase reports and the traced run lists among its per-layer metrics.
var wallMetrics = []metricDef{
	{"wall.fresh_p50_or_chain_ms", "ms"},
	{"wall.fresh_p99_or_sweep_ms", "ms"},
	{"wall.replay_qps_or_desk_cells_per_s", "1/s"},
}

// layerMetrics are the per-layer metrics a traced phase reports;
// bench.trace_overhead_ratio and failed_ratio are the orchestrator's.
var layerMetrics = func() []metricDef {
	var out []metricDef
	for _, n := range ladderSizes {
		out = append(out, metricDef{fmt.Sprintf("fft.forward_us.n%d", n), "us"})
	}
	out = append(out, metricDef{"fft.bytes_transformed", "bytes"})
	for _, n := range ladderSizes {
		out = append(out, metricDef{fmt.Sprintf("linstencil.evolve_cone_us.n%d", n), "us"})
	}
	out = append(out,
		metricDef{"linstencil.fft_evolve_p50_us", "us"},
		metricDef{"linstencil.fft_evolve_count", "count"},
		metricDef{"linstencil.spectrum_hit_ratio", "1"},
		metricDef{"linstencil.symbol_hit_ratio", "1"},
		metricDef{"linstencil.crossres_hits", "count"},
		metricDef{"linstencil.stage.fft_evolve_ms", "ms"},
	)
	for _, steps := range []int{2048, 16384} {
		for _, m := range []string{"bopm", "topm", "bsm"} {
			out = append(out, metricDef{fmt.Sprintf("fbstencil.solve_ms.%s.T%d", m, steps), "ms"})
		}
	}
	out = append(out,
		metricDef{"fbstencil.solve_lattice_p50_ms", "ms"},
		metricDef{"fbstencil.solve_lattice_count", "count"},
		metricDef{"fbstencil.stage.solve_lattice_ms", "ms"},
		metricDef{"analytic.cold_us", "us"},
		metricDef{"analytic.warm_us", "us"},
		metricDef{"analytic.solve_cold_p50_us", "us"},
		metricDef{"analytic.solve_warm_p50_us", "us"},
		metricDef{"analytic.boundary_misses", "count"},
		metricDef{"analytic.boundary_hit_ratio", "1"},
		metricDef{"analytic.stage.boundary_solve_ms", "ms"},
		metricDef{"analytic.stage.quadrature_ms", "ms"},
		metricDef{"analytic.stage.solve_analytic_ms", "ms"},
		metricDef{"batch.overhead_us_per_req", "us"},
		metricDef{"batch.memo_hit_ratio", "1"},
		metricDef{"batch.stage.memo_ms", "ms"},
		metricDef{"batch.stage.tier_ms", "ms"},
		metricDef{"tier.analytic_serves", "count"},
		metricDef{"tier.fallbacks", "count"},
		metricDef{"par.stage.budget_wait_ms", "ms"},
		metricDef{"serve.cached_quote_ns", "ns"},
		metricDef{"serve.tick_us", "us"},
		metricDef{"serve.tick_skip_ratio", "1"},
		metricDef{"serve.flight_p50_ms", "ms"},
		metricDef{"serve.flight_p99_ms", "ms"},
		metricDef{"serve.flight_count", "count"},
		metricDef{"serve.flight_lattice_share", "1"},
		metricDef{"serve.flight_fft_share", "1"},
		metricDef{"serve.stage.snapshot_ms", "ms"},
		metricDef{"serve.stage.publish_ms", "ms"},
		metricDef{"serve.coalescer_wait_p50_ms", "ms"},
		metricDef{"serve.quotes_cached", "count"},
		metricDef{"serve.quotes_fresh", "count"},
		metricDef{"serve.quotes_coalesced", "count"},
		metricDef{"serve.quotes_stale", "count"},
		metricDef{"serve.quotes_degraded", "count"},
		metricDef{"bench.late_p99_ms", "ms"},
		metricDef{"bench.late_max_ms", "ms"},
		metricDef{"bench.fresh_samples", "count"},
		metricDef{"bench.class_mismatch", "count"},
	)
	return out
}()

// runChild runs one phase of a workload in this process.
func runChild(mode, workload string, seed int64, episode int, seconds float64) *childReport {
	var tr *tracer
	if mode == phaseTraced {
		tr = newTracer()
	}
	switch workload {
	case "serve-lattice", "serve-auto":
		tier := amop.TierLattice
		if workload == "serve-auto" {
			tier = amop.TierAuto
		}
		return serveChild(mode, workload, tier, seed, seconds, tr)
	default:
		return deskChild(mode, seed, episode, seconds, tr)
	}
}

func serveChild(mode, workload string, tier amop.TierMode, seed int64, seconds float64, tr *tracer) *childReport {
	r, err := newServeRun(seed, tier)
	if err != nil {
		return &childReport{Attempted: 1, Failed: 1, Errors: []string{err.Error()}}
	}
	sc := newScript(r.b, seed)
	if mode == phaseSetup || mode == phaseRun {
		r.warmUp(sc)
	}
	rep := &childReport{SetupS: cpuNow().Seconds()}
	if mode == phaseSetup {
		rep.Attempted = int64(len(r.b.contracts)) + r.chk.attempted
		rep.Failed, rep.Errors = r.chk.failed, r.chk.errs
		return rep
	}
	r.tr = tr
	pc := beginLayers(tr)
	res := r.measure(sc, seconds, mode != phaseRun)
	if tr != nil {
		rep.Layer = pc.end(tr)
		for k, v := range r.layer(res) {
			rep.Layer[k] = v
		}
	}
	r.check(res)
	if mode == phaseRun {
		rep.E2E = res.cpuMetrics()
	} else {
		rep.E2E = res.wallMetrics()
		r.checkLate(res)
	}
	return finishChild(workload, rep, r.chk, tr, r.tr.recorder())
}

func deskChild(mode string, seed int64, episode int, seconds float64, tr *tracer) *childReport {
	d := newDeskRun(seed, episode)
	d.rep()
	rep := &childReport{SetupS: cpuNow().Seconds()}
	d.tr = tr
	d.rec = tr.recorder()
	pc := beginLayers(tr)
	var chains, sweeps, chainCPU, sweepCPU []float64
	if mode == phaseRun {
		for range deskEpisodeReps {
			rt := d.rep()
			chainCPU = append(chainCPU, ms(rt.chainCPU))
			sweepCPU = append(sweepCPU, ms(rt.sweepCPU))
		}
		rep.Samples = map[string][]float64{"quote_or_chain_cpu_ms": chainCPU, "flight_or_sweep_cpu_ms": sweepCPU}
		return finishChild("desk", rep, d.chk, tr, d.rec)
	}
	var busy time.Duration
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(chains) < 2 || time.Now().Before(deadline) {
		rt := d.rep()
		chains = append(chains, ms(rt.chain))
		sweeps = append(sweeps, ms(rt.sweep))
		busy += rt.chain + rt.sweep
	}
	if tr != nil {
		rep.Layer = pc.end(tr)
		for _, k := range []string{"serve.quotes_cached", "serve.quotes_fresh", "serve.quotes_coalesced",
			"serve.quotes_stale", "serve.quotes_degraded", "serve.tick_skip_ratio", "serve.coalescer_wait_p50_ms",
			"serve.flight_p50_ms", "serve.flight_p99_ms", "serve.flight_count", "bench.late_p99_ms",
			"bench.late_max_ms", "bench.fresh_samples", "bench.class_mismatch"} {
			rep.Layer[k] = 0
		}
		d.rec.flush()
	}
	rep.E2E = map[string]float64{
		"wall.fresh_p50_or_chain_ms":          median(chains),
		"wall.fresh_p99_or_sweep_ms":          median(sweeps),
		"wall.replay_qps_or_desk_cells_per_s": float64(d.cells()*len(chains)) / busy.Seconds(),
	}
	return finishChild("desk", rep, d.chk, tr, d.rec)
}

// finishChild runs the ladder in a traced phase and folds the checks into
// the report.
func finishChild(workload string, rep *childReport, chk *checker, tr *tracer, rec *recorder) *childReport {
	if tr != nil {
		l := &ladder{rec: rec, out: rep.Layer, chk: chk}
		l.run()
		rec.flush()
		path := ".bench_build/spans/" + workload + ".ndjson"
		if err := tr.writeSpans(path); err != nil {
			logf("writing spans: %v", err)
		}
	}
	rep.Attempted, rep.Failed, rep.Errors = chk.attempted, chk.failed, chk.errs
	return rep
}

// layerStart holds the counter snapshot a traced phase starts from.
type layerStart struct {
	pc             amop.PerfCounters
	bHits, bMisses int64
}

// beginLayers clears the telemetry histograms and trace rings so the traced
// phase's snapshots cover only its own work, and snapshots the counters.
func beginLayers(tr *tracer) *layerStart {
	if tr == nil {
		return nil
	}
	obs.Reset()
	tr.lastFlight = time.Now()
	h, m := analytic.BoundaryCacheStats()
	return &layerStart{pc: amop.ReadPerfCounters(), bHits: h, bMisses: m}
}

// end returns the counter, histogram and stage metrics of the traced phase.
func (s *layerStart) end(tr *tracer) map[string]float64 {
	pc := amop.ReadPerfCounters()
	h, m := analytic.BoundaryCacheStats()
	d := func(f func(amop.PerfCounters) int64) int64 { return f(pc) - f(s.pc) }
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	lat := obs.SolveLatency.With("lattice").Snapshot()
	fe := obs.FFTEvolve.Snapshot()
	out := map[string]float64{
		"fft.bytes_transformed":        float64(d(func(c amop.PerfCounters) int64 { return c.FFTBytesTransformed })),
		"linstencil.fft_evolve_p50_us": us(fe.P50),
		"linstencil.fft_evolve_count":  float64(fe.Count),
		"linstencil.spectrum_hit_ratio": ratio(d(func(c amop.PerfCounters) int64 { return c.SpectrumCacheHits }),
			d(func(c amop.PerfCounters) int64 { return c.SpectrumCacheMisses })),
		"linstencil.symbol_hit_ratio": ratio(d(func(c amop.PerfCounters) int64 { return c.SpectrumSymbolHits }),
			d(func(c amop.PerfCounters) int64 { return c.SpectrumSymbolMisses })),
		"linstencil.crossres_hits":       float64(d(func(c amop.PerfCounters) int64 { return c.SpectrumCrossResHits })),
		"fbstencil.solve_lattice_p50_ms": float64(lat.P50) / 1e6,
		"fbstencil.solve_lattice_count":  float64(lat.Count),
		"analytic.solve_cold_p50_us":     us(obs.SolveLatency.With("analytic_cold").Snapshot().P50),
		"analytic.solve_warm_p50_us":     us(obs.SolveLatency.With("analytic_warm").Snapshot().P50),
		"analytic.boundary_misses":       float64(m - s.bMisses),
		"analytic.boundary_hit_ratio":    ratio(h-s.bHits, m-s.bMisses),
		"batch.memo_hit_ratio": ratio(d(func(c amop.PerfCounters) int64 { return c.RepricingMemoHits }),
			d(func(c amop.PerfCounters) int64 { return c.RepricingMemoMisses })),
		"tier.analytic_serves": float64(d(func(c amop.PerfCounters) int64 { return c.AnalyticServes })),
		"tier.fallbacks":       float64(d(func(c amop.PerfCounters) int64 { return c.TierFallbacks })),
	}
	for metric, stage := range map[string]string{
		"linstencil.stage.fft_evolve_ms":   "fft_evolve",
		"fbstencil.stage.solve_lattice_ms": "solve_lattice",
		"analytic.stage.boundary_solve_ms": "boundary_solve",
		"analytic.stage.quadrature_ms":     "quadrature",
		"analytic.stage.solve_analytic_ms": "solve_analytic",
		"batch.stage.memo_ms":              "memo",
		"batch.stage.tier_ms":              "tier",
		"par.stage.budget_wait_ms":         "budget_wait",
		"serve.stage.snapshot_ms":          "snapshot",
		"serve.stage.publish_ms":           "publish",
	} {
		out[metric] = tr.stage(stage)
	}
	// Flight worker time: the stages that do not nest inside another
	// (fft_evolve runs inside solve_lattice; boundary_solve and quadrature
	// inside solve_analytic).
	worker := 0.0
	for _, st := range []string{"snapshot", "tier", "memo", "budget_wait", "solve_lattice", "solve_analytic", "publish"} {
		worker += tr.stage(st)
	}
	out["serve.flight_lattice_share"], out["serve.flight_fft_share"] = 0, 0
	if worker > 0 && out["serve.stage.snapshot_ms"] > 0 {
		out["serve.flight_lattice_share"] = tr.stage("solve_lattice") / worker
		out["serve.flight_fft_share"] = tr.stage("fft_evolve") / worker
	}
	return out
}
