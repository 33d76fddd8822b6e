// Command perfbench is the repository benchmark. It runs one named
// workload against the public APIs of the track, svc, tof and ndft
// packages, checks the outputs, and prints one JSON result line:
//
//	perfbench --workload sweep|survey|staged|fleet --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, taken from the program's
// own counters and from spans the benchmark records around each public
// call (written under .bench_build/spans). A report line with the host
// block, the workload's own metric names and every correctness check
// precedes the result. Any failed check exits 1. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"chronos/internal/ndft"
	"chronos/internal/obs"
	"chronos/internal/sim"
	"chronos/internal/tof"
	"chronos/internal/track"
)

// options are the command-line settings of one run.
type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	setupOnly bool
}

const (
	// setup_s is the median of at least setupMinRuns fresh-process
	// set-ups; more follow, up to setupMaxRuns, until setupBudget has
	// been spent, so that a set-up of a few milliseconds (mostly process
	// start) is not one scheduler hiccup away from a different median.
	setupMinRuns = 5
	setupMaxRuns = 51
	setupBudget  = time.Second
	// spansDir is where traced runs write their spans.
	spansDir = ".bench_build/spans"
)

// workload is a set-up benchmark workload, ready to measure.
type workload interface {
	// run measures for o.seconds and checks the program's outputs.
	run(o options, tr *tracer) (*outcome, error)
}

// setups builds each workload up to its first timed operation. The
// time this takes in a fresh process is setup_s.
var setups = map[string]func(o options, tr *tracer) (workload, error){
	"sweep":  setupSweep,
	"survey": setupSurvey,
	"fleet":  setupFleet,
	"staged": setupStaged,
}

// check is one output-correctness assertion.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// outcome is what a workload measured and checked.
type outcome struct {
	attempted, failed int
	// fixes completed over seconds of measurement, in which the
	// process used cpuSeconds of CPU time.
	fixes               int
	seconds, cpuSeconds float64
	// latencyMs is the workload's user-visible wait per request.
	latencyMs []float64
	// errCm is |raw range − truth| over a fixed, seed-determined set of
	// fixes, so it changes only when the numerics do.
	errCm  []float64
	heapMB float64
	checks []check
	// named holds the report metrics only this workload has.
	named map[string]any
	// layers holds the per-layer metrics of a traced run.
	layers map[string]float64
}

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	o.checks = append(o.checks, c)
}

func (o *outcome) correct() bool {
	for _, c := range o.checks {
		if !c.OK {
			return false
		}
	}
	return len(o.checks) > 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload: sweep, survey, staged or fleet")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.IntVar(&o.seconds, "seconds", 10, "measurement window in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run printing per-layer metrics")
	fs.BoolVar(&o.setupOnly, "setup-only", false, "set up, print ready and exit (setup_s child)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceFlag == 1
	setup, ok := setups[o.workload]
	if !ok || o.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload sweep|survey|staged|fleet, --seconds >= 1, --trace 0|1\n")
		return 2
	}

	if o.setupOnly {
		if _, err := setup(o, nil); err != nil {
			fmt.Fprintf(stderr, "perfbench: setup: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, "ready")
		return 0
	}

	var setupS []float64
	if !o.trace {
		var err error
		if setupS, err = timeSetups(o, stderr); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}

	var tr *tracer
	if o.trace {
		obs.SetEnabled(true)
		tr = newTracer()
	}
	w, err := setup(o, tr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: setup: %v\n", err)
		return 1
	}
	out, err := w.run(o, tr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}

	rep := map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"host": host(o.seed), "checks": out.checks, "metrics": reportMetrics(out),
	}
	res := result{Correct: out.correct(), Attempted: out.attempted, Failed: out.failed}
	if o.trace {
		path, err := tr.write(spansDir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		rep["spans"] = path
		rep["self_times"] = tr.selfTimes()
		res.Metrics = make(map[string]metric, len(perLayer))
		for _, l := range perLayer {
			res.Metrics[l.name] = metric{Value: out.layers[l.name], Unit: l.unit}
		}
	} else {
		rep["setup_s_samples"] = setupS
		res.Metrics = endToEnd(out, setupS)
	}
	if res.Attempted < 1 {
		res.Correct = false
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"report": rep}); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		for _, c := range out.checks {
			if !c.OK {
				fmt.Fprintf(stderr, "perfbench: check %s failed: %s\n", c.Name, c.Detail)
			}
		}
		return 1
	}
	return 0
}

// endToEnd renders the end-to-end metrics of an untraced run.
func endToEnd(out *outcome, setupS []float64) map[string]metric {
	return map[string]metric{
		"setup_s":          {median(setupS), "s"},
		"fixes_per_core_s": {ratio(float64(out.fixes), out.cpuSeconds), "1/s"},
		"latency_ms_p50":   {percentile(out.latencyMs, 50), "ms"},
		"latency_ms_p90":   {percentile(out.latencyMs, 90), "ms"},
		"ok_ratio":         {1 - ratio(float64(out.failed), float64(out.attempted)), "ratio"},
		"heap_mb":          {out.heapMB, "MiB"},
	}
}

// reportMetrics renders the report's metrics: the ones every workload
// has, under the names the report uses, plus the workload's own.
func reportMetrics(out *outcome) map[string]any {
	ghosts := 0
	for _, e := range out.errCm {
		if e > ghostCm {
			ghosts++
		}
	}
	m := map[string]any{
		"fixes_per_s":      ratio(float64(out.fixes), out.seconds),
		"fixes_per_core_s": ratio(float64(out.fixes), out.cpuSeconds),
		"range_err_cm_p50": median(out.errCm),
		"ghost_ratio":      ratio(float64(ghosts), float64(len(out.errCm))),
		"failed_ratio":     ratio(float64(out.failed), float64(out.attempted)),
		"heap_mb":          out.heapMB,
	}
	for k, v := range out.named {
		m[k] = v
	}
	return m
}

// timeSetups starts fresh copies of this program in set-up mode, one
// after another, and times each from process start until it reports
// ready: process start-up, plan-registry builds and calibration
// included.
func timeSetups(o options, stderr io.Writer) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("setup_s: %w", err)
	}
	var out []float64
	var spent time.Duration
	for i := 0; i < setupMaxRuns && (i < setupMinRuns || spent < setupBudget); i++ {
		cmd := exec.Command(self, "--workload", o.workload, "--seed", fmt.Sprint(o.seed),
			"--seconds", fmt.Sprint(o.seconds), "--setup-only")
		cmd.Stderr = stderr
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			return nil, fmt.Errorf("setup_s: %w", err)
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("setup_s: %w", err)
		}
		line, rerr := bufio.NewReader(pipe).ReadString('\n')
		took := time.Since(start)
		if _, err := io.Copy(io.Discard, pipe); err != nil && rerr == nil {
			rerr = err
		}
		werr := cmd.Wait()
		if rerr != nil || strings.TrimSpace(line) != "ready" || werr != nil {
			return nil, fmt.Errorf("setup_s child: %v", errors.Join(rerr, werr))
		}
		out = append(out, took.Seconds())
		spent += took
	}
	return out, nil
}

// host describes the machine and build a result came from.
func host(seed int64) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"cpu": cpuModel(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "kernel": ndft.VectorKernel(), "commit": commit, "seed": seed,
	}
}

// cpuModel reads the CPU model name on Linux ("unknown" elsewhere).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// Shared workload inputs.

// ghostCm is the error beyond which a fix counts as a ghost (1 m).
const ghostCm = 100

// estimatorConfig is every workload's solver configuration.
func estimatorConfig() tof.Config {
	return tof.Config{Mode: tof.BandsFused, Quirk24: true, MaxIter: 1200}
}

// walking is a full-pipeline session of a target walking at 1 m/s with
// warm starts and velocity translation; sweeps < 0 runs until stopped.
func walking(sweeps int) track.SessionConfig {
	return track.SessionConfig{Speed: 1, Sweeps: sweeps, WarmStart: true, VelocityTranslate: true}
}

// newOffice builds the multipath world every workload ranges in. It is
// the same for every seed: the office drives per-fix solver cost far more
// than any one device does, so a seed-drawn office would make run-to-run
// spread a property of the floor plan rather than of the code.
func newOffice() *sim.Office {
	return sim.NewOffice(rand.New(rand.NewSource(0x0ff1ce)), sim.OfficeConfig{})
}

// seeder deals out device seeds derived from the workload seed.
func seeder(seed int64) func() int64 {
	rng := rand.New(rand.NewSource(seed))
	return rng.Int63
}

// finite reports whether a fix carries only finite ranges.
func finite(f track.Fix) bool {
	for _, v := range []float64{f.Range, f.Smoothed, f.TrueRange} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// errCm is a fix's raw range error in centimetres.
func errCm(f track.Fix) float64 { return math.Abs(f.Range-f.TrueRange) * 100 }

// fixLine renders one fix at full precision for byte comparisons and
// digests; BatchSize is timing telemetry and left out.
func fixLine(f track.Fix) string {
	return fmt.Sprintf("at=%d lat=%d bands=%d range=%x smooth=%x true=%x early=%v acc=%v work=%d conv=%v\n",
		f.At, f.Latency, f.Bands, f.Range, f.Smoothed, f.TrueRange, f.Early, f.Accepted, f.Work, f.Converged)
}

// fixTable renders a fix trace.
func fixTable(fixes []track.Fix) string {
	var b strings.Builder
	for _, f := range fixes {
		b.WriteString(fixLine(f))
	}
	return b.String()
}
