// Command perfbench is the repository benchmark. It runs one named
// workload against the DMap packages through their public functions
// only, checks every answer, and prints its metrics as one JSON object on
// the last line of standard output:
//
//	perfbench --workload lookup-zipf --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1
// is a separate run on the same seed that prints the per-layer metrics
// instead. NOTES.md explains each workload and metric. Any wrong answer
// makes the command exit with status 1 after printing its result.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// options is one invocation's parsed command line.
type options struct {
	workload string
	seed     int64
	run      time.Duration // measured time, setup excluded
	trace    bool
	toy      bool   // tiny inputs, for the self-test
	outDir   string // where span dumps and scratch data go
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one run's output: the result plus per-metric sample
// counts and free-form notes printed above it.
type report struct {
	result
	samples map[string]int64
	notes   []string
}

func newReport() *report {
	return &report{result: result{Correct: true, Metrics: map[string]metric{}}, samples: map[string]int64{}}
}

// set records a metric with the number of samples behind it.
func (r *report) set(name, unit string, v float64, samples int64) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
	r.samples[name] = samples
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// endToEnd and perLayer are the metrics a run prints with --trace 0 and
// --trace 1; BENCHMARK.json declares the same names and units.
var (
	endToEnd = []string{"setup_s", "ops_per_s", "op_p50_us", "op_p90_us", "heap_mb"}
	perLayer = []string{
		"client.attempt_mean_us", "client.update_mean_us", "client.attempts_per_op",
		"client.retries", "client.failovers", "client.sheds", "client.timeouts",
		"server.lookup_service_mean_us", "server.insert_service_mean_us",
		"server.sheds", "server.errors", "server.load_share_max",
		"wire.transport_mean_us", "wire.lookup_codec_ns", "wire.update_codec_ns", "wire.bytes_per_op",
		"core.place_ns", "core.fallback_rate", "guid.hash_ns",
		"store.view_ns", "store.put_ns", "store.wal_bytes_per_user_byte",
		"runtime.allocs_per_op", "runtime.bytes_per_op", "runtime.gc_cycles",
		"runtime.gc_pause_total_us", "runtime.sched_latency_p99_us",
		"topology.dijkstra_mean_us", "engine.unit_mean_us", "engine.occupancy", "engine.units",
		"workload.generate_ms", "experiments.world_ms", "experiments.eval_self_ms",
		"bench.tracing_overhead_pct", "bench.op_self_us", "bench.fail_ratio",
		"bench.lookup_p50_us", "bench.lookup_p99_us", "tail.lookup_p999_us",
		"bench.update_p50_us", "bench.update_p99_us",
	}
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*report, error){
	"lookup-zipf": runLookupZipf,
	"update-mix":  runUpdateMix,
	"sim-table1":  runSimTable1,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	wl := fl.String("workload", "", "workload: lookup-zipf, update-mix or sim-table1")
	seed := fl.Int64("seed", 1, "workload seed: every input is generated from it")
	secs := fl.Float64("seconds", 10, "measured seconds per run")
	tr := fl.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	toy := fl.Bool("toy", false, "tiny inputs (self-test only; numbers are meaningless)")
	out := fl.String("out", filepath.Join(".bench_build", "perfbench"), "directory for span dumps and node data")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*wl]
	if !ok || *secs <= 0 || (*tr != 0 && *tr != 1) || fl.NArg() != 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload {lookup-zipf|update-mix|sim-table1}, --seconds > 0, --trace 0|1\n")
		return 2
	}
	opts := options{workload: *wl, seed: *seed, run: time.Duration(*secs * float64(time.Second)),
		trace: *tr == 1, toy: *toy, outDir: *out}
	if err := os.MkdirAll(opts.outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	pj, _ := json.Marshal(provenance(opts)) // a map of strings always encodes
	fmt.Fprintf(stdout, "provenance %s\n", pj)

	rep, err := runner(opts)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", opts.workload, err)
		return 1
	}
	for _, n := range rep.notes {
		fmt.Fprintf(stdout, "note %s\n", n)
	}
	names := endToEnd
	if opts.trace {
		names = perLayer
	}
	all := rep.Metrics
	rep.Metrics = make(map[string]metric, len(names))
	for _, n := range names {
		m, ok := all[n]
		if !ok {
			fmt.Fprintf(stderr, "perfbench: %s: metric %s not measured\n", opts.workload, n)
			return 1
		}
		rep.Metrics[n] = m
		fmt.Fprintf(stdout, "metric %-34s %16.6g %-6s samples=%d\n", n, m.Value, m.Unit, rep.samples[n])
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.Correct || rep.Failed > 0 {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d ops failed or answered wrongly\n", opts.workload, rep.Failed, rep.Attempted)
		return 1
	}
	return 0
}

// provenance says what produced a result: source, toolchain, machine,
// workload and seed.
func provenance(o options) map[string]string {
	p := map[string]string{
		"workload":   o.workload,
		"seed":       strconv.FormatInt(o.seed, 10),
		"trace":      strconv.FormatBool(o.trace),
		"run_s":      strconv.FormatFloat(o.run.Seconds(), 'f', -1, 64),
		"go_version": runtime.Version(),
		"goos_arch":  runtime.GOOS + "/" + runtime.GOARCH,
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"cpu_model":  cpuModel(),
		"commit":     commit(),
		"source":     sourceDigest("."),
	}
	return p
}

// commit returns the VCS revision stamped into the binary, or "unknown"
// when it was built outside a git checkout (the source digest still
// identifies the tree).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	return "unknown"
}

// sourceDigest hashes every go.mod and .go file under root (skipping
// hidden and build directories), so two results can be tied to the same
// source even where no commit is known.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if d.Name() != "go.mod" && !strings.HasSuffix(d.Name(), ".go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

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
