// Command e2ebench is the end-to-end benchmark of ccserve: it boots the real
// ccserve binary on loopback, drives one seeded workload through its HTTP
// API from at most two connections, checks every answer against exact
// distances it computes itself, and prints the metrics as one JSON line.
// With -trace 1 it also calls each layer's public API in-process on the
// same inputs and prints the per-layer metrics instead. See README.md.
//
// Usage (from the repository root, through the wrapper that builds
// ccserve and this harness):
//
//	bash e2ebench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

var workloads = []string{"build", "serve-hot", "serve-cold", "patch"}

// runLimit bounds one workload's run, set-ups and checks included.
const runLimit = 170 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloads, ", ")+", or all")
		seed     = flag.Int64("seed", 1, "workload seed: graphs, request and delta streams, algorithm seed")
		secs     = flag.Int("seconds", 10, "seconds each timed loop measures")
		traceOn  = flag.Int("trace", 0, "1 = traced run: print the per-layer metrics")
		bin      = flag.String("ccserve", "", "ccserve binary")
		workdir  = flag.String("workdir", ".bench_build", "directory for run data and traces")
	)
	flag.Parse()
	if *bin == "" || *secs < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: need -ccserve, -seconds ≥ 1 and -trace 0|1")
		os.Exit(2)
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloads
	}
	// A run that hangs or is interrupted must still end, with its servers
	// stopped and reaped, and without a result line.
	time.AfterFunc(time.Duration(len(names))*runLimit, func() {
		fmt.Fprintf(os.Stderr, "e2ebench: gave up after %v\n", time.Duration(len(names))*runLimit)
		exit(1)
	})
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", <-sigs)
		exit(1)
	}()
	var all []*report
	for _, name := range names {
		rep, err := runOne(name, *seed, *secs, *traceOn == 1, *bin, *workdir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", name, err)
			exit(1)
		}
		printTable(name, rep)
		all = append(all, rep)
	}
	out := all[0]
	if len(all) > 1 {
		out = &report{Correct: true, Metrics: map[string]metric{}}
		for i, r := range all {
			out.Correct = out.Correct && r.Correct
			out.Attempted += r.Attempted
			out.Failed += r.Failed
			for k, v := range r.Metrics {
				out.Metrics[names[i]+"."+k] = v
			}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		exit(1)
	}
	exit(0)
}

// exit stops every ccserve still running, waits for each, and exits.
func exit(code int) {
	killAll()
	os.Exit(code)
}

func runOne(name string, seed int64, secs int, traced bool, bin, workdir string) (*report, error) {
	known := false
	for _, w := range workloads {
		known = known || w == name
	}
	if !known {
		return nil, fmt.Errorf("unknown workload (want one of %s, or all)", strings.Join(workloads, ", "))
	}
	dir, err := filepath.Abs(filepath.Join(workdir, "runs", fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b := &bench{
		workload: name,
		seed:     seed,
		seconds:  time.Duration(secs) * time.Second,
		bin:      bin,
		dir:      dir,
		algSeed:  derive(seed, "algorithm"),
		base:     serveGraph(seed),
	}
	read := tenant
	if name == "build" {
		read = resident
	}
	b.stream = requestStream(seed, read, nodes, streamLen)
	var tr *tracer
	if traced {
		tr = newTracer(filepath.Join(workdir, "traces"), name, seed)
	}
	var (
		m *measured
		s *session
	)
	switch name {
	case "build":
		m, s, err = b.runBuild(tr)
	case "patch":
		m, s, err = b.runPatch(tr)
	default:
		m, s, err = b.runServe(tr)
	}
	if err != nil {
		return nil, err
	}
	rep := &report{Attempted: b.attempted, Failed: b.failed, Correct: b.failed == 0}
	for _, msg := range b.msgs {
		fmt.Fprintln(os.Stderr, "e2ebench: check failed:", msg)
	}
	if traced {
		rep.Metrics, err = tr.metrics(b, s, m)
	} else {
		rep.Metrics, err = endToEnd(m)
	}
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// endToEnd turns one run's measurements into the end-to-end metrics.
func endToEnd(m *measured) (map[string]metric, error) {
	reads, err := readMetrics(m.reads, m.windows)
	if err != nil {
		return nil, err
	}
	out := map[string]metric{
		"setup_s":     {median(m.setups), "s"},
		"write_cpu_s": {trimmedMean(m.writeCPU), "s"},
		"stretch_max": {m.stretch, "ratio"},
		"rss_mb":      {m.rssMB, "MB"},
	}
	// The p90s and the throughput are diagnostics, printed but not reported:
	// on a shared 2-core host they doubled when a neighbour took CPU time,
	// while the p50s moved by a few percent (see RESULTS.md).
	for k := opKind(0); k < numOps; k++ {
		name := opNames[k] + "_p50_us"
		out[name] = metric{reads[name], "us"}
		fmt.Fprintf(os.Stderr, "e2ebench: %s p90 %.0f us", opNames[k], reads[opNames[k]+"_p90_us"])
		if v, err := percentile(micros(m.reads.lat[k]), 0.99); err == nil {
			fmt.Fprintf(os.Stderr, ", p99 %.0f us", v)
		}
		fmt.Fprintf(os.Stderr, " over %d samples\n", len(m.reads.lat[k]))
	}
	fmt.Fprintf(os.Stderr, "e2ebench: publish %.4f s wall per write\n", trimmedMean(m.publishes))
	fmt.Fprintf(os.Stderr, "e2ebench: %.0f queries/s\n", reads["qps"])
	fmt.Fprintf(os.Stderr, "e2ebench: %d answers checked, %d read windows\n", m.checked, len(m.windows))
	return out, nil
}

func printTable(name string, r *report) {
	keys := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(os.Stderr, "%s: correct=%v attempted=%d failed=%d\n", name, r.Correct, r.Attempted, r.Failed)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "  %-40s %14.4f %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
}
