// Command e2ebench is the repository's end-to-end benchmark. It starts
// the system as shipped on loopback — two shards behind one coordinator —
// loads a seeded population, drives one workload through the
// coordinator's TCP listener, checks every answer, and prints each
// metric by name with its unit. The last line of standard output is one
// JSON object: the end-to-end metrics, or with --trace 1 the per-layer
// metrics of a traced run.
//
// Run it from the repository root:
//
//	bash e2ebench/run.sh --workload serve --seed 1 --seconds 40 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"
)

// The run's fixed shape: the population, its anonymity level, and how
// many timed set-ups an untraced run makes (setup_s is their median).
const (
	numUsers = 20000
	anonK    = 10
	setups   = 15
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	users    int
	k        int
	setups   int
	outDir   string
}

func parseArgs(args []string) (config, error) {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: serve, churn or ingest")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	fs.IntVar(&cfg.seconds, "seconds", 40, "length of the timed phase; request and tick counts scale with it")
	fs.IntVar(&trace, "trace", 0, "1 runs the workload untraced and traced and prints the per-layer metrics")
	fs.StringVar(&cfg.outDir, "out", ".bench_build/e2ebench-spans", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	switch {
	case cfg.workload == "":
		return cfg, errors.New("--workload is required")
	case trace != 0 && trace != 1:
		return cfg, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	case cfg.seconds < 1:
		return cfg, fmt.Errorf("--seconds must be >= 1, got %d", cfg.seconds)
	}
	cfg.trace = trace == 1
	cfg.users, cfg.k, cfg.setups = numUsers, anonK, setups
	return cfg, nil
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	cfg, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one invocation, printing its report to w.
func run(cfg config, w io.Writer) (*result, error) {
	start := time.Now()
	cpu0, cpu0ok := readCPUTimes()
	fmt.Fprintf(w, "e2ebench: workload=%s seed=%d seconds=%d trace=%t users=%d k=%d shards=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.users, cfg.k, numShards)
	// A traced invocation runs the workload twice, untraced then traced,
	// each for half of --seconds.
	seconds := cfg.seconds
	if cfg.trace && seconds > 1 {
		seconds /= 2
	}
	in, err := generate(cfg.workload, cfg.users, cfg.k, cfg.seed, seconds)
	if err != nil {
		return nil, err
	}
	ref, err := buildReference(in, in.finalUploads())
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "inputs: %d users, delta %.4g, closed loop %d+%d cloaks (warm-up+timed)", in.n, in.delta, in.loopWarm, len(in.loop)-in.loopWarm)
	if in.period > 0 {
		fmt.Fprintf(w, ", paced stream %d+%d cloaks, write steps %d+%d every %gs",
			in.streamWarm, len(in.stream)-in.streamWarm, len(in.warmup), len(in.timed), in.period)
	}
	fmt.Fprintf(w, ", %d ladder steps, generated in %s\n", len(in.ladder), elapsed(start))
	fmt.Fprintf(w, "reference: %d clusters, %d users in components below their floor\n", len(ref.clusters), ref.skipped)

	res := &result{Metrics: make(map[string]metricValue)}
	var metrics []metric
	if !cfg.trace {
		r, err := runSystem(in, ref, cfg.setups, nil)
		if err != nil {
			return nil, err
		}
		res.add(w, "untraced", r)
		metrics = endToEnd(in, r)
		printMetrics(w, "end-to-end metrics", metrics)
		printSamples(w, in, r)
	} else {
		plain, err := runSystem(in, ref, 1, nil)
		if err != nil {
			return nil, err
		}
		res.add(w, "untraced", plain)
		rec := newRecorder()
		traced, err := runSystem(in, ref, 1, rec)
		if err != nil {
			return nil, err
		}
		res.add(w, "traced", traced)
		if plain.digest != traced.digest {
			res.Correct = false
			fmt.Fprintf(w, "FAIL: untraced and traced systems disagree on the answer digest\n")
		}
		printOverhead(w, endToEnd(in, plain), endToEnd(in, traced))
		metrics = perLayer(in, ref, traced, rec)
		printMetrics(w, "per-layer metrics (traced run)", metrics)
		printWhereTime(w, rec, traced)
		path, err := rec.write(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "spans: %d written to %s\n", len(rec.spans), path)
	}
	for _, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is not a number (%v)", m.Name, m.Value)
		}
		res.Metrics[m.Name] = metricValue{Value: m.Value, Unit: m.Unit}
	}
	cpu1, cpu1ok := readCPUTimes()
	printEnv(w, cpu0, cpu0ok, cpu1, cpu1ok)
	fmt.Fprintf(w, "run: %s, attempted %d, failed %d, correct %t\n", elapsed(start), res.Attempted, res.Failed, res.Correct)
	return res, nil
}

// add folds one system's outcome into the result and prints its sweep.
func (res *result) add(w io.Writer, label string, r *systemRun) {
	if res.Attempted == 0 {
		res.Correct = true
	}
	res.Attempted += r.attempted
	res.Failed += r.failed
	if r.failed > 0 {
		res.Correct = false
		fmt.Fprintf(w, "FAIL (%s): %d of %d operations failed; first: %v\n", label, r.failed, r.attempted, r.firstErr)
	}
	fmt.Fprintf(w, "sweep (%s): %d served, %d unclusterable, %d differ from the reference, digest sha256:%s\n",
		label, r.sweep.served, r.sweep.refused, r.wrong, r.digest)
}
