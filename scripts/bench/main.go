// Command bench is the experiment-grid driver behind the checked-in
// BENCH_<rev>.json baselines: it sweeps population × k × churn fraction
// × workers through the epoch pipeline (internal/bench), writes one
// report per invocation, and diffs reports with a noise-aware gate.
//
// Usage:
//
//	go run ./scripts/bench run                      # default grid -> BENCH_<rev>.json
//	go run ./scripts/bench run -grid tiny -out /tmp # CI smoke grid
//	go run ./scripts/bench run -pops 1000,8000 -reps 5
//	go run ./scripts/bench validate BENCH_abc1234.json
//	go run ./scripts/bench diff BENCH_old.json BENCH_new.json
//	go run ./scripts/bench diff . BENCH_new.json   # newest checked-in baseline
//
// diff exits nonzero when any cell's metric regressed more than the
// threshold (default 15%) beyond the measurement noise. A directory
// argument resolves to the newest BENCH_<rev>.json inside it, ordered
// by each rev's git commit time (file mtime for revs git doesn't know),
// so callers don't have to re-discover the baseline name after every
// retention sweep.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"

	"nonexposure/internal/bench"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "validate":
		err = cmdValidate(os.Args[2:])
	case "diff":
		err = cmdDiff(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "bench: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  bench run [-grid tiny|default|profiles] [-pops a,b] [-ks a,b] [-churns a,b]
            [-workers a,b] [-profiles a,b] [-gomaxprocs a,b] [-reps n]
            [-ticks n] [-requests n]
            [-theta f] [-seed n] [-rev r] [-out dir]
  bench validate <report.json>
  bench diff [-threshold f] [-sigmas f] <baseline.json|dir> <current.json|dir>`)
}

// cmdRun executes a grid and writes BENCH_<rev>.json into -out.
func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	var (
		gridName = fs.String("grid", "default", "base grid: default|tiny|profiles")
		pops     = fs.String("pops", "", "comma-separated population axis override")
		ks       = fs.String("ks", "", "comma-separated k axis override")
		churns   = fs.String("churns", "", "comma-separated churn-fraction axis override")
		workers  = fs.String("workers", "", "comma-separated worker axis override")
		profiles = fs.String("profiles", "", "comma-separated profile-mix axis override (empty value = all defaults)")
		procs    = fs.String("gomaxprocs", "", "comma-separated GOMAXPROCS axis override (0 = the process setting)")
		reps     = fs.Int("reps", 0, "repetitions per cell (0 = grid default)")
		ticks    = fs.Int("ticks", 0, "churn ticks per rep (0 = grid default)")
		requests = fs.Int("requests", 0, "requests per rep (0 = grid default)")
		theta    = fs.Float64("theta", -1, "Zipf skew of the request mix (-1 = grid default)")
		seed     = fs.Int64("seed", -1, "base seed (-1 = grid default)")
		rev      = fs.String("rev", "", "revision label (default: git rev-parse --short HEAD)")
		out      = fs.String("out", ".", "directory to write BENCH_<rev>.json into")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("run takes no positional arguments, got %v", fs.Args())
	}

	var g bench.Grid
	switch *gridName {
	case "default":
		g = bench.DefaultGrid()
	case "tiny":
		g = bench.TinyGrid()
	case "profiles":
		g = bench.ProfilesGrid()
	default:
		return fmt.Errorf("-grid must be default, tiny, or profiles, got %q", *gridName)
	}
	var err error
	if g.Populations, err = overrideInts(g.Populations, *pops); err != nil {
		return fmt.Errorf("-pops: %w", err)
	}
	if g.Ks, err = overrideInts(g.Ks, *ks); err != nil {
		return fmt.Errorf("-ks: %w", err)
	}
	if g.ChurnFracs, err = overrideFloats(g.ChurnFracs, *churns); err != nil {
		return fmt.Errorf("-churns: %w", err)
	}
	if g.Workers, err = overrideInts(g.Workers, *workers); err != nil {
		return fmt.Errorf("-workers: %w", err)
	}
	if *profiles != "" {
		g.Profiles = strings.Split(*profiles, ",")
	}
	if g.GOMAXPROCS, err = overrideInts(g.GOMAXPROCS, *procs); err != nil {
		return fmt.Errorf("-gomaxprocs: %w", err)
	}
	if *reps > 0 {
		g.Reps = *reps
	}
	if *ticks > 0 {
		g.Ticks = *ticks
	}
	if *requests > 0 {
		g.Requests = *requests
	}
	if *theta >= 0 {
		g.Theta = *theta
	}
	if *seed >= 0 {
		g.Seed = *seed
	}

	revision := *rev
	if revision == "" {
		if revision, err = gitShortRev(); err != nil {
			return fmt.Errorf("cannot determine revision (pass -rev): %w", err)
		}
	}

	rep, err := bench.RunGrid(g, func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", a...)
	})
	if err != nil {
		return err
	}
	rep.Rev = revision
	path := filepath.Join(*out, bench.Filename(revision))
	if err := rep.WriteFile(path); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d cells, %d reps each, go %s, GOMAXPROCS=%d)\n",
		path, len(rep.Cells), g.Reps, rep.GoVersion, rep.GOMAXPROCS)
	return nil
}

// cmdValidate loads a report and reports schema problems.
func cmdValidate(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("validate takes exactly one report path")
	}
	rep, err := bench.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Printf("%s: valid (schema %d, rev %s, %d cells)\n",
		fs.Arg(0), rep.Schema, rep.Rev, len(rep.Cells))
	return nil
}

// cmdDiff compares two reports and exits nonzero on confirmed
// regressions.
func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	threshold := fs.Float64("threshold", bench.DefaultThreshold, "relative regression that fails the gate")
	sigmas := fs.Float64("sigmas", bench.DefaultNoiseSigmas, "standard deviations a move must exceed to be trusted")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("diff takes exactly two report paths: baseline current (either may be a directory holding BENCH_<rev>.json files)")
	}
	basePath, err := resolveReport(fs.Arg(0))
	if err != nil {
		return err
	}
	curPath, err := resolveReport(fs.Arg(1))
	if err != nil {
		return err
	}
	base, err := bench.ReadFile(basePath)
	if err != nil {
		return err
	}
	cur, err := bench.ReadFile(curPath)
	if err != nil {
		return err
	}
	res := bench.Diff(base, cur, bench.DiffOptions{Threshold: *threshold, NoiseSigmas: *sigmas})
	for _, w := range res.Warnings {
		fmt.Printf("warning: %s\n", w)
	}
	for _, d := range res.Improved {
		fmt.Printf("improved: %s\n", d)
	}
	for _, d := range res.Suspects {
		fmt.Printf("suspect (within noise): %s\n", d)
	}
	for _, d := range res.Regressions {
		fmt.Printf("REGRESSION: %s\n", d)
	}
	for _, d := range res.Drift {
		fmt.Printf("DRIFT: %s\n", d)
	}
	if !res.OK() {
		return fmt.Errorf("%d regressions beyond %.0f%% and %d determinism drifts (baseline %s, current %s)",
			len(res.Regressions), *threshold*100, len(res.Drift), base.Rev, cur.Rev)
	}
	fmt.Printf("ok: %s vs %s — %d improved, %d suspects, %d warnings\n",
		base.Rev, cur.Rev, len(res.Improved), len(res.Suspects), len(res.Warnings))
	return nil
}

// resolveReport maps a directory argument to the newest BENCH_<rev>.json
// inside it; a file path passes through untouched. "Newest" means the
// rev's git commit time — so a stale baseline regenerated yesterday
// doesn't outrank the baseline of a newer commit — with file mtime as
// the fallback for revs git cannot resolve (custom -rev labels, shallow
// clones).
func resolveReport(path string) (string, error) {
	st, err := os.Stat(path)
	if err != nil {
		return "", err
	}
	if !st.IsDir() {
		return path, nil
	}
	matches, err := filepath.Glob(filepath.Join(path, "BENCH_*.json"))
	if err != nil {
		return "", err
	}
	if len(matches) == 0 {
		return "", fmt.Errorf("no BENCH_*.json baselines in %s", path)
	}
	best, bestTime := "", int64(0)
	for _, m := range matches {
		rev := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(m), "BENCH_"), ".json")
		t, ok := gitCommitTime(rev)
		if !ok {
			fi, err := os.Stat(m)
			if err != nil {
				continue
			}
			t = fi.ModTime().Unix()
		}
		if best == "" || t > bestTime || (t == bestTime && m > best) {
			best, bestTime = m, t
		}
	}
	if best == "" {
		return "", fmt.Errorf("no readable BENCH_*.json baselines in %s", path)
	}
	fmt.Fprintf(os.Stderr, "bench: %s resolves to %s\n", path, best)
	return best, nil
}

// gitCommitTime returns rev's commit unix time, if git can resolve it.
func gitCommitTime(rev string) (int64, bool) {
	out, err := exec.Command("git", "log", "-1", "--format=%ct", rev).Output()
	if err != nil {
		return 0, false
	}
	v, err := strconv.ParseInt(strings.TrimSpace(string(out)), 10, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

func gitShortRev() (string, error) {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "", err
	}
	return strings.TrimSpace(string(out)), nil
}

func overrideInts(def []int, csv string) ([]int, error) {
	if csv == "" {
		return def, nil
	}
	var vals []int
	for _, f := range strings.Split(csv, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		vals = append(vals, v)
	}
	return vals, nil
}

func overrideFloats(def []float64, csv string) ([]float64, error) {
	if csv == "" {
		return def, nil
	}
	var vals []float64
	for _, f := range strings.Split(csv, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, err
		}
		vals = append(vals, v)
	}
	return vals, nil
}
