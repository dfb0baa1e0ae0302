package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"

	"nonexposure/internal/metrics"
)

// metric is one named, unit-carrying number.
type metric struct {
	Name  string
	Unit  string
	Value float64
}

// endToEnd computes the user-visible metrics of one system run.
func endToEnd(in *inputs, r *systemRun) []metric {
	p := r.phase
	var setupS, setupUpload, setupRotate []float64
	for _, s := range r.setups {
		setupS = append(setupS, s.seconds)
		setupUpload = append(setupUpload, s.uploadRPS)
		setupRotate = append(setupRotate, s.rotateMs)
	}
	// Serve sends no writes in its phase: its write metrics are the
	// set-up's cold load of the whole population.
	uploadRPS, refreshMs := median(setupUpload), median(setupRotate)
	// The paced stream's tail is made of the rotates' stalls, only eight
	// to a window, so a window's p99 hangs on its worst one or two; its
	// p99 pools the whole phase instead.
	p99 := p.p99
	if in.workload != workServe {
		uploadRPS = median(p.writes.stepRates)
		refreshMs = median(p.writes.rotateMs)
		p99 = p.wholeP99
	}
	okFrac := 0.0
	if r.attempted > 0 {
		okFrac = float64(r.attempted-r.failed) / float64(r.attempted)
	}
	return []metric{
		{"setup_s", "s", median(setupS)},
		{"cloak_rps", "1/s", p.rps},
		{"cloak_p50_us", "us", p.p50},
		{"cloak_p99_us", "us", p99},
		{"upload_rps", "1/s", uploadRPS},
		{"refresh_ms", "ms", refreshMs},
		{"ok_frac", "frac", okFrac},
		{"heap_mb", "MB", p.heapMB},
	}
}

// perLayer computes the traced run's per-layer metrics from its spans,
// the system's counters over the phase, and the ladder.
func perLayer(in *inputs, ref *reference, r *systemRun, rec *recorder) []metric {
	p, lad := r.phase, r.ladder
	us := func(name string) float64 { return median(rec.perOp(name)) }
	ms := func(name string) float64 { return median(rec.perOp(name)) / 1e3 }
	ns := func(name string) float64 { return median(rec.perOp(name)) * 1e3 }

	var builds, fails, total, rebuilt, buildNs float64
	stageNs := map[string]float64{}
	stageN := map[string]float64{}
	for i := range p.epochTo {
		from, to := p.epochFrom[i], p.epochTo[i]
		builds += float64(to.Builds - from.Builds)
		fails += float64(to.BuildFails - from.BuildFails)
		total += float64(to.ShardsTotal - from.ShardsTotal)
		rebuilt += float64(to.ShardsRebuilt - from.ShardsRebuilt)
		buildNs += float64(to.BuildHist.SumNs - from.BuildHist.SumNs)
		for _, st := range to.BuildStages {
			prev := stageOf(from, st.Stage)
			stageNs[st.Stage] += float64(st.Total - prev.Total)
			stageN[st.Stage] += float64(st.Count - prev.Count)
		}
	}
	stage := func(name string) float64 { return ratio(stageNs[name], stageN[name]) / 1e6 }
	reuse := 0.0
	if total > 0 {
		reuse = 1 - rebuilt/total
	}
	cf, ct := p.clusterFrom, p.clusterTo
	var retries float64
	for i := range ct.ShardRetries {
		var prev uint64
		if i < len(cf.ShardRetries) {
			prev = cf.ShardRetries[i]
		}
		retries += float64(ct.ShardRetries[i] - prev)
	}
	sent := float64(p.samples)
	if in.workload != workServe {
		sent += float64(p.writes.attempted)
	}
	return []metric{
		{"service.cloak_rtt_us", "us", us("service.cloak")},
		{"service.cloak_handle_us", "us", lad.cloakHandleUs},
		{"service.upload_batch_rtt_us", "us", us("service.upload_batch")},
		{"service.bytes_per_cloak", "B", lad.bytesPerCloak},
		{"service.bytes_per_upload", "B", lad.bytesPerUpload},
		{"cluster.cloak_us", "us", us("cluster.cloak")},
		{"cluster.upload_us", "us", us("cluster.upload")},
		{"cluster.flush_ms", "ms", ms("cluster.flush")},
		{"cluster.rotate_ms", "ms", ms("cluster.rotate")},
		{"cluster.rotate_noop_ms", "ms", ms("cluster.rotate_noop")},
		{"cluster.batch_size", "count", ratio(float64(ct.BatchedOps-cf.BatchedOps), float64(ct.Batches-cf.Batches))},
		{"cluster.border_replays", "count", float64(ct.BorderReplays - cf.BorderReplays)},
		{"cluster.shard_retries", "count", retries},
		{"epoch.builds", "count", builds},
		{"epoch.build_ms", "ms", ratio(buildNs, builds) / 1e6},
		{"epoch.queue_ms", "ms", stage(metrics.StageQueue)},
		{"epoch.wpg_ms", "ms", stage(metrics.StageWPG)},
		{"epoch.cluster_ms", "ms", stage(metrics.StageCluster)},
		{"epoch.publish_ms", "ms", stage(metrics.StagePublish)},
		{"epoch.shard_reuse", "frac", reuse},
		{"epoch.shards_total", "count", total},
		{"epoch.shards_rebuilt", "count", rebuilt},
		{"epoch.build_fails", "count", fails},
		{"epoch.cloak_ns", "ns", ns("epoch.cloak")},
		{"epoch.upload_batch_us", "us", us("epoch.upload_batch")},
		{"wpg.graph_ms", "ms", ms("wpg.graph")},
		{"wpg.graph_incr_ms", "ms", ms("wpg.graph_incr")},
		{"wpg.edges", "count", float64(ref.graph.NumEdges())},
		{"wpg.components", "count", float64(len(ref.graph.Components()))},
		{"core.tconn_ms", "ms", ms("core.tconn")},
		{"core.clusters", "count", float64(len(ref.clusters))},
		{"core.skipped", "count", float64(ref.skipped)},
		{"anonymizer.cloak_ns", "ns", ns("anonymizer.cloak")},
		{"go.gc_cycles", "count", float64(p.rt.gcCycles)},
		{"go.gc_pause_ms", "ms", p.rt.gcPauseMs},
		{"go.gc_cpu_frac", "frac", p.rt.gcCPUFrac},
		{"go.alloc_kb_per_op", "KB", ratio(float64(p.rt.allocBytes)/1024, float64(p.ops))},
		{"loadgen.late_p50_us", "us", p.lateP50},
		{"loadgen.late_p99_us", "us", p.lateP99},
		{"loadgen.sent", "count", sent},
		{"loadgen.failed", "count", float64(p.failed)},
	}
}

func stageOf(s metrics.EpochSnapshot, name string) metrics.StageSnapshot {
	for _, st := range s.BuildStages {
		if st.Stage == name {
			return st
		}
	}
	return metrics.StageSnapshot{}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func printMetrics(w io.Writer, title string, ms []metric) {
	fmt.Fprintf(w, "%s:\n", title)
	for _, m := range ms {
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", m.Name, m.Value, m.Unit)
	}
}

// printSamples states the sample counts behind the timing metrics.
func printSamples(w io.Writer, in *inputs, r *systemRun) {
	p := r.phase
	fmt.Fprintf(w, "samples: cloak latency n=%d, %d beyond the whole-phase p99; over %d windows of n=%d (%d beyond a window's p99) the median p50 is %.1f us and p99 %.1f us; whole-phase p50 %.1f us, p99 %.1f us\n",
		p.samples, p.wholeBeyond, windows, p.windowN, p.windowBeyond, p.p50, p.p99, p.wholeP50, p.wholeP99)
	if in.workload == workServe {
		fmt.Fprintf(w, "samples: cloak_p50_us and cloak_p99_us are the window medians\n")
	} else {
		fmt.Fprintf(w, "samples: cloak_p50_us is the window median, cloak_p99_us the whole-phase p99\n")
	}
	fmt.Fprintf(w, "samples: cloak_rps over %d closed-loop cloaks in %s (median of %d windows)",
		p.loopN, p.loopWall.Round(1e6), p.loopWindows)
	if in.workload != workServe {
		fmt.Fprintf(w, ", rotates %d, upload entries %d in %s of upload_batch round trips (median of %d steps)",
			len(p.writes.rotateMs), p.writes.entries, p.writes.uploadDur.Round(1e6), len(p.writes.stepRates))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "set-ups (the first %d before the phase):", (len(r.setups)+1)/2)
	var setupS []float64
	for _, s := range r.setups {
		fmt.Fprintf(w, " %.3fs (upload %.0f/s, rotate %.1fms)", s.seconds, s.uploadRPS, s.rotateMs)
		setupS = append(setupS, s.seconds)
	}
	fmt.Fprintln(w)
	quartiles := func(name string, xs []float64) {
		fmt.Fprintf(w, "within the run: %s q1 %.4g, median %.4g, q3 %.4g over %d samples\n",
			name, quantile(xs, 0.25), median(xs), quantile(xs, 0.75), len(xs))
	}
	quartiles("setup_s", setupS)
	if in.workload != workServe {
		quartiles("upload_rps per step", p.writes.stepRates)
		quartiles("refresh_ms per rotate", p.writes.rotateMs)
	}
	if in.workload != workServe {
		fmt.Fprintf(w, "loadgen: late p50 %.1f us, p99 %.1f us over %d paced sends; timed from due time instead of send, windowed p50 %.1f us, p99 %.1f us\n",
			p.lateP50, p.lateP99, p.lateN, p.dueP50, p.dueP99)
	}
}

// printOverhead prints the traced run's end-to-end metrics against the
// untraced run's on identical inputs.
func printOverhead(w io.Writer, plain, traced []metric) {
	fmt.Fprintf(w, "tracing overhead (traced minus untraced, one set-up each):\n")
	fmt.Fprintf(w, "  %-14s %14s %14s %14s %8s\n", "metric", "untraced", "traced", "diff", "diff%")
	for i := range plain {
		d := traced[i].Value - plain[i].Value
		fmt.Fprintf(w, "  %-14s %14.4f %14.4f %14.4f %7.1f%% %s\n",
			plain[i].Name, plain[i].Value, traced[i].Value, d, 100*ratio(d, plain[i].Value), plain[i].Unit)
	}
}

// printWhereTime prints, per operation, how its end-to-end time splits
// across the layers, from the medians of the recorded spans. Each
// difference is taken between ladder rungs that made like calls on the
// same state; the workload's own round trips follow for comparison and
// are subtracted from nothing.
func printWhereTime(w io.Writer, rec *recorder, r *systemRun) {
	us := func(name string) float64 { return median(rec.perOp(name)) }
	row := func(label string, v float64) { fmt.Fprintf(w, "  %-50s %12.2f us\n", label, v) }

	fe, cl, sv, ep, an := us("frontend.cloak"), us("cluster.cloak"), us("service.cloak"), us("epoch.cloak"), us("anonymizer.cloak")
	fmt.Fprintf(w, "where the time goes: cloak (ladder medians, n=%d per rung; the rungs alternate host by host)\n", rec.count("frontend.cloak"))
	row("e2e round trip", fe)
	row("client -> coordinator hop (e2e - cluster)", fe-cl)
	row("routing and query pool (cluster - service)", cl-sv)
	row("codec, TCP and dispatch (service - epoch)", sv-ep)
	row("epoch pipeline (epoch - anonymizer)", ep-an)
	row("anonymizer lookup", an)
	row("e2e under the workload's closed loop (2 conns)", us("e2e.cloak"))
	if n := rec.count("e2e.cloak_paced"); n > 0 {
		row(fmt.Sprintf("e2e paced stream, send to reply (n=%d)", n), us("e2e.cloak_paced"))
	}

	// Serve writes only during set-up; its workload rows use the set-up's.
	e2eOp := func(op string) (string, float64) {
		if n := rec.count("e2e." + op); n > 0 {
			return fmt.Sprintf("e2e under the workload (n=%d)", n), us("e2e." + op)
		}
		return fmt.Sprintf("e2e in the set-up (n=%d; no writes in the phase)", rec.count("setup."+op)), us("setup." + op)
	}
	feu, cu := us("frontend.upload_batch"), us("cluster.upload")*float64(uploadBatch)
	su, eu := us("service.upload_batch"), us("epoch.upload_batch")
	fmt.Fprintf(w, "where the time goes: upload_batch of %d restating entries (ladder medians, n=%d per rung)\n",
		uploadBatch, rec.count("frontend.upload_batch"))
	row("e2e round trip", feu)
	row("client -> coordinator hop (e2e - cluster)", feu-cu)
	row("coordinator enqueue, asynchronous (cluster)", cu)
	row("shard round trip, synchronous (service)", su)
	row("codec, TCP and dispatch (service - epoch)", su-eu)
	row("epoch pipeline apply (epoch)", eu)
	row(e2eOp("upload_batch"))

	fnoop, cnoop := us("frontend.rotate_noop"), us("cluster.rotate_noop")
	crot, flush := us("cluster.rotate"), us("cluster.flush")
	var build, queue, wpgT, clus, pub []float64
	for _, b := range r.ladder.builds {
		build = append(build, b.total*1e3)
		queue = append(queue, b.queue*1e3)
		wpgT = append(wpgT, b.wpg*1e3)
		clus = append(clus, b.cluster*1e3)
		pub = append(pub, b.publish*1e3)
	}
	fmt.Fprintf(w, "where the time goes: rotate (ladder medians; no-op n=%d per rung, after a write step n=%d)\n",
		rec.count("frontend.rotate_noop"), len(build))
	// The no-op rotates alternate, so the i-th of each name form a pair.
	fn, cn := rec.perOp("frontend.rotate_noop"), rec.perOp("cluster.rotate_noop")
	var hops []float64
	for i := range fn {
		if i < len(cn) {
			hops = append(hops, fn[i]-cn[i])
		}
	}
	row("e2e no-op round trip", fnoop)
	row("front-end hop (median of paired e2e - cluster)", median(hops))
	row("  quartile spread of those differences", quantile(hops, 0.75)-quantile(hops, 0.25))
	row("cluster.rotate, no-op", cnoop)
	row("cluster.rotate after a write step, queues flushed", crot)
	row("rehome, freeze and scrape RPCs (rotate - build)", crot-median(build))
	row("slowest shard build", median(build))
	row("  queue", median(queue))
	row("  wpg", median(wpgT))
	row("  cluster", median(clus))
	row("  publish", median(pub))
	row("cluster.flush before it (separate call)", flush)
	row(e2eOp("rotate"))
	var phaseBuild []float64
	for _, b := range r.phase.writes.builds {
		phaseBuild = append(phaseBuild, b.total*1e3)
	}
	if len(phaseBuild) > 0 {
		row("slowest shard build behind the workload's rotates", median(phaseBuild))
	}
}

// cpuTimes is the machine's cumulative CPU accounting from /proc/stat,
// in clock ticks: total over every state, and steal.
type cpuTimes struct{ total, steal float64 }

func readCPUTimes() (cpuTimes, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTimes{}, false
	}
	var t cpuTimes
	// user nice system idle iowait irq softirq steal [guest guest_nice]:
	// guest time is already counted in user.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return cpuTimes{}, false
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t, true
}

// printEnv records the toolchain, the scheduler's view of the machine,
// and how much CPU the hypervisor stole during the run.
func printEnv(w io.Writer, a cpuTimes, aok bool, b cpuTimes, bok bool) {
	steal := "n/a"
	if aok && bok && b.total > a.total {
		steal = fmt.Sprintf("%.2f%%", 100*(b.steal-a.steal)/(b.total-a.total))
	}
	fmt.Fprintf(w, "env: go=%s GOMAXPROCS=%d nproc=%d steal=%s\n", runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), steal)
}
