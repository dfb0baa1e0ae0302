package main

import (
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
	"sync"
	"time"

	"nonexposure/internal/metrics"
	"nonexposure/internal/service"
)

// runtimeSnap is the Go runtime's counters at one instant.
type runtimeSnap struct {
	ms         runtime.MemStats
	gcCPU, cpu float64 // cumulative GC and total available CPU seconds
}

func readRuntime() runtimeSnap {
	var s runtimeSnap
	runtime.ReadMemStats(&s.ms)
	samples := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(samples)
	if samples[0].Value.Kind() == rtmetrics.KindFloat64 {
		s.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == rtmetrics.KindFloat64 {
		s.cpu = samples[1].Value.Float64()
	}
	return s
}

// runtimeDelta is what the runtime did over a measured phase.
type runtimeDelta struct {
	gcCycles   uint32
	gcPauseMs  float64
	gcCPUFrac  float64
	allocBytes uint64
}

func (a runtimeSnap) to(b runtimeSnap) runtimeDelta {
	d := runtimeDelta{
		gcCycles:   b.ms.NumGC - a.ms.NumGC,
		gcPauseMs:  float64(b.ms.PauseTotalNs-a.ms.PauseTotalNs) / 1e6,
		allocBytes: b.ms.TotalAlloc - a.ms.TotalAlloc,
	}
	if cpu := b.cpu - a.cpu; cpu > 0 {
		d.gcCPUFrac = (b.gcCPU - a.gcCPU) / cpu
	}
	return d
}

// phaseResult is what one system's measured phase produced.
type phaseResult struct {
	// cloakLat are the latency samples behind cloak_p50_us and
	// cloak_p99_us, in time order: round trips on serve, send-to-reply
	// latencies of the paced stream on churn and ingest.
	cloakLat []float64
	// dueLat are the paced stream's latencies from due time to reply
	// (churn and ingest), a diagnostic.
	dueLat []float64
	// loops are the closed-loop passes behind cloak_rps: the timed
	// phase on serve; on churn and ingest two bursts, one before the
	// paced phase and one after it, so that no rebuild runs during
	// either.
	loops []loopResult
	// writes are the timed write steps (churn and ingest).
	writes writeResult
	// late is the generator's lateness: send minus due time on the
	// paced stream, reply-to-next-send gaps on serve's closed loop.
	late []float64
	ops  int // operations in the timed phase
	rt   runtimeDelta

	// Counter windows for the per-layer metrics.
	epochFrom, epochTo     []metrics.EpochSnapshot
	clusterFrom, clusterTo metrics.ClusterSnapshot

	// The figures the report needs from the raw samples above, kept
	// after summarize drops the samples.
	p50, p99, wholeP50, wholeP99 float64 // cloak latency, µs
	windowN, windowBeyond        int     // samples per window, beyond a window's p99
	wholeBeyond                  int     // samples beyond the whole-phase p99
	samples                      int
	rps                          float64
	loopN, loopWindows           int
	loopWall                     time.Duration
	lateP50, lateP99             float64
	lateN                        int
	dueP50, dueP99               float64

	// heapMB is the live heap at the end of the phase less the live
	// heap before the first set-up, which holds the run's inputs.
	heapMB float64
	tally
}

// summarize reduces the raw samples to the figures the report needs and
// drops them, so that the heap reading after the phase counts the
// system, not the benchmark's samples.
func (p *phaseResult) summarize() {
	p.p50, p.p99 = windowed(p.cloakLat, 0.50), windowed(p.cloakLat, 0.99)
	p.wholeP50, p.wholeP99 = quantile(p.cloakLat, 0.50), quantile(p.cloakLat, 0.99)
	p.samples, p.windowN = len(p.cloakLat), len(p.cloakLat)/windows
	first := p.cloakLat[:p.windowN]
	p.windowBeyond = beyond(first, quantile(first, 0.99))
	p.wholeBeyond = beyond(p.cloakLat, p.wholeP99)
	var rates []float64
	for _, l := range p.loops {
		rates = append(rates, l.windowRates()...)
		p.loopN += len(l.lat)
		p.loopWall += l.wall
	}
	p.rps, p.loopWindows = median(rates), len(rates)
	p.lateP50, p.lateP99, p.lateN = quantile(p.late, 0.50), quantile(p.late, 0.99), len(p.late)
	p.dueP50, p.dueP99 = windowed(p.dueLat, 0.50), windowed(p.dueLat, 0.99)
	p.cloakLat, p.dueLat, p.late, p.loops = nil, nil, nil, nil
}

func (s *system) epochSnapshots() []metrics.EpochSnapshot {
	out := make([]metrics.EpochSnapshot, len(s.ems))
	for i, em := range s.ems {
		out[i] = em.Snapshot()
	}
	return out
}

// runPhase runs a workload's discarded warm-up and its timed phase on a
// loaded system. cl is connection A.
func runPhase(sys *system, cl *service.Client, in *inputs, rec *recorder) (*phaseResult, error) {
	out := &phaseResult{}
	root := rec.root("phase." + in.workload)
	defer root.end()

	// Closed loop on two connections: serve's timed phase, and the
	// cloak_rps bursts of churn and ingest.
	runtime.GC()
	w, err := closedLoopOn(sys, cl, in.loop[:in.loopWarm], in, spanRef{})
	if err != nil {
		return nil, err
	}
	out.tally.add(w.tally)
	timed := in.loop[in.loopWarm:]
	if in.workload == workServe {
		// No build runs in serve's phase; its epoch window is the set-up.
		out.epochFrom = make([]metrics.EpochSnapshot, len(sys.ems))
		runtime.GC()
		rt0 := readRuntime()
		loop, err := closedLoopOn(sys, cl, timed, in, root)
		if err != nil {
			return nil, err
		}
		rt1 := readRuntime()
		out.loops = []loopResult{loop}
		out.tally.add(loop.tally)
		out.cloakLat, out.late, out.ops, out.rt = loop.inTimeOrder(), loop.gaps, len(loop.lat), rt0.to(rt1)
		out.epochTo, out.clusterTo = sys.epochSnapshots(), sys.cm.Snapshot()
		return out, nil
	}

	// The first burst, before any rebuild runs.
	runtime.GC()
	loop, err := closedLoopOn(sys, cl, timed[:len(timed)/2], in, root)
	if err != nil {
		return nil, err
	}
	out.loops = append(out.loops, loop)
	out.tally.add(loop.tally)

	if err := pacedPhase(sys, cl, in, spanRef{}, in.stream[:in.streamWarm], in.warmup, nil); err != nil {
		return nil, err
	}
	if err := pacedPhase(sys, cl, in, root, in.stream[in.streamWarm:], in.timed, out); err != nil {
		return nil, err
	}

	// The second burst, after the last rotate's ack: every shard then
	// serves its final epoch and no rebuild runs.
	runtime.GC()
	loop, err = closedLoopOn(sys, cl, timed[len(timed)/2:], in, root)
	if err != nil {
		return nil, err
	}
	out.loops = append(out.loops, loop)
	out.tally.add(loop.tally)
	return out, nil
}

// closedLoopOn runs one closed-loop pass over hosts on cl and a second
// connection it opens for the pass and closes after it.
func closedLoopOn(sys *system, cl *service.Client, hosts []int32, in *inputs, parent spanRef) (loopResult, error) {
	cl2, err := sys.dial()
	if err != nil {
		return loopResult{}, err
	}
	defer cl2.Close() // every request of the pass has had its reply
	sp := parent.child("closed_loop")
	defer sp.end()
	return closedLoop([]*service.Client{cl, cl2}, hosts, in, sp), nil
}

// liveHeap collects garbage and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// pacedPhase runs the paced cloak stream on connection B next to the
// write steps on A; both schedules span the same time. A nil out is the
// discarded warm-up.
func pacedPhase(sys *system, cl *service.Client, in *inputs, root spanRef, hosts []int32, steps []tick, out *phaseResult) error {
	runtime.GC()
	if out != nil {
		out.epochFrom, out.clusterFrom = sys.epochSnapshots(), sys.cm.Snapshot()
	}
	rt0 := readRuntime()
	ssp, wsp := root.child("paced_stream"), root.child("write_steps")
	var stream streamResult
	var serr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		stream, serr = pacedStream(sys.addr, hosts, in, ssp)
	}()
	writes := runSteps(cl, sys, steps, in.period, wsp)
	wg.Wait()
	wsp.end()
	ssp.end()
	rt1 := readRuntime()
	if serr != nil {
		return serr
	}
	if out == nil {
		return nil
	}
	out.cloakLat, out.dueLat, out.late, out.writes = stream.lat, stream.due, stream.late, writes
	out.ops = stream.attempted + writes.attempted
	out.rt = rt0.to(rt1)
	out.epochTo, out.clusterTo = sys.epochSnapshots(), sys.cm.Snapshot()
	out.tally.add(stream.tally)
	out.tally.add(writes.tally)
	return nil
}

// systemRun is everything measured on one or more systems of a run.
type systemRun struct {
	setups []*setupResult
	phase  *phaseResult
	sweep  sweepResult
	wrong  int
	digest string
	ladder *ladderResult
	tally
}

// runSystem sets a system up the first half of setups times (keeping
// the last), runs the phase on it, sweeps every user, checks the sweep
// against ref, with a recorder also runs the ladder, and shuts the
// system down. It then makes the other half of the set-ups, each shut
// down at once, so that the set-up samples span the run.
func runSystem(in *inputs, ref *reference, setups int, rec *recorder) (*systemRun, error) {
	run := &systemRun{}
	var sys *system
	var cl *service.Client
	shutdown := func() {
		if cl != nil {
			_ = cl.Close() // the run is over with this connection
		}
		if sys != nil {
			sys.close()
		}
		sys, cl = nil, nil
	}
	defer shutdown()
	base := liveHeap()
	setUp := func(count int) error {
		sroot := rec.root("setup")
		defer sroot.end()
		for i := 0; i < count; i++ {
			shutdown()
			runtime.GC()
			s, next, ncl, err := setup(in, sroot)
			if err != nil {
				return err
			}
			sys, cl = next, ncl
			run.setups = append(run.setups, s)
			run.tally.add(s.tally)
		}
		return nil
	}
	if err := setUp((setups + 1) / 2); err != nil {
		return nil, err
	}

	phase, err := runPhase(sys, cl, in, rec)
	if err != nil {
		return nil, err
	}
	phase.summarize()
	phase.heapMB = float64(int64(liveHeap())-int64(base)) / (1 << 20)
	run.phase = phase
	run.tally.add(phase.tally)

	// Hang up A before the sweep; it opens its own two connections.
	_ = cl.Close()
	cl = nil
	sw, err := sweep(sys, in)
	if err != nil {
		return nil, err
	}
	run.sweep = sw
	run.tally.add(sw.tally)
	wrong, first := ref.compare(sw.answers)
	run.wrong = wrong
	if wrong > 0 {
		run.failed += wrong
		if run.firstErr == nil {
			run.firstErr = fmt.Errorf("sweep: %d users answered differently from the reference; first: %w", wrong, first)
		}
	}
	run.digest = digest(sw.answers)

	if rec != nil {
		lad, err := runLadder(sys, in, ref, rec)
		if err != nil {
			return nil, err
		}
		run.ladder = lad
	}
	if err := setUp(setups / 2); err != nil {
		return nil, err
	}
	return run, nil
}

// elapsed formats a duration for progress lines.
func elapsed(t time.Time) string { return time.Since(t).Round(time.Millisecond).String() }
