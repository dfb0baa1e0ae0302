package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"nonexposure/internal/metrics"
	"nonexposure/internal/service"
)

// tally counts operations and how they ended.
type tally struct {
	attempted int
	failed    int
	served    int // cloaks answered with a cluster
	refused   int // cloaks correctly refused (component smaller than k)
	firstErr  error
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.served += o.served
	t.refused += o.refused
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// cloak scores one cloak answer.
func (t *tally) cloak(in *inputs, host int32, p *service.CloakPayload, err error) {
	t.attempted++
	switch {
	case err == nil && p == nil:
		t.fail(fmt.Errorf("cloak %d: empty answer", host))
	case err == nil:
		if err := checkAnswer(in.n, host, p.Cluster, in.floor(host), p.EffectiveK); err != nil {
			t.fail(err)
			return
		}
		t.served++
	case isRefusal(err):
		t.refused++
	default:
		t.fail(fmt.Errorf("cloak %d: %w", host, err))
	}
}

// loopResult is one closed-loop pass over a host list.
type loopResult struct {
	lat  []float64       // µs per cloak round trip, in stream order
	gaps []float64       // µs from a reply to the next send on the same connection
	done []time.Duration // completion offsets from the pass's start, in stream order
	wall time.Duration
	tally
}

// windowRates returns the completions per second of each of windows
// consecutive runs of completions. cloak_rps is their median, so a
// transient stall slows one window, not the figure.
func (r loopResult) windowRates() []float64 {
	done := append([]time.Duration(nil), r.done...)
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	w := len(done) / windows
	if w < 1 {
		return []float64{float64(len(done)) / r.wall.Seconds()}
	}
	var rates []float64
	var from time.Duration
	for hi := w; hi <= len(done); hi += w {
		to := done[hi-1]
		rates = append(rates, float64(w)/(to-from).Seconds())
		from = to
	}
	return rates
}

// inTimeOrder returns the round trips ordered by completion.
func (r loopResult) inTimeOrder() []float64 {
	idx := make([]int, len(r.lat))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return r.done[idx[a]] < r.done[idx[b]] })
	out := make([]float64, len(idx))
	for i, j := range idx {
		out[i] = r.lat[j]
	}
	return out
}

// closedLoop sends hosts over the clients, each client owning one
// contiguous slice of the list and sending its next request only after
// the previous reply.
func closedLoop(clients []*service.Client, hosts []int32, in *inputs, parent spanRef) loopResult {
	res := loopResult{lat: make([]float64, len(hosts)), done: make([]time.Duration, len(hosts))}
	per := (len(hosts) + len(clients) - 1) / len(clients)
	tallies := make([]tally, len(clients))
	gaps := make([][]float64, len(clients))
	var wg sync.WaitGroup
	start := time.Now()
	for c, cl := range clients {
		lo, hi := c*per, (c+1)*per
		if hi > len(hosts) {
			hi = len(hosts)
		}
		wg.Add(1)
		go func(c int, cl *service.Client, lo, hi int) {
			defer wg.Done()
			var last time.Time
			for i := lo; i < hi; i++ {
				sp := parent.child("e2e.cloak")
				t0 := time.Now()
				if !last.IsZero() {
					gaps[c] = append(gaps[c], float64(t0.Sub(last))/1e3)
				}
				p, err := cl.CloakV1(hosts[i])
				last = time.Now()
				sp.end()
				res.lat[i] = float64(last.Sub(t0)) / 1e3
				res.done[i] = last.Sub(start)
				tallies[c].cloak(in, hosts[i], p, err)
			}
		}(c, cl, lo, hi)
	}
	wg.Wait()
	res.wall = time.Since(start)
	for c := range clients {
		res.tally.add(tallies[c])
		res.gaps = append(res.gaps, gaps[c]...)
	}
	return res
}

// streamResult is one paced open-loop cloak stream.
type streamResult struct {
	lat  []float64 // µs from each request's send to its reply
	due  []float64 // µs from each request's due time to its reply
	late []float64 // µs from each request's due time to its send
	tally
}

// pacedStream sends a cloak for each of hosts, in order, at pacedRate
// over one raw connection speaking the v1 line protocol. The writer
// wakes, sends every request whose due time has passed, and sleeps
// until the next one is due; replies are read concurrently, so a slow
// reply never delays a send. The coordinator answers a connection's
// requests in order, so reply j belongs to request j.
//
// Latency is timed from the send. Because sends never wait for a reply,
// a stall still shows in every request sent during it; timing from the
// due time would add the generator's own timer slack (about 1 ms per
// wake-up on a short sleep) to every sample. The due-time latency is
// kept as a diagnostic next to the lateness.
func pacedStream(addr string, hosts []int32, in *inputs, parent spanRef) (streamResult, error) {
	var res streamResult
	interval := time.Second / pacedRate
	due := func(i int) time.Duration { return time.Duration(i) * interval }

	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return res, fmt.Errorf("paced stream: %w", err)
	}
	defer conn.Close()
	// One bound on the whole stream, far beyond any healthy run.
	if err := conn.SetDeadline(time.Now().Add(due(len(hosts)) + time.Minute)); err != nil {
		return res, fmt.Errorf("paced stream: %w", err)
	}

	sent := make([]time.Duration, len(hosts)) // written by the writer, read after it returns
	var werr error
	var wg sync.WaitGroup
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		bw := bufio.NewWriterSize(conn, 64<<10)
		for i := 0; i < len(hosts); {
			now := time.Since(start)
			for ; i < len(hosts) && due(i) <= now; i++ {
				if _, err := fmt.Fprintf(bw, "{\"v\":1,\"op\":\"cloak\",\"user\":%d}\n", hosts[i]); err != nil {
					werr = err
					return
				}
				sent[i] = now
			}
			if err := bw.Flush(); err != nil {
				werr = err
				return
			}
			if i < len(hosts) {
				time.Sleep(due(i) - time.Since(start))
			}
		}
	}()

	var recv []time.Duration
	br := bufio.NewReaderSize(conn, 64<<10)
	var rerr error
	for len(recv) < len(hosts) {
		line, err := br.ReadBytes('\n')
		if err != nil {
			rerr = err
			break
		}
		at := time.Since(start)
		var env service.Envelope
		if err := json.Unmarshal(line, &env); err != nil {
			env.Error = fmt.Sprintf("decode reply: %v", err)
		}
		var cerr error
		if !env.OK {
			cerr = errors.New(env.Error)
		}
		res.cloak(in, hosts[len(recv)], env.Cloak, cerr)
		recv = append(recv, at)
	}
	if rerr != nil {
		conn.Close() // unblocks the writer
	}
	wg.Wait()
	if werr != nil && rerr == nil {
		return res, fmt.Errorf("paced stream: send: %w", werr)
	}
	for i := len(recv); i < len(hosts); i++ {
		res.attempted++
		res.fail(fmt.Errorf("paced stream: no reply to request %d: %v", i, rerr))
	}
	origin := parent.rec.since(start)
	for i, at := range recv {
		res.lat = append(res.lat, float64(at-sent[i])/1e3)
		res.due = append(res.due, float64(at-due(i))/1e3)
		res.late = append(res.late, float64(sent[i]-due(i))/1e3)
		parent.leaf("e2e.cloak_paced", origin+int64(sent[i]), origin+int64(at))
	}
	return res, nil
}

// buildSplit is one generation's build time and its stages, in ms.
type buildSplit struct {
	total, queue, wpg, cluster, publish float64
}

// writeResult is one sequence of write steps on connection A.
type writeResult struct {
	entries   int
	uploadDur time.Duration // summed upload_batch round trips
	// stepRates holds, per step, the entries it uploaded divided by the
	// time its upload_batch round trips took.
	stepRates []float64
	rotateMs  []float64
	// builds holds, per rotate of a traced run, the slowest shard's
	// build of the epoch the rotate published.
	builds []buildSplit
	tally
}

// runSteps sends each step's upload_batch requests and then its rotate
// on cl. Step i starts period*i seconds after the first, or at once when
// the previous step ran late.
func runSteps(cl *service.Client, sys *system, steps []tick, period float64, parent spanRef) writeResult {
	var res writeResult
	start := time.Now()
	for i, t := range steps {
		time.Sleep(time.Until(start.Add(time.Duration(float64(i) * period * float64(time.Second)))))
		tsp := parent.child("e2e.tick")
		var stepDur time.Duration
		stepEntries := 0
		for _, b := range t.batches {
			sp := tsp.child("e2e.upload_batch")
			t0 := time.Now()
			n, err := cl.UploadBatch(b)
			d := time.Since(t0)
			sp.end()
			stepDur += d
			res.attempted++
			if err == nil && n != len(b) {
				err = fmt.Errorf("upload_batch: %d of %d entries accepted", n, len(b))
			}
			if err != nil {
				res.fail(err)
				continue
			}
			stepEntries += n
		}
		res.entries += stepEntries
		res.uploadDur += stepDur
		if stepDur > 0 {
			res.stepRates = append(res.stepRates, float64(stepEntries)/stepDur.Seconds())
		}
		var before []uint64
		if parent.rec != nil {
			before = sys.epochs()
		}
		sp := tsp.child("e2e.rotate")
		t0 := time.Now()
		_, err := cl.Rotate()
		d := time.Since(t0)
		sp.end()
		res.attempted++
		if err != nil {
			res.fail(fmt.Errorf("rotate: %w", err))
		} else {
			res.rotateMs = append(res.rotateMs, float64(d)/1e6)
		}
		if parent.rec != nil {
			if b, ok := sys.slowestBuild(before); ok {
				res.builds = append(res.builds, b)
			}
		}
		tsp.end()
	}
	return res
}

// epochs returns each shard's serving epoch.
func (s *system) epochs() []uint64 {
	out := make([]uint64, len(s.shards))
	for i, srv := range s.shards {
		if g := srv.Manager().Current(); g != nil {
			out[i] = g.Epoch
		}
	}
	return out
}

// slowestBuild returns the longest build among the shards whose
// serving epoch moved past before, split into its stages.
func (s *system) slowestBuild(before []uint64) (buildSplit, bool) {
	var best buildSplit
	found := false
	for i, srv := range s.shards {
		g := srv.Manager().Current()
		if g == nil || g.Epoch == before[i] {
			continue
		}
		b := buildSplit{total: float64(g.BuildDuration) / 1e6}
		for _, c := range g.Trace.Children() {
			d := float64(c.Duration()) / 1e6
			switch c.Name() {
			case metrics.StageQueue:
				b.queue = d
			case metrics.StageWPG:
				b.wpg = d
			case metrics.StageCluster:
				b.cluster = d
			case metrics.StagePublish:
				b.publish = d
			}
		}
		if !found || b.total > best.total {
			best, found = b, true
		}
	}
	return best, found
}

// setupResult is one timed set-up: start the system, upload the whole
// population through the coordinator, rotate.
type setupResult struct {
	seconds   float64
	uploadRPS float64
	rotateMs  float64
	tally
}

// setup starts a system and loads it over a client connection, which it
// returns open. The clock runs from starting the shards to the ack of
// the first rotate, which comes only once every shard serves an epoch
// covering the whole population.
func setup(in *inputs, parent spanRef) (*setupResult, *system, *service.Client, error) {
	sp := parent.child("e2e.setup")
	t0 := time.Now()
	sys, err := startSystem(in)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("set-up: %w", err)
	}
	cl, err := sys.dial()
	if err != nil {
		sys.close()
		return nil, nil, nil, fmt.Errorf("set-up: %w", err)
	}
	res := &setupResult{}
	fail := func(err error) (*setupResult, *system, *service.Client, error) {
		_ = cl.Close() // abandoning the set-up
		sys.close()
		return nil, nil, nil, fmt.Errorf("set-up: %w", err)
	}
	var upload time.Duration
	entries := 0
	for _, b := range batches(in.initial) {
		bsp := sp.child("setup.upload_batch")
		t := time.Now()
		n, err := cl.UploadBatch(b)
		upload += time.Since(t)
		bsp.end()
		res.attempted++
		if err != nil {
			return fail(err)
		}
		if n != len(b) {
			return fail(fmt.Errorf("upload_batch: %d of %d entries accepted", n, len(b)))
		}
		entries += n
	}
	rsp := sp.child("setup.rotate")
	t := time.Now()
	if _, err := cl.Rotate(); err != nil {
		return fail(fmt.Errorf("first rotate: %w", err))
	}
	res.rotateMs = float64(time.Since(t)) / 1e6
	rsp.end()
	res.attempted++
	res.seconds = time.Since(t0).Seconds()
	sp.end()
	res.uploadRPS = float64(entries) / upload.Seconds()
	return res, sys, cl, nil
}

// sweepResult is the untimed final pass over every user.
type sweepResult struct {
	answers [][]int32 // sorted members per user, nil when refused
	tally
}

// sweep asks the coordinator for every user's cloak over two fresh
// connections, each owning half of the id range.
func sweep(sys *system, in *inputs) (sweepResult, error) {
	res := sweepResult{answers: make([][]int32, in.n)}
	var clients []*service.Client
	defer func() {
		for _, cl := range clients {
			_ = cl.Close() // read-only connections
		}
	}()
	for i := 0; i < numShards; i++ {
		cl, err := sys.dial()
		if err != nil {
			return res, fmt.Errorf("sweep: %w", err)
		}
		clients = append(clients, cl)
	}
	per := (in.n + len(clients) - 1) / len(clients)
	tallies := make([]tally, len(clients))
	var wg sync.WaitGroup
	for c, cl := range clients {
		lo, hi := c*per, (c+1)*per
		if hi > in.n {
			hi = in.n
		}
		wg.Add(1)
		go func(c int, cl *service.Client, lo, hi int) {
			defer wg.Done()
			// Served answers are judged by the comparison with the
			// reference afterwards, which is stricter than checkAnswer.
			t := &tallies[c]
			for u := lo; u < hi; u++ {
				p, err := cl.CloakV1(int32(u))
				t.attempted++
				switch {
				case err == nil && p != nil:
					t.served++
					res.answers[u] = sortedCopy(p.Cluster)
				case isRefusal(err):
					t.refused++
				default:
					t.fail(fmt.Errorf("sweep: cloak %d: answer %v, error %v", u, p, err))
				}
			}
		}(c, cl, lo, hi)
	}
	wg.Wait()
	for _, t := range tallies {
		res.tally.add(t)
	}
	return res, nil
}
