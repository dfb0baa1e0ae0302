package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"nonexposure/internal/bench"
	"nonexposure/internal/cluster"
	"nonexposure/internal/core"
	"nonexposure/internal/dataset"
	"nonexposure/internal/geo"
	"nonexposure/internal/mobility"
	"nonexposure/internal/service"
	"nonexposure/internal/workload"
	"nonexposure/internal/wpg"
)

// Workload names.
const (
	workServe  = "serve"
	workChurn  = "churn"
	workIngest = "ingest"
)

// Fixed shape of the workloads. Counts scale with --seconds; everything
// else is constant so that two runs of one seed do identical work.
const (
	zipfTheta    = 0.8   // skew of every cloak host stream
	serveRate    = 15000 // serve's closed-loop cloaks per second of --seconds (a count, not a pace)
	burstRate    = 2000  // churn's and ingest's closed-loop bursts together, per second of --seconds
	loopWarmFrac = 0.05  // discarded closed-loop prefix, as a share of the timed count
	pacedRate    = 1000  // open-loop cloaks per second on connection B
	churnPeriod  = 0.5   // seconds between churn ticks
	churnFrac    = 0.10  // share of users re-uploading per churn tick
	ingestPeriod = 2.0   // seconds between ingest rounds
	warmTicks    = 2     // discarded churn ticks before the timed phase
	warmRounds   = 1     // discarded ingest rounds before the timed phase
	uploadBatch  = 128   // entries per upload_batch request
	ladderTicks  = 3     // write steps the ladder sends through the coordinator in process
	maxSnapshots = 8     // distinct mobility positions the write steps cycle through
)

// tick is one scheduled write step on connection A: upload_batch
// requests, then one rotate.
type tick struct {
	batches [][]service.UploadEntry
}

// inputs is everything a run sends, generated from the seed before any
// clock starts. The program under test only ever sees these values.
type inputs struct {
	workload string
	n, k     int
	delta    float64
	keys     []uint64
	// profiles is the ingest workload's tier mix (nil elsewhere).
	profiles map[int32]core.Profile

	initial []service.UploadEntry // the set-up upload of the whole population
	// loop is the closed loop's host list and stream the paced stream's
	// (churn and ingest). Each starts with its discarded warm-up prefix.
	loop, stream         []int32
	loopWarm, streamWarm int
	// warmup and timed are the write steps on churn and ingest, one
	// every period seconds.
	warmup, timed []tick
	period        float64
	// ladder holds extra write steps the traced run replays through
	// the coordinator's in-process API.
	ladder []tick
}

// deltaFor keeps the expected radio-neighbor count at the paper's
// default regardless of population size (the cloaksim rule).
func deltaFor(n int) float64 { return 2e-3 * math.Sqrt(104770.0/float64(n)) }

// generate builds a run's inputs from (workload, n, k, seed, seconds).
func generate(work string, n, k int, seed int64, seconds int) (*inputs, error) {
	in := &inputs{workload: work, n: n, k: k, delta: deltaFor(n)}
	pts := dataset.CaliforniaLike(n, seed)
	keys, err := cluster.HilbertKeys(pts, cluster.DefaultKeyOrder)
	if err != nil {
		return nil, err
	}
	in.keys = keys
	model, err := mobility.NewLocalWander(pts, in.delta, in.delta/4, in.delta/2, seed)
	if err != nil {
		return nil, err
	}
	if work == workIngest {
		in.profiles = bench.ProfileMix(bench.ProfileMixMixed, n, k, in.delta, seed)
	}
	in.initial = in.entries(wpg.Build(model.Positions(), wpg.BuildParams{Delta: in.delta, MaxPeers: 10}), allUsers(n))

	loopLen := burstRate * seconds
	var warm, timed int
	switch work {
	case workServe:
		loopLen = serveRate * seconds
	case workChurn:
		in.period, warm = churnPeriod, warmTicks
	case workIngest:
		in.period, warm = ingestPeriod, warmRounds
	default:
		return nil, fmt.Errorf("unknown workload %q (want %s, %s or %s)", work, workServe, workChurn, workIngest)
	}
	if in.period > 0 {
		timed = int(math.Ceil(float64(seconds) / in.period))
		in.streamWarm = int(pacedRate * in.period * float64(warm))
		streamLen := int(pacedRate * in.period * float64(timed))
		if in.stream, err = workload.ZipfHosts(n, in.streamWarm+streamLen, zipfTheta, seed+2); err != nil {
			return nil, err
		}
	}
	steps := in.steps(model, warm+timed+ladderTicks, seed)
	in.warmup, in.timed, in.ladder = steps[:warm], steps[warm:warm+timed], steps[warm+timed:]

	in.loopWarm = int(loopWarmFrac * float64(loopLen))
	if in.loop, err = workload.ZipfHosts(n, in.loopWarm+loopLen, zipfTheta, seed+1); err != nil {
		return nil, err
	}
	return in, nil
}

// steps generates count write steps in order: in each, the chosen users
// upload their rankings at the step's positions. On churn a seeded tenth
// of the users re-uploads per step; on ingest every user does. The
// positions come from maxSnapshots consecutive steps of the mobility
// model, reused in turn, which bounds the graph builds input generation
// pays for. The graphs are built on two goroutines, so the result does
// not depend on scheduling.
func (in *inputs) steps(model *mobility.LocalWander, count int, seed int64) []tick {
	var snaps [][]geo.Point
	for i := 0; i < count && i < maxSnapshots; i++ {
		model.Step(1)
		snaps = append(snaps, append([]geo.Point(nil), model.Positions()...))
	}
	graphs := make([]*wpg.Graph, len(snaps))
	const workers = 2
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(snaps); i += workers {
				graphs[i] = wpg.Build(snaps[i], wpg.BuildParams{Delta: in.delta, MaxPeers: 10})
			}
		}(w)
	}
	wg.Wait()

	rng := rand.New(rand.NewSource(seed))
	movers := int(churnFrac * float64(in.n))
	if movers < 1 {
		movers = 1
	}
	steps := make([]tick, count)
	for i := range steps {
		users := allUsers(in.n)
		if in.workload != workIngest {
			users = users[:movers]
			for j, u := range rng.Perm(in.n)[:movers] {
				users[j] = int32(u)
			}
		}
		steps[i].batches = batches(in.entries(graphs[i%len(graphs)], users))
	}
	return steps
}

func allUsers(n int) []int32 {
	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	return all
}

// entries renders the users' uploads from g. On ingest every entry
// restates the user's tier profile (the explicit zero profile for the
// default tier); elsewhere entries carry none.
func (in *inputs) entries(g *wpg.Graph, users []int32) []service.UploadEntry {
	out := make([]service.UploadEntry, len(users))
	for i, v := range users {
		nb := g.Neighbors(v)
		peers := make([]service.PeerRank, len(nb))
		for j, e := range nb {
			peers[j] = service.PeerRank{Peer: e.To, Rank: e.W}
		}
		out[i] = in.entry(v, peers)
	}
	return out
}

// floor is the smallest cluster a correct answer for host may have:
// the service k, raised by the host's own profile on ingest.
func (in *inputs) floor(host int32) int {
	if p, ok := in.profiles[host]; ok && int(p.K) > in.k {
		return int(p.K)
	}
	return in.k
}

// batches cuts entries into fixed-size upload_batch requests.
func batches(entries []service.UploadEntry) [][]service.UploadEntry {
	var out [][]service.UploadEntry
	for lo := 0; lo < len(entries); lo += uploadBatch {
		hi := lo + uploadBatch
		if hi > len(entries) {
			hi = len(entries)
		}
		out = append(out, entries[lo:hi])
	}
	return out
}

// finalUploads replays every write step the run sends, in order, and
// returns the last list each user uploaded: the input of the reference
// clustering the final sweep is checked against.
func (in *inputs) finalUploads() map[int32][]service.PeerRank {
	final := make(map[int32][]service.PeerRank, in.n)
	for _, e := range in.initial {
		final[e.User] = e.Peers
	}
	for _, steps := range [][]tick{in.warmup, in.timed} {
		for _, t := range steps {
			for _, b := range t.batches {
				for _, e := range b {
					final[e.User] = e.Peers
				}
			}
		}
	}
	return final
}
