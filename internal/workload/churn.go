package workload

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
	"time"

	"nonexposure/internal/core"
	"nonexposure/internal/dataset"
	"nonexposure/internal/epoch"
	"nonexposure/internal/metrics"
	"nonexposure/internal/mobility"
	"nonexposure/internal/wpg"
)

// Population is a mobile population whose devices upload ranked peer
// lists: Model moves the users, the WPG over their current positions is
// built at radio range Delta with MaxPeers ranked peers per user, and
// Movers draws who re-uploads in each period.
type Population struct {
	Model    *mobility.LocalWander
	Delta    float64
	MaxPeers int
	Movers   *rand.Rand
}

// NewPopulation is the workload of the evaluation and of its Section VII
// mobility extension: n CaliforniaLike users drawn from seed at radio
// range delta (dataset.DeltaFor keeps Table I's neighbour count), each
// wandering within delta of home at speeds in [delta/4, delta/2] per
// period, with M = 10 and the movers drawn from seed.
func NewPopulation(n int, delta float64, seed int64) (*Population, error) {
	model, err := mobility.NewLocalWander(dataset.CaliforniaLike(n, seed), delta, delta/4, delta/2, seed)
	if err != nil {
		return nil, err
	}
	return &Population{Model: model, Delta: delta, MaxPeers: 10, Movers: rand.New(rand.NewSource(seed))}, nil
}

// N is the population size.
func (p *Population) N() int { return len(p.Model.Positions()) }

// Users lists every user id in order: the initial upload.
func (p *Population) Users() []int32 {
	all := make([]int32, p.N())
	for i := range all {
		all[i] = int32(i)
	}
	return all
}

// Graph is the WPG over the users' current positions.
func (p *Population) Graph() *wpg.Graph {
	return wpg.Build(p.Model.Positions(), wpg.BuildParams{Delta: p.Delta, MaxPeers: p.MaxPeers})
}

// Tick is one churn period: every user takes one mobility step, then
// max(1, ⌊frac·n⌋) distinct movers are drawn to re-upload. It returns
// the WPG over the new positions and the movers in draw order.
func (p *Population) Tick(frac float64) (*wpg.Graph, []int32) {
	p.Model.Step(1)
	g := p.Graph()
	n := p.N()
	count := int(frac * float64(n))
	if count < 1 {
		count = 1
	}
	users := make([]int32, count)
	for i, u := range p.Movers.Perm(n)[:count] {
		users[i] = int32(u)
	}
	return g, users
}

// Peers is user v's upload as its device derives it from g: its WPG
// neighbours with their proximity ranks, nil when it has none.
func Peers(g *wpg.Graph, v int32) []epoch.RankedPeer {
	var peers []epoch.RankedPeer
	for _, e := range g.Neighbors(v) {
		peers = append(peers, epoch.RankedPeer{Peer: e.To, Rank: e.W})
	}
	return peers
}

// Tally counts cloak outcomes.
type Tally struct {
	Served        int
	Unclusterable int   // refused: the host's component is smaller than k
	Failed        int   // any other error
	Err           error // the first of those
}

// Add counts one cloak's outcome. A sub-k refusal is recognized in
// process by its sentinel and, relayed over the wire by a coordinator,
// by the sentinel's text.
func (t *Tally) Add(err error) {
	switch {
	case err == nil:
		t.Served++
	case errors.Is(err, core.ErrInsufficientUsers) || strings.Contains(err.Error(), core.ErrInsufficientUsers.Error()):
		t.Unclusterable++
	default:
		if t.Failed == 0 {
			t.Err = err
		}
		t.Failed++
	}
}

// Merge adds o's counts to t, keeping t's first error if it has one.
func (t *Tally) Merge(o Tally) {
	if t.Failed == 0 {
		t.Err = o.Err
	}
	t.Served += o.Served
	t.Unclusterable += o.Unclusterable
	t.Failed += o.Failed
}

// Total is the number of cloaks counted.
func (t Tally) Total() int { return t.Served + t.Unclusterable + t.Failed }

// Replay issues one cloak per host from workers concurrent clients and
// tallies the outcomes. Worker w takes the w-th contiguous slice of
// hosts, the first len(hosts)%workers slices one host longer, so the
// counts do not depend on scheduling. rm, when not nil, times every
// call as op "cloak".
func Replay(hosts []int32, workers int, rm *metrics.RequestMetrics, cloak func(host int32) error) Tally {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		total Tally
	)
	per, extra := len(hosts)/workers, len(hosts)%workers
	lo := 0
	for w := 0; w < workers; w++ {
		count := per
		if w < extra {
			count++
		}
		slice := hosts[lo : lo+count]
		lo += count
		wg.Add(1)
		go func() {
			defer wg.Done()
			var t Tally
			for _, host := range slice {
				t0 := time.Now()
				err := cloak(host)
				if rm != nil {
					rm.Observe("cloak", time.Since(t0), err == nil)
				}
				t.Add(err)
			}
			mu.Lock()
			total.Merge(t)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return total
}
