package metrics

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Canonical epoch-build stage names, in pipeline order. The epoch
// manager reports one ObserveStage per stage per build; exporters and
// the churn report render them in this order.
const (
	StageQueue   = "queue"   // trigger -> build start (queue wait)
	StageWPG     = "wpg"     // proximity-graph construction
	StageCluster = "cluster" // t-connectivity clustering + registration
	StagePublish = "publish" // generation swap (atomic publish)
)

// stageNames lists the build stages in pipeline order.
var stageNames = [...]string{StageQueue, StageWPG, StageCluster, StagePublish}

// EpochMetrics tracks the health of the live re-clustering pipeline:
// how many rebuilds ran (and failed), how long they took, how many
// generation swaps were published, how deep the pending-build queue is,
// and how stale the serving generation is. All methods are safe for
// concurrent use and safe on a nil receiver, so instrumentation can be
// optional at the call sites.
type EpochMetrics struct {
	builds        atomic.Uint64
	buildFails    atomic.Uint64
	swaps         atomic.Uint64
	pending       atomic.Int64
	shardsTotal   atomic.Uint64
	shardsRebuilt atomic.Uint64
	buildDur      LatencyHistogram
	lastSwapNs    atomic.Int64 // unix nanos of the latest publish, 0 = never

	// Profile gauges (both zero while every user runs the default
	// profile): the latest published generation's profiled-user and
	// degraded-user counts.
	profiled atomic.Int64
	degraded atomic.Int64

	stageMu sync.Mutex
	stages  [len(stageNames)]stageAgg
}

// stageAgg accumulates one build stage's timing. Guarded by stageMu —
// stages are observed a handful of times per rebuild, never on the
// request hot path.
type stageAgg struct {
	count uint64
	sumNs int64
	maxNs int64
}

// NewEpochMetrics returns an empty epoch metrics set.
func NewEpochMetrics() *EpochMetrics { return &EpochMetrics{} }

// ObserveBuild folds in one completed rebuild attempt.
func (m *EpochMetrics) ObserveBuild(d time.Duration, ok bool) {
	if m == nil {
		return
	}
	m.builds.Add(1)
	if !ok {
		m.buildFails.Add(1)
	}
	m.buildDur.Observe(d)
}

// ObserveStage folds in the duration of one build stage, named by one
// of the Stage* constants; any other name is a bug and panics. Safe on
// a nil receiver.
func (m *EpochMetrics) ObserveStage(stage string, d time.Duration) {
	if m == nil {
		return
	}
	i := slices.Index(stageNames[:], stage)
	if i < 0 {
		panic(fmt.Sprintf("metrics: unknown build stage %q", stage))
	}
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	m.stageMu.Lock()
	agg := &m.stages[i]
	agg.count++
	agg.sumNs += ns
	if ns > agg.maxNs {
		agg.maxNs = ns
	}
	m.stageMu.Unlock()
}

// ObserveShards folds in one successful build's shard accounting: how
// many connected components the WPG had and how many actually re-ran
// clustering (the rest were spliced from the previous build). Safe on
// a nil receiver.
func (m *EpochMetrics) ObserveShards(total, rebuilt int) {
	if m == nil {
		return
	}
	if total > 0 {
		m.shardsTotal.Add(uint64(total))
	}
	if rebuilt > 0 {
		m.shardsRebuilt.Add(uint64(rebuilt))
	}
}

// ObserveProfiles records one successful build's profile accounting:
// how many users carried a non-default privacy profile in its snapshot
// and how many were served degraded (cluster area over their own
// MaxArea bound). Gauges, not counters — they describe the latest
// generation. Safe on a nil receiver.
func (m *EpochMetrics) ObserveProfiles(profiled, degraded int) {
	if m == nil {
		return
	}
	m.profiled.Store(int64(profiled))
	m.degraded.Store(int64(degraded))
}

// ObserveSwap records that a freshly built generation was published.
func (m *EpochMetrics) ObserveSwap() {
	if m == nil {
		return
	}
	m.swaps.Add(1)
	m.lastSwapNs.Store(time.Now().UnixNano())
}

// SetPending records the current depth of the build queue (triggered
// epochs not yet published).
func (m *EpochMetrics) SetPending(n int) {
	if m == nil {
		return
	}
	m.pending.Store(int64(n))
}

// Staleness is the gauge for "how old is what we are serving": the time
// since the last generation swap, or 0 when nothing was ever published.
func (m *EpochMetrics) Staleness() time.Duration {
	if m == nil {
		return 0
	}
	last := m.lastSwapNs.Load()
	if last == 0 {
		return 0
	}
	return time.Duration(time.Now().UnixNano() - last)
}

// StageSnapshot is the aggregated timing of one build stage.
type StageSnapshot struct {
	Stage string
	Count uint64
	Mean  time.Duration
	Max   time.Duration
	Total time.Duration
}

// EpochSnapshot is a point-in-time view of an EpochMetrics.
type EpochSnapshot struct {
	Builds     uint64
	BuildFails uint64
	Swaps      uint64
	Pending    int
	// ShardsTotal and ShardsRebuilt are cumulative across all
	// successful builds; 1 - ShardsRebuilt/ShardsTotal is the overall
	// shard reuse ratio of the incremental rebuild path.
	ShardsTotal   uint64
	ShardsRebuilt uint64
	BuildMean     time.Duration
	BuildP50      time.Duration
	BuildP95      time.Duration
	Staleness     time.Duration
	// Profiled and Degraded are the latest generation's profile gauges
	// (both zero while every user runs the default profile).
	Profiled int64
	Degraded int64
	// BuildHist is the raw rebuild-duration histogram for exporters.
	BuildHist HistogramSnapshot
	// BuildStages breaks rebuild time down per stage, in pipeline order
	// (queue wait, WPG construction, clustering, publish); a stage never
	// observed is left out.
	BuildStages []StageSnapshot
}

// Snapshot captures the current counters (zero value on a nil receiver).
func (m *EpochMetrics) Snapshot() EpochSnapshot {
	if m == nil {
		return EpochSnapshot{}
	}
	hist := m.buildDur.Snapshot()
	s := EpochSnapshot{
		Builds:        m.builds.Load(),
		BuildFails:    m.buildFails.Load(),
		Swaps:         m.swaps.Load(),
		Pending:       int(m.pending.Load()),
		ShardsTotal:   m.shardsTotal.Load(),
		ShardsRebuilt: m.shardsRebuilt.Load(),
		BuildMean:     m.buildDur.Mean(),
		BuildP50:      quantileOf(hist.Counts, hist.Total, 0.50),
		BuildP95:      quantileOf(hist.Counts, hist.Total, 0.95),
		Staleness:     m.Staleness(),
		Profiled:      m.profiled.Load(),
		Degraded:      m.degraded.Load(),
		BuildHist:     hist,
	}
	m.stageMu.Lock()
	for i, agg := range m.stages {
		if agg.count == 0 {
			continue
		}
		s.BuildStages = append(s.BuildStages, StageSnapshot{
			Stage: stageNames[i],
			Count: agg.count,
			Mean:  time.Duration(agg.sumNs / int64(agg.count)),
			Max:   time.Duration(agg.maxNs),
			Total: time.Duration(agg.sumNs),
		})
	}
	m.stageMu.Unlock()
	return s
}

// String renders a compact one-line report for shutdown logs, with one
// "stage=mean/max" clause per observed build stage.
func (s EpochSnapshot) String() string {
	out := fmt.Sprintf("builds=%d fails=%d swaps=%d pending=%d shards=%d/%d build_p50=%v build_p95=%v staleness=%v",
		s.Builds, s.BuildFails, s.Swaps, s.Pending, s.ShardsRebuilt, s.ShardsTotal, s.BuildP50, s.BuildP95, s.Staleness)
	if s.Profiled > 0 {
		out += fmt.Sprintf(" profiled=%d degraded=%d", s.Profiled, s.Degraded)
	}
	for _, st := range s.BuildStages {
		out += fmt.Sprintf(" %s=%v/%v", st.Stage, st.Mean, st.Max)
	}
	return out
}
