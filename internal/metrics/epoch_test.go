package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestEpochMetricsCounters(t *testing.T) {
	m := NewEpochMetrics()
	if s := m.Snapshot(); s.Builds != 0 || s.Swaps != 0 || s.Staleness != 0 {
		t.Fatalf("fresh snapshot = %+v", s)
	}
	m.ObserveBuild(5*time.Millisecond, true)
	m.ObserveBuild(10*time.Millisecond, false)
	m.ObserveSwap()
	m.SetPending(3)
	s := m.Snapshot()
	if s.Builds != 2 || s.BuildFails != 1 || s.Swaps != 1 || s.Pending != 3 {
		t.Errorf("snapshot = %+v", s)
	}
	if s.BuildP50 <= 0 || s.BuildP95 < s.BuildP50 {
		t.Errorf("build percentiles: p50=%v p95=%v", s.BuildP50, s.BuildP95)
	}
	if s.Staleness < 0 || s.Staleness > time.Minute {
		t.Errorf("staleness right after a swap = %v", s.Staleness)
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
}

func TestEpochMetricsBuildStages(t *testing.T) {
	m := NewEpochMetrics()
	if s := m.Snapshot(); len(s.BuildStages) != 0 {
		t.Fatalf("fresh BuildStages = %+v", s.BuildStages)
	}
	// Observed out of pipeline order on purpose: the snapshot must
	// restore queue -> wpg -> cluster -> publish.
	m.ObserveStage(StagePublish, time.Millisecond)
	if s := m.Snapshot(); len(s.BuildStages) != 1 || s.BuildStages[0].Stage != StagePublish {
		t.Fatalf("BuildStages after one publish = %+v, want the observed stage only", s.BuildStages)
	}
	m.ObserveStage(StageCluster, 40*time.Millisecond)
	m.ObserveStage(StageCluster, 20*time.Millisecond)
	m.ObserveStage(StageWPG, 10*time.Millisecond)
	m.ObserveStage(StageQueue, 2*time.Millisecond)
	m.ObserveStage(StageQueue, -time.Second) // negative clamps to 0

	s := m.Snapshot()
	var order []string
	for _, st := range s.BuildStages {
		order = append(order, st.Stage)
	}
	want := []string{StageQueue, StageWPG, StageCluster, StagePublish}
	if len(order) != len(want) {
		t.Fatalf("stages = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("stage order = %v, want %v", order, want)
		}
	}
	cl := s.BuildStages[2]
	if cl.Count != 2 || cl.Mean != 30*time.Millisecond || cl.Max != 40*time.Millisecond || cl.Total != 60*time.Millisecond {
		t.Errorf("cluster stage = %+v", cl)
	}
	if q := s.BuildStages[0]; q.Count != 2 || q.Total != 2*time.Millisecond || q.Max != 2*time.Millisecond {
		t.Errorf("negative duration should clamp to 0: %+v", q)
	}
	if got := s.String(); !strings.Contains(got, "cluster=30ms/40ms") || !strings.Contains(got, "wpg=10ms/10ms") {
		t.Errorf("String() = %q missing stage clauses", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("an unknown stage name was accepted")
		}
	}()
	m.ObserveStage("custom", time.Second)
}

// TestEpochMetricsNilReceiver: every method must be a no-op on nil so
// instrumentation stays optional.
func TestEpochMetricsNilReceiver(t *testing.T) {
	var m *EpochMetrics
	m.ObserveBuild(time.Second, true)
	m.ObserveSwap()
	m.SetPending(1)
	m.ObserveStage(StageWPG, time.Second)
	if m.Staleness() != 0 {
		t.Error("nil staleness != 0")
	}
	if s := m.Snapshot(); s.Builds != 0 {
		t.Errorf("nil snapshot = %+v", s)
	}
}

func TestEpochMetricsConcurrent(t *testing.T) {
	m := NewEpochMetrics()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				m.ObserveBuild(time.Millisecond, true)
				m.ObserveSwap()
				m.SetPending(j)
				m.ObserveStage(StageCluster, time.Millisecond)
				_ = m.Snapshot()
			}
		}()
	}
	wg.Wait()
	if s := m.Snapshot(); s.Builds != 800 || s.Swaps != 800 {
		t.Errorf("snapshot after hammer = %+v", s)
	}
}
