package metrics

import (
	"strings"
	"testing"
)

func TestClusterMetricsNilSafe(t *testing.T) {
	var m *ClusterMetrics
	m.SetShards(3)
	m.ObserveRouted("upload")
	m.ObserveBorderReplays(1)
	m.ObserveRotation()
	m.SetShardEpoch(0, 1)
	if snap := m.Snapshot(); snap.Shards != 0 || snap.RoutedTotal != 0 {
		t.Errorf("nil snapshot = %+v, want zero", snap)
	}
}

func TestClusterSnapshotLagAndString(t *testing.T) {
	m := NewClusterMetrics()
	m.SetShards(3)
	m.ObserveRouted("upload")
	m.ObserveRouted("upload")
	m.ObserveRouted("cloak")
	m.ObserveBorderReplays(5)
	m.ObserveBorderReplays(0) // no-op
	m.ObserveRotation()
	m.SetShardEpoch(0, 7)
	m.SetShardEpoch(1, 7)
	m.SetShardEpoch(2, 4)
	m.SetShardEpoch(9, 1) // out of range: ignored

	snap := m.Snapshot()
	if snap.Shards != 3 || snap.RoutedTotal != 3 || snap.BorderReplays != 5 || snap.Rotations != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	// Routed sorted by op.
	if snap.Routed[0].Op != "cloak" || snap.Routed[1].Op != "upload" || snap.Routed[1].Count != 2 {
		t.Fatalf("routed = %+v", snap.Routed)
	}
	if snap.EpochLag[0] != 0 || snap.EpochLag[1] != 0 || snap.EpochLag[2] != 3 {
		t.Fatalf("lag = %v, want [0 0 3]", snap.EpochLag)
	}
	s := snap.String()
	for _, want := range []string{"shards=3", "routed=3", "border_replays=5", "epochs=[7 7 4]"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	// Resizing the shard set resets the gauges.
	m.SetShards(2)
	if got := len(m.Snapshot().ShardEpochs); got != 2 {
		t.Errorf("after SetShards(2): %d epoch gauges", got)
	}
}
