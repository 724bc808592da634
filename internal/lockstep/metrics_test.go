package lockstep

import (
	"fmt"
	"testing"

	"repro/internal/dates"
	"repro/internal/obs"
)

// TestMetricsMirrorStats drives a detector over the bucket-population cap
// with counters attached and checks the obs view agrees with Stats — and
// that an attached registry never changes the detection result.
func TestMetricsMirrorStats(t *testing.T) {
	cfg := Config{DayBucket: 1, MinCommonApps: 2, MinGroupSize: 2, MaxBucketPopulation: 3}
	run := func(m *Metrics) *Detector {
		d := NewDetector(cfg)
		d.SetMetrics(m)
		// A viral app: 6 devices pile into one cell (cap 3), so the cell
		// dies mid-stream and later arrivals hit the dead-cell path.
		for i := 0; i < 6; i++ {
			d.Ingest(fmt.Sprintf("dev%d", i), "viral", dates.Date(0))
		}
		// A genuine lockstep pair on two quiet apps.
		d.Ingest("dev0", "a", dates.Date(0))
		d.Ingest("dev1", "a", dates.Date(0))
		d.Ingest("dev0", "b", dates.Date(0))
		d.Ingest("dev1", "b", dates.Date(0))
		return d
	}

	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	d := run(m)
	st := d.Stats()
	if st.BucketsRetracted == 0 || st.PairsPruned == 0 {
		t.Fatalf("test did not exercise the cap: %+v", st)
	}
	if got := m.BucketsRetracted.Value(); got != st.BucketsRetracted {
		t.Errorf("lockstep_buckets_retracted_total = %d, want %d", got, st.BucketsRetracted)
	}
	if got := m.PairsPruned.Value(); got != st.PairsPruned {
		t.Errorf("lockstep_pairs_pruned_total = %d, want %d", got, st.PairsPruned)
	}

	plain := run(nil) // nil metrics: the off switch must be a no-op
	if got, want := len(d.Groups()), len(plain.Groups()); got != want {
		t.Errorf("metrics changed detection: %d groups vs %d", got, want)
	}
}
