package lockstep

import "repro/internal/obs"

// Metrics is the detector's observability hook: counters for the signal
// the MaxBucketPopulation cap discards. Like the run-log writer's metrics,
// it is attached after construction and incremented inline at the
// retraction sites — pure observation, never consulted by the detection path, so an attached
// registry cannot perturb the deterministic results.
type Metrics struct {
	// BucketsRetracted counts (app, day-bucket) cells that crossed the
	// population cap and retracted their pair contributions.
	BucketsRetracted *obs.Counter
	// PairsPruned counts the device pairs the cap kept (or undid) —
	// resident pairs retracted at cell death plus the links arrivals to a
	// dead cell never formed.
	PairsPruned *obs.Counter
}

// NewMetrics registers the lockstep detector metrics in reg (nil reg
// returns nil, which the detector treats as "off").
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		BucketsRetracted: reg.Counter("lockstep_buckets_retracted_total", "detector cells retracted at the bucket-population cap"),
		PairsPruned:      reg.Counter("lockstep_pairs_pruned_total", "device pairs the bucket-population cap retracted or never formed"),
	}
}

// SetMetrics attaches m (nil detaches). Safe to call at any point in the
// stream; counters record increments from attachment onward.
func (d *Detector) SetMetrics(m *Metrics) { d.metrics = m }

func (m *Metrics) addRetraction(pruned int64) {
	if m == nil {
		return
	}
	m.BucketsRetracted.Inc()
	m.PairsPruned.Add(pruned)
}

func (m *Metrics) addPruned(n int64) {
	if m == nil {
		return
	}
	m.PairsPruned.Add(n)
}
