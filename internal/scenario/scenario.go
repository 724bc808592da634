// Package scenario is the declarative layer over world construction: a
// JSON-round-trippable Spec couples a world shape (which base config, how
// big, which seed) with a per-campaign adversary strategy and the
// detector knobs used to evaluate it. The paper observed exactly one
// world — the March–June 2019 ecosystem — and its Section 5.2 open
// question is whether install-time lockstep detection survives
// adversaries that adapt; the registry's named scenarios make that
// question executable: `paper-baseline` reproduces the observed world
// bit-for-bit, and each adversarial variant perturbs one axis of worker
// or campaign behaviour while preserving the engine's determinism
// contract (every strategy draws only from streams its own work unit
// owns, so results stay bit-identical across worker counts).
//
// The package deliberately does not import internal/sim: sim consumes
// scenario (Config carries an AdversarySpec, the engine instantiates one
// Strategy per campaign unit), and sim.ConfigForSpec materializes a Spec
// into a runnable config.
package scenario

import (
	"encoding/json"
	"fmt"

	"repro/internal/lockstep"
)

// Base world names a Spec may reference. sim.ConfigForSpec maps them to
// TinyConfig / DefaultConfig / ScaleConfig / MassiveConfig.
const (
	BaseTiny    = "tiny"
	BaseDefault = "default"
	BaseScale   = "scale"
	BaseMassive = "massive"
)

// Spec is one fully described scenario. The zero value of every field
// means "inherit the base": a Spec{Name: "x"} is the paper's world.
//
// Spec is JSON-round-trippable with a canonical encoding: marshal →
// unmarshal → marshal is byte-identical (asserted by a fuzz test), so
// specs can live in files, flags, and reports without drift.
type Spec struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`

	World     WorldSpec     `json:"world"`
	Adversary AdversarySpec `json:"adversary"`
	Detector  DetectorSpec  `json:"detector"`
}

// WorldSpec overrides the base config's world shape. Zero fields inherit
// the base value.
type WorldSpec struct {
	// Base selects the starting config: tiny, default, or scale
	// ("" = tiny, the test-sized world).
	Base string `json:"base,omitempty"`
	// Seed overrides the base seed (0 = keep).
	Seed uint64 `json:"seed,omitempty"`
	// WindowDays shortens or lengthens the monitored window.
	WindowDays int `json:"window_days,omitempty"`
	// BaselineApps / BackgroundApps / WorkerPoolSize / ChartSize override
	// the corresponding Config fields.
	BaselineApps   int `json:"baseline_apps,omitempty"`
	BackgroundApps int `json:"background_apps,omitempty"`
	WorkerPoolSize int `json:"worker_pool_size,omitempty"`
	ChartSize      int `json:"chart_size,omitempty"`
	// Apps / Devices are the free world-size parameters (sim's
	// Config.Resize): the total catalog size and the total crowd-worker
	// device count across all IIP pools. They apply after the per-field
	// overrides above, so a spec may pin the baseline count and still
	// size the whole catalog with Apps.
	Apps    int `json:"apps,omitempty"`
	Devices int `json:"devices,omitempty"`
}

// Adversary strategy kinds. The empty kind is the baseline.
const (
	KindBaseline     = "baseline"
	KindJitter       = "jitter"
	KindSybilSplit   = "sybil-split"
	KindDeviceChurn  = "device-churn"
	KindSlowDrip     = "slow-drip"
	KindBurst        = "burst"
	KindOrganicMimic = "organic-mimic"
)

// AdversarySpec selects and parameterizes the worker-pool behaviour of
// every campaign unit. Zero parameter values take the kind's default.
type AdversarySpec struct {
	// Kind names the strategy ("" = baseline, the paper's observed
	// behaviour).
	Kind string `json:"kind,omitempty"`

	// JitterMaxDays (jitter): each claimed completion is installed after
	// a uniform 0..N day personal delay, smearing a campaign's installs
	// across day buckets.
	JitterMaxDays int `json:"jitter_max_days,omitempty"`

	// SybilGroups / SybilRotateDays (sybil-split): each campaign draws
	// its workers from one of SybilGroups reshuffled pool slices,
	// rotating slice every SybilRotateDays, so a given device pair
	// co-works on few campaigns.
	SybilGroups     int `json:"sybil_groups,omitempty"`
	SybilRotateDays int `json:"sybil_rotate_days,omitempty"`

	// ChurnEveryDays (device-churn): the device identity a worker
	// presents to the store rotates every N days, so no single identity
	// accumulates enough synchronized installs to link.
	ChurnEveryDays int `json:"churn_every_days,omitempty"`

	// DripFactor (slow-drip): daily demand is scaled down by this factor
	// (< 1), stretching delivery thin across the window.
	DripFactor float64 `json:"drip_factor,omitempty"`

	// BurstEveryDays (burst): demand accumulates silently and is
	// delivered in one burst every N days (staggered per campaign), the
	// opposite pacing extreme.
	BurstEveryDays int `json:"burst_every_days,omitempty"`

	// MimicReturnProb / MimicDecay (organic-mimic): workers fake
	// retention — each delivery day the unit also records sessions from a
	// decaying cohort of "returning" past installers, making purchased
	// engagement look organic.
	MimicReturnProb float64 `json:"mimic_return_prob,omitempty"`
	MimicDecay      float64 `json:"mimic_decay,omitempty"`
}

// DetectorSpec overrides the lockstep detector configuration used to
// evaluate the scenario. Zero fields take lockstep.DefaultConfig values.
type DetectorSpec struct {
	DayBucket           int `json:"day_bucket,omitempty"`
	MinCommonApps       int `json:"min_common_apps,omitempty"`
	MinGroupSize        int `json:"min_group_size,omitempty"`
	MaxBucketPopulation int `json:"max_bucket_population,omitempty"`
}

// Config materializes the detector knobs over the defaults.
func (d DetectorSpec) Config() lockstep.Config {
	cfg := lockstep.DefaultConfig()
	if d.DayBucket > 0 {
		cfg.DayBucket = d.DayBucket
	}
	if d.MinCommonApps > 0 {
		cfg.MinCommonApps = d.MinCommonApps
	}
	if d.MinGroupSize > 0 {
		cfg.MinGroupSize = d.MinGroupSize
	}
	if d.MaxBucketPopulation > 0 {
		cfg.MaxBucketPopulation = d.MaxBucketPopulation
	}
	return cfg
}

// Validate checks the spec is materializable: a known base, a known
// adversary kind, and non-negative knobs.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: spec has no name")
	}
	switch s.World.Base {
	case "", BaseTiny, BaseDefault, BaseScale, BaseMassive:
	default:
		return fmt.Errorf("scenario %s: unknown base world %q", s.Name, s.World.Base)
	}
	if _, err := NewStrategy(s.Adversary, 0, "validate"); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	for _, v := range []int{s.Detector.DayBucket, s.Detector.MinCommonApps,
		s.Detector.MinGroupSize, s.Detector.MaxBucketPopulation,
		s.World.WindowDays, s.World.BaselineApps, s.World.BackgroundApps,
		s.World.WorkerPoolSize, s.World.ChartSize,
		s.World.Apps, s.World.Devices} {
		if v < 0 {
			return fmt.Errorf("scenario %s: negative knob", s.Name)
		}
	}
	return nil
}

// Encode renders the spec in its canonical JSON form.
func (s Spec) Encode() ([]byte, error) {
	return json.Marshal(s)
}

// Decode parses a spec from JSON.
func Decode(data []byte) (Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return Spec{}, fmt.Errorf("scenario: decoding spec: %w", err)
	}
	return s, nil
}
