// Package sim assembles and runs the synthetic incentivized-install world:
// a populated Play Store, the seven IIPs with their offer walls, the eight
// instrumented affiliate apps, per-IIP crowd-worker pools, the mediator and
// money ledger, a Crunchbase snapshot, and per-app APKs. The day engine
// executes organic activity and incentivized campaigns over the paper's
// March-June 2019 study window; every measured quantity downstream
// (crawls, offer datasets, chi-squared tables) derives from this world
// through the same pipeline the paper used.
package sim

import (
	"fmt"

	"repro/internal/dates"
	"repro/internal/iip"
	"repro/internal/scenario"
)

// Config parameterizes world generation. The defaults are calibrated to
// the marginal statistics the paper reports (Tables 3-8, Figures 4-6).
type Config struct {
	// Seed drives every random stream; identical seeds give identical
	// worlds and identical measurement results.
	Seed uint64

	// Window is the monitored period (paper: March-June 2019).
	Window dates.Range

	// BaselineApps is the size of the Lumen-derived baseline set (300).
	BaselineApps int
	// BackgroundApps are additional organic catalog apps that compete
	// for chart slots but are neither advertised nor in the baseline.
	BackgroundApps int

	// AppsPerIIP is the number of advertised apps observed per IIP
	// (Table 4's "Number of Apps" column). Apps may appear on several
	// IIPs; TotalAdvertised bounds the unique count (922 in the paper).
	AppsPerIIP      map[string]int
	TotalAdvertised int

	// OffersTarget is the total number of offers across all IIPs (2,126).
	OffersTarget int

	// NoActivityShare is each IIP's fraction of no-activity offers
	// (Table 4's "Offer Type" columns).
	NoActivityShare map[string]float64

	// PayoutScale multiplies the per-type base payout for each IIP,
	// reproducing the payout spread of Table 4.
	PayoutScale map[string]float64

	// MedianInstalls / MedianAgeDays calibrate advertised-app popularity
	// and age per IIP (Table 4).
	MedianInstalls map[string]int64
	MedianAgeDays  map[string]int

	// ArbitrageShareVetted / ArbitrageShareUnvetted are the fractions of
	// apps using arbitrage offers (7% vetted, 2% unvetted; Section 4.3.2).
	ArbitrageShareVetted   float64
	ArbitrageShareUnvetted float64

	// CrunchbaseMatch are the per-group probabilities that a developer is
	// present in the Crunchbase snapshot (39% vetted / 15% unvetted / 27%
	// baseline).
	CrunchbaseMatchVetted   float64
	CrunchbaseMatchUnvetted float64
	CrunchbaseMatchBaseline float64
	// FundedAfter are the per-group probabilities that a matched
	// developer raises a round after the campaign (Table 7).
	FundedAfterVetted   float64
	FundedAfterUnvetted float64
	FundedAfterBaseline float64

	// CampaignTargetMin/Max bound the per-offer purchased completions.
	CampaignTargetMinUnvetted, CampaignTargetMaxUnvetted int
	CampaignTargetMinVetted, CampaignTargetMaxVetted     int

	// MeanCampaignDays is the average campaign duration (paper: 25).
	MeanCampaignDays int

	// AdvertisedGrowthBoost is the organic-growth multiplier for
	// advertised apps: developers buying incentivized installs are in
	// active user-acquisition mode and typically run non-incentivized
	// marketing concurrently — the confounder the paper flags when noting
	// its correlations need not be causal.
	AdvertisedGrowthBoost float64

	// EnforcementSensitivity configures the store's install filter; the
	// default reproduces the weak enforcement of Section 5.2.
	EnforcementSensitivity float64

	// WorkerPoolSize is the number of crowd workers generated per IIP.
	WorkerPoolSize int

	// ChartSize is how many entries each top chart carries (Play shows a
	// few hundred; small test worlds shrink this so charts stay
	// competitive).
	ChartSize int

	// Obfuscation is the APK obfuscation probability for static analysis.
	Obfuscation float64

	// Workers bounds the day engine's worker pool. 0 (the default) uses
	// GOMAXPROCS. Results are identical for every setting — the engine's
	// random streams are owned per work unit, not per worker — so this is
	// purely a throughput knob.
	Workers int

	// Adversary selects the worker-pool behaviour of every campaign unit
	// (see internal/scenario). The zero value is the baseline strategy,
	// whose random-draw sequence is bit-identical to the pre-scenario
	// engine — DefaultConfig/TinyConfig/ScaleConfig worlds reproduce the
	// PR-1/PR-2 goldens unchanged.
	Adversary scenario.AdversarySpec

	// InstallLogWindow, when positive, bounds the install log's resident
	// tail at that many records: older records spill in the v3 run-log
	// format to a file under os.TempDir() (which honours $TMPDIR),
	// unlinked at creation so interrupted runs leak nothing. Peak memory
	// is O(window) instead of O(run) on massive worlds. The logical record
	// stream — lengths, hashes, checkpoint contents, detector input — is
	// identical either way. 0 (the default) keeps the whole log in RAM.
	InstallLogWindow int
}

// BasePayout is the per-type average user payout (Table 3).
var BasePayout = map[string]float64{
	"noactivity":   0.06,
	"usage":        0.50,
	"registration": 0.34,
	"purchase":     2.98,
}

// DefaultConfig returns the calibrated configuration reproducing the
// paper's dataset shape.
func DefaultConfig() Config {
	return Config{
		Seed:   20190301,
		Window: dates.Range{Start: dates.StudyStart, End: dates.StudyEnd},

		BaselineApps:   300,
		BackgroundApps: 600,

		AppsPerIIP: map[string]int{
			iip.RankApp:      152,
			iip.AyetStudios:  392,
			iip.Fyber:        378,
			iip.AdscendMedia: 104,
			iip.AdGem:        28,
			iip.HangMyAds:    27,
			iip.OfferToro:    140,
		},
		TotalAdvertised: 922,
		OffersTarget:    2126,

		NoActivityShare: map[string]float64{
			iip.RankApp:      1.00,
			iip.AyetStudios:  0.71,
			iip.Fyber:        0.24,
			iip.AdscendMedia: 0.09,
			iip.AdGem:        0.16,
			iip.HangMyAds:    0.23,
			iip.OfferToro:    0.52,
		},
		PayoutScale: map[string]float64{
			iip.RankApp:      0.33,
			iip.AyetStudios:  0.85,
			iip.Fyber:        0.55,
			iip.AdscendMedia: 0.40,
			iip.AdGem:        3.00,
			iip.HangMyAds:    1.10,
			iip.OfferToro:    0.30,
		},
		MedianInstalls: map[string]int64{
			iip.RankApp:      100,
			iip.AyetStudios:  1_000,
			iip.Fyber:        1_000_000,
			iip.AdscendMedia: 500_000,
			iip.AdGem:        500_000,
			iip.HangMyAds:    1_000_000,
			iip.OfferToro:    500_000,
		},
		MedianAgeDays: map[string]int{
			iip.RankApp:      33,
			iip.AyetStudios:  70,
			iip.Fyber:        777,
			iip.AdscendMedia: 722,
			iip.AdGem:        854,
			iip.HangMyAds:    699,
			iip.OfferToro:    557,
		},

		ArbitrageShareVetted:   0.07,
		ArbitrageShareUnvetted: 0.02,

		CrunchbaseMatchVetted:   0.39,
		CrunchbaseMatchUnvetted: 0.11,
		CrunchbaseMatchBaseline: 0.36,
		FundedAfterVetted:       0.19,
		FundedAfterUnvetted:     0.065,
		FundedAfterBaseline:     0.055,

		CampaignTargetMinUnvetted: 80,
		CampaignTargetMaxUnvetted: 600,
		CampaignTargetMinVetted:   150,
		CampaignTargetMaxVetted:   1200,

		MeanCampaignDays: 25,

		AdvertisedGrowthBoost: 1.45,

		EnforcementSensitivity: 0.4,

		WorkerPoolSize: 600,

		ChartSize: 200,

		Obfuscation: 0.1,
	}
}

// TinyConfig returns a shrunken world preserving the full structure:
// useful for fast tests and quickstart examples. The reproduction harness
// uses DefaultConfig.
func TinyConfig() Config {
	cfg := DefaultConfig()
	cfg.BaselineApps = 40
	cfg.BackgroundApps = 60
	cfg.AppsPerIIP = map[string]int{
		iip.RankApp:      15,
		iip.AyetStudios:  30,
		iip.Fyber:        30,
		iip.AdscendMedia: 10,
		iip.AdGem:        4,
		iip.HangMyAds:    4,
		iip.OfferToro:    12,
	}
	cfg.TotalAdvertised = 80
	cfg.OffersTarget = 180
	cfg.WorkerPoolSize = 120
	cfg.ChartSize = 18
	cfg.Window.End = cfg.Window.Start.AddDays(40)
	return cfg
}

// ScaleConfig returns a world roughly 20x TinyConfig: a catalog in the
// thousands with the full advertised population and offer census of the
// paper. It exists to exercise the parallel day engine at a size where
// single-core replay is visibly the bottleneck; BenchmarkSimRunScale runs
// it at 1 worker and at GOMAXPROCS to measure the speedup.
func ScaleConfig() Config {
	cfg := DefaultConfig()
	cfg.BaselineApps = 600
	cfg.BackgroundApps = 2200
	cfg.ChartSize = 200
	cfg.WorkerPoolSize = 400
	cfg.Window.End = cfg.Window.Start.AddDays(60)
	return cfg
}

// MassiveConfig returns an order-of-magnitude scale-up: a catalog around
// one hundred thousand apps and worker pools totalling about a million
// devices across the seven IIPs. It exists to exercise the SoA store
// columns and the spill-to-disk install log at the sizes they were built
// for; the -massive-gated benchmarks run it. The structural knobs
// (shares, payouts, medians) stay at the paper's calibration — only the
// population scales.
func MassiveConfig() Config {
	cfg := DefaultConfig()
	cfg.BaselineApps = 6_000
	cfg.BackgroundApps = 90_000
	cfg.AppsPerIIP = map[string]int{
		iip.RankApp:      600,
		iip.AyetStudios:  1_550,
		iip.Fyber:        1_500,
		iip.AdscendMedia: 420,
		iip.AdGem:        110,
		iip.HangMyAds:    110,
		iip.OfferToro:    560,
	}
	cfg.TotalAdvertised = 3_700
	cfg.OffersTarget = 8_500
	cfg.WorkerPoolSize = 143_000 // ×7 IIPs ≈ 1.0M devices
	cfg.ChartSize = 200
	// The window stays the paper's full March-June monitoring period
	// (121 days, inherited from DefaultConfig): at this scale the run's
	// O(run) terms are exactly what the bounded-memory model below
	// exists for, so truncating the window would hide the point.
	//
	// Bound the resident install log: the full run's stream is far larger
	// than RAM should hold, so spill everything past the last ~1M records.
	cfg.InstallLogWindow = 1 << 20
	return cfg
}

// Resize applies the free world-size parameters (0 = keep the base
// value): apps is the total catalog size (background + baseline +
// advertised — the baseline and advertised populations keep their
// calibrated counts and the background catalog absorbs the difference),
// devices is the total crowd-worker device count across the seven IIP
// pools, and days is the monitored window length. It validates that the
// requested sizes are realizable before mutating anything.
func (c *Config) Resize(apps, devices, days int) error {
	background := c.BackgroundApps
	if apps > 0 {
		reserved := c.BaselineApps + c.TotalAdvertised
		background = apps - reserved
		if background < 1 {
			return fmt.Errorf("sim: -apps %d leaves no background catalog (baseline %d + advertised %d apps are reserved)",
				apps, c.BaselineApps, c.TotalAdvertised)
		}
	}
	pool := c.WorkerPoolSize
	if devices > 0 {
		nIIPs := len(iip.StandardNames)
		if devices < nIIPs {
			return fmt.Errorf("sim: -devices %d is fewer than the %d IIP pools", devices, nIIPs)
		}
		pool = (devices + nIIPs - 1) / nIIPs
	}
	if days < 0 || (days == 0 && c.Window.Days() < 1) {
		return fmt.Errorf("sim: window must be at least one day")
	}
	c.BackgroundApps = background
	c.WorkerPoolSize = pool
	if days > 0 {
		c.Window.End = c.Window.Start.AddDays(days - 1)
	}
	return nil
}

// VettedIIPs and UnvettedIIPs partition the studied platforms.
var (
	VettedIIPs   = []string{iip.Fyber, iip.OfferToro, iip.AdscendMedia, iip.HangMyAds, iip.AdGem}
	UnvettedIIPs = []string{iip.AyetStudios, iip.RankApp}
)

// IsVetted reports whether the named IIP is a vetted platform.
func IsVetted(name string) bool {
	for _, v := range VettedIIPs {
		if v == name {
			return true
		}
	}
	return false
}
