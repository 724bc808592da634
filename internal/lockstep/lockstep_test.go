package lockstep

import (
	"fmt"
	"testing"

	"repro/internal/dates"
	"repro/internal/randx"
)

// synth builds a labeled event stream: a crowd of workers completing the
// same advertised campaigns in lockstep, plus organic users installing
// random apps.
func synth(r *randx.Rand, workers, organics, advertisedApps, catalogApps int) ([]Event, map[string]bool) {
	var events []Event
	truth := map[string]bool{}

	// Workers: each completes most advertised campaigns near its launch
	// day.
	for w := 0; w < workers; w++ {
		dev := fmt.Sprintf("worker-%03d", w)
		truth[dev] = true
		for a := 0; a < advertisedApps; a++ {
			if !r.Bool(0.8) {
				continue
			}
			launch := dates.Date(a * 7)
			events = append(events, Event{
				Device: dev,
				App:    fmt.Sprintf("adv.app.%03d", a),
				Day:    launch.AddDays(r.IntN(2)),
			})
		}
	}
	// Organic users: random catalog apps on random days.
	for o := 0; o < organics; o++ {
		dev := fmt.Sprintf("organic-%03d", o)
		n := r.IntBetween(3, 10)
		for i := 0; i < n; i++ {
			events = append(events, Event{
				Device: dev,
				App:    fmt.Sprintf("cat.app.%03d", r.IntN(catalogApps)),
				Day:    dates.Date(r.IntN(120)),
			})
		}
	}
	return events, truth
}

func TestDetectFindsWorkerRing(t *testing.T) {
	r := randx.New(42)
	events, truth := synth(r, 30, 200, 12, 500)
	groups := Detect(events, DefaultConfig())
	if len(groups) == 0 {
		t.Fatal("no lockstep groups found")
	}
	eval := Evaluate(groups, truth)
	if eval.Precision < 0.95 {
		t.Errorf("precision = %.3f, want >= 0.95 (%s)", eval.Precision, eval)
	}
	if eval.Recall < 0.9 {
		t.Errorf("recall = %.3f, want >= 0.9 (%s)", eval.Recall, eval)
	}
}

func TestDetectNoFalsePositivesOnOrganicOnly(t *testing.T) {
	r := randx.New(7)
	events, _ := synth(r, 0, 300, 0, 800)
	groups := Detect(events, DefaultConfig())
	flagged := 0
	for _, g := range groups {
		flagged += len(g.Devices)
	}
	if flagged > 6 { // tolerate a couple of coincidental collisions
		t.Errorf("flagged %d organic devices", flagged)
	}
}

func TestDetectDeduplicatesReinstalls(t *testing.T) {
	events := []Event{
		{Device: "a", App: "x", Day: 1},
		{Device: "a", App: "x", Day: 1}, // duplicate
		{Device: "b", App: "x", Day: 1},
		{Device: "c", App: "x", Day: 1},
	}
	cfg := Config{DayBucket: 2, MinCommonApps: 1, MinGroupSize: 3}
	groups := Detect(events, cfg)
	if len(groups) != 1 || len(groups[0].Devices) != 3 {
		t.Fatalf("groups = %+v", groups)
	}
	if len(groups[0].Apps) != 1 || groups[0].Apps[0] != "x" {
		t.Errorf("linking apps = %v", groups[0].Apps)
	}
}

func TestDetectRespectsMinCommonApps(t *testing.T) {
	// Devices share only 2 synchronized apps; threshold 3 keeps them
	// apart.
	var events []Event
	for _, dev := range []string{"a", "b", "c"} {
		events = append(events,
			Event{Device: dev, App: "x", Day: 0},
			Event{Device: dev, App: "y", Day: 0},
		)
	}
	cfg := Config{DayBucket: 2, MinCommonApps: 3, MinGroupSize: 2}
	if groups := Detect(events, cfg); len(groups) != 0 {
		t.Errorf("expected no groups, got %+v", groups)
	}
	cfg.MinCommonApps = 2
	if groups := Detect(events, cfg); len(groups) != 1 {
		t.Errorf("expected one group at threshold 2, got %+v", groups)
	}
}

func TestDetectTemporalSeparation(t *testing.T) {
	// Same apps installed months apart are not lockstep.
	var events []Event
	for i, dev := range []string{"a", "b", "c"} {
		for _, app := range []string{"x", "y", "z"} {
			events = append(events, Event{Device: dev, App: app, Day: dates.Date(i * 40)})
		}
	}
	cfg := Config{DayBucket: 2, MinCommonApps: 3, MinGroupSize: 2}
	if groups := Detect(events, cfg); len(groups) != 0 {
		t.Errorf("temporally separated installs grouped: %+v", groups)
	}
}

func TestDetectPopularAppGuard(t *testing.T) {
	// A viral organic app installed by everyone on launch day must not
	// link the whole population.
	var events []Event
	for i := 0; i < 100; i++ {
		dev := fmt.Sprintf("dev-%03d", i)
		for _, app := range []string{"viral.one", "viral.two", "viral.three"} {
			events = append(events, Event{Device: dev, App: app, Day: 0})
		}
	}
	cfg := Config{DayBucket: 2, MinCommonApps: 3, MinGroupSize: 3, MaxBucketPopulation: 50}
	if groups := Detect(events, cfg); len(groups) != 0 {
		t.Errorf("viral apps linked the population: %d groups", len(groups))
	}
}

func TestDetectDeterministic(t *testing.T) {
	r1 := randx.New(3)
	e1, _ := synth(r1, 10, 50, 5, 100)
	r2 := randx.New(3)
	e2, _ := synth(r2, 10, 50, 5, 100)
	g1 := Detect(e1, DefaultConfig())
	g2 := Detect(e2, DefaultConfig())
	if len(g1) != len(g2) {
		t.Fatal("nondeterministic group count")
	}
	for i := range g1 {
		if len(g1[i].Devices) != len(g2[i].Devices) {
			t.Fatal("nondeterministic group sizes")
		}
		for j := range g1[i].Devices {
			if g1[i].Devices[j] != g2[i].Devices[j] {
				t.Fatal("nondeterministic membership")
			}
		}
	}
}

func TestEvaluateEdgeCases(t *testing.T) {
	e := Evaluate(nil, map[string]bool{"w": true})
	if e.Recall != 0 || e.Precision != 0 || e.FalseNegatives != 1 {
		t.Errorf("empty detection eval wrong: %+v", e)
	}
	e = Evaluate([]Group{{Devices: []string{"w"}}}, map[string]bool{"w": true})
	if e.Precision != 1 || e.Recall != 1 {
		t.Errorf("perfect detection eval wrong: %+v", e)
	}
}

func TestUnionFind(t *testing.T) {
	uf := newUnionFind(5)
	uf.union(1, 0)
	uf.union(2, 1)
	if uf.find(2) != uf.find(0) {
		t.Error("transitive union failed")
	}
	if uf.find(0) != 0 {
		t.Errorf("root should be the smallest index, got %d", uf.find(0))
	}
	if uf.linked(4) {
		t.Error("linked() on an element that never joined a union")
	}
}

// TestDetectorMatchesBatch feeds the same synthetic stream through the
// incremental detector (several ingest orders, mid-stream Groups calls)
// and the batch facade over the identical order; results must match —
// including the MaxBucketPopulation retraction path. Batch and
// incremental share first-occurrence-wins (device, app) dedup, which is
// order-SENSITIVE when a device reinstalls an app in a different day
// bucket, so each trial compares both detectors over the same shuffle
// rather than against one canonical order.
func TestDetectorMatchesBatch(t *testing.T) {
	r := randx.New(99)
	events, _ := synth(r, 25, 150, 10, 60) // small catalog: some buckets cross the cap
	cfg := DefaultConfig()
	cfg.MaxBucketPopulation = 20
	if len(Detect(events, cfg)) == 0 {
		t.Fatal("batch detector found nothing; fixture too weak")
	}

	for trial := 0; trial < 3; trial++ {
		shuffled := make([]Event, len(events))
		for i, p := range r.Perm(len(events)) {
			shuffled[i] = events[p]
		}
		want := Detect(shuffled, cfg)
		d := NewDetector(cfg)
		for i, ev := range shuffled {
			d.IngestEvent(ev)
			if i == len(shuffled)/2 {
				d.Groups() // mid-stream query must not perturb state
			}
		}
		got := d.Groups()
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d groups, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if len(got[i].Devices) != len(want[i].Devices) || len(got[i].Apps) != len(want[i].Apps) {
				t.Fatalf("trial %d: group %d shape differs: %+v vs %+v", trial, i, got[i], want[i])
			}
			for j := range want[i].Devices {
				if got[i].Devices[j] != want[i].Devices[j] {
					t.Fatalf("trial %d: group %d member %d differs", trial, i, j)
				}
			}
			for j := range want[i].Apps {
				if got[i].Apps[j] != want[i].Apps[j] {
					t.Fatalf("trial %d: group %d app %d differs", trial, i, j)
				}
			}
		}
	}
}

// TestDetectorIncrementalGrowth: groups appear as soon as the linking
// evidence arrives, the online property the run-log tail consumer relies
// on.
func TestDetectorIncrementalGrowth(t *testing.T) {
	cfg := Config{DayBucket: 2, MinCommonApps: 2, MinGroupSize: 2}
	d := NewDetector(cfg)
	d.Ingest("a", "x", 0)
	d.Ingest("b", "x", 1)
	if got := d.Groups(); len(got) != 0 {
		t.Fatalf("one shared app must not group yet: %+v", got)
	}
	d.Ingest("a", "y", 4)
	d.Ingest("b", "y", 4)
	got := d.Groups()
	if len(got) != 1 || len(got[0].Devices) != 2 {
		t.Fatalf("second shared app must form the group: %+v", got)
	}
	if d.Events() != 4 {
		t.Errorf("Events() = %d, want 4", d.Events())
	}
}

// TestRetractionCounters drives one cell over the population cap and
// checks the previously-silent signal loss is priced: one retracted
// bucket, max*(max+1)/2 pairs undone at death, and one more pruned link
// per post-death arrival.
func TestRetractionCounters(t *testing.T) {
	t.Run("exact", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.MaxBucketPopulation = 4
		d := NewDetector(cfg)
		for i := 0; i < 7; i++ {
			d.Ingest(fmt.Sprintf("dev-%d", i), "viral.app", dates.Date(0))
		}
		st := d.Stats()
		if st.BucketsRetracted != 1 {
			t.Errorf("buckets retracted = %d, want 1", st.BucketsRetracted)
		}
		// Death at arrival 5: C(5,2) = 10 links lost; arrivals 6 and 7
		// would have linked to 5 and 6 prior residents.
		if want := int64(10 + 5 + 6); st.PairsPruned != want {
			t.Errorf("pairs pruned = %d, want %d", st.PairsPruned, want)
		}
	})
}
