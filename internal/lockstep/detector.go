package lockstep

import (
	"sort"

	"repro/internal/dates"
)

// Detector is the incremental form of Detect: events stream in one at a
// time (the run-log tail feeds it day by day) and Groups can be asked for
// at any point, reporting the lockstep clusters formed so far.
//
// Device and app strings are interned to dense int32 ids on first sight,
// so the co-occurrence state — the (app, bucket) incidence cells and the
// pairwise shared-app counts — lives in integer-keyed maps with no string
// hashing or per-pair string storage. Incidence updates are O(cell
// population) per event; cells that outgrow MaxBucketPopulation retract
// their pair contributions exactly once and go dead, so a viral organic
// app degrades to O(1) per event instead of linking the population.
//
// A Detector is not safe for concurrent use.
type Detector struct {
	cfg Config

	devID   map[string]int32
	devName []string
	appID   map[string]int32
	appName []string

	// seen[dev] is the installed-app set for dedup (one install per
	// (device, app) counts, as in the batch detector).
	seen []map[int32]struct{}

	// cells maps (app, bucket) to its device list; dead cells crossed the
	// population cap and contribute no pairs.
	cells map[uint64]*cellState

	// pairs maps a packed device pair to its shared synchronized apps,
	// refcounted by the number of live cells linking the pair through that
	// app (retraction on cell death needs the count; set cardinality is
	// what the threshold reads).
	pairs map[uint64]map[int32]int32

	// Accounting surfaced through Stats; metrics, when attached, mirrors
	// the increments into obs counters (observation only).
	bucketsRetracted int64
	pairsPruned      int64
	metrics          *Metrics
}

type cellState struct {
	devs []int32
	// pop counts every non-duplicate arrival, dead or alive — the basis
	// for the population cap and for pricing the signal a dead cell
	// discards.
	pop  int
	dead bool
}

// NewDetector returns an empty incremental detector. Config fields are
// normalized exactly as Detect normalizes them.
func NewDetector(cfg Config) *Detector {
	if cfg.DayBucket < 1 {
		cfg.DayBucket = 1
	}
	if cfg.MinCommonApps < 1 {
		cfg.MinCommonApps = 1
	}
	if cfg.MinGroupSize < 2 {
		cfg.MinGroupSize = 2
	}
	return &Detector{
		cfg:   cfg,
		devID: map[string]int32{},
		appID: map[string]int32{},
		cells: map[uint64]*cellState{},
		pairs: map[uint64]map[int32]int32{},
	}
}

// Stats returns the detector's internal accounting so far.
func (d *Detector) Stats() Stats {
	return Stats{
		BucketsRetracted: d.bucketsRetracted,
		PairsPruned:      d.pairsPruned,
	}
}

// Grow pre-sizes the intern tables and incidence map for an expected
// event count, saving rehash churn on bulk ingests.
func (d *Detector) Grow(events int) {
	if events <= 0 || len(d.devID) > 0 {
		return
	}
	devs := events/4 + 1
	d.devID = make(map[string]int32, devs)
	d.devName = make([]string, 0, devs)
	d.seen = make([]map[int32]struct{}, 0, devs)
	d.appID = make(map[string]int32, events/16+1)
	d.cells = make(map[uint64]*cellState, events/2+1)
	d.pairs = make(map[uint64]map[int32]int32, events)
}

// Events returns how many non-duplicate installs have been ingested.
func (d *Detector) Events() int {
	n := 0
	for _, apps := range d.seen {
		n += len(apps)
	}
	return n
}

func (d *Detector) internDev(name string) int32 {
	if id, ok := d.devID[name]; ok {
		return id
	}
	id := int32(len(d.devName))
	d.devID[name] = id
	d.devName = append(d.devName, name)
	d.seen = append(d.seen, nil)
	return id
}

func (d *Detector) internApp(name string) int32 {
	if id, ok := d.appID[name]; ok {
		return id
	}
	id := int32(len(d.appName))
	d.appID[name] = id
	d.appName = append(d.appName, name)
	return id
}

func cellKey(app int32, bucket int) uint64 {
	return uint64(uint32(app))<<32 | uint64(uint32(bucket))
}

func pairKey(a, b int32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

func (d *Detector) link(a, b, app int32) {
	pk := pairKey(a, b)
	m := d.pairs[pk]
	if m == nil {
		m = make(map[int32]int32, 4)
		d.pairs[pk] = m
	}
	m[app]++
}

func (d *Detector) unlink(a, b, app int32) {
	pk := pairKey(a, b)
	m := d.pairs[pk]
	if m == nil {
		return
	}
	if m[app]--; m[app] <= 0 {
		delete(m, app)
		if len(m) == 0 {
			delete(d.pairs, pk)
		}
	}
}

// Ingest feeds one install observation. Duplicate (device, app) pairs are
// ignored regardless of day, matching the batch detector.
func (d *Detector) Ingest(device, app string, day dates.Date) {
	di := d.internDev(device)
	ai := d.internApp(app)
	apps := d.seen[di]
	if apps == nil {
		apps = make(map[int32]struct{}, 8)
		d.seen[di] = apps
	}
	if _, dup := apps[ai]; dup {
		return
	}
	apps[ai] = struct{}{}

	key := cellKey(ai, int(day)/d.cfg.DayBucket)
	c := d.cells[key]
	if c == nil {
		c = &cellState{}
		d.cells[key] = c
	}
	c.pop++
	if c.dead {
		// Every prior arrival is a device this one silently fails to
		// link with — priced so the cap's signal loss is attributable.
		d.pairsPruned += int64(c.pop - 1)
		d.metrics.addPruned(int64(c.pop - 1))
		return
	}
	if max := d.cfg.MaxBucketPopulation; max > 0 && c.pop > max {
		// The cell just outgrew the cap: a hugely popular bucket must not
		// link devices (the CopyCatch-style guard), so retract every pair
		// this cell contributed and stop tracking it.
		for i := 0; i < len(c.devs); i++ {
			for j := i + 1; j < len(c.devs); j++ {
				d.unlink(c.devs[i], c.devs[j], ai)
			}
		}
		c.dead = true
		c.devs = nil
		d.bucketsRetracted++
		// The max resident pairs undone plus the max links the arrival
		// that crossed the cap never formed: pop*(pop-1)/2 with pop=max+1.
		pruned := int64(c.pop) * int64(c.pop-1) / 2
		d.pairsPruned += pruned
		d.metrics.addRetraction(pruned)
		return
	}
	for _, other := range c.devs {
		d.link(di, other, ai)
	}
	c.devs = append(c.devs, di)
}

// IngestEvent feeds one Event.
func (d *Detector) IngestEvent(ev Event) { d.Ingest(ev.Device, ev.App, ev.Day) }

// Groups extracts the current lockstep clusters: union-find over device
// pairs sharing at least MinCommonApps synchronized apps, groups of at
// least MinGroupSize, everything sorted deterministically. It can be
// called repeatedly as events stream in; each call runs in the size of
// the qualifying pair set, not the full event history. Set union is
// commutative, so the forest and each root's app set do not depend on
// the pairs map's iteration order.
func (d *Detector) Groups() []Group {
	uf := newUnionFind(len(d.devName))
	linkApps := map[int32]map[int32]struct{}{}
	for pk, apps := range d.pairs {
		if len(apps) < d.cfg.MinCommonApps {
			continue
		}
		a, b := int32(pk>>32), int32(uint32(pk))
		ra, rb := uf.find(a), uf.find(b)
		merged := linkApps[ra]
		if merged == nil {
			merged = make(map[int32]struct{}, len(apps))
		}
		for app := range apps {
			merged[app] = struct{}{}
		}
		if rb != ra {
			for app := range linkApps[rb] {
				merged[app] = struct{}{}
			}
		}
		root := uf.union(a, b)
		delete(linkApps, ra)
		delete(linkApps, rb)
		linkApps[root] = merged
	}

	members := map[int32][]int32{}
	for di := range d.devName {
		if !uf.linked(int32(di)) {
			continue
		}
		root := uf.find(int32(di))
		members[root] = append(members[root], int32(di))
	}
	out := make([]Group, 0, len(members))
	for root, devs := range members {
		if len(devs) < d.cfg.MinGroupSize {
			continue
		}
		names := make([]string, len(devs))
		for i, di := range devs {
			names[i] = d.devName[di]
		}
		sort.Strings(names)
		apps := make([]string, 0, len(linkApps[root]))
		for app := range linkApps[root] {
			apps = append(apps, d.appName[app])
		}
		sort.Strings(apps)
		out = append(out, Group{Devices: names, Apps: apps})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Devices[0] < out[j].Devices[0] })
	return out
}

// unionFind is a dense-index disjoint-set forest with path halving,
// tracking which elements ever participated in a union (only those belong
// to groups).
type unionFind struct {
	parent []int32
	was    []bool
}

func newUnionFind(n int) *unionFind {
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	return &unionFind{parent: parent, was: make([]bool, n)}
}

func (u *unionFind) find(x int32) int32 {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

// union links a and b (marking both as participants) and returns the root.
func (u *unionFind) union(a, b int32) int32 {
	u.was[a], u.was[b] = true, true
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return ra
	}
	// Deterministic: the smaller index becomes the root. (Group output is
	// re-sorted by name anyway; this just keeps intermediate state stable.)
	if rb < ra {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	return ra
}

// linked reports whether x ever participated in a union.
func (u *unionFind) linked(x int32) bool { return u.was[x] }
