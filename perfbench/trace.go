package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one timed interval of a traced operation: either recorded by
// the benchmark around a call into a package's public functions, or
// imported from the program's own obs.Tracer. A span's layer is its name
// up to the first dot.
type span struct {
	id     int
	parent int // 0 = none
	name   string
	op     int // traced operation the span belongs to; spans of one op share it
	lane   int // goroutine the span ran on; nesting is inferred per lane
	start  time.Time
	end    time.Time
}

func (s *span) layer() string {
	l, _, _ := strings.Cut(s.name, ".")
	return l
}

// spanLog keeps every span of a traced run in memory until exit.
type spanLog struct {
	mu    sync.Mutex
	spans []span
	ops   int
}

// newOp opens the next traced operation and returns its id.
func (l *spanLog) newOp() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ops++
	return l.ops
}

// add records a finished span and returns its id.
func (l *spanLog) add(op, lane int, name string, start, end time.Time) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{id: id, name: name, op: op, lane: lane, start: start, end: end})
	return id
}

// timed runs fn inside a span.
func (l *spanLog) timed(op, lane int, name string, fn func() error) (time.Duration, error) {
	t0 := time.Now()
	err := fn()
	t1 := time.Now()
	l.add(op, lane, name, t0, t1)
	return t1.Sub(t0), err
}

// obsNames maps the day engine's obs.Tracer phase names onto layer-
// qualified span names.
var obsNames = map[string]string{
	"day":           "sim.day",
	"organic":       "sim.organic",
	"campaign":      "sim.campaign",
	"log-emit":      "sim.log_emit",
	"step-day":      "sim.step_day",
	"barrier-flush": "sim.barrier",
	"checkpoint":    "sim.checkpoint",
}

// importObs copies the engine's per-day phase spans into op. The engine
// runs the day hook after the step-day (and, with a log, barrier) phase
// and before any checkpoint, so that gap of each day becomes a hook.day
// span: with the study's hook it is the crawl and milk passes.
func (l *spanLog) importObs(op, lane int, tr *obs.Tracer) {
	type dayMarks struct {
		day, ckpt       obs.Span
		phasesEnd       time.Time
		hasDay, hasCkpt bool
	}
	days := map[string]*dayMarks{}
	var order []string
	for _, s := range tr.Spans() {
		name, ok := obsNames[s.Name]
		if !ok {
			continue
		}
		end := s.Start.Add(s.Dur)
		l.add(op, lane, name, s.Start, end)
		d := days[s.Label]
		if d == nil {
			d = &dayMarks{}
			days[s.Label] = d
			order = append(order, s.Label)
		}
		switch s.Name {
		case "day":
			d.day, d.hasDay = s, true
		case "checkpoint":
			d.ckpt, d.hasCkpt = s, true
		default:
			if end.After(d.phasesEnd) {
				d.phasesEnd = end
			}
		}
	}
	for _, label := range order {
		d := days[label]
		if !d.hasDay || d.phasesEnd.IsZero() {
			continue
		}
		hookEnd := d.day.Start.Add(d.day.Dur)
		if d.hasCkpt {
			hookEnd = d.ckpt.Start
		}
		if hookEnd.After(d.phasesEnd) {
			l.add(op, lane, "hook.day", d.phasesEnd, hookEnd)
		}
	}
}

// nest assigns every span of op without a parent the smallest span of its
// lane that contains it; top-level spans of other lanes hang off root.
func (l *spanLog) nest(op, root int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	byLane := map[int][]*span{}
	for i := range l.spans {
		if s := &l.spans[i]; s.op == op && s.id != root {
			byLane[s.lane] = append(byLane[s.lane], s)
		}
	}
	for _, ss := range byLane {
		slices.SortStableFunc(ss, func(a, b *span) int {
			if c := a.start.Compare(b.start); c != 0 {
				return c
			}
			return b.end.Compare(a.end) // the longer span encloses
		})
		var stack []*span
		for _, s := range ss {
			for len(stack) > 0 && stack[len(stack)-1].end.Before(s.end) {
				stack = stack[:len(stack)-1]
			}
			if s.parent == 0 {
				s.parent = root
				if len(stack) > 0 {
					s.parent = stack[len(stack)-1].id
				}
			}
			stack = append(stack, s)
		}
	}
}

// selfByLayer sums, per layer, each span's duration minus the part of it
// its children cover.
func (l *spanLog) selfByLayer(op int) map[string]float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	children := map[int][]*span{}
	for i := range l.spans {
		if s := &l.spans[i]; s.op == op && s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	self := map[string]float64{}
	for i := range l.spans {
		s := &l.spans[i]
		if s.op != op {
			continue
		}
		self[s.layer()] += (s.end.Sub(s.start) - covered(s, children[s.id])).Seconds()
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent.
func covered(parent *span, kids []*span) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := k.start, k.end
		if a.Before(parent.start) {
			a = parent.start
		}
		if b.After(parent.end) {
			b = parent.end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int { return x.a.Compare(y.a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			total += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// dump writes the spans as JSON lines, after a header line naming the
// run; times are microseconds from the first span.
func (l *spanLog) dump(path, runID, env string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]string{"run": runID, "env": env}); err != nil {
		f.Close()
		return err
	}
	var t0 time.Time
	for _, s := range l.spans {
		if t0.IsZero() || s.start.Before(t0) {
			t0 = s.start
		}
	}
	us := func(t time.Time) float64 { return float64(t.Sub(t0).Nanoseconds()) / 1e3 }
	for _, s := range l.spans {
		rec := struct {
			Run    string  `json:"run"`
			Op     int     `json:"op"`
			ID     int     `json:"id"`
			Parent int     `json:"parent"`
			Name   string  `json:"name"`
			Start  float64 `json:"start_us"`
			End    float64 `json:"end_us"`
		}{runID, s.op, s.id, s.parent, s.name, us(s.start), us(s.end)}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
