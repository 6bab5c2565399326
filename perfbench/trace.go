package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dgmc/internal/mctree"
	"dgmc/internal/route"
	"dgmc/internal/topo"
)

// maxKeptSpans bounds the spans a run keeps for the dump; spans beyond it
// still count in the per-name totals.
const maxKeptSpans = 20000

// span is one timed call into a layer, recorded from the benchmark's side
// of the public API. Group is the shared id of the spans that belong to one
// batch, event or search.
type span struct {
	Name    string `json:"name"`
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
	Group   uint64 `json:"group"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spanTotal aggregates every span of one name, kept or not.
type spanTotal struct {
	Count   uint64 `json:"count"`
	TotalNS int64  `json:"total_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder is the
// untraced run: every method is a no-op.
type recorder struct {
	t0      time.Time
	nextID  atomic.Uint64
	mu      sync.Mutex
	spans   []span
	totals  map[string]*spanTotal
	dropped uint64
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), totals: map[string]*spanTotal{}}
}

// id reserves a span (or group) id.
func (r *recorder) id() uint64 {
	if r == nil {
		return 0
	}
	return r.nextID.Add(1)
}

// record stores a finished span under id (0 = allocate one) and returns
// the id, so a parent reserved with id() can be recorded after its
// children.
func (r *recorder) record(name string, id, parent, group uint64, start, end time.Time) uint64 {
	if r == nil {
		return 0
	}
	if id == 0 {
		id = r.nextID.Add(1)
	}
	sp := span{Name: name, ID: id, Parent: parent, Group: group,
		StartNS: start.Sub(r.t0).Nanoseconds(), EndNS: end.Sub(r.t0).Nanoseconds()}
	r.mu.Lock()
	t := r.totals[name]
	if t == nil {
		t = &spanTotal{}
		r.totals[name] = t
	}
	t.Count++
	t.TotalNS += sp.EndNS - sp.StartNS
	if len(r.spans) < maxKeptSpans {
		r.spans = append(r.spans, sp)
	} else {
		r.dropped++
	}
	r.mu.Unlock()
	return id
}

// total returns the aggregate for one span name.
func (r *recorder) total(name string) spanTotal {
	if r == nil {
		return spanTotal{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t := r.totals[name]; t != nil {
		return *t
	}
	return spanTotal{}
}

type traceDoc struct {
	Context runContext            `json:"context"`
	Metrics map[string]float64    `json:"metrics"`
	Checks  []string              `json:"failed_checks"`
	Totals  map[string]*spanTotal `json:"span_totals"`
	Dropped uint64                `json:"spans_dropped"`
	Spans   []span                `json:"spans"`
}

// writeTrace dumps the run's spans, totals, metrics and context as JSON.
func writeTrace(cfg runConfig, ctx runContext, res *result) (string, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return "", fmt.Errorf("span dump: %w", err)
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	doc := traceDoc{Context: ctx, Metrics: res.metrics, Checks: res.checkErrs, Totals: map[string]*spanTotal{}}
	if r := res.spans; r != nil {
		r.mu.Lock()
		doc.Totals, doc.Dropped = r.totals, r.dropped
		doc.Spans = append([]span(nil), r.spans...)
		r.mu.Unlock()
		sort.Slice(doc.Spans, func(i, j int) bool { return doc.Spans[i].StartNS < doc.Spans[j].StartNS })
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("span dump: %w", err)
	}
	return path, nil
}

// timedAlgorithm is the route.Algorithm the traced runs install: it times
// every topology computation and records it as a span in the group of the
// event (or search) in progress. Name is the wrapped algorithm's, so
// replay tokens and logs are unchanged.
type timedAlgorithm struct {
	inner route.Algorithm
	spans *recorder
	group atomic.Uint64
	calls atomic.Uint64
	ns    atomic.Int64
}

func (a *timedAlgorithm) Name() string { return a.inner.Name() }

func (a *timedAlgorithm) Compute(g *topo.Graph, kind mctree.Kind, members mctree.Members) (*mctree.Tree, error) {
	start := time.Now()
	t, err := a.inner.Compute(g, kind, members)
	a.done(start)
	return t, err
}

func (a *timedAlgorithm) Update(g *topo.Graph, kind mctree.Kind, members mctree.Members, prev *mctree.Tree, delta *route.Change) (*mctree.Tree, error) {
	start := time.Now()
	t, err := a.inner.Update(g, kind, members, prev, delta)
	a.done(start)
	return t, err
}

func (a *timedAlgorithm) done(start time.Time) {
	end := time.Now()
	a.calls.Add(1)
	a.ns.Add(int64(end.Sub(start)))
	g := a.group.Load()
	a.spans.record("route.Compute", 0, g, g, start, end)
}
