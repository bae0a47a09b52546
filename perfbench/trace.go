package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/nlstencil/amop/internal/obs"
)

// The traced run records two things from outside the program.
//
// Spans: the benchmark's own span around every public call it makes (Tick,
// Quote, PriceBatch, Chain, ScenarioSweep and each ladder call), with a
// parent and a request id. They are kept in memory and written as NDJSON
// under .bench_build/spans/ when the run ends.
//
// Stage totals: the per-stage times of every repricing flight, drained from
// obs.RecentTraces after each tick (the ring keeps only the last 64), and of
// the desk's Chain and ScenarioSweep calls, which the benchmark wraps in an
// obs trace of its own through the context and the active-trace hook.
//
// A nil *tracer records nothing, so the untraced runs pay one nil check per
// call.

type spanName uint8

const (
	spTick spanName = iota
	spQuote
	spPriceBatch
	spChain
	spSweep
	spLadder
)

var spanNames = [...]string{"Tick", "Quote", "PriceBatch", "Chain", "ScenarioSweep", "ladder"}

type span struct {
	id, parent, req int64
	start, end      int64 // ns since the tracer's epoch
	name            spanName
	label           string
}

type tracer struct {
	epoch  time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span

	// Flight and desk-call stage totals, guarded by mu.
	lastFlight time.Time
	flightMs   []float64
	stageMs    map[string]float64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), stageMs: make(map[string]float64)}
}

// recorder buffers one goroutine's spans without locking.
type recorder struct {
	t     *tracer
	spans []span
}

func (t *tracer) recorder() *recorder { return &recorder{t: t} }

// record appends a finished span and returns its id.
func (r *recorder) record(name spanName, parent, req int64, label string, start, end time.Time) int64 {
	if r == nil || r.t == nil {
		return 0
	}
	id := r.t.nextID.Add(1)
	r.spans = append(r.spans, span{
		id: id, parent: parent, req: req, name: name, label: label,
		start: int64(start.Sub(r.t.epoch)), end: int64(end.Sub(r.t.epoch)),
	})
	return id
}

// flush hands the buffered spans to the tracer.
func (r *recorder) flush() {
	if r == nil || r.t == nil {
		return
	}
	r.t.mu.Lock()
	r.t.spans = append(r.t.spans, r.spans...)
	r.t.mu.Unlock()
	r.spans = nil
}

// drainFlights folds repricing-flight traces finished since the last drain
// into the stage totals. Flights are serialized by the server's coalescer,
// so their start times increase and the last one seen marks the cursor.
func (t *tracer) drainFlights() {
	if t == nil {
		return
	}
	ring := obs.RecentTraces()
	t.mu.Lock()
	defer t.mu.Unlock()
	fresh := 0
	last := t.lastFlight
	for _, s := range ring {
		if s.Kind != "flight" || !s.Start.After(t.lastFlight) {
			continue
		}
		fresh++
		t.flightMs = append(t.flightMs, s.TotalMs)
		t.addStagesLocked(s)
		if s.Start.After(last) {
			last = s.Start
		}
	}
	t.lastFlight = last
	if fresh > 0 && fresh == len(ring) && len(ring) >= 64 {
		logf("warning: all %d flight traces in the ring were new; flights between two drains may be lost", fresh)
	}
}

func (t *tracer) addStagesLocked(s obs.TraceSnapshot) {
	for _, st := range s.Stages {
		t.stageMs[st.Stage] += st.Ms
	}
}

// call runs fn under an obs trace of its own when tracing: the trace rides
// the context into the batch engine and is installed as the active trace
// for the layers below it. Its stage totals join the flight totals. The
// call is also recorded as a span.
func (t *tracer) call(rec *recorder, name spanName, kind string, fn func(ctx context.Context)) {
	if t == nil {
		fn(context.Background())
		return
	}
	tr := obs.StartTrace(kind, "perfbench")
	prev := obs.SetActive(tr)
	start := time.Now()
	fn(obs.NewContext(context.Background(), tr))
	end := time.Now()
	obs.SetActive(prev)
	snap := tr.Finish()
	rec.record(name, 0, 0, kind, start, end)
	t.mu.Lock()
	t.addStagesLocked(snap)
	t.mu.Unlock()
}

// stage returns a stage's accumulated milliseconds.
func (t *tracer) stage(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stageMs[name]
}

// writeSpans writes every span as one NDJSON line, ordered by start time.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range spans {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"req":%d,"name":%q,"label":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.id, s.parent, s.req, spanNames[s.name], s.label, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
