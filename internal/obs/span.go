package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"

	"dgmc/internal/core"
	"dgmc/internal/lsa"
)

// Step is one protocol trace entry inside a span, JSON-ready.
type Step struct {
	AtNS   int64  `json:"at_ns"`
	Kind   string `json:"kind"`
	Switch int    `json:"switch"`
	Conn   int    `json:"conn"`
	Detail string `json:"detail"`
}

// Span is the reconstructed causal history of one local membership event:
// every event→compute→flood→recv→install/withdraw step, across every switch,
// that carried the event's chain ID on the event's connection. The counts are the paper's Table 2/3
// metrics observed live: how many topology computations and floods one
// event cost, and how long until its last installation (ConvergeNS).
type Span struct {
	// Chain renders the chain ID ("origin/seq").
	Chain string `json:"chain"`
	// Origin is the switch whose local event started the chain; Seq is that
	// switch's per-connection event index.
	Origin int `json:"origin"`
	Seq    int `json:"seq"`
	// Conn is the connection the event belongs to.
	Conn int `json:"conn"`

	// StartNS/EndNS bound the span on the trace timeline (virtual time for
	// the simulator, wall-clock Unix nanoseconds for the live runtime).
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
	// ConvergeNS is the latency from the local event to its last observed
	// installation, 0 while no installation has been seen.
	ConvergeNS int64 `json:"converge_ns"`

	// Per-event protocol cost, network-wide.
	Computations int `json:"computations"`
	Floods       int `json:"floods"`
	Recvs        int `json:"recvs"`
	Installs     int `json:"installs"`
	Withdraws    int `json:"withdraws"`

	// Switches lists every switch that contributed a step, ascending.
	Switches []int `json:"switches"`

	// Steps is the full step list in arrival order.
	Steps []Step `json:"steps"`
}

// spanKey identifies one event. A chain ID numbers an origin's events per
// connection, so the same chain ID on two connections names two events.
type spanKey struct {
	conn  lsa.ConnID
	chain core.ChainID
}

// spanState is the mutable accumulator behind one Span.
type spanState struct {
	chain    core.ChainID
	conn     int
	steps    []Step
	switches map[int]struct{}

	haveStart     bool
	startNS       int64
	endNS         int64
	eventNS       int64 // timestamp of the TraceEvent step (start of the cause)
	haveEvent     bool
	lastInstallNS int64
	haveInstall   bool

	computations, floods, recvs, installs, withdraws int
}

// SpanCollector assembles core.TraceEntry streams into one span per event,
// keyed by (connection, chain ID). It
// implements core.Tracer and is safe for concurrent use, so one collector
// can be attached to every node of a live cluster (or fed by several
// daemons' trace streams) and still reconstruct network-wide spans.
//
// Retention is bounded: once MaxSpans chains are tracked, the oldest chain
// (by first observation) is evicted to admit a new one. Entries with a zero
// chain ID (resync housekeeping, decode errors) are counted but not kept.
type SpanCollector struct {
	mu       sync.Mutex
	spans    map[spanKey]*spanState
	order    []spanKey // insertion order, for eviction
	maxSpans int
	dropped  uint64 // zero-chain entries not attributable to any span
	evicted  uint64
}

var _ core.Tracer = (*SpanCollector)(nil)

// NewSpanCollector returns a collector retaining up to maxSpans chains
// (default 1024 if maxSpans <= 0).
func NewSpanCollector(maxSpans int) *SpanCollector {
	if maxSpans <= 0 {
		maxSpans = 1024
	}
	return &SpanCollector{
		spans:    make(map[spanKey]*spanState),
		maxSpans: maxSpans,
	}
}

// Trace implements core.Tracer.
func (c *SpanCollector) Trace(e core.TraceEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.Chain.IsZero() {
		c.dropped++
		return
	}
	key := spanKey{conn: e.Conn, chain: e.Chain}
	st, ok := c.spans[key]
	if !ok {
		if len(c.order) >= c.maxSpans {
			oldest := c.order[0]
			c.order = c.order[1:]
			delete(c.spans, oldest)
			c.evicted++
		}
		st = &spanState{
			chain:    e.Chain,
			conn:     int(e.Conn),
			switches: make(map[int]struct{}),
		}
		c.spans[key] = st
		c.order = append(c.order, key)
	}
	at := int64(e.At)
	if !st.haveStart || at < st.startNS {
		st.startNS = at
		st.haveStart = true
	}
	if at > st.endNS {
		st.endNS = at
	}
	st.switches[int(e.Switch)] = struct{}{}
	switch e.Kind {
	case core.TraceEvent:
		// The chain's own event, by definition at its origin. Keep the
		// earliest in case of clock skew between processes.
		if !st.haveEvent || at < st.eventNS {
			st.eventNS = at
			st.haveEvent = true
		}
	case core.TraceCompute:
		st.computations++
	case core.TraceFlood:
		st.floods++
	case core.TraceRecv:
		st.recvs++
	case core.TraceInstall:
		st.installs++
		if at > st.lastInstallNS || !st.haveInstall {
			st.lastInstallNS = at
			st.haveInstall = true
		}
	case core.TraceWithdraw:
		st.withdraws++
	}
	st.steps = append(st.steps, Step{
		AtNS:   at,
		Kind:   e.Kind.String(),
		Switch: int(e.Switch),
		Conn:   int(e.Conn),
		Detail: e.Detail,
	})
}

func (st *spanState) snapshot() Span {
	sws := make([]int, 0, len(st.switches))
	for s := range st.switches {
		sws = append(sws, s)
	}
	sort.Ints(sws)
	sp := Span{
		Chain:        st.chain.String(),
		Origin:       int(st.chain.Origin),
		Seq:          int(st.chain.Seq),
		Conn:         st.conn,
		StartNS:      st.startNS,
		EndNS:        st.endNS,
		Computations: st.computations,
		Floods:       st.floods,
		Recvs:        st.recvs,
		Installs:     st.installs,
		Withdraws:    st.withdraws,
		Switches:     sws,
		Steps:        append([]Step(nil), st.steps...),
	}
	if st.haveInstall {
		base := st.startNS
		if st.haveEvent {
			base = st.eventNS
		}
		if d := st.lastInstallNS - base; d > 0 {
			sp.ConvergeNS = d
		}
	}
	return sp
}

// Spans returns the retained spans ordered by start time (ties by chain,
// then connection).
func (c *SpanCollector) Spans() []Span {
	c.mu.Lock()
	out := make([]Span, 0, len(c.order))
	for _, id := range c.order {
		out = append(out, c.spans[id].snapshot())
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartNS != out[j].StartNS {
			return out[i].StartNS < out[j].StartNS
		}
		if out[i].Chain != out[j].Chain {
			return out[i].Chain < out[j].Chain
		}
		return out[i].Conn < out[j].Conn
	})
	return out
}

// Span returns the span for one chain on one connection, if tracked.
func (c *SpanCollector) Span(conn lsa.ConnID, chain core.ChainID) (Span, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.spans[spanKey{conn: conn, chain: chain}]
	if !ok {
		return Span{}, false
	}
	return st.snapshot(), true
}

// SpanStats aggregates across the retained spans — the live counterpart of
// the paper's per-event averages.
type SpanStats struct {
	Spans     int `json:"spans"`
	Converged int `json:"converged"`
	Evicted   int `json:"evicted"`
	Unchained int `json:"unchained"`

	// Means are over all retained spans; convergence over converged ones.
	MeanComputations float64 `json:"mean_computations"`
	MeanFloods       float64 `json:"mean_floods"`
	MeanConvergeNS   float64 `json:"mean_converge_ns"`
	MaxConvergeNS    int64   `json:"max_converge_ns"`
}

// Stats computes the aggregate over the currently retained spans.
func (c *SpanCollector) Stats() SpanStats {
	spans := c.Spans()
	c.mu.Lock()
	st := SpanStats{
		Spans:     len(spans),
		Evicted:   int(c.evicted),
		Unchained: int(c.dropped),
	}
	c.mu.Unlock()
	var sumC, sumF float64
	var sumLat float64
	for _, sp := range spans {
		sumC += float64(sp.Computations)
		sumF += float64(sp.Floods)
		if sp.ConvergeNS > 0 {
			st.Converged++
			sumLat += float64(sp.ConvergeNS)
			if sp.ConvergeNS > st.MaxConvergeNS {
				st.MaxConvergeNS = sp.ConvergeNS
			}
		}
	}
	if len(spans) > 0 {
		st.MeanComputations = sumC / float64(len(spans))
		st.MeanFloods = sumF / float64(len(spans))
	}
	if st.Converged > 0 {
		st.MeanConvergeNS = sumLat / float64(st.Converged)
	}
	return st
}

// spansDoc is the JSON document WriteJSON emits (and /spans serves).
type spansDoc struct {
	Stats SpanStats `json:"stats"`
	Spans []Span    `json:"spans"`
}

// WriteJSON writes the retained spans plus aggregate stats as one indented
// JSON document.
func (c *SpanCollector) WriteJSON(w io.Writer) error {
	doc := spansDoc{Stats: c.Stats(), Spans: c.Spans()}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
