package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"dgmc/internal/core"
	"dgmc/internal/lsa"
	"dgmc/internal/sim"
	"dgmc/internal/topo"
)

func entry(at int64, kind core.TraceKind, sw topo.SwitchID, chain core.ChainID) core.TraceEntry {
	return core.TraceEntry{
		At: sim.Time(at), Kind: kind, Switch: sw, Conn: 7, Chain: chain, Detail: "x",
	}
}

// TestSpanAssembly feeds the collector a hand-built distributed chain —
// event at switch 0, compute + flood, receipt and installs at 0/1/2 — and
// checks the reconstructed span's counts and convergence latency.
func TestSpanAssembly(t *testing.T) {
	c := NewSpanCollector(0)
	chain := core.ChainID{Origin: 0, Seq: 1}
	c.Trace(entry(100, core.TraceEvent, 0, chain))
	c.Trace(entry(110, core.TraceCompute, 0, chain))
	c.Trace(entry(120, core.TraceFlood, 0, chain))
	c.Trace(entry(130, core.TraceRecv, 1, chain))
	c.Trace(entry(131, core.TraceRecv, 2, chain))
	c.Trace(entry(140, core.TraceInstall, 0, chain))
	c.Trace(entry(150, core.TraceInstall, 1, chain))
	c.Trace(entry(160, core.TraceInstall, 2, chain))
	c.Trace(entry(90, core.TraceResync, 1, core.ChainID{})) // unchained: not kept

	spans := c.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	sp := spans[0]
	if sp.Chain != "0/1" || sp.Origin != 0 || sp.Seq != 1 || sp.Conn != 7 {
		t.Fatalf("span identity wrong: %+v", sp)
	}
	if sp.Computations != 1 || sp.Floods != 1 || sp.Recvs != 2 || sp.Installs != 3 {
		t.Fatalf("span counts wrong: %+v", sp)
	}
	if sp.ConvergeNS != 60 { // last install at 160, event at 100
		t.Fatalf("ConvergeNS = %d, want 60", sp.ConvergeNS)
	}
	if sp.StartNS != 100 || sp.EndNS != 160 {
		t.Fatalf("span bounds = [%d, %d]", sp.StartNS, sp.EndNS)
	}
	if len(sp.Switches) != 3 || sp.Switches[0] != 0 || sp.Switches[2] != 2 {
		t.Fatalf("switches = %v", sp.Switches)
	}
	if len(sp.Steps) != 8 {
		t.Fatalf("steps = %d, want 8", len(sp.Steps))
	}

	st := c.Stats()
	if st.Spans != 1 || st.Converged != 1 || st.Unchained != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.MeanComputations != 1 || st.MeanFloods != 1 || st.MeanConvergeNS != 60 || st.MaxConvergeNS != 60 {
		t.Fatalf("stats aggregates = %+v", st)
	}

	if got, ok := c.Span(7, chain); !ok || got.Chain != "0/1" {
		t.Fatalf("Span lookup = %+v, %v", got, ok)
	}
	if _, ok := c.Span(7, core.ChainID{Origin: 9, Seq: 9}); ok {
		t.Fatal("unknown chain must not resolve")
	}
	if _, ok := c.Span(8, chain); ok {
		t.Fatal("chain must not resolve on another connection")
	}
}

// TestSpanPerConnection: one origin's first event on two connections
// carries the same chain ID on both; the collector must keep two spans,
// each with its own connection's steps.
func TestSpanPerConnection(t *testing.T) {
	c := NewSpanCollector(0)
	chain := core.ChainID{Origin: 4, Seq: 1}
	for _, conn := range []lsa.ConnID{1, 2} {
		at := int64(100 * conn)
		c.Trace(core.TraceEntry{At: sim.Time(at), Kind: core.TraceEvent, Switch: 4, Conn: conn, Chain: chain})
		c.Trace(core.TraceEntry{At: sim.Time(at + 1), Kind: core.TraceCompute, Switch: 4, Conn: conn, Chain: chain})
		c.Trace(core.TraceEntry{At: sim.Time(at + 2), Kind: core.TraceFlood, Switch: 4, Conn: conn, Chain: chain})
	}
	c.Trace(core.TraceEntry{At: 250, Kind: core.TraceInstall, Switch: 5, Conn: 2, Chain: chain})

	spans := c.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want one per connection: %+v", len(spans), spans)
	}
	for i, conn := range []int{1, 2} {
		sp := spans[i]
		if sp.Conn != conn || sp.Chain != "4/1" || sp.Computations != 1 || sp.Floods != 1 {
			t.Fatalf("span %d = %+v, want conn %d with one computation and one flood", i, sp, conn)
		}
	}
	one, _ := c.Span(1, chain)
	two, _ := c.Span(2, chain)
	if len(one.Steps) != 3 || one.Installs != 0 || len(two.Steps) != 4 || two.Installs != 1 {
		t.Fatalf("steps merged across connections: conn 1 %+v, conn 2 %+v", one, two)
	}
}

func TestSpanEviction(t *testing.T) {
	c := NewSpanCollector(2)
	for i := 1; i <= 3; i++ {
		c.Trace(entry(int64(i), core.TraceEvent, 0, core.ChainID{Origin: 0, Seq: uint32(i)}))
	}
	spans := c.Spans()
	if len(spans) != 2 {
		t.Fatalf("retained %d spans, want 2", len(spans))
	}
	if spans[0].Chain != "0/2" || spans[1].Chain != "0/3" {
		t.Fatalf("oldest not evicted: %v, %v", spans[0].Chain, spans[1].Chain)
	}
	if st := c.Stats(); st.Evicted != 1 {
		t.Fatalf("evicted = %d, want 1", st.Evicted)
	}
}

func TestSpanWriteJSON(t *testing.T) {
	c := NewSpanCollector(0)
	chain := core.ChainID{Origin: 3, Seq: 2}
	c.Trace(entry(10, core.TraceEvent, 3, chain))
	c.Trace(entry(25, core.TraceInstall, 3, chain))
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Stats SpanStats `json:"stats"`
		Spans []Span    `json:"spans"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output not JSON: %v\n%s", err, buf.String())
	}
	if doc.Stats.Spans != 1 || len(doc.Spans) != 1 {
		t.Fatalf("doc = %+v", doc)
	}
	if doc.Spans[0].Chain != "3/2" || doc.Spans[0].ConvergeNS != 15 {
		t.Fatalf("span = %+v", doc.Spans[0])
	}
}

func TestSpanCollectorConcurrent(t *testing.T) {
	c := NewSpanCollector(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				chain := core.ChainID{Origin: topo.SwitchID(g), Seq: uint32(i%16 + 1)}
				c.Trace(core.TraceEntry{
					At: sim.Time(i), Kind: core.TraceFlood,
					Switch: topo.SwitchID(g), Conn: lsa.ConnID(1), Chain: chain,
				})
				if i%50 == 0 {
					c.Spans()
					c.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	if len(c.Spans()) == 0 {
		t.Fatal("no spans retained")
	}
}

// BenchmarkSpanCollectorTrace measures the per-entry collection cost.
func BenchmarkSpanCollectorTrace(b *testing.B) {
	c := NewSpanCollector(1024)
	e := entry(1, core.TraceFlood, 0, core.ChainID{Origin: 0, Seq: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Trace(e)
	}
}
