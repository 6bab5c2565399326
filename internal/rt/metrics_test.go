package rt

import (
	"strconv"
	"testing"
	"time"

	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
	"dgmc/internal/obs"
	"dgmc/internal/topo"
)

// switchSeries reads switch id's data-plane, FIB-compile and decode-error
// series out of a registry scrape, keyed by name (drops by name/reason).
func switchSeries(reg *obs.Registry, id topo.SwitchID) map[string]float64 {
	out := map[string]float64{}
	sw := strconv.Itoa(int(id))
	for _, p := range reg.Snapshot() {
		key := p.Name
		mine := false
		for _, l := range p.Labels {
			switch l.Key {
			case "switch":
				mine = l.Value == sw
			case "reason":
				key += "/" + l.Value
			}
		}
		if !mine {
			continue
		}
		switch p.Name {
		case "dgmc_data_frames_originated_total", "dgmc_data_frames_forwarded_total",
			"dgmc_data_delivered_total", "dgmc_data_drops_total",
			"dgmc_fib_compiles_total", "dgmc_frame_decode_errors_total":
			out[key] = p.Value
		}
	}
	return out
}

// nodeSeries is what switchSeries must read for a switch whose
// incarnations are ns: each counter summed over them.
func nodeSeries(ns ...*Node) map[string]float64 {
	var s ForwardStats
	var compiles, decodeErrs uint64
	for _, n := range ns {
		s.add(n.ForwardStats())
		compiles += n.FIBCompiles()
		decodeErrs += n.DecodeErrors()
	}
	return map[string]float64{
		"dgmc_data_frames_originated_total": float64(s.Originated),
		"dgmc_data_frames_forwarded_total":  float64(s.Forwarded),
		"dgmc_data_delivered_total":         float64(s.Delivered),
		"dgmc_data_drops_total/no-entry":    float64(s.DropNoEntry),
		"dgmc_data_drops_total/no-route":    float64(s.DropNoRoute),
		"dgmc_data_drops_total/hop-budget":  float64(s.DropHops),
		"dgmc_data_drops_total/loop":        float64(s.DropLoop),
		"dgmc_fib_compiles_total":           float64(compiles),
		"dgmc_frame_decode_errors_total":    float64(decodeErrs),
	}
}

// checkSeries requires switch id's series to read nodeSeries(ns...).
func checkSeries(t *testing.T, reg *obs.Registry, id topo.SwitchID, ns ...*Node) {
	t.Helper()
	got, want := switchSeries(reg, id), nodeSeries(ns...)
	if len(got) != len(want) {
		t.Errorf("switch %d exports %d of the %d series: %v", id, len(got), len(want), got)
	}
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			t.Errorf("switch %d %s = %v (present %v), node counters say %v", id, k, g, ok, w)
		}
	}
}

// TestDataSeriesMatchNodeCounters pins one counter per fact: after traffic
// and injected anomalies (an unknown connection, a looped frame, a corrupt
// frame), every switch's scraped data-plane, FIB-compile and decode-error
// series equal the node's own ForwardStats, FIBCompiles and DecodeErrors —
// and after a crash–restart, the sum over both incarnations.
func TestDataSeriesMatchNodeCounters(t *testing.T) {
	g, err := topo.Grid(2, 3, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	fab := NewChanFabric(g.NumSwitches())
	c, err := NewCluster(ClusterConfig{Graph: g, Registry: reg, ResyncTimeout: resyncFast}, fab)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	conn := lsa.ConnID(1)
	for _, sw := range []topo.SwitchID{0, 5} {
		if err := c.Join(sw, conn, mctree.SenderReceiver); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WaitConverged(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	traffic := func() {
		t.Helper()
		for _, sw := range []topo.SwitchID{0, 5} {
			if _, err := c.SendData(sw, conn, []byte("one")); err != nil {
				t.Fatal(err)
			}
			if _, n, err := c.SendDataBatch(sw, conn, []byte("many"), 10); err != nil || n != 10 {
				t.Fatalf("batch from %d: sent %d, %v", sw, n, err)
			}
		}
		if err := c.Settle(20*time.Millisecond, 15*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	traffic()

	// Anomalies at switch 4, sent from its neighbor 1's attachment.
	tr := fab.Transport(1)
	for _, frame := range [][]byte{
		dataBuf(lsa.ConnID(99), 0, 1, 1, 8, nil), // no FIB entry
		dataBuf(conn, 4, 1, 1, 8, nil),           // switch 4's own frame looped back
		[]byte("not a frame"),                    // undecodable
	} {
		if err := tr.Send(4, frame); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Settle(20*time.Millisecond, 15*time.Second); err != nil {
		t.Fatal(err)
	}
	n4 := c.Node(4).ForwardStats()
	if n4.DropNoEntry != 1 || n4.DropLoop != 1 || c.Node(4).DecodeErrors() != 1 {
		t.Fatalf("switch 4 anomalies not counted: %+v, decode errors %d", n4, c.Node(4).DecodeErrors())
	}
	if s := c.ForwardStats(); s.Originated != 22 || s.Delivered != 22 {
		t.Fatalf("traffic not delivered once per packet: %+v", s)
	}
	for _, n := range c.Nodes() {
		checkSeries(t, reg, n.ID(), n)
	}

	// Crash and restart switch 4; the series must keep the first
	// incarnation's counts and add the second's.
	first := c.Node(4)
	if err := c.KillNode(4); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartNode(4, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitConverged(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	traffic()
	if err := tr.Send(4, []byte("still not a frame")); err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(20*time.Millisecond, 15*time.Second); err != nil {
		t.Fatal(err)
	}
	second := c.Node(4)
	if second == first || second.FIBCompiles() == 0 || second.DecodeErrors() != 1 {
		t.Fatalf("restarted switch 4 did no work of its own: compiles %d, decode errors %d",
			second.FIBCompiles(), second.DecodeErrors())
	}
	checkSeries(t, reg, 4, first, second)
	for _, n := range c.Nodes() {
		if n.ID() != 4 {
			checkSeries(t, reg, n.ID(), n)
		}
	}
}

// TestResyncDecodeErrorsCounted feeds a corrupt resync request and a
// corrupt resync response (valid frames, undecodable payloads) through the
// receive path: each advances DecodeErrors and the exported series.
func TestResyncDecodeErrorsCounted(t *testing.T) {
	members := mctree.Members{0: mctree.SenderReceiver, 2: mctree.SenderReceiver}
	reg := obs.NewRegistry()
	n, _ := fwdNodeWith(t, 1, mctree.Symmetric, members, fwdTree(mctree.Symmetric), nil,
		func(cfg *NodeConfig) { cfg.Registry = reg })
	series := func() float64 { return switchSeries(reg, 1)["dgmc_frame_decode_errors_total"] }
	for i, kind := range []lsa.FrameKind{lsa.FrameResyncReq, lsa.FrameResyncResp} {
		buf := lsa.AppendFrameWith(nil, &lsa.Frame{
			Version: lsa.FrameVersion, Kind: kind, Origin: 0, From: 0, Seq: uint64(i + 1),
		}, func(b []byte) []byte { return append(b, 0xff) })
		n.handleFrame(buf)
		want := uint64(i + 1)
		if got := n.DecodeErrors(); got != want {
			t.Fatalf("corrupt %v: DecodeErrors = %d, want %d", kind, got, want)
		}
		if got := series(); got != float64(want) {
			t.Fatalf("corrupt %v: dgmc_frame_decode_errors_total = %v, want %d", kind, got, want)
		}
	}
}
