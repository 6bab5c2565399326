package topo

import (
	"strings"
	"testing"
	"time"
)

func mustLine(t *testing.T, n int) *Graph {
	t.Helper()
	g, err := Line(n, 10*time.Microsecond)
	if err != nil {
		t.Fatalf("Line(%d): %v", n, err)
	}
	return g
}

func TestAddLinkValidation(t *testing.T) {
	g := New(3)
	tests := []struct {
		name  string
		a, b  SwitchID
		delay time.Duration
	}{
		{"self-loop", 1, 1, time.Microsecond},
		{"out of range high", 0, 3, time.Microsecond},
		{"out of range negative", -1, 0, time.Microsecond},
		{"zero delay", 0, 1, 0},
		{"negative delay", 0, 1, -time.Microsecond},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := g.AddLink(tt.a, tt.b, tt.delay, 1); err == nil {
				t.Errorf("AddLink(%d,%d,%v) succeeded, want error", tt.a, tt.b, tt.delay)
			}
		})
	}
	if err := g.AddLink(0, 1, time.Microsecond, 1); err != nil {
		t.Fatalf("valid AddLink: %v", err)
	}
	if err := g.AddLink(1, 0, time.Microsecond, 1); err == nil {
		t.Error("duplicate (reversed) link accepted")
	}
}

func TestLinkLookupIsDirectionless(t *testing.T) {
	g := New(2)
	if err := g.AddLink(1, 0, 3*time.Microsecond, 7); err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]SwitchID{{0, 1}, {1, 0}} {
		l, ok := g.Link(pair[0], pair[1])
		if !ok {
			t.Fatalf("Link(%v) not found", pair)
		}
		if l.Delay != 3*time.Microsecond || l.Capacity != 7 {
			t.Errorf("link attrs = %+v", l)
		}
		if l.Other(pair[0]) != pair[1] || !l.Has(pair[0]) {
			t.Errorf("Other/Has wrong for %+v", l)
		}
	}
}

func TestNeighborsSortedAndRespectDown(t *testing.T) {
	g := New(4)
	for _, e := range [][2]SwitchID{{2, 0}, {2, 3}, {2, 1}} {
		if err := g.AddLink(e[0], e[1], time.Microsecond, 1); err != nil {
			t.Fatal(err)
		}
	}
	nb := g.Neighbors(2)
	if len(nb) != 3 || nb[0] != 0 || nb[1] != 1 || nb[2] != 3 {
		t.Fatalf("neighbors = %v, want [0 1 3]", nb)
	}
	if err := g.SetLinkDown(2, 1, true); err != nil {
		t.Fatal(err)
	}
	nb = g.Neighbors(2)
	if len(nb) != 2 || nb[0] != 0 || nb[1] != 3 {
		t.Fatalf("neighbors after down = %v, want [0 3]", nb)
	}
	if g.Degree(2) != 2 {
		t.Errorf("degree = %d, want 2", g.Degree(2))
	}
	if err := g.SetLinkDown(0, 3, true); err == nil {
		t.Error("SetLinkDown on missing link succeeded")
	}
}

func TestConnectivityAndComponents(t *testing.T) {
	g := mustLine(t, 5)
	if !g.Connected() {
		t.Fatal("line should be connected")
	}
	if err := g.SetLinkDown(2, 3, true); err != nil {
		t.Fatal(err)
	}
	if g.Connected() {
		t.Fatal("cut line should be disconnected")
	}
	left := g.Component(0)
	if len(left) != 3 {
		t.Errorf("left component = %v", left)
	}
	right := g.Component(4)
	if len(right) != 2 {
		t.Errorf("right component = %v", right)
	}
}

func TestHopDistances(t *testing.T) {
	g := mustLine(t, 5)
	d := g.HopDistances(0)
	for i, want := range []int{0, 1, 2, 3, 4} {
		if d[i] != want {
			t.Fatalf("hop dist = %v", d)
		}
	}
	if err := g.SetLinkDown(3, 4, true); err != nil {
		t.Fatal(err)
	}
	d = g.HopDistances(0)
	if d[4] != -1 {
		t.Errorf("unreachable switch got distance %d", d[4])
	}
}

func TestShortestPathsPicksLowerDelayRoute(t *testing.T) {
	// 0-1-2 with cheap links, plus a direct expensive 0-2 link.
	g := New(3)
	if err := g.AddLink(0, 1, 10*time.Microsecond, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(1, 2, 10*time.Microsecond, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(0, 2, 50*time.Microsecond, 1); err != nil {
		t.Fatal(err)
	}
	spt := g.ShortestPaths(0)
	if spt.Delay[2] != 20*time.Microsecond {
		t.Errorf("delay to 2 = %v, want 20µs", spt.Delay[2])
	}
	path := spt.Path(2)
	if len(path) != 3 || path[0] != 0 || path[1] != 1 || path[2] != 2 {
		t.Errorf("path = %v, want [0 1 2]", path)
	}
	// Failing the middle link shifts traffic onto the direct link.
	if err := g.SetLinkDown(0, 1, true); err != nil {
		t.Fatal(err)
	}
	spt = g.ShortestPaths(0)
	if spt.Delay[2] != 50*time.Microsecond {
		t.Errorf("delay after failure = %v, want 50µs", spt.Delay[2])
	}
	p := spt.Path(2)
	if len(p) != 2 {
		t.Errorf("path after failure = %v, want direct", p)
	}
}

func TestShortestPathsUnreachable(t *testing.T) {
	g := New(3)
	if err := g.AddLink(0, 1, time.Microsecond, 1); err != nil {
		t.Fatal(err)
	}
	spt := g.ShortestPaths(0)
	if spt.Reachable(2) {
		t.Error("switch 2 should be unreachable")
	}
	if spt.Path(2) != nil {
		t.Error("path to unreachable switch should be nil")
	}
	if spt.Delay[2] >= 0 {
		t.Errorf("unreachable delay = %v", spt.Delay[2])
	}
	if !spt.Reachable(0) || len(spt.Path(0)) != 1 {
		t.Error("root must be reachable with singleton path")
	}
}

func TestDiameters(t *testing.T) {
	g := mustLine(t, 4) // delays 10µs per hop
	hd, err := g.HopDiameter()
	if err != nil {
		t.Fatal(err)
	}
	if hd != 3 {
		t.Errorf("hop diameter = %d, want 3", hd)
	}
	fd, err := g.FloodDiameter()
	if err != nil {
		t.Fatal(err)
	}
	if fd != 30*time.Microsecond {
		t.Errorf("flood diameter = %v, want 30µs", fd)
	}
	if err := g.SetLinkDown(0, 1, true); err != nil {
		t.Fatal(err)
	}
	if _, err := g.FloodDiameter(); err != ErrDisconnected {
		t.Errorf("flood diameter on cut graph: err = %v, want ErrDisconnected", err)
	}
	if _, err := g.HopDiameter(); err != ErrDisconnected {
		t.Errorf("hop diameter on cut graph: err = %v, want ErrDisconnected", err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := mustLine(t, 3)
	c := g.Clone()
	if err := g.SetLinkDown(0, 1, true); err != nil {
		t.Fatal(err)
	}
	if l, _ := c.Link(0, 1); l.Down {
		t.Error("clone shares link state with original")
	}
	if c.NumSwitches() != 3 || c.NumLinks() != 2 {
		t.Errorf("clone shape = %d switches %d links", c.NumSwitches(), c.NumLinks())
	}
	// Links added to either side after the copy stay on that side.
	if err := c.AddLink(0, 2, time.Microsecond, 1); err != nil {
		t.Fatal(err)
	}
	if _, ok := g.Link(0, 2); ok || g.NumLinks() != 2 || len(g.Neighbors(1)) != 1 {
		t.Errorf("link added to the clone reached the original: %v", g.Links())
	}
	if got := c.Neighbors(1); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("clone neighbors of 1 = %v, want [0 2]", got)
	}
	if got := c.Neighbors(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("clone neighbors of 0 = %v, want [1 2]", got)
	}
}

func TestFixedTopologies(t *testing.T) {
	if _, err := Ring(2, time.Microsecond); err == nil {
		t.Error("Ring(2) should fail")
	}
	r, err := Ring(6, time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumLinks() != 6 || !r.Connected() {
		t.Errorf("ring: %d links connected=%v", r.NumLinks(), r.Connected())
	}
	s, err := Star(5, time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if s.Degree(0) != 4 {
		t.Errorf("star center degree = %d", s.Degree(0))
	}
	gr, err := Grid(3, 4, time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if gr.NumSwitches() != 12 || !gr.Connected() {
		t.Error("grid malformed")
	}
	hd, err := gr.HopDiameter()
	if err != nil {
		t.Fatal(err)
	}
	if hd != 5 { // (3-1)+(4-1)
		t.Errorf("grid hop diameter = %d, want 5", hd)
	}
	if _, err := Grid(0, 5, time.Microsecond); err == nil {
		t.Error("Grid(0,5) should fail")
	}
	if _, err := Line(1, time.Microsecond); err == nil {
		t.Error("Line(1) should fail")
	}
	if _, err := Star(1, time.Microsecond); err == nil {
		t.Error("Star(1) should fail")
	}
}

func TestWaxmanGeneratesConnectedReproducibleGraphs(t *testing.T) {
	for _, n := range []int{10, 40, 100} {
		cfg := DefaultGenConfig(n, 42)
		g1, err := Waxman(cfg)
		if err != nil {
			t.Fatalf("Waxman(%d): %v", n, err)
		}
		if !g1.Connected() {
			t.Fatalf("Waxman(%d) disconnected", n)
		}
		if g1.NumSwitches() != n {
			t.Fatalf("n = %d", g1.NumSwitches())
		}
		want := int(float64(n) * cfg.AvgDegree / 2)
		if g1.NumLinks() < n-1 || g1.NumLinks() > want+1 {
			t.Fatalf("Waxman(%d) links = %d, want about %d", n, g1.NumLinks(), want)
		}
		g2, err := Waxman(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if g2.NumLinks() != g1.NumLinks() {
			t.Fatalf("same seed produced different graphs: %d vs %d links", g1.NumLinks(), g2.NumLinks())
		}
		for _, l := range g1.Links() {
			l2, ok := g2.Link(l.A, l.B)
			if !ok || l2.Delay != l.Delay {
				t.Fatalf("same seed produced different link set at (%d,%d)", l.A, l.B)
			}
		}
		cfg2 := cfg
		cfg2.Seed = 43
		g3, err := Waxman(cfg2)
		if err != nil {
			t.Fatal(err)
		}
		same := g3.NumLinks() == g1.NumLinks()
		if same {
			for _, l := range g1.Links() {
				if _, ok := g3.Link(l.A, l.B); !ok {
					same = false
					break
				}
			}
		}
		if same {
			t.Errorf("different seeds produced identical %d-switch graphs", n)
		}
	}
}

func TestGNMGeneratesExactEdgeCount(t *testing.T) {
	cfg := DefaultGenConfig(30, 7)
	g, err := GNM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := int(30 * cfg.AvgDegree / 2)
	if g.NumLinks() != want {
		t.Errorf("links = %d, want %d", g.NumLinks(), want)
	}
	if !g.Connected() {
		t.Error("GNM graph disconnected")
	}
}

func TestGenConfigValidation(t *testing.T) {
	bad := []GenConfig{
		{N: 1, MinDelay: 1, MaxDelay: 2, AvgDegree: 3},
		{N: 10, MinDelay: 0, MaxDelay: 2, AvgDegree: 3},
		{N: 10, MinDelay: 5, MaxDelay: 2, AvgDegree: 3},
		{N: 10, MinDelay: 1, MaxDelay: 2, AvgDegree: 1},
	}
	for i, cfg := range bad {
		if _, err := Waxman(cfg); err == nil {
			t.Errorf("case %d: Waxman accepted invalid config", i)
		}
		if _, err := GNM(cfg); err == nil {
			t.Errorf("case %d: GNM accepted invalid config", i)
		}
	}
}

func TestWriteDOT(t *testing.T) {
	g := mustLine(t, 3)
	if err := g.SetLinkDown(1, 2, true); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := g.WriteDOT(&sb, "", map[SwitchID]bool{1: true}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"graph \"network\"", "doublecircle", "style=dashed", "0 -- 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
}
