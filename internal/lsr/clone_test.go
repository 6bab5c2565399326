package lsr

import (
	"encoding/hex"
	"maps"
	"testing"
	"time"

	"dgmc/internal/lsa"
	"dgmc/internal/topo"
)

// TestCloneSharesImageUntilChange: a clone starts out sharing the image,
// and an LSA applied to either side replaces that side's image instead of
// editing the shared one, so the other side's image, staleness map,
// routing table and encoding are unchanged — in both directions.
func TestCloneSharesImageUntilChange(t *testing.T) {
	g, err := topo.Ring(4, 5*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := NewInstance(0, g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := orig.HandleLSA(&lsa.NonMC{Src: 3, Seq: 1, Change: lsa.LinkChange{A: 2, B: 3, Down: true}}); err != nil {
		t.Fatal(err)
	}

	type state struct {
		image *topo.Graph
		links []topo.Link
		seen  map[topo.SwitchID]uint32
		hop   topo.SwitchID
		enc   string
	}
	capture := func(i *Instance) state {
		hop, _ := i.NextHop(1)
		return state{i.Image(), i.Image().Links(), maps.Clone(i.seen), hop, hex.EncodeToString(i.AppendState(nil))}
	}
	same := func(t *testing.T, who string, got, want state) {
		t.Helper()
		if got.image != want.image || got.hop != want.hop || got.enc != want.enc ||
			!maps.Equal(got.seen, want.seen) || len(got.links) != len(want.links) {
			t.Fatalf("%s changed: got %+v, want %+v", who, got, want)
		}
		for k := range got.links {
			if got.links[k] != want.links[k] {
				t.Fatalf("%s image link %d changed: %+v, want %+v", who, k, got.links[k], want.links[k])
			}
		}
	}

	clone := orig.Clone()
	if clone.Image() != orig.Image() {
		t.Fatal("clone copied the image instead of sharing it")
	}
	before := capture(orig)
	// Take down the link on switch 0's own route to switch 1.
	if changed, err := clone.HandleLSA(&lsa.NonMC{Src: 1, Seq: 1, Change: lsa.LinkChange{A: 0, B: 1, Down: true}}); err != nil || !changed {
		t.Fatalf("clone HandleLSA: changed=%v err=%v", changed, err)
	}
	same(t, "original after the clone's change", capture(orig), before)
	if l, _ := clone.Image().Link(0, 1); !l.Down {
		t.Fatal("clone did not apply its own change")
	}
	if hop, _ := clone.NextHop(1); hop == before.hop {
		t.Fatalf("clone still routes to 1 via %d over the failed link", hop)
	}

	// The reverse: the original changes, the clone stays.
	cloneBefore := capture(clone)
	if _, err := orig.ApplyLocalEvent(lsa.LinkChange{A: 0, B: 3, Down: true}); err != nil {
		t.Fatal(err)
	}
	same(t, "clone after the original's change", capture(clone), cloneBefore)
	if l, _ := orig.Image().Link(0, 3); !l.Down {
		t.Fatal("original did not apply its own change")
	}
	if l, _ := before.image.Link(0, 3); l.Down {
		t.Fatal("the image handed out before the change was modified in place")
	}
}
