package rt

import (
	"sync"
	"testing"
	"time"

	"dgmc/internal/core"
	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
	"dgmc/internal/topo"
)

// TestSnapshotConcurrentRestores restores one snapshot into two nodes at
// once and drives a different link failure into each. The restored
// machines start out sharing the snapshot's unicast image; each failure
// must replace its node's image rather than edit the shared one, so the
// snapshot's checksum still verifies and its image still shows every link
// up. Run under -race, it also shows that restoring is read-only on the
// snapshot.
func TestSnapshotConcurrentRestores(t *testing.T) {
	g, err := topo.Ring(4, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(ClusterConfig{Graph: g, ResyncTimeout: resyncFast}, NewChanFabric(g.NumSwitches()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, sw := range []topo.SwitchID{0, 2} {
		if err := c.Join(sw, 1, mctree.SenderReceiver); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WaitConverged(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	snap := c.Node(1).Snapshot()
	image := snap.machine.Unicast().Image()

	var nodes [2]*Node
	var errs [2]error
	var wg sync.WaitGroup
	for i := range nodes {
		fab := NewChanFabric(g.NumSwitches())
		defer fab.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			nodes[i], errs[i] = NewNode(NodeConfig{
				ID: 1, Graph: g, ResyncTimeout: resyncFast, Restore: snap,
			}, fab.Transport(1))
		}()
	}
	wg.Wait()
	for i, n := range nodes {
		if errs[i] != nil {
			t.Fatalf("restore %d: %v", i, errs[i])
		}
		defer n.Close()
	}

	failed := [2]lsa.LinkChange{{A: 0, B: 1, Down: true}, {A: 1, B: 2, Down: true}}
	for i, n := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := n.Inject(core.LocalEvent{Kind: lsa.Link, Link: failed[i]}); err != nil {
				t.Errorf("node %d inject: %v", i, err)
			}
		}()
	}
	wg.Wait()
	for i, n := range nodes {
		deadline := time.Now().Add(10 * time.Second)
		for {
			n.mu.Lock()
			l, _ := n.machine.Unicast().Image().Link(failed[i].A, failed[i].B)
			n.mu.Unlock()
			if l.Down {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %d never applied its link failure", i)
			}
			time.Sleep(time.Millisecond)
		}
	}

	if err := snap.verify(); err != nil {
		t.Fatalf("snapshot changed by the restored nodes: %v", err)
	}
	if snap.machine.Unicast().Image() != image {
		t.Fatal("the snapshot's image was replaced")
	}
	for _, l := range image.Links() {
		if l.Down {
			t.Fatalf("link (%d,%d) went down in the snapshot's image", l.A, l.B)
		}
	}
}
