package rt

import (
	"strconv"

	"dgmc/internal/core"
	"dgmc/internal/fib"
	"dgmc/internal/lsa"
	"dgmc/internal/obs"
)

// nodeObs caches a node's metric handles. With no registry configured every
// handle is nil and the instruments' nil-receiver fast path makes each
// update site a single predictable branch — the disabled cost the
// micro-benchmarks bound.
type nodeObs struct {
	reg *obs.Registry
	sw  obs.Label

	// transport plane
	framesRecv *obs.Counter // flood frames accepted (first delivery)
	framesDup  *obs.Counter // duplicate flood deliveries suppressed
	floodsOrig *obs.Counter // floods this node originated
	floodsFwd  *obs.Counter // store-and-forward relays of others' floods
	unicasts   *obs.Counter // resync unicasts sent
	sendErrs   *obs.Counter // transport send failures (flood, forward, unicast)

	// protocol plane
	batches   *obs.Counter   // ReceiveBatch invocations
	batchDur  *obs.Histogram // seconds per batch, machine lock held
	eventsIn  *obs.Counter   // local events handled
	eventDur  *obs.Histogram // seconds per event, machine lock held
	resyncTmr *obs.Counter   // resync timer firings
}

// newNodeObs registers the node's series (labeled by switch) and returns the
// cached handles. A nil registry yields the all-nil zero value.
func newNodeObs(reg *obs.Registry, id int) nodeObs {
	if reg == nil {
		return nodeObs{}
	}
	sw := obs.L("switch", strconv.Itoa(id))
	return nodeObs{
		reg:        reg,
		sw:         sw,
		framesRecv: reg.Counter("dgmc_frames_received_total", sw),
		framesDup:  reg.Counter("dgmc_frames_duplicate_suppressed_total", sw),
		floodsOrig: reg.Counter("dgmc_floods_originated_total", sw),
		floodsFwd:  reg.Counter("dgmc_floods_forwarded_total", sw),
		unicasts:   reg.Counter("dgmc_unicasts_sent_total", sw),
		sendErrs:   reg.Counter("dgmc_transport_send_errors_total", sw),
		batches:    reg.Counter("dgmc_lsa_batches_total", sw),
		batchDur:   reg.Histogram("dgmc_lsa_batch_seconds", obs.DurationBuckets, sw),
		eventsIn:   reg.Counter("dgmc_local_events_total", sw),
		eventDur:   reg.Histogram("dgmc_event_handle_seconds", obs.DurationBuckets, sw),
		resyncTmr:  reg.Counter("dgmc_resync_timer_fires_total", sw),
	}
}

// enabled reports whether metrics are on (used to gate time.Now() pairs and
// per-connection series lookups off the disabled path entirely).
func (o *nodeObs) enabled() bool { return o.reg != nil }

// mcFlooded counts one originated MC LSA on the per-connection series.
func (o *nodeObs) mcFlooded(conn lsa.ConnID) {
	if o.reg == nil {
		return
	}
	o.reg.Counter("dgmc_mc_lsas_flooded_total", o.sw,
		obs.L("conn", strconv.Itoa(int(conn)))).Inc()
}

// mcReceived counts one consumed MC LSA on the per-connection series.
func (o *nodeObs) mcReceived(conn lsa.ConnID) {
	if o.reg == nil {
		return
	}
	o.reg.Counter("dgmc_mc_lsas_received_total", o.sw,
		obs.L("conn", strconv.Itoa(int(conn)))).Inc()
}

// registerMachineFuncs exports the protocol machine's counters (guarded by
// n.mu) and the node's own data-plane, FIB and decode counters as
// scrape-time callbacks: the hot paths are untouched and each machine
// scrape briefly takes the node lock, exactly like Node.Metrics().
//
// The registry deduplicates func-instruments by (name, labels) and keeps the
// first closure, so a restarted switch cannot re-register its series — the
// closures instead follow the succession chain (Node.live) to whatever
// incarnation currently serves the switch ID. The node's counters die with
// each incarnation, so their series sum along the whole chain and stay
// monotonic across crash–restart.
func (n *Node) registerMachineFuncs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	sw := obs.L("switch", strconv.Itoa(int(n.id)))
	mf := func(sel func(*core.Metrics) float64) func() float64 {
		return func() float64 {
			ln := n.live()
			ln.mu.Lock()
			defer ln.mu.Unlock()
			return sel(ln.machine.Metrics())
		}
	}
	type series struct {
		name string
		sel  func(*core.Metrics) float64
	}
	for _, s := range []series{
		{"dgmc_machine_events_total", func(m *core.Metrics) float64 { return float64(m.Events) }},
		{"dgmc_machine_computations_total", func(m *core.Metrics) float64 { return float64(m.Computations) }},
		{"dgmc_machine_withdrawn_total", func(m *core.Metrics) float64 { return float64(m.Withdrawn) }},
		{"dgmc_machine_compute_seconds_total", func(m *core.Metrics) float64 { return float64(m.ComputeNanos) / 1e9 }},
		{"dgmc_machine_installs_total", func(m *core.Metrics) float64 { return float64(m.Installs) }},
		{"dgmc_machine_mc_lsas_total", func(m *core.Metrics) float64 { return float64(m.MCLSAs) }},
		{"dgmc_machine_non_mc_lsas_total", func(m *core.Metrics) float64 { return float64(m.NonMCLSAs) }},
		{"dgmc_machine_reopt_checks_total", func(m *core.Metrics) float64 { return float64(m.ReoptChecks) }},
		{"dgmc_machine_out_of_order_lsas_total", func(m *core.Metrics) float64 { return float64(m.OutOfOrderLSAs) }},
		{"dgmc_machine_resync_requests_total", func(m *core.Metrics) float64 { return float64(m.ResyncRequests) }},
		{"dgmc_machine_resync_responses_total", func(m *core.Metrics) float64 { return float64(m.ResyncResponses) }},
		{"dgmc_machine_resync_giveups_total", func(m *core.Metrics) float64 { return float64(m.ResyncGiveUps) }},
		{"dgmc_resync_gave_up_total", func(m *core.Metrics) float64 { return float64(m.ResyncGiveUps) }},
		{"dgmc_machine_resync_rearms_total", func(m *core.Metrics) float64 { return float64(m.ResyncRearms) }},
		{"dgmc_machine_reconciles_total", func(m *core.Metrics) float64 { return float64(m.Reconciles) }},
		{"dgmc_machine_replay_refloods_total", func(m *core.Metrics) float64 { return float64(m.Replays) }},
	} {
		reg.CounterFunc(s.name, mf(s.sel), sw)
	}
	reg.GaugeFunc("dgmc_gap_buffer_depth", func() float64 {
		ln := n.live()
		ln.mu.Lock()
		defer ln.mu.Unlock()
		return float64(ln.machine.GapBufferDepth())
	}, sw)
	reg.GaugeFunc("dgmc_inbox_depth", func() float64 {
		ln := n.live()
		ln.inMu.Lock()
		defer ln.inMu.Unlock()
		return float64(len(ln.inbox))
	}, sw)
	reg.GaugeFunc("dgmc_seen_origins", func() float64 {
		return float64(n.live().seen.size())
	}, sw)
	reg.GaugeFunc("dgmc_fib_entries", func() float64 {
		return float64(n.live().fib.Load().Size())
	}, sw)

	chain := func(pick func(*Node) uint64) func() float64 {
		return func() float64 {
			var sum uint64
			for cur := n; cur != nil; cur = cur.succ.Load() {
				sum += pick(cur)
			}
			return float64(sum)
		}
	}
	fwd := func(pick func(ForwardStats) uint64) func() float64 {
		return chain(func(cur *Node) uint64 { return pick(cur.ForwardStats()) })
	}
	reg.CounterFunc("dgmc_data_frames_originated_total",
		fwd(func(s ForwardStats) uint64 { return s.Originated }), sw)
	reg.CounterFunc("dgmc_data_frames_forwarded_total",
		fwd(func(s ForwardStats) uint64 { return s.Forwarded }), sw)
	reg.CounterFunc("dgmc_data_delivered_total",
		fwd(func(s ForwardStats) uint64 { return s.Delivered }), sw)
	for _, d := range dropReasons {
		reg.CounterFunc("dgmc_data_drops_total", fwd(d.pick), sw, obs.L("reason", d.reason))
	}
	reg.CounterFunc("dgmc_fib_compiles_total", chain((*Node).FIBCompiles), sw)
	reg.CounterFunc("dgmc_frame_decode_errors_total", chain((*Node).DecodeErrors), sw)
}

// dropReasons is the data plane's drop taxonomy as exported: the reason
// label and the ForwardStats field it reads.
var dropReasons = []struct {
	reason string
	pick   func(ForwardStats) uint64
}{
	{"no-entry", func(s ForwardStats) uint64 { return s.DropNoEntry }},
	{"no-route", func(s ForwardStats) uint64 { return s.DropNoRoute }},
	{"hop-budget", func(s ForwardStats) uint64 { return s.DropHops }},
	{"loop", func(s ForwardStats) uint64 { return s.DropLoop }},
}

// registerConnSeries exports per-connection delivery series for every
// connection in the freshly compiled table: sent/forwarded/delivered plus
// the four-way drop taxonomy, each reading the connection's counter stripe
// at scrape time, and a per-connection FIB fan-out gauge. Called from
// recompileFIBLocked — the control path, never per packet — and idempotent
// by registry dedup, so churning connections re-register for free. Stripe
// accuracy: conns map onto 64 stripes, so two connections 64 apart share a
// series' backing counters (exact below that).
func (n *Node) registerConnSeries(t *fib.Table) {
	if n.obs.reg == nil {
		return
	}
	for _, conn := range t.Conns() {
		n.obs.connForwardSeries(n, conn)
	}
}

// connForwardSeries registers the per-connection data-plane series (scrape
// closures follow the succession chain like every func instrument).
func (o *nodeObs) connForwardSeries(n *Node, conn lsa.ConnID) {
	cl := obs.L("conn", strconv.Itoa(int(conn)))
	sel := func(pick func(ForwardStats) uint64) func() float64 {
		return func() float64 {
			return float64(pick(n.live().ConnForwardStats(conn)))
		}
	}
	o.reg.CounterFunc("dgmc_conn_data_originated_total",
		sel(func(s ForwardStats) uint64 { return s.Originated }), o.sw, cl)
	o.reg.CounterFunc("dgmc_conn_data_forwarded_total",
		sel(func(s ForwardStats) uint64 { return s.Forwarded }), o.sw, cl)
	o.reg.CounterFunc("dgmc_conn_data_delivered_total",
		sel(func(s ForwardStats) uint64 { return s.Delivered }), o.sw, cl)
	for _, d := range dropReasons {
		o.reg.CounterFunc("dgmc_conn_data_drops_total", sel(d.pick),
			o.sw, cl, obs.L("reason", d.reason))
	}
	o.reg.GaugeFunc("dgmc_conn_fib_fanout", func() float64 {
		e := n.live().fib.Load().Lookup(conn)
		if e == nil {
			return 0
		}
		return float64(len(e.Neighbors))
	}, o.sw, cl)
}
