package main

import (
	"encoding/binary"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"dgmc/internal/lsa"
	"dgmc/internal/topo"
	"dgmc/internal/workload"
)

// paced_udp16 parameters: an open loop at a fixed rate well below the
// loopback fabric's loss point, 1,024-byte payloads, and a conn-2
// membership event every 100 ms sharing the transport with the data.
const (
	pacedRate        = 5000 // packets per second
	pacedPayload     = 1024
	pacedEventEvery  = 100 * time.Millisecond
	pacedSetups      = 9
	pacedMaxConn2    = 6
	pacedSettleQuiet = 200 * time.Millisecond
)

// pacedRun is one open-loop window's outcome.
type pacedRun struct {
	sends  int
	late   []float64 // ms the generator sent after each due time
	events int
	wall   time.Duration
	proc   procDelta
	cost   protoCounters
}

// pacedWindow sends pacedRate packets per second from one generator
// goroutine, alternating between the two senders, for window. Each payload
// carries its due time; the ledger records every send. A second goroutine
// injects a conn-2 join or leave every pacedEventEvery.
func pacedWindow(gc *gridCluster, rng *rand.Rand, t0 time.Time, payload []byte, led *workload.Ledger,
	want memberSet, window time.Duration, spans *recorder) (pacedRun, error) {
	var run pacedRun
	c0 := sumCounters(gc.c)
	p0 := sampleProc()
	start := time.Now()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var evErr error
	evRng := rand.New(rand.NewSource(rng.Int63()))
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(pacedEventEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			members := want[2]
			join := evRng.Intn(2) == 0
			if len(members) < 2 {
				join = true
			} else if len(members) >= pacedMaxConn2 {
				join = false
			}
			var sw topo.SwitchID
			for {
				sw = topo.SwitchID(evRng.Intn(gc.graph.NumSwitches()))
				if members[sw] != join {
					break
				}
			}
			evStart := time.Now()
			took, err := inject(gc.c, sw, 2, join)
			if err != nil {
				evErr = err
				return
			}
			g := spans.id()
			spans.record("rt.Cluster.inject", 0, g, g, evStart, evStart.Add(took))
			want.apply(2, sw, join)
			run.events++
		}
	}()

	period := time.Second / pacedRate
	n := int(window / period)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * period)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		src := gridSenders[i%len(gridSenders)]
		binary.LittleEndian.PutUint64(payload, uint64(due.Sub(t0)))
		sendStart := time.Now()
		seq, err := gc.c.SendData(src, 1, payload)
		if spans != nil {
			spans.record("rt.SendData", 0, 0, 0, sendStart, time.Now())
		}
		run.late = append(run.late, ms(sendStart.Sub(due)))
		if err != nil {
			led.RecordRefused()
			continue
		}
		led.RecordSend(workload.PacketID{Src: src, Seq: seq}, receiversOf(src))
		run.sends++
	}
	close(stop)
	wg.Wait()
	// The window's last event must finish before the counters are read, or
	// its computation lands in the next window.
	if evErr == nil {
		_, evErr = awaitEvent(gc.c.Nodes(), 2, want[2], time.Now())
	}
	run.wall = time.Since(start)
	run.proc = p0.to(sampleProc())
	run.cost = sumCounters(gc.c).minus(c0)
	return run, evErr
}

// settleLedger waits until deliveries stop arriving: over UDP nothing
// counts datagrams in flight, so the ledger is read once its delivered
// count has not moved for pacedSettleQuiet.
func settleLedger(led *workload.Ledger, timeout time.Duration) workload.Summary {
	deadline := time.Now().Add(timeout)
	last := led.Summary()
	quietSince := time.Now()
	for time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		s := led.Summary()
		if s.Missing == 0 {
			return s
		}
		if s.Delivered != last.Delivered || s.Dups != last.Dups {
			last, quietSince = s, time.Now()
		} else if time.Since(quietSince) >= pacedSettleQuiet {
			return s
		}
	}
	return led.Summary()
}

// runPaced is the paced_udp16 workload: per-packet latency of an open-loop
// stream over loopback UDP, with control floods and FIB swaps sharing the
// transport.
func runPaced(cfg runConfig) (*result, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	t0 := time.Now()
	lat := newLatencies(16)
	led := workload.NewLedger()
	handler := func(at topo.SwitchID, conn lsa.ConnID, src topo.SwitchID, seq uint64, payload []byte) {
		led.RecordRecv(at, workload.PacketID{Src: src, Seq: seq})
		if conn == 1 && len(payload) >= 8 {
			due := time.Duration(binary.LittleEndian.Uint64(payload))
			lat.add(int(at), ms(time.Since(t0)-due))
		}
	}
	gc, setup, err := bootRepeated(cfg, pacedSetups, func() (*gridCluster, error) {
		return bootGrid(true, rng, handler)
	})
	if err != nil {
		return nil, err
	}
	defer gc.c.Close()

	var spans *recorder
	if cfg.trace {
		spans = newRecorder()
	}
	res := newResult("udp-loopback", spans)
	res.metrics["setup_s"] = setup
	payload := seededPayload(rng, pacedPayload)
	want := memberSet{}

	window := cfg.window
	if cfg.trace {
		window /= 2
	}
	plain, err := pacedWindow(gc, rng, t0, payload, led, want, window, nil)
	if err != nil {
		return nil, err
	}
	plainLat := lat.take()
	if cfg.trace {
		traced, err := pacedWindow(gc, rng, t0, payload, led, want, window, spans)
		if err != nil {
			return nil, err
		}
		tracedLat := lat.take()
		ev := float64(traced.events)
		res.metrics["workload.latency_p99_ms"] = quantile(plainLat, 0.99)
		res.metrics["workload.gen_late_p99_ms"] = quantile(traced.late, 0.99)
		res.metrics["rt.send_ns_per_pkt"] = div(float64(spans.total("rt.SendData").TotalNS), float64(traced.sends))
		res.metrics["rt.fib_compiles_per_event"] = div(traced.cost.fibCompiles, ev)
		res.metrics["rt.installs_per_event"] = div(traced.cost.installs, ev)
		res.metrics["rt.inject_ns"] = div(float64(spans.total("rt.Cluster.inject").TotalNS), ev)
		res.metrics["core.resync_requests"] = traced.cost.resyncReqs
		res.metrics["runtime.allocs_per_op"] = div(traced.proc.allocObjs, float64(traced.sends))
		res.metrics["runtime.gc_cpu_frac"] = traced.proc.gcFrac()
		res.metrics["runtime.cpu_util"] = traced.proc.cpuUtil(runtime.NumCPU())
		p50 := median(plainLat)
		res.metrics["obs.trace_overhead_frac"] = div(median(tracedLat)-p50, p50)
	}

	// Audit: every conn-2 event converged, and every packet exactly once.
	start := time.Now()
	if _, err := awaitEvent(gc.c.Nodes(), 2, want[2], start); err != nil {
		res.check(false, "paced_udp16: %v", err)
	} else if err := gc.c.CheckAgreement(); err != nil {
		res.check(false, "paced_udp16: agreement: %v", err)
	}
	sum := settleLedger(led, 5*time.Second)
	res.check(sum.Dups == 0, "paced_udp16: %d duplicate deliveries", sum.Dups)
	res.check(sum.Strays == 0, "paced_udp16: %d stray deliveries", sum.Strays)
	res.outcome(uint64(sum.Packets+sum.Refused), uint64(sum.Refused+sum.Missing))

	res.metrics["ops_per_s"] = float64(len(plainLat)) / plain.wall.Seconds()
	res.metrics["runtime.cpu_ns_per_op"] = div(plain.proc.cpuNS, float64(len(plainLat)))
	res.metrics["latency_p50_ms"] = median(plainLat)
	res.metrics["computations_per_event"] = div(plain.cost.computations, float64(plain.events))
	res.metrics["floods_per_event"] = div(plain.cost.floods, float64(plain.events))
	res.metrics["peak_mem_mb"] = peakMemMB()
	if cfg.trace {
		quiesce(gc.c)
		if err := dataStages(res, gc); err != nil {
			return nil, err
		}
		cyc, err := udpCycle()
		if err != nil {
			return nil, err
		}
		res.metrics["udp.cycle_ns"] = cyc
	}
	return res, nil
}
