package noc

import (
	"testing"
	"testing/quick"

	"tdnuca/internal/arch"
	"tdnuca/internal/sim"
)

func contended(t *testing.T) (*Network, *arch.Config) {
	t.Helper()
	cfg := arch.DefaultConfig()
	n := New(&cfg)
	n.EnableContention(cfg.LinkBandwidthBytes)
	return n, &cfg
}

func TestContentionDisabledMatchesSend(t *testing.T) {
	cfg := arch.DefaultConfig()
	n := New(&cfg)
	if n.contention {
		t.Fatal("contention on by default")
	}
	hops, lat := n.SendAt(0, 3, 64, 1000)
	if hops != 3 || lat != sim.Cycles(cfg.HopLatency(3)) {
		t.Errorf("SendAt without contention = %d hops, %d cycles", hops, lat)
	}
}

func TestQuietLinkHasNoQueueing(t *testing.T) {
	n, cfg := contended(t)
	// First message ever: pure router + serialization latency over h+1
	// routers and h links.
	occ := sim.Cycles((64 + cfg.LinkBandwidthBytes - 1) / cfg.LinkBandwidthBytes)
	hops, lat := n.SendAt(0, 2, 64, 0)
	want := sim.Cycles(hops+1)*sim.Cycles(cfg.RouterLatency) + sim.Cycles(hops)*occ
	if lat != want {
		t.Errorf("quiet-link latency = %d, want %d", lat, want)
	}
	if n.QueueingCycles() != 0 {
		t.Errorf("quiet network accumulated %d queueing cycles", n.QueueingCycles())
	}
}

func TestSaturatedLinkQueues(t *testing.T) {
	n, _ := contended(t)
	// Hammer one link with back-to-back block transfers at the same time:
	// utilization climbs and queueing must appear (bounded by the cap).
	var total sim.Cycles
	for i := 0; i < 200; i++ {
		_, lat := n.SendAt(0, 1, 72, sim.Cycles(i))
		total += lat
	}
	if n.QueueingCycles() == 0 {
		t.Fatal("saturated link never queued")
	}
	// The cap bounds each 1-hop message at two routers (injection +
	// ejection) + serialization + maxQueueFactor x serialization.
	occ := sim.Cycles((72 + 15) / 16)
	maxPer := sim.Cycles(2) + occ*(maxQueueFactor+1)
	if avg := total / 200; avg > maxPer {
		t.Errorf("average latency %d exceeds the per-message bound %d", avg, maxPer)
	}
}

func TestContentionPenalizesLongPaths(t *testing.T) {
	n, _ := contended(t)
	// Warm the whole mesh uniformly.
	for i := 0; i < 400; i++ {
		n.SendAt(i%16, (i*7)%16, 72, sim.Cycles(i*3))
	}
	_, near := n.SendAt(5, 6, 72, 2000)
	_, far := n.SendAt(0, 15, 72, 2000)
	if far <= near {
		t.Errorf("6-hop latency %d not above 1-hop latency %d under load", far, near)
	}
}

func TestContentionOrderInsensitivity(t *testing.T) {
	// The utilization estimate must not blow up when a message with an
	// *earlier* timestamp arrives after later ones (parallel tasks are
	// simulated sequentially).
	n, _ := contended(t)
	for i := 0; i < 100; i++ {
		n.SendAt(0, 1, 72, sim.Cycles(100000+i*10)) // "late" task first
	}
	_, lat := n.SendAt(0, 1, 72, 50) // "early" task second
	occ := sim.Cycles(72 / 16)
	if lat > (occ*(maxQueueFactor+1)+sim.Cycles(2))*2 {
		t.Errorf("out-of-order arrival charged %d cycles; inflation bug", lat)
	}
}

func TestContentionDeterminism(t *testing.T) {
	run := func() sim.Cycles {
		n, _ := contended(t)
		var total sim.Cycles
		for i := 0; i < 500; i++ {
			_, lat := n.SendAt(i%16, (i*5)%16, 72, sim.Cycles(i*7))
			total += lat
		}
		return total
	}
	if run() != run() {
		t.Error("contention model nondeterministic")
	}
}

// TestSendSendAtParityNoContention is the property test for the
// non-contention fallback: with contention disabled, SendAt must be
// indistinguishable from Send — same hops, same latency, and identical
// updates to every counter (messages, linkBytes, byteHops, flitHops,
// ctrl/data message and byte counts).
func TestSendSendAtParityNoContention(t *testing.T) {
	f := func(pairs []uint16, now uint16) bool {
		cfg := arch.DefaultConfig()
		a, b := New(&cfg), New(&cfg)
		for i, p := range pairs {
			from := int(p) % cfg.NumCores
			to := int(p/16) % cfg.NumCores
			var ha, hb int
			var la, lb sim.Cycles
			switch i % 3 {
			case 0:
				h, l := a.Send(from, to, 72)
				ha, la = h, sim.Cycles(l)
				hb, lb = b.SendAt(from, to, 72, sim.Cycles(now))
			case 1:
				h, l := a.SendCtrl(from, to)
				ha, la = h, sim.Cycles(l)
				hb, lb = b.SendCtrlAt(from, to, sim.Cycles(now))
			default:
				h, l := a.SendData(from, to)
				ha, la = h, sim.Cycles(l)
				hb, lb = b.SendDataAt(from, to, sim.Cycles(now))
			}
			if ha != hb || la != lb {
				return false
			}
		}
		if a.Messages() != b.Messages() || a.ByteHops() != b.ByteHops() ||
			a.FlitHops() != b.FlitHops() || a.CtrlMessages() != b.CtrlMessages() ||
			a.DataMessages() != b.DataMessages() || a.QueueingCycles() != b.QueueingCycles() {
			return false
		}
		for tile := 0; tile < cfg.NumCores; tile++ {
			for dir := 0; dir < 4; dir++ {
				if a.LinkBytes(tile, dir) != b.LinkBytes(tile, dir) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestEnableContentionAfterTrafficPanics pins the fix for the silent
// state-zeroing hazard: switching the model on mid-run must refuse
// rather than restart the utilization estimate from empty links.
func TestEnableContentionAfterTrafficPanics(t *testing.T) {
	cfg := arch.DefaultConfig()
	n := New(&cfg)
	n.Send(0, 1, 64)
	defer func() {
		if recover() == nil {
			t.Error("EnableContention after traffic did not panic")
		}
	}()
	n.EnableContention(cfg.LinkBandwidthBytes)
}

func TestEnableContentionRejectsZeroBandwidth(t *testing.T) {
	cfg := arch.DefaultConfig()
	n := New(&cfg)
	defer func() {
		if recover() == nil {
			t.Error("zero bandwidth accepted")
		}
	}()
	n.EnableContention(0)
}
