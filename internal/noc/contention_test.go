package noc

import (
	"math/big"
	"math/rand"
	"reflect"
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

// linkCase is one random link state and arrival for the serve property
// test. Gaps are drawn log-uniformly so that every regime comes up: an
// idle link, no delay, the divided middle band, the cap, and a link busy
// for its whole horizon.
type linkCase struct {
	l        linkState
	now, occ sim.Cycles
}

func (linkCase) Generate(r *rand.Rand, _ int) reflect.Value {
	gap := func() sim.Cycles { return sim.Cycles(r.Int63n(1 << uint(r.Intn(34)))) }
	var c linkCase
	c.occ = sim.Cycles(1 + r.Intn(64))
	if r.Intn(8) > 0 {
		c.l.busy = 1 + gap()
	}
	c.l.latest = c.l.busy + gap()
	if r.Intn(4) == 0 && c.l.latest > 0 {
		c.l.latest -= sim.Cycles(r.Int63n(int64(c.l.latest)))
	}
	c.now = c.l.latest + gap()
	if r.Intn(2) == 0 && c.now > 0 {
		c.now -= sim.Cycles(r.Int63n(int64(c.now)))
	}
	return reflect.ValueOf(c)
}

// refDelay is the M/M/1 queueing delay in exact rational arithmetic:
// min(floor(occ*rho/(1-rho)), maxQueueFactor*occ) with rho = busy/horizon,
// the cap once the link has been busy for its whole horizon, and nothing
// on a link that has never served.
func refDelay(occ, busy, horizon sim.Cycles) sim.Cycles {
	limit := occ * maxQueueFactor
	if busy == 0 {
		return 0
	}
	if busy >= horizon {
		return limit
	}
	rho := new(big.Rat).SetFrac(new(big.Int).SetUint64(uint64(busy)), new(big.Int).SetUint64(uint64(horizon)))
	d := new(big.Rat).Sub(big.NewRat(1, 1), rho)
	d.Quo(rho, d)
	d.Mul(d, new(big.Rat).SetInt(new(big.Int).SetUint64(uint64(occ))))
	floor := new(big.Int).Quo(d.Num(), d.Denom())
	if floor.Cmp(new(big.Int).SetUint64(uint64(limit))) >= 0 {
		return limit
	}
	return sim.Cycles(floor.Uint64())
}

// floatDelay is the float64 form serve used before it switched to
// integers, kept to document the cases it got wrong.
func floatDelay(occ, busy, horizon sim.Cycles) sim.Cycles {
	rho := float64(busy) / float64(horizon)
	return min(sim.Cycles(float64(occ)*rho/(1-rho)), occ*maxQueueFactor)
}

// TestServeMatchesExactDelay pins linkState.serve to the exact rational
// M/M/1 delay and checks the state update it leaves behind: busy grows
// by the occupancy and latest covers the message's departure.
func TestServeMatchesExactDelay(t *testing.T) {
	check := func(c linkCase) bool {
		l := c.l
		want := refDelay(c.occ, l.busy, max(l.latest, c.now))
		got := l.serve(c.now, c.occ)
		if got != want {
			t.Logf("serve(now=%d, occ=%d) on %+v = %d, want %d", c.now, c.occ, c.l, got, want)
			return false
		}
		if l.busy != c.l.busy+c.occ || l.latest != max(c.l.latest, c.now+want+c.occ) {
			t.Logf("serve(now=%d, occ=%d) on %+v left %+v", c.now, c.occ, c.l, l)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}

	for _, tc := range []struct {
		name                 string
		occ, busy, latest    sim.Cycles
		now, want, wantFloat sim.Cycles
	}{
		// occ*rho/(1-rho) = 2*(1/3)/(2/3) = 1 exactly; the float
		// quotient lands just below 1 and truncated to 0.
		{"float under-charge", 2, 1, 3, 0, 1, 0},
		{"idle link", 5, 0, 0, 10, 0, 0},
		{"no delay", 5, 10, 100, 100, 0, 0},
		{"middle band", 5, 50, 100, 100, 5, 5},
		{"cap", 5, 99, 100, 100, 40, 40},
		{"saturated", 5, 120, 100, 100, 40, 40},
	} {
		if tc.busy > 0 && tc.busy < max(tc.latest, tc.now) {
			if f := floatDelay(tc.occ, tc.busy, max(tc.latest, tc.now)); f != tc.wantFloat {
				t.Errorf("%s: float form = %d, want %d", tc.name, f, tc.wantFloat)
			}
		}
		l := linkState{busy: tc.busy, latest: tc.latest}
		if got := l.serve(tc.now, tc.occ); got != tc.want {
			t.Errorf("%s: serve = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// BenchmarkSendAtContended times the contended walk on warm links:
// control and data messages alternate over every ordered tile pair.
func BenchmarkSendAtContended(b *testing.B) {
	cfg := arch.DefaultConfig()
	n := New(&cfg)
	n.EnableContention(cfg.LinkBandwidthBytes)
	tiles := cfg.NumCores
	now := sim.Cycles(0)
	send := func(i int) {
		from, to := i%tiles, (i/tiles)%tiles
		if i%2 == 0 {
			n.SendCtrlAt(from, to, now)
		} else {
			n.SendDataAt(from, to, now)
		}
		now += 4
	}
	for i := 0; i < 4*tiles*tiles; i++ {
		send(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send(i)
	}
}
