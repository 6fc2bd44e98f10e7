package noc

import (
	"tdnuca/internal/sim"
	"tdnuca/internal/trace"
)

// Queueing contention model (optional, arch.Config.NoCContention): every
// directed link serializes a message's payload at the configured
// bandwidth, and congested links additionally charge an analytic
// queueing delay of occupancy * rho/(1-rho), where rho is the link's
// running utilization (busy cycles over observed time) — the M/M/1 mean
// waiting time, capped to keep pathological estimates bounded. An
// analytic model is used instead of literal FIFO next-free-time servers
// because tasks are simulated one at a time: messages from parallel
// tasks reach a link out of simulated-time order, which a next-free-time
// discipline would misread as unbounded queueing. The utilization
// estimate is insensitive to arrival order, keeps the simulation
// deterministic, and reproduces the first-order effect the paper's
// loaded mesh exhibits: hops across congested center links cost far more
// than hops within a quiet neighbourhood.

// linkState tracks one directed link's utilization.
type linkState struct {
	busy   sim.Cycles // total serialization cycles served
	latest sim.Cycles // latest observed activity time
}

// maxQueueFactor caps the queueing delay at this multiple of the
// message's own serialization time.
const maxQueueFactor = 8

// EnableContention switches the network to the queueing model with the
// given per-link bandwidth in bytes per cycle. It must be called before
// any traffic is sent: enabling contention mid-run would start the
// utilization estimate from empty link state while the byte counters say
// otherwise, silently under-charging queueing, so that is a panic.
func (n *Network) EnableContention(bandwidthBytes int) {
	if bandwidthBytes <= 0 {
		panic("noc: contention bandwidth must be positive")
	}
	if n.messages > 0 {
		panic("noc: EnableContention after traffic would zero the utilization state; enable it before the first Send")
	}
	n.contention = true
	n.bwBytes = bandwidthBytes
	n.links = make([][4]linkState, n.cfg.NumCores)
}

// QueueingCycles returns the total queueing delay charged to messages
// (zero when contention is disabled).
func (n *Network) QueueingCycles() sim.Cycles { return n.queued }

func (l *linkState) serve(now, occ sim.Cycles) (delay sim.Cycles) {
	if l.latest > 0 && l.busy > 0 {
		horizon := l.latest
		if now > horizon {
			horizon = now
		}
		busy := float64(l.busy)
		if f := float64(horizon); busy < f {
			rho := busy / f
			delay = sim.Cycles(float64(occ) * rho / (1 - rho))
		} else {
			delay = occ * maxQueueFactor
		}
		if delay > occ*maxQueueFactor {
			delay = occ * maxQueueFactor
		}
	}
	l.busy += occ
	if end := now + delay + occ; end > l.latest {
		l.latest = end
	}
	return delay
}

// SendAt is Send under the contention model: the message leaves `from`
// at cycle `now` and the returned latency includes router traversal,
// per-link queueing and serialization. With contention disabled it
// behaves exactly like Send.
func (n *Network) SendAt(from, to, bytes int, now sim.Cycles) (hops int, latency sim.Cycles) {
	if !n.contention {
		h, lat := n.Send(from, to, bytes)
		return h, sim.Cycles(lat)
	}
	n.messages++
	occ := sim.Cycles((bytes + n.bwBytes - 1) / n.bwBytes)
	if occ < sim.Cycles(n.cfg.LinkLatency) {
		occ = sim.Cycles(n.cfg.LinkLatency)
	}
	if n.faulty {
		return n.sendFaultyAt(from, to, bytes, now, occ)
	}
	t := now
	x, y := n.cfg.TileX(from), n.cfg.TileY(from)
	tx, ty := n.cfg.TileX(to), n.cfg.TileY(to)
	cur := from
	//tdnuca:allow(alloc) non-escaping closure over locals: inlined/stack-allocated, confirmed by the AllocsPerRun tests
	step := func(dir, nxt int) {
		n.linkBytes[cur][dir] += uint64(bytes)
		t += sim.Cycles(n.cfg.RouterLatency)
		delay := n.links[cur][dir].serve(t, occ)
		n.queued += delay
		t += delay + occ
		cur = nxt
		hops++
	}
	for x != tx {
		if x < tx {
			step(East, n.cfg.TileAt(x+1, y))
			x++
		} else {
			step(West, n.cfg.TileAt(x-1, y))
			x--
		}
	}
	for y != ty {
		if y < ty {
			step(South, n.cfg.TileAt(x, y+1))
			y++
		} else {
			step(North, n.cfg.TileAt(x, y-1))
			y--
		}
	}
	if hops > 0 {
		// Ejection router at the destination: HopLatency and Send charge
		// h+1 routers for an h-hop message, and so must the contention
		// path (the per-hop step above charges only the h upstream
		// routers).
		t += sim.Cycles(n.cfg.RouterLatency)
		n.flitHops += uint64(hops) + 1
	}
	n.byteHops += uint64(bytes) * uint64(hops)
	if n.tr != nil {
		n.tr.Emit(trace.EvNoCMsg, now, from, uint64(bytes)*uint64(hops), int32(to))
	}
	return hops, t - now
}

// SendCtrlAt is SendCtrl under the contention model.
func (n *Network) SendCtrlAt(from, to int, now sim.Cycles) (int, sim.Cycles) {
	n.ctrlMsgs++
	return n.SendAt(from, to, n.cfg.CtrlMsgBytes, now)
}

// SendDataAt is SendData under the contention model.
func (n *Network) SendDataAt(from, to int, now sim.Cycles) (int, sim.Cycles) {
	n.dataMsgs++
	n.dataBytes += uint64(n.cfg.BlockBytes)
	return n.SendAt(from, to, n.cfg.BlockBytes+n.cfg.DataHdrBytes, now)
}
