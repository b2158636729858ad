package mobility

import "manhattanflood/internal/geom"

// Probe is a flattened snapshot of one agent's full kinematic state, the
// comparison unit of the SoA-vs-AoS differential harness
// (internal/mobility/soatest). Fields that a model does not have are
// zero on BOTH forms, so probes are always comparable with plain ==.
type Probe struct {
	// X, Y is the current position.
	X, Y float64
	// Travelled is the distance covered along the current trip (way-point
	// models only).
	Travelled float64
	// LegStart, LegEnd, TotalLen describe the current-leg cache (MRWP) or
	// the current segment (RWP, paused MRWP: TotalLen only).
	LegStart, LegEnd, TotalLen float64
	// PauseLeft is the remaining rest time (paused MRWP only).
	PauseLeft float64
	// DirX, DirY, Remaining describe the current direction epoch
	// (random-direction model only).
	DirX, DirY, Remaining float64
	// Turns, Waypoints are the cumulative counters (MRWP; RWP counts
	// waypoints only).
	Turns, Waypoints int64
}

// Prober is implemented by AoS agents that can snapshot their state.
type Prober interface {
	Probe() Probe
}

// PopProber is implemented by populations that can snapshot one agent.
type PopProber interface {
	ProbeAgent(i int) Probe
}

// Probe implements Prober.
func (a *MRWPAgent) Probe() Probe {
	return Probe{
		X: a.pos.X, Y: a.pos.Y,
		Travelled: a.travelled,
		LegStart:  a.legS, LegEnd: a.legE, TotalLen: a.legT,
		Turns: a.turns, Waypoints: a.waypoints,
	}
}

// ProbeAgent implements PopProber.
func (p *mrwpPop) ProbeAgent(i int) Probe {
	return Probe{
		X: p.view.X[i], Y: p.view.Y[i],
		Travelled: p.travelled[i],
		LegStart:  p.legS[i], LegEnd: p.legE[i], TotalLen: p.legT[i],
		Turns: p.turns[i], Waypoints: p.waypoints[i],
	}
}

// Probe implements Prober.
func (a *RWPAgent) Probe() Probe {
	return Probe{
		X: a.pos.X, Y: a.pos.Y,
		Travelled: a.travelled,
		TotalLen:  a.src.Dist(a.dst),
		Waypoints: a.waypoints,
	}
}

// ProbeAgent implements PopProber.
func (p *rwpPop) ProbeAgent(i int) Probe {
	src := geom.Point{X: p.srcX[i], Y: p.srcY[i]}
	dst := geom.Point{X: p.dstX[i], Y: p.dstY[i]}
	return Probe{
		X: p.view.X[i], Y: p.view.Y[i],
		Travelled: p.travelled[i],
		TotalLen:  src.Dist(dst),
		Waypoints: p.waypoints[i],
	}
}

// Probe implements Prober.
func (a *WalkAgent) Probe() Probe {
	return Probe{X: a.pos.X, Y: a.pos.Y}
}

// ProbeAgent implements PopProber.
func (p *walkPop) ProbeAgent(i int) Probe {
	return Probe{X: p.view.X[i], Y: p.view.Y[i]}
}

// Probe implements Prober.
func (a *DirectionAgent) Probe() Probe {
	return Probe{
		X: a.pos.X, Y: a.pos.Y,
		DirX: a.dx, DirY: a.dy, Remaining: a.remaining,
	}
}

// ProbeAgent implements PopProber.
func (p *directionPop) ProbeAgent(i int) Probe {
	return Probe{
		X: p.view.X[i], Y: p.view.Y[i],
		DirX: p.dx[i], DirY: p.dy[i], Remaining: p.remaining[i],
	}
}

// Probe implements Prober.
func (a *PausedAgent) Probe() Probe {
	return Probe{
		X: a.pos.X, Y: a.pos.Y,
		Travelled: a.travelled,
		TotalLen:  a.path.TotalLen,
		PauseLeft: a.pauseLeft,
	}
}

// ProbeAgent implements PopProber.
func (p *pausedPop) ProbeAgent(i int) Probe {
	return Probe{
		X: p.view.X[i], Y: p.view.Y[i],
		Travelled: p.travelled[i],
		TotalLen:  p.legT[i],
		PauseLeft: p.pauseLeft[i],
	}
}
