package manhattan

import (
	"context"
	"fmt"

	"manhattanflood/internal/core"
)

// TreeResult reports an infection-tree-instrumented flooding run: the
// propagation skeleton's depth and its split between relay hops (one step
// per edge, the Central Zone's mode) and courier legs (an agent carries
// the message for several steps, the Suburb's mode).
type TreeResult struct {
	Completed bool
	Time      int
	// MaxDepth / MeanDepth are hop distances from the source in the
	// infection tree.
	MaxDepth  int
	MeanDepth float64
	// CourierEdges counts tree edges whose parent-to-child delay exceeds
	// one step; CourierFraction is their share; MaxCourierDelay is the
	// longest single carry.
	CourierEdges    int
	CourierFraction float64
	MaxCourierDelay int
	Source          int
}

// FloodTree runs flooding instrumented with the infection tree and returns
// its geometry. Like Flood, it advances the simulation. Source, SourceAgent
// and MaxSteps default exactly as in Flood (resolveRun); a non-nil Ctx
// cancels between steps, returning the partial geometry alongside the
// context's error. An attached Observer sees position-only views.
func (s *Simulation) FloodTree(opts FloodOptions) (TreeResult, error) {
	source, maxSteps, err := s.resolveRun(runSpec{
		source: opts.Source, sourceAgent: opts.SourceAgent, maxSteps: opts.MaxSteps,
	})
	if err != nil {
		return TreeResult{}, err
	}
	f, err := core.NewTreeFlooding(s.w, source)
	if err != nil {
		return TreeResult{}, fmt.Errorf("manhattan: %w", err)
	}
	time, ok, err := f.RunContext(opts.Ctx, maxSteps)
	st := f.Stats()
	out := TreeResult{
		Completed:       ok,
		Time:            time,
		MaxDepth:        st.MaxDepth,
		MeanDepth:       st.MeanDepth,
		CourierEdges:    st.CourierEdges,
		CourierFraction: st.CourierFraction,
		MaxCourierDelay: st.MaxEdgeDelay,
		Source:          source,
	}
	if err == nil {
		err = s.obsErr
	}
	if err != nil {
		return out, fmt.Errorf("manhattan: %w", err)
	}
	return out, nil
}

// Protocol selects a dissemination protocol variant.
type Protocol uint8

// Protocol variants.
const (
	// Flooding is the paper's protocol: every informed agent transmits
	// every step.
	Flooding Protocol = iota
	// Parsimonious transmits with probability P per informed agent per
	// step (Baumann–Crescenzi–Fraigniaud style).
	Parsimonious
	// Gossip forwards to at most K uniformly chosen neighbors per step.
	Gossip
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	switch p {
	case Flooding:
		return "flooding"
	case Parsimonious:
		return "parsimonious"
	case Gossip:
		return "gossip"
	default:
		return fmt.Sprintf("Protocol(%d)", uint8(p))
	}
}

// ProtocolOptions configures RunProtocol.
type ProtocolOptions struct {
	Protocol Protocol
	// P is the forwarding probability for Parsimonious (default 0.5).
	P float64
	// K is the fan-out for Gossip (default 1).
	K int
	// Ctx cancels the run between steps when non-nil, exactly as
	// FloodOptions.Ctx does for Flood.
	Ctx context.Context
	// Source, SourceAgent and MaxSteps default as in FloodOptions
	// (resolveRun): SourceExplicit makes SourceAgent the source, with
	// agent 0 allowed, and any other Source requires SourceAgent 0.
	Source      Source
	SourceAgent int
	MaxSteps    int
}

// ProtocolResult reports a protocol-variant run.
type ProtocolResult struct {
	Completed bool
	Time      int
	Informed  int
	// Transmissions is filled for Parsimonious (agent-transmission count).
	Transmissions int64
}

// RunProtocol runs a dissemination-protocol variant over the simulation.
// A non-nil Ctx cancels between steps with the partial result returned
// alongside the context's error. An attached Observer sees position-only
// views (the informed-set enrichment is specific to Flood).
func (s *Simulation) RunProtocol(opts ProtocolOptions) (ProtocolResult, error) {
	source, maxSteps, err := s.resolveRun(runSpec{
		source: opts.Source, sourceAgent: opts.SourceAgent, maxSteps: opts.MaxSteps,
	})
	if err != nil {
		return ProtocolResult{}, err
	}
	var out ProtocolResult
	switch opts.Protocol {
	case Flooding:
		f, ferr := core.NewFlooding(s.w, source)
		if ferr != nil {
			return ProtocolResult{}, fmt.Errorf("manhattan: %w", ferr)
		}
		res, rerr := f.RunContext(opts.Ctx, maxSteps)
		out = ProtocolResult{Completed: res.Completed, Time: res.Time, Informed: res.Informed}
		err = rerr
	case Parsimonious:
		p := opts.P
		if p == 0 {
			p = 0.5
		}
		f, ferr := core.NewParsimoniousFlooding(s.w, source, p, s.cfg.Seed^0xbeef)
		if ferr != nil {
			return ProtocolResult{}, fmt.Errorf("manhattan: %w", ferr)
		}
		time, ok, rerr := f.RunContext(opts.Ctx, maxSteps)
		out = ProtocolResult{
			Completed:     ok,
			Time:          time,
			Informed:      f.InformedCount(),
			Transmissions: f.Transmissions(),
		}
		err = rerr
	case Gossip:
		k := opts.K
		if k == 0 {
			k = 1
		}
		g, gerr := core.NewKGossip(s.w, source, k, s.cfg.Seed^0xfeed)
		if gerr != nil {
			return ProtocolResult{}, fmt.Errorf("manhattan: %w", gerr)
		}
		time, ok, rerr := g.RunContext(opts.Ctx, maxSteps)
		out = ProtocolResult{Completed: ok, Time: time, Informed: g.InformedCount()}
		err = rerr
	default:
		return ProtocolResult{}, fmt.Errorf("manhattan: unknown protocol %v", opts.Protocol)
	}
	if err == nil {
		err = s.obsErr
	}
	if err != nil {
		return out, fmt.Errorf("manhattan: %w", err)
	}
	return out, nil
}
