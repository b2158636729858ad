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
// context's error. An attached Observer sees position-only views, and its
// error stops the run the same way.
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
	err = s.run(opts.Ctx, f, maxSteps, nil, nil)
	st := f.Stats()
	out := TreeResult{
		Completed:       f.Done(),
		Time:            s.w.Time(),
		MaxDepth:        st.MaxDepth,
		MeanDepth:       st.MeanDepth,
		CourierEdges:    st.CourierEdges,
		CourierFraction: st.CourierFraction,
		MaxCourierDelay: st.MaxEdgeDelay,
		Source:          source,
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
// views (the informed-set enrichment is specific to Flood), and its error
// stops the run the same way.
func (s *Simulation) RunProtocol(opts ProtocolOptions) (ProtocolResult, error) {
	source, maxSteps, err := s.resolveRun(runSpec{
		source: opts.Source, sourceAgent: opts.SourceAgent, maxSteps: opts.MaxSteps,
	})
	if err != nil {
		return ProtocolResult{}, err
	}
	var p interface {
		core.Process
		InformedCount() int
	}
	switch opts.Protocol {
	case Flooding:
		p, err = core.NewFlooding(s.w, source)
	case Parsimonious:
		prob := opts.P
		if prob == 0 {
			prob = 0.5
		}
		p, err = core.NewParsimoniousFlooding(s.w, source, prob, s.cfg.Seed^0xbeef)
	case Gossip:
		k := opts.K
		if k == 0 {
			k = 1
		}
		p, err = core.NewKGossip(s.w, source, k, s.cfg.Seed^0xfeed)
	default:
		return ProtocolResult{}, fmt.Errorf("manhattan: unknown protocol %v", opts.Protocol)
	}
	if err != nil {
		return ProtocolResult{}, fmt.Errorf("manhattan: %w", err)
	}
	err = s.run(opts.Ctx, p, maxSteps, nil, nil)
	out := ProtocolResult{Completed: p.Done(), Time: s.w.Time(), Informed: p.InformedCount()}
	if pf, ok := p.(*core.ParsimoniousFlooding); ok {
		out.Transmissions = pf.Transmissions()
	}
	if err != nil {
		return out, fmt.Errorf("manhattan: %w", err)
	}
	return out, nil
}
