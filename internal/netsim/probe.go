package netsim

import (
	"slices"

	"topompc/internal/topology"
)

// Probe weighs a plan that cannot be priced ahead — its rounds depend on
// what earlier rounds deliver — against alt, a plan the caller priced
// without running it. The probed plan runs on the engine as usual, and the
// caller asks Beaten whenever it may stop. Once the probe's rounds cost at
// least alt's price, alt is at least as cheap as the whole probed plan, whose
// cost only grows: Beaten then drops the probe's rounds and runs alt in their
// place. A caller that finishes what it meant to weigh below that price
// keeps the probe (Keep) and goes on.
//
// While a probe is open its rounds are held back from the flight recorder,
// labels and all. Kept, they are recorded as committed rounds; dropped,
// they count as priced rounds and leave no round event. Either way one
// netsim.plan instant names both plans, as RunCheapest's does: the probe's
// rounds so far and their cost, alt's rounds and price, and the pick. An
// engine runs one probe at a time.
type Probe struct {
	e       *Engine
	name    string
	alt     Candidate
	altCost float64
	altEdge topology.EdgeID
	from    int        // the engine's round count when the probe opened
	saved   [3][]int64 // the running totals then; nil when it had run no round
	held    []heldRound
}

// heldRound is a probe's round waiting for the flight recorder: its
// statistics and its start and end on the tracer's clock.
type heldRound struct {
	rd     RoundStats
	t0, t1 float64
}

// Probe opens a probe of the plan called name against alt, priced by the
// caller at altCost with bottleneck altEdge (NoEdge when nothing crosses a
// link). alt's first round runs on the inboxes the probe's last round left.
func (e *Engine) Probe(name string, alt Candidate, altCost float64, altEdge topology.EdgeID) *Probe {
	p := &Probe{e: e, name: name, alt: alt, altCost: altCost, altEdge: altEdge, from: len(e.rounds)}
	if p.from > 0 {
		p.saved = [3][]int64{slices.Clone(e.totEdge), slices.Clone(e.totSent), slices.Clone(e.totRecv)}
	}
	e.probe = p
	return p
}

// cost sums the probe's rounds and reports the bottleneck edge of the
// costliest, the first among equals.
func (p *Probe) cost() (float64, topology.EdgeID) {
	sum, top, edge := 0.0, -1.0, topology.NoEdge
	for _, rd := range p.e.rounds[p.from:] {
		sum += rd.Cost
		if rd.Cost > top {
			top, edge = rd.Cost, rd.BottleneckEdge
		}
	}
	return sum, edge
}

// Beaten reports whether the probe's rounds cost at least alt's price. If
// they do, the probe is settled for alt: its rounds leave the engine's
// rounds and totals, which read as they did when it opened, and alt runs,
// its rounds labelled with its name.
func (p *Probe) Beaten() bool {
	e := p.e
	cost, edge := p.cost()
	if cost < p.altCost {
		return false
	}
	n := len(e.rounds) - p.from
	e.rounds = e.rounds[:p.from]
	for k, tot := range [3][]int64{e.totEdge, e.totSent, e.totRecv} {
		if p.saved[k] == nil {
			clear(tot)
		} else {
			copy(tot, p.saved[k])
		}
	}
	e.probe = nil
	if e.metrics != nil {
		e.mPriced.Add(int64(n))
	}
	p.plan(n, cost, edge, p.alt.Name)
	p.alt.run(e)
	return true
}

// Keep settles the probe for its own rounds: they stay, and reach the
// flight recorder as committed rounds.
func (p *Probe) Keep() {
	e := p.e
	e.probe = nil
	for i := range p.held {
		h := &p.held[i]
		e.emitRound(&h.rd, h.t0, h.t1)
	}
	cost, edge := p.cost()
	p.plan(len(e.rounds)-p.from, cost, edge, p.name)
}

// plan emits the decision's netsim.plan instant when a tracer is attached.
func (p *Probe) plan(rounds int, cost float64, edge topology.EdgeID, pick string) {
	if p.e.tracer != nil {
		p.e.tracePlan(pick, p.e.planArgs(p.name, rounds, cost, edge), p.e.planArgs(p.alt.Name, p.alt.Rounds, p.altCost, p.altEdge))
	}
}
