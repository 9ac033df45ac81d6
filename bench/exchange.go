package main

import (
	"fmt"
	"math/rand"

	"topompc/internal/netsim"
	"topompc/internal/topology"
)

const (
	exchangeRounds = 20 // steady-state rounds per exchange op
	exchangeKeys   = 8  // keys per transfer
)

// transfer is one planned send of an exchange batch: a unicast to `to`, or
// a multicast to dsts when dsts is non-nil.
type transfer struct {
	from, to topology.NodeID
	dsts     []topology.NodeID
}

// queue plans one sender's transfers into its outbox.
func queue(out *netsim.Outbox, tfs []transfer, keys []uint64) {
	for i := range tfs {
		if tf := &tfs[i]; tf.dsts == nil {
			out.Send(tf.to, netsim.TagData, keys)
		} else {
			out.Multicast(tf.dsts, netsim.TagData, keys)
		}
	}
}

// exchangeOp drives the netsim engine directly: exchangeRounds rounds, each
// planning the same seeded batch of tiny transfers between random compute
// nodes of the caterpillar (through Exchange.Plan, the way the protocols and
// the netsim probe plan) and executing it with lean stats. The op plays the
// role of the protocol, so its time lands in core.protocol_ms.
//
// The expected per-round cost, message and element totals and per-node
// inbox counts are computed from the batch by walking the caterpillar
// (wantRound), independently of netsim's LCA-based accounting.
type exchangeOp struct {
	name     string
	tree     *topology.Tree
	batch    []transfer
	bySender [][]transfer // the batch grouped by sender NodeID, for plan
	plan     func(v topology.NodeID, out *netsim.Outbox)
	keys     []uint64
	hash     uint64

	wantCost     float64
	wantMessages int
	wantElements int64
	wantInbox    []int32 // by compute index

	engines map[engineKey]*netsim.Engine
	engine  *netsim.Engine
}

type engineKey struct {
	workers int
	traced  bool
}

// newExchangeOp draws `transfers` transfers; with mcastEvery > 0 every
// mcastEvery-th one is a 3-destination multicast. Senders never address
// themselves and multicast destinations are distinct, so every planned
// delivery crosses the network.
func newExchangeOp(name string, tree *topology.Tree, rng *rand.Rand, transfers, mcastEvery int) (*exchangeOp, error) {
	vs := tree.ComputeNodes()
	if len(vs) < 4 {
		return nil, fmt.Errorf("bench: %s needs at least 4 compute nodes, tree has %d", name, len(vs))
	}
	x := &exchangeOp{name: name, tree: tree, keys: make([]uint64, exchangeKeys), engines: map[engineKey]*netsim.Engine{}}
	for i := range x.keys {
		x.keys[i] = rng.Uint64()
	}
	other := func(taken ...topology.NodeID) topology.NodeID {
	draw:
		for {
			v := vs[rng.Intn(len(vs))]
			for _, t := range taken {
				if v == t {
					continue draw
				}
			}
			return v
		}
	}
	x.batch = make([]transfer, transfers)
	x.bySender = make([][]transfer, tree.NumNodes())
	x.plan = func(v topology.NodeID, out *netsim.Outbox) { queue(out, x.bySender[v], x.keys) }
	for i := range x.batch {
		from := vs[rng.Intn(len(vs))]
		tf := transfer{from: from}
		if mcastEvery > 0 && i%mcastEvery == mcastEvery-1 {
			a := other(from)
			b := other(from, a)
			tf.dsts = []topology.NodeID{a, b, other(from, a, b)}
		} else {
			tf.to = other(from)
		}
		x.batch[i] = tf
		x.bySender[from] = append(x.bySender[from], tf)
		x.hash = (x.hash ^ uint64(tf.from)<<32 ^ uint64(tf.to)) * 0x100000001b3
	}
	if err := x.wantRound(); err != nil {
		return nil, err
	}
	return x, nil
}

// wantRound computes what one round of the batch must cost on a
// caterpillar: a transfer loads the leg of each endpoint and every spine
// link between the outermost endpoints' routers (the Steiner tree of a
// caterpillar), so per-link traffic is one difference array over spine
// positions.
func (x *exchangeOp) wantRound() error {
	t := x.tree
	// Lay the routers out along the spine, starting from an end router.
	router := func(v topology.NodeID) topology.NodeID { return t.Neighbors(v)[0].To }
	routerNeighbors := func(r topology.NodeID) (out []topology.Half) {
		for _, h := range t.Neighbors(r) {
			if !t.IsCompute(h.To) {
				out = append(out, h)
			}
		}
		return out
	}
	start := topology.NoNode
	routers := 0
	for v := topology.NodeID(0); int(v) < t.NumNodes(); v++ {
		if t.IsCompute(v) {
			if t.Degree(v) != 1 {
				return fmt.Errorf("bench: %s: compute node %d is not a leaf", x.name, v)
			}
			continue
		}
		routers++
		if len(routerNeighbors(v)) <= 1 && start == topology.NoNode {
			start = v
		}
	}
	pos := make([]int32, t.NumNodes()) // router -> spine position
	spine := make([]topology.EdgeID, 0, routers)
	for prev, cur, k := topology.NoNode, start, int32(0); ; k++ {
		pos[cur] = k
		next := topology.NoNode
		for _, h := range routerNeighbors(cur) {
			if h.To != prev {
				next = h.To
				spine = append(spine, h.Edge)
			}
		}
		if next == topology.NoNode {
			break
		}
		prev, cur = cur, next
	}
	if len(spine) != routers-1 {
		return fmt.Errorf("bench: %s: topology is not a caterpillar (%d routers, %d spine links)", x.name, routers, len(spine))
	}

	n := int64(len(x.keys))
	leg := make([]int64, t.NumNodes())   // traffic on each compute node's leg
	diff := make([]int64, len(spine)+1)  // difference array over spine links
	inbox := make([]int32, t.NumNodes()) // deliveries per compute node
	for _, tf := range x.batch {
		ends := append([]topology.NodeID{tf.from}, tf.dsts...)
		if tf.dsts == nil {
			ends = append(ends, tf.to)
		}
		lo, hi := pos[router(tf.from)], pos[router(tf.from)]
		for i, v := range ends {
			leg[v] += n
			p := pos[router(v)]
			lo, hi = min(lo, p), max(hi, p)
			if i > 0 {
				inbox[v]++
				x.wantMessages++
				x.wantElements += n
			}
		}
		diff[lo] += n
		diff[hi] -= n
	}
	for v, c := range leg {
		if c > 0 {
			x.wantCost = max(x.wantCost, float64(c)/t.Bandwidth(t.Neighbors(topology.NodeID(v))[0].Edge))
		}
	}
	var run int64
	for k, e := range spine {
		run += diff[k]
		x.wantCost = max(x.wantCost, float64(run)/t.Bandwidth(e))
	}
	for _, v := range t.ComputeNodes() {
		x.wantInbox = append(x.wantInbox, inbox[v])
	}
	return nil
}

// attach selects (building and warming on first use) the engine for cfg.
// Both exchange buffers of a new engine are grown by two untimed rounds, so
// every timed round is steady state.
func (x *exchangeOp) attach(cfg execCfg) {
	key := engineKey{cfg.workers, cfg.tr != nil}
	if e, ok := x.engines[key]; ok {
		x.engine = e
		return
	}
	x.engine = netsim.NewEngine(x.tree, cfg.netsimOpts(true)...)
	x.engines[key] = x.engine
	x.round()
	x.round()
}

func (x *exchangeOp) round() netsim.RoundStats {
	ex := x.engine.Exchange()
	ex.Plan(x.plan)
	return ex.Execute()
}

func (x *exchangeOp) op() op {
	return op{
		name: x.name,
		run: func() (modelNums, error) {
			var m modelNums
			for r := 0; r < exchangeRounds; r++ {
				st := x.round()
				if st.Cost != x.wantCost || st.Messages != x.wantMessages || st.Elements != x.wantElements {
					return m, fmt.Errorf("%s round %d: cost %v, %d messages, %d elements; the batch implies %v, %d, %d",
						x.name, r, st.Cost, st.Messages, st.Elements, x.wantCost, x.wantMessages, x.wantElements)
				}
				m.Cost += st.Cost
				m.Rounds++
				m.Messages += int64(st.Messages)
				m.Elements += st.Elements
			}
			return m, nil
		},
		check: func() error {
			for i, v := range x.tree.ComputeNodes() {
				if got := x.engine.Inbox(v).Len(); got != int(x.wantInbox[i]) {
					return fmt.Errorf("%s: node %d holds %d messages after the last round, the batch implies %d",
						x.name, v, got, x.wantInbox[i])
				}
			}
			return nil
		},
	}
}
