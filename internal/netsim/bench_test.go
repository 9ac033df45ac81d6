package netsim

import (
	"math/rand"
	"testing"

	"topompc/internal/topology"
)

// benchCaterpillar builds a deep caterpillar: a 256-router spine with one
// compute leg per router (512 nodes total), the worst case for per-message
// path walking because a random unicast crosses O(spine length) links.
func benchCaterpillar(tb testing.TB) *topology.Tree {
	spine := make([]float64, 256)
	for i := range spine {
		spine[i] = 1 + float64(i%7)
	}
	t, err := topology.Caterpillar(spine, 4)
	if err != nil {
		tb.Fatal(err)
	}
	return t
}

// benchTransfers generates a fixed batch of unicasts plus a sprinkling of
// multicasts between random compute nodes.
type benchTransfer struct {
	from, to topology.NodeID
	dsts     []topology.NodeID
	keys     []uint64
}

func benchTransferBatch(t *topology.Tree, count int) []benchTransfer {
	rng := rand.New(rand.NewSource(99))
	vs := t.ComputeNodes()
	keys := make([]uint64, 8)
	out := make([]benchTransfer, 0, count)
	for i := 0; i < count; i++ {
		from := vs[rng.Intn(len(vs))]
		if i%16 == 15 {
			dsts := []topology.NodeID{vs[rng.Intn(len(vs))], vs[rng.Intn(len(vs))], vs[rng.Intn(len(vs))]}
			out = append(out, benchTransfer{from: from, dsts: dsts, keys: keys})
		} else {
			out = append(out, benchTransfer{from: from, to: vs[rng.Intn(len(vs))], keys: keys})
		}
	}
	return out
}

// BenchmarkRoutingPerSend accounts one round of 4096 transfers on the
// 256-spine caterpillar with the serial per-message Round oracle
// (round_oracle_test.go): every unicast walks its O(depth) tree path.
func BenchmarkRoutingPerSend(b *testing.B) {
	tr := benchCaterpillar(b)
	batch := benchTransferBatch(tr, 4096)
	e := NewEngine(tr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd := e.BeginRound()
		for _, tf := range batch {
			if tf.dsts == nil {
				rd.Send(tf.from, tf.to, TagData, tf.keys)
			} else {
				rd.Multicast(tf.from, tf.dsts, TagData, tf.keys)
			}
		}
		rd.Finish()
	}
}

// BenchmarkRoutingExchange accounts the identical round through the
// exchange plan: O(1) tree-difference deltas per unicast and one
// subtree-sum sweep, sharded across workers.
func BenchmarkRoutingExchange(b *testing.B) {
	tr := benchCaterpillar(b)
	batch := benchTransferBatch(tr, 4096)
	e := NewEngine(tr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := e.Exchange()
		for _, tf := range batch {
			if tf.dsts == nil {
				x.Out(tf.from).Send(tf.to, TagData, tf.keys)
			} else {
				x.Out(tf.from).Multicast(tf.dsts, TagData, tf.keys)
			}
		}
		x.Execute()
	}
}

// BenchmarkRoutingExchangeSerial is the exchange path pinned to one worker,
// isolating the algorithmic win from parallelism.
func BenchmarkRoutingExchangeSerial(b *testing.B) {
	tr := benchCaterpillar(b)
	batch := benchTransferBatch(tr, 4096)
	e := NewEngine(tr, WithWorkers(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := e.Exchange()
		for _, tf := range batch {
			if tf.dsts == nil {
				x.Out(tf.from).Send(tf.to, TagData, tf.keys)
			} else {
				x.Out(tf.from).Multicast(tf.dsts, TagData, tf.keys)
			}
		}
		x.Execute()
	}
}

// BenchmarkExchangeWide is the dataplane-wide kernel without bench/: one
// steady-state round on the 25,001-leaf graded caterpillar, 5·10⁴ transfers
// of 8 keys with every 4th a 3-destination multicast, planned per sender
// through Plan and executed.
func BenchmarkExchangeWide(b *testing.B) {
	spine := make([]float64, 25000)
	for i := range spine {
		spine[i] = 1 + float64(i%7)
	}
	tr, err := topology.Caterpillar(spine, 4)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	vs := tr.ComputeNodes()
	keys := make([]uint64, 8)
	bySender := make([][]benchTransfer, tr.NumNodes())
	for i := 0; i < 50000; i++ {
		from := vs[rng.Intn(len(vs))]
		tf := benchTransfer{to: vs[rng.Intn(len(vs))]}
		if i%4 == 3 {
			tf.dsts = []topology.NodeID{tf.to, vs[rng.Intn(len(vs))], vs[rng.Intn(len(vs))]}
		}
		bySender[from] = append(bySender[from], tf)
	}
	plan := func(v topology.NodeID, out *Outbox) {
		for _, tf := range bySender[v] {
			if tf.dsts == nil {
				out.Send(tf.to, TagData, keys)
			} else {
				out.Multicast(tf.dsts, TagData, keys)
			}
		}
	}
	e := NewEngine(tr)
	round := func() {
		x := e.Exchange()
		x.Plan(plan)
		x.Execute()
	}
	round() // grow the op logs and both arenas
	round()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}
