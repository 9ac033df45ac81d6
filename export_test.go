package topompc

import (
	"topompc/internal/netsim"
	"topompc/internal/topology"
)

// ProtocolEnv hands the external test package what a protocol entry point
// takes besides its input: the cluster's tree and its execution options
// lowered onto the engine.
func ProtocolEnv(c *Cluster) (*topology.Tree, []netsim.Option) {
	return c.t, c.exec.netsimOpts()
}

// AggregateWith runs an aggregation entry point through the typed
// aggregation pipeline, for the rows that have no Cluster method.
func (c *Cluster) AggregateWith(data [][]GroupValue, seed uint64, run aggregateProtocol) (*AggregateResult, error) {
	return c.aggregateWith(data, seed, run)
}
