package model

import (
	"fmt"

	"repro/internal/msvc"
	"repro/internal/topology"
)

// ShardInstance is one shard's view of a parent instance: the induced
// subgraph on the shard's nodes (owned nodes first, then halo nodes), the
// requests homed on those nodes re-indexed to local IDs, and the maps back to
// the parent. The per-shard combine solves the sub-instance; merge and
// boundary reconciliation use the maps to move placement bits between the
// local and parent coordinate systems.
type ShardInstance struct {
	// Sub is the sliced sub-instance. Its graph is finalized (per-shard
	// all-pairs tables over |nodes| nodes), its requests carry local homes
	// and local IDs, and its Budget starts as the parent's — callers
	// overwrite it with the shard's split share.
	Sub *Instance
	// Nodes maps local node ID → parent node ID; the first OwnNodes entries
	// are the shard's owned nodes, the rest its halo.
	Nodes []int
	// Reqs maps local request index → parent request index; the first
	// OwnReqs entries are homed on owned nodes, the rest on halo nodes.
	Reqs []int
	// OwnNodes and OwnReqs delimit the owned prefix of Nodes and Reqs.
	OwnNodes int
	// OwnReqs is the number of requests homed on owned nodes.
	OwnReqs int
}

// NewShardInstance slices in to the given nodes (parent IDs; owned nodes are
// nodes[:ownNodes], halo nodes the rest) and requests (parent indices;
// owned requests are reqs[:ownReqs]). Every listed request must be homed on a
// listed node. The parent graph may be unfinalized — the sub-instance
// finalizes its own extract — and the parent is never mutated.
//
// The parent's ColdStart model is NOT propagated: its cold set is keyed by
// parent node IDs, which would silently mis-price steps under local IDs. The
// cloud fallback, whose completion time is graph-free, carries over.
func NewShardInstance(in *Instance, nodes []int, ownNodes int, reqs []int, ownReqs int) (*ShardInstance, error) {
	return NewShardInstanceRoom(in, nodes, ownNodes, reqs, ownReqs, 0)
}

// NewShardInstanceRoom is NewShardInstance with room for room more requests
// in the capacity of the request lists, where WithHalo appends a halo's.
func NewShardInstanceRoom(in *Instance, nodes []int, ownNodes int, reqs []int, ownReqs, room int) (*ShardInstance, error) {
	if ownNodes < 0 || ownNodes > len(nodes) {
		return nil, fmt.Errorf("model: ownNodes %d outside [0,%d]", ownNodes, len(nodes))
	}
	if ownReqs < 0 || ownReqs > len(reqs) {
		return nil, fmt.Errorf("model: ownReqs %d outside [0,%d]", ownReqs, len(reqs))
	}
	si := &ShardInstance{
		Nodes:    append([]int(nil), nodes...),
		Reqs:     make([]int, 0, len(reqs)+room),
		OwnNodes: ownNodes,
		OwnReqs:  ownReqs,
	}
	if err := si.extract(in, make([]msvc.Request, 0, len(reqs)+room), reqs); err != nil {
		return nil, err
	}
	return si, nil
}

// WithHalo returns the halo view of s, a view without a halo: s's owned
// nodes followed by halo, and s's requests followed by haloReqs (parent
// indices, homed on halo nodes). The two views share s's requests: the halo
// requests are appended after them, in the room NewShardInstanceRoom left,
// which the call uses up (a second halo view of s copies). The graph is
// extracted anew, since the halo view's shortest paths may pass through halo
// nodes.
func (s *ShardInstance) WithHalo(in *Instance, halo, haloReqs []int) (*ShardInstance, error) {
	if s.OwnNodes != len(s.Nodes) || s.OwnReqs != len(s.Reqs) {
		return nil, fmt.Errorf("model: WithHalo of a view that has a halo")
	}
	own := s.Sub.Workload.Requests
	hv := &ShardInstance{
		Nodes:    append(s.Nodes[:s.OwnNodes:s.OwnNodes], halo...),
		Reqs:     s.Reqs,
		OwnNodes: s.OwnNodes,
		OwnReqs:  s.OwnReqs,
	}
	s.Sub.Workload.Requests = own[:len(own):len(own)]
	s.Reqs = s.Reqs[:len(s.Reqs):len(s.Reqs)]
	if err := hv.extract(in, own, haloReqs); err != nil {
		return nil, err
	}
	return hv, nil
}

// extract builds s.Sub over the induced subgraph on s.Nodes, with the parent
// requests reqs re-homed to local IDs and appended to requests, and appends
// reqs to s.Reqs.
func (s *ShardInstance) extract(in *Instance, requests []msvc.Request, reqs []int) error {
	sub := topology.Subgraph(in.Graph, s.Nodes)
	// localNode[v] is parent node v's local ID, -1 outside the shard
	// (Subgraph has rejected duplicate and out-of-range nodes).
	localNode := make([]int32, in.V())
	for v := range localNode {
		localNode[v] = -1
	}
	for i, v := range s.Nodes {
		localNode[v] = int32(i)
	}
	for _, h := range reqs {
		if h < 0 || h >= len(in.Workload.Requests) {
			return fmt.Errorf("model: request index %d out of range [0,%d)", h, len(in.Workload.Requests))
		}
		req := in.Workload.Requests[h] // shallow copy; Chain/EdgeData shared read-only
		if req.Home < 0 || req.Home >= len(localNode) || localNode[req.Home] == -1 {
			return fmt.Errorf("model: request %d homed on node %d outside the shard", h, req.Home)
		}
		req.ID = len(requests)
		req.Home = int(localNode[req.Home])
		requests = append(requests, req)
	}
	s.Reqs = append(s.Reqs, reqs...)
	s.Sub = &Instance{
		Graph:    sub,
		Workload: &msvc.Workload{Catalog: in.Workload.Catalog, Requests: requests},
		Lambda:   in.Lambda,
		Budget:   in.Budget,
		Cloud:    in.Cloud,
	}
	return nil
}

// Restrict projects a parent placement onto the shard's nodes, producing a
// local placement over Sub's node space.
func (s *ShardInstance) Restrict(parent Placement) Placement {
	p := NewPlacement(len(parent.X), len(s.Nodes))
	for i := range parent.X {
		for k, v := range s.Nodes {
			p.Set(i, k, parent.Has(i, v))
		}
	}
	return p
}

// ScatterOwn copies the local placement's bits on owned nodes into the
// parent placement; halo columns are left untouched (they belong to
// neighboring shards).
func (s *ShardInstance) ScatterOwn(local, parent Placement) {
	for i := range local.X {
		for k := 0; k < s.OwnNodes; k++ {
			parent.Set(i, s.Nodes[k], local.Has(i, k))
		}
	}
}
