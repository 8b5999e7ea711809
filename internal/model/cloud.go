package model

import (
	"repro/internal/msvc"
)

// CloudConfig models the remote cloud data center the paper designates as
// the fallback when no edge instance of a requested microservice exists
// ("all user requests … will fail or have to rely on the cloud servers as a
// fallback option", Section IV-C). The cloud is reachable from every edge
// server over a WAN whose per-GB transfer cost dwarfs edge links, and runs
// microservices on ample compute.
type CloudConfig struct {
	// TransferCost is the WAN seconds-per-GB between any edge server and
	// the cloud (typically 10–100× an edge path cost).
	TransferCost float64
	// Compute is the cloud's per-instance compute capacity, GFLOP/s.
	Compute float64
	// ColdStart is the spin-up delay, in seconds, every cloud-served
	// request pays: the cloud function starts cold. 0 — the default —
	// leaves every cloud completion time bitwise unchanged.
	ColdStart float64
}

// DefaultCloudConfig returns a WAN 20× slower than a typical edge path
// (≈ 1 s/GB) with generous compute.
func DefaultCloudConfig() CloudConfig {
	return CloudConfig{TransferCost: 1.0, Compute: 50}
}

// CloudCompletionTime returns the completion time of serving the entire
// request from the cloud: ingress and egress cross the WAN, inter-service
// transfers are intra-datacenter (free at this granularity), and every step
// computes on cloud capacity. The cloud function's spin-up (ColdStart) is
// the last term, so every evaluator that prices the cloud prices it and
// counts Eq. 4 on it.
func (cc CloudConfig) CloudCompletionTime(cat *msvc.Catalog, req *msvc.Request) float64 {
	d := (req.DataIn + req.DataOut) * cc.TransferCost
	for _, s := range req.Chain {
		d += cat.Service(s).Compute / cc.Compute
	}
	return d + cc.ColdStart
}
