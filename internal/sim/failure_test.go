package sim

import (
	"errors"
	"testing"

	"repro/internal/core"

	"repro/internal/model"
	"repro/internal/msvc"
	"repro/internal/topology"
)

type errAlgo struct{}

func (errAlgo) Name() string               { return "err" }
func (errAlgo) Routing() model.RoutingMode { return model.RouteModeOptimal }
func (errAlgo) Place(*model.Instance) (model.Placement, error) {
	return model.Placement{}, errors.New("nope")
}

func TestAlgorithmErrorPropagates(t *testing.T) {
	g := topology.RandomGeometric(6, 0.4, topology.DefaultGenConfig(), 31)
	cat := msvc.EShopCatalog(msvc.DefaultDatasetConfig(), 31)
	cfg := DefaultConfig(g, cat, 5, 31)
	cfg.DurationMinutes = 10
	res, err := Run(cfg, errAlgo{})
	if err == nil {
		t.Fatal("algorithm error swallowed")
	}
	// Mid-run failures return the partial result covering completed slots.
	if res == nil {
		t.Fatal("mid-run error dropped the partial result")
	}
	if len(res.Records) >= int(cfg.DurationMinutes/cfg.SlotMinutes) {
		t.Fatalf("partial result claims %d completed slots despite failing", len(res.Records))
	}
	for _, s := range res.Records {
		if s.Requests != 0 {
			t.Fatalf("slot %d with requests recorded before the failing Place", s.Epoch)
		}
	}
}

func TestZeroMeanInterarrivalDefaults(t *testing.T) {
	g := topology.RandomGeometric(6, 0.4, topology.DefaultGenConfig(), 32)
	cat := msvc.EShopCatalog(msvc.DefaultDatasetConfig(), 32)
	cfg := DefaultConfig(g, cat, 5, 32)
	cfg.DurationMinutes = 10
	cfg.MeanInterarrival = 0
	res, err := Run(cfg, JDR{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) == 0 {
		t.Fatal("no slots simulated")
	}
}

func TestEmptyResultAccessors(t *testing.T) {
	r := &Result{}
	if r.MaxDelay() != 0 || r.MedianDelay() != 0 || r.TotalCost() != 0 {
		t.Fatal("empty-result accessors should return 0")
	}
}

func TestSoCLOnlineAdapterAccumulatesChurn(t *testing.T) {
	g := topology.RandomGeometric(8, 0.4, topology.DefaultGenConfig(), 33)
	cat := msvc.EShopCatalog(msvc.DefaultDatasetConfig(), 33)
	algo := NewSoCLOnline(coreDefault())
	cfg := DefaultConfig(g, cat, 12, 33)
	cfg.DurationMinutes = 25
	cfg.MoveProb = 0.9
	if _, err := Run(cfg, algo); err != nil {
		t.Fatal(err)
	}
	if algo.Churn < 0 {
		t.Fatalf("negative churn %d", algo.Churn)
	}
}

// coreDefault avoids importing core in multiple test files' import blocks.
func coreDefault() core.Config { return core.DefaultConfig() }
