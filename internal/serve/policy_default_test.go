package serve_test

import (
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/msvc"
	"repro/internal/serve"
	"repro/internal/topology"
	"repro/internal/transport"
)

// TestBreakerGuardsDaemonDefaultPolicy: a transport session with the breaker
// on and no Policy in its daemon config guards exactly the policy NewDaemon
// installs for that config, so the default has one definition.
func TestBreakerGuardsDaemonDefaultPolicy(t *testing.T) {
	g := topology.New(2)
	g.AddNode(0, 0, 10, 50)
	g.AddNode(1, 0, 10, 50)
	if err := g.AddLink(0, 1, 2.0); err != nil {
		t.Fatal(err)
	}
	g.Finalize()
	cat := msvc.NewCatalog()
	if _, err := cat.Add("svc", 10, 2, 10); err != nil {
		t.Fatal(err)
	}
	sc := serve.Config{
		Graph: g, Catalog: cat, Lambda: 0.5, Budget: 100,
		Planner: func(in *model.Instance) (model.Placement, error) {
			return model.NewPlacement(in.M(), in.V()), nil
		},
	}
	d, err := serve.NewDaemon(sc)
	if err != nil {
		t.Fatal(err)
	}
	eng := transport.NewEngine(transport.Config{
		Factory: func(serve.Meta) (serve.Config, error) { return sc, nil },
		Breaker: transport.BreakerConfig{Enabled: true},
	})
	hello := transport.Frame{Type: transport.MsgHello, Body: []byte(serve.FormatMeta(serve.Meta{Nodes: 2}))}
	for _, fr := range eng.HandleFrame(hello) {
		if fr.Type == transport.MsgError {
			t.Fatalf("hello refused: %s", fr.Body)
		}
	}
	if eng.Guard() == nil {
		t.Fatal("breaker on, but the session has no guard")
	}
	if got, want := eng.Guard().Inner, serve.PolicyOf(d); !reflect.DeepEqual(got, want) {
		t.Fatalf("guard wraps %#v, the daemon's default is %#v", got, want)
	}
}
