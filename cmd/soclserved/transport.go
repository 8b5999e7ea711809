package main

// The transport modes: -listen serves the daemon behind the framed socket
// (or loopback-HTTP) frontend, -send plays a script at a listening daemon as
// a load client, and -selftest-transport is the CI smoke that proves the
// frontend preserves the bitwise replay contract under wire chaos.

import (
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/transport"
)

// parseListenSpec splits "unix:/path", "tcp:host:port", or "http:host:port".
func parseListenSpec(spec string) (network, addr string, isHTTP bool, err error) {
	i := strings.IndexByte(spec, ':')
	if i < 0 {
		return "", "", false, fmt.Errorf("address %q wants unix:PATH, tcp:HOST:PORT, or http:HOST:PORT", spec)
	}
	network, addr = spec[:i], spec[i+1:]
	switch network {
	case "unix", "tcp":
		return network, addr, false, nil
	case "http":
		return "tcp", addr, true, nil
	default:
		return "", "", false, fmt.Errorf("unknown listen scheme %q (want unix, tcp, or http)", network)
	}
}

// transportConfig assembles the frontend hardening from the CLI flags. The
// session factory closes over the CLI options so a wire session builds the
// exact daemon -script mode would.
func transportConfig(o options) transport.Config {
	tc := transport.Config{
		Factory: func(meta serve.Meta) (serve.Config, error) {
			return daemonConfig(o, meta)
		},
		Ordered:       !o.unordered,
		DeadlineSlots: o.deadline,
		MaxQueue:      o.queue,
		Capacity:      o.capacity,
	}
	if o.breakerOn {
		tc.Breaker = transport.BreakerConfig{Enabled: true, CostBudget: o.costBudget}
		cc := model.DefaultCloudConfig()
		tc.Ladder = transport.LadderConfig{
			CloudTransfer:  cc.TransferCost,
			CloudCompute:   cc.Compute,
			CloudColdStart: 0.25,
		}
	}
	return tc
}

func chaosConfig(o options) *chaos.LinkConfig {
	if o.drop <= 0 && o.dup <= 0 && o.delay <= 0 {
		return nil
	}
	return &chaos.LinkConfig{
		Seed:  stats.SplitSeed(o.seed, "transport/chaos"),
		Drop:  o.drop,
		Dup:   o.dup,
		Delay: o.delay,
	}
}

// runListen serves the framed frontend until interrupted — or, with -once,
// until the first session finishes, whereupon it prints that session's
// summary and per-epoch report and exits.
func runListen(o options) error {
	network, addr, isHTTP, err := parseListenSpec(o.listen)
	if err != nil {
		return err
	}
	tc := transportConfig(o)
	if isHTTP {
		return runListenHTTP(addr, tc, o)
	}
	if network == "unix" {
		os.Remove(addr) // clear a stale socket from a previous run
	}
	srv, err := transport.Listen(network, addr, tc)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "soclserved: listening on %s:%s (ordered=%v deadline=%d queue=%d capacity=%d breaker=%v)\n",
		network, addr, !o.unordered, o.deadline, o.queue, o.capacity, o.breakerOn)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve() }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	defer signal.Stop(sig)
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case err := <-errCh:
			srv.Close()
			return err
		case <-sig:
			srv.Close()
			fmt.Fprintln(os.Stderr, "soclserved: interrupted")
			return nil
		case <-tick.C:
			if !o.once || !srv.SessionDone() {
				continue
			}
			srv.Close()
			eng := srv.Engine()
			fmt.Println(eng.Summary())
			if rr := eng.Result(); rr != nil {
				report(os.Stdout, rr, o.quiet)
				if o.csvPath != "" {
					if werr := writeCSV(o.csvPath, rr); werr != nil {
						return werr
					}
				}
			}
			return eng.RunErr()
		}
	}
}

func runListenHTTP(addr string, tc transport.Config, o options) error {
	h := transport.NewHTTPFrontend(tc)
	hs := &http.Server{Addr: addr, Handler: h}
	fmt.Fprintf(os.Stderr, "soclserved: listening on http:%s\n", addr)
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	defer signal.Stop(sig)
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case err := <-errCh:
			return err
		case <-sig:
			hs.Close()
			fmt.Fprintln(os.Stderr, "soclserved: interrupted")
			return nil
		case <-tick.C:
			if !o.once || !h.SessionDone() {
				continue
			}
			hs.Close()
			eng := h.Engine()
			fmt.Println(eng.Summary())
			if rr := eng.Result(); rr != nil {
				report(os.Stdout, rr, o.quiet)
			}
			return eng.RunErr()
		}
	}
}

// runSendload plays -script at a listening daemon: the client side of the
// framed protocol, with optional chaos impairment of its own sends.
func runSendload(o options) error {
	if o.script == "" {
		return fmt.Errorf("-send needs -script (the event stream to play)")
	}
	network, addr, isHTTP, err := parseListenSpec(o.send)
	if err != nil {
		return err
	}
	if isHTTP {
		return fmt.Errorf("-send speaks the socket protocol; point it at a unix: or tcp: listener")
	}
	f, err := os.Open(o.script)
	if err != nil {
		return err
	}
	s, err := serve.ParseScript(f)
	f.Close()
	if err != nil {
		return err
	}
	cli, err := transport.Dial(network, addr, transport.ClientConfig{
		Reliable:      !o.unreliable,
		Seed:          o.seed,
		DefaultBudget: o.budget,
		Chaos:         chaosConfig(o),
	})
	if err != nil {
		return err
	}
	defer cli.Close()
	rep, err := cli.Run(s)
	if rep != nil {
		fmt.Printf("sent=%d accepted=%d shed=%d dup_acks=%d retransmits=%d\n",
			countEvents(s), rep.Accepted, rep.Shed, rep.Dup, rep.Retransmits)
		if rep.Link.Sent > 0 {
			fmt.Printf("chaos: dropped=%d duplicated=%d delayed=%d of %d sends\n",
				rep.Link.Dropped, rep.Link.Duplicated, rep.Link.Delayed, rep.Link.Sent)
		}
		for _, e := range rep.Errors {
			fmt.Printf("server error: %s\n", e)
		}
		if rep.Summary != "" {
			fmt.Printf("server: %s\n", rep.Summary)
		}
	}
	return err
}

func countEvents(s *serve.Script) int { return len(s.Events) }

// selfTestTransport is the transport CI smoke. Leg 1: a reliable ordered
// session over a real unix socket with aggressive wire chaos must deliver a
// recorded stream byte-identical to the sent script, zero sheds, and a
// replay result bitwise equal to the batch simulator — chaos fully masked.
// Leg 2: an open-loop unordered session against the hardened frontend
// (deadlines, bounded queue, capacity, breaker) must complete without a
// daemon error and report its sheds.
func selfTestTransport(o options) error {
	cfg := scenario(o)
	res, err := sim.Run(cfg, sim.NewSoCLOnline(core.DefaultConfig()))
	if err != nil {
		return fmt.Errorf("transport selftest: batch run: %w", err)
	}
	s, err := stream(o, cfg)
	if err != nil {
		return fmt.Errorf("transport selftest: record: %w", err)
	}

	// Leg 1: reliable + ordered + chaos == bitwise replay.
	dir, err := os.MkdirTemp("", "soclserved-transport-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sock := dir + "/daemon.sock"
	srv, err := transport.Listen("unix", sock, transport.Config{
		Factory: func(serve.Meta) (serve.Config, error) {
			return sim.ReplayConfig(cfg, sim.NewSoCLOnline(core.DefaultConfig())), nil
		},
		Ordered: true,
	})
	if err != nil {
		return err
	}
	go srv.Serve()
	cli, err := transport.Dial("unix", sock, transport.ClientConfig{
		Reliable: true,
		Seed:     o.seed,
		Chaos: &chaos.LinkConfig{
			Seed:  stats.SplitSeed(o.seed, "transport/chaos"),
			Drop:  0.15,
			Dup:   0.10,
			Delay: 0.10,
		},
	})
	if err != nil {
		srv.Close()
		return err
	}
	rep, err := cli.Run(s)
	cli.Close()
	srv.Close()
	if err != nil {
		return fmt.Errorf("transport selftest: reliable session: %w", err)
	}
	eng := srv.Engine()
	if !eng.Finished() || eng.RunErr() != nil {
		return fmt.Errorf("transport selftest: session did not finish cleanly: %v", eng.RunErr())
	}
	if st := eng.Stats(); st.Admitted != len(s.Events) || st.Shed() != 0 {
		return fmt.Errorf("transport selftest: reliable session admitted %d/%d events, shed %d",
			st.Admitted, len(s.Events), st.Shed())
	}
	if err := sameScript(s, eng.Recorded()); err != nil {
		return fmt.Errorf("transport selftest: recorded stream diverged: %w", err)
	}
	if err := res.Diff(eng.Result()); err != nil {
		return fmt.Errorf("transport selftest: wire replay diverged from sim.Run: %w", err)
	}

	// Leg 2: open-loop against the hardened frontend survives the chaos.
	o2 := o
	o2.unordered = true
	o2.deadline = 1
	o2.queue = 64
	o2.capacity = 16
	o2.breakerOn = true
	srv2, err := transport.Listen("tcp", "127.0.0.1:0", transportConfig(o2))
	if err != nil {
		return err
	}
	go srv2.Serve()
	cli2, err := transport.Dial("tcp", srv2.Addr().String(), transport.ClientConfig{
		Reliable: false,
		Seed:     o.seed + 1,
		Chaos: &chaos.LinkConfig{
			Seed:  stats.SplitSeed(o.seed+1, "transport/chaos"),
			Drop:  0.30,
			Dup:   0.10,
			Delay: 0.15,
		},
	})
	if err != nil {
		srv2.Close()
		return err
	}
	rep2, err := cli2.Run(s)
	cli2.Close()
	srv2.Close()
	if err != nil {
		return fmt.Errorf("transport selftest: open-loop session: %w", err)
	}
	eng2 := srv2.Engine()
	if !eng2.Finished() || eng2.RunErr() != nil {
		return fmt.Errorf("transport selftest: open-loop session did not finish cleanly: %v", eng2.RunErr())
	}
	fmt.Printf("transport selftest ok: reliable leg masked chaos (retransmits=%d, %d events bitwise), open-loop leg %s\n",
		rep.Retransmits, len(s.Events), eng2.Summary())
	_ = rep2
	return nil
}

// sameScript compares two scripts by their canonical serialization.
func sameScript(a, b *serve.Script) error {
	fa, err := transport.BuildSession(a, 0)
	if err != nil {
		return err
	}
	fb, err := transport.BuildSession(b, 0)
	if err != nil {
		return err
	}
	if len(fa) != len(fb) {
		return fmt.Errorf("frame counts differ: %d vs %d", len(fa), len(fb))
	}
	for i := range fa {
		if fa[i].Type != fb[i].Type || string(fa[i].Body) != string(fb[i].Body) {
			return fmt.Errorf("frame %d differs", i)
		}
	}
	return nil
}
