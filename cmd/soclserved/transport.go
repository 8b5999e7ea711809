package main

// The transport modes: -listen serves the daemon behind the framed socket
// (or loopback-HTTP) frontend, and -send plays a script at a listening
// daemon as a load client.

import (
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/model"
	"repro/internal/serve"
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
			return finishSession(srv.Engine(), o)
		}
	}
}

// finishSession prints a finished session's summary and per-epoch report,
// writes -csv, and returns the session's error.
func finishSession(eng *transport.Engine, o options) error {
	fmt.Println(eng.Summary())
	if rr := eng.Result(); rr != nil {
		report(os.Stdout, rr, o.quiet)
		if o.csvPath != "" {
			if err := writeCSV(o.csvPath, rr); err != nil {
				return err
			}
		}
	}
	return eng.RunErr()
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
			return finishSession(h.Engine(), o)
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
			len(s.Events), rep.Accepted, rep.Shed, rep.Dup, rep.Retransmits)
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
