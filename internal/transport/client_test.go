package transport

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/stats"
)

func backoffClient(seed int64) *Client {
	cfg := ClientConfig{Seed: seed}
	return &Client{
		cfg: cfg,
		rng: rand.New(rand.NewSource(stats.SplitSeed(seed, "transport/retry"))),
	}
}

// TestBackoffDeterministic pins the retry schedule to the seed: two clients
// with the same seed draw identical jittered delays, and a different seed
// diverges.
func TestBackoffDeterministic(t *testing.T) {
	a, b, c := backoffClient(4), backoffClient(4), backoffClient(5)
	same, diff := true, false
	for round := 0; round < 10; round++ {
		da, db, dc := a.backoff(round), b.backoff(round), c.backoff(round)
		if da != db {
			same = false
		}
		if da != dc {
			diff = true
		}
	}
	if !same {
		t.Fatal("same seed produced different backoff sequences")
	}
	if !diff {
		t.Fatal("different seeds produced identical backoff sequences")
	}
}

func TestBackoffCappedExponential(t *testing.T) {
	cl := backoffClient(1)
	base, cap := DefaultRetryBase, DefaultRetryCap
	prevMax := time.Duration(0)
	for round := 0; round < 20; round++ {
		d := cl.backoff(round)
		// Jitter scales by [0.5, 1.0): the delay stays within half the
		// nominal step and the cap.
		nominal := base << uint(round)
		if nominal > cap || nominal <= 0 {
			nominal = cap
		}
		if d < nominal/2 || d >= nominal {
			t.Fatalf("round %d: delay %v outside [%v, %v)", round, d, nominal/2, nominal)
		}
		if d > cap {
			t.Fatalf("round %d: delay %v exceeds cap %v", round, d, cap)
		}
		if nominal == cap && prevMax == cap {
			// Saturated: nothing more to check beyond the cap bound.
			break
		}
		prevMax = nominal
	}
}
