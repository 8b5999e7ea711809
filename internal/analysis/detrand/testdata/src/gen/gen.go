// Package trace (fixture) exercises a workload generator under the
// determinism contract: the base time/rand checks apply, the solver-only
// map-iteration rule does not.
package trace

import (
	"math/rand"
	"time"
)

func arrival(r *rand.Rand, rate float64) float64 {
	return r.ExpFloat64() / rate // ok: method on an injected generator
}

func arrivalGlobal(rate float64) float64 {
	return rand.ExpFloat64() / rate // want "global math/rand.ExpFloat64 in deterministic package trace"
}

func stamp() int64 {
	return time.Now().Unix() // want "time.Now in deterministic package trace"
}

func total(rates map[int]float64) float64 {
	s := 0.0
	for _, v := range rates { // ok: map iteration is flagged only in the solver packages
		s += v
	}
	return s
}
