package topology

import "testing"

var benchGraph *Graph

// BenchmarkRandomGeometric builds and finalizes a 30-node substrate: the
// all-pairs path, hop and speed tables dominate.
func BenchmarkRandomGeometric(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchGraph = RandomGeometric(30, 0.3, DefaultGenConfig(), int64(i))
	}
}
