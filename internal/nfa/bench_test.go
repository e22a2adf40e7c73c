package nfa_test

import (
	"math/rand"
	"sort"
	"testing"

	"seqmine/internal/dict"
	"seqmine/internal/nfa"
)

// benchPaths generates deterministic run paths resembling the ones D-CAND
// builds for selective constraints.
func benchPaths(numPaths int) [][][]dict.ItemID {
	rng := rand.New(rand.NewSource(3))
	paths := make([][][]dict.ItemID, numPaths)
	for i := range paths {
		length := rng.Intn(4) + 2
		path := make([][]dict.ItemID, length)
		for j := range path {
			size := rng.Intn(2) + 1
			set := map[dict.ItemID]bool{}
			for len(set) < size {
				set[dict.ItemID(rng.Intn(12)+1)] = true
			}
			var label []dict.ItemID
			for w := range set {
				label = append(label, w)
			}
			sort.Slice(label, func(a, b int) bool { return label[a] < label[b] })
			path[j] = label
		}
		paths[i] = path
	}
	return paths
}

func buildBenchNFA(numPaths int) *nfa.NFA {
	b := nfa.NewBuilder()
	for _, p := range benchPaths(numPaths) {
		b.AddPath(p)
	}
	return b.Minimize()
}

// The builder benchmarks reuse one Builder through Reset, as D-CAND's map
// phase does: they measure the warm kernels, not the first-use allocations.
func BenchmarkBuilderAddPath(b *testing.B) {
	paths := benchPaths(64)
	builder := nfa.NewBuilder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		builder.Reset()
		for _, p := range paths {
			builder.AddPath(p)
		}
	}
}

func BenchmarkMinimize(b *testing.B) {
	paths := benchPaths(64)
	builder := nfa.NewBuilder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		builder.Reset()
		for _, p := range paths {
			builder.AddPath(p)
		}
		builder.Minimize()
	}
}

func BenchmarkSerialize(b *testing.B) {
	n := buildBenchNFA(64)
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = n.AppendSerialized(buf[:0])
	}
}

func BenchmarkDeserialize(b *testing.B) {
	data := buildBenchNFA(64).Serialize()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nfa.Deserialize(data); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCodecAllocations pins the codec on the fixture of BenchmarkSerialize and
// BenchmarkDeserialize: serializing into a reused buffer allocates nothing,
// and decoding allocates the NFA and its fixed set of flat arrays, however
// many states and edges it has (the decoding forest is pooled).
func TestCodecAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is lossy under the race detector")
	}
	n := buildBenchNFA(64)
	buf := n.Serialize()
	if allocs := testing.AllocsPerRun(50, func() { buf = n.AppendSerialized(buf[:0]) }); allocs != 0 {
		t.Errorf("AppendSerialized allocates %.0f times per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := nfa.Deserialize(buf); err != nil {
			t.Fatal(err)
		}
	}); allocs > 8 {
		t.Errorf("Deserialize allocates %.0f times per call, want <= 8", allocs)
	}
}

func BenchmarkMinePartition(b *testing.B) {
	var weighted []nfa.Weighted
	for i := 0; i < 32; i++ {
		weighted = append(weighted, nfa.Weighted{N: buildBenchNFA(16), Weight: int64(i%5 + 1)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nfa.MinePartition(weighted, 3, dict.None)
	}
}
