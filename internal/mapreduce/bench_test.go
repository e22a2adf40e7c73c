package mapreduce_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"seqmine/internal/mapreduce"
)

func benchLines(n int) []string {
	rng := rand.New(rand.NewSource(5))
	words := make([]string, 200)
	for i := range words {
		words[i] = fmt.Sprintf("w%d", i)
	}
	lines := make([]string, n)
	for i := range lines {
		k := rng.Intn(15) + 5
		parts := make([]string, k)
		for j := range parts {
			parts[j] = words[rng.Intn(len(words))]
		}
		lines[i] = strings.Join(parts, " ")
	}
	return lines
}

// BenchmarkWordCount measures the raw engine overhead with a classic word
// count at different worker counts.
func BenchmarkWordCount(b *testing.B) {
	lines := benchLines(2000)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			cfg := mapreduce.Config{Workers: workers}
			for i := 0; i < b.N; i++ {
				if _, _, err := mapreduce.Run(lines, cfg, wordCountJob(), nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCombine measures the effect of the combiner on a skewed word
// distribution: most occurrences come from a handful of hot words while the
// tail stays wide, so map-side combining collapses the hot keys' emissions to
// one record per (worker, key) and the with-combiner variant moves a fraction
// of the records through the shuffle and the reduce-side grouping. The old
// workload (three words, uniformly repeated) made both variants degenerate to
// three shuffle groups, measuring the combiner's overhead instead of its win.
func BenchmarkCombine(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	hot := []string{"the", "of", "and", "to", "in", "for", "is", "on"}
	lines := make([]string, 2000)
	for i := range lines {
		parts := make([]string, 20)
		for j := range parts {
			if rng.Intn(100) < 85 {
				parts[j] = hot[rng.Intn(len(hot))]
			} else {
				parts[j] = fmt.Sprintf("tail%d", rng.Intn(5000))
			}
		}
		lines[i] = strings.Join(parts, " ")
	}
	cfg := mapreduce.Config{Workers: 2}
	b.Run("with-combiner", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := mapreduce.Run(lines, cfg, wordCountJob(), nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("without-combiner", func(b *testing.B) {
		b.ReportAllocs()
		job := wordCountJob()
		job.Combine = nil
		for i := 0; i < b.N; i++ {
			if _, _, err := mapreduce.Run(lines, cfg, job, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}
